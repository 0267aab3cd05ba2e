"""Record fusion (survivorship) and key-collision clustering — the
post-matching half of entity resolution: once records are linked, a
single canonical ("golden") record must be materialized per entity, and
near-identical attribute spellings must be grouped for normalization.

Reference analog: the reference stops at per-DOI match statistics
(`get_stats.py:311-321` aggregates but never fuses); survivorship and
fingerprint clustering are the standard next steps in an ER pipeline
(public art: OpenRefine's fingerprint key collision method; survivorship
rules in any MDM system). Both operators here are built Ray-Data-first.

Scale shape shared by both:
- ONE keyed shuffle of per-batch COMBINED partials (never raw rows):
  fuse_records melts each rule column into (key, col, encoded value,
  partial count) rows reduced per batch first, so the exchange carries
  O(distinct (key, col, value)) for mode columns and O(keys x cols) for
  order-based rules; fingerprint_clusters ships (fingerprint, value,
  partial count).
- The reduce runs per coarse bucket (bucketed_map_groups — O(buckets)
  Python calls), vectorized pandas inside; all rows of a key co-locate,
  so the final per-key pivot needs no second shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .relational import _dtype_map, bucketed_map_groups

_COUNT_SENTINEL = "__count__"


def _encode(series: pd.Series, dtype) -> pd.Series:
    """Dtype-aware string transport encoding (mixed-type object columns
    do not survive pandas->Arrow block conversion, so every melted
    value rides the shuffle as a string and is decoded in the reduce).
    Datetimes go as int64 epoch ticks (lexicographic-safe is not needed
    — decode happens before any comparison); floats as shortest-repr
    (exact round trip); ints as decimal."""
    if pd.api.types.is_datetime64_any_dtype(dtype):
        return series.astype("int64").astype(str)
    return series.astype(str)


def _decode(series: pd.Series, dtype):
    if pd.api.types.is_datetime64_any_dtype(dtype):
        unit = np.datetime_data(np.dtype(dtype))[0]
        return series.astype("int64").astype(f"datetime64[{unit}]")
    if pd.api.types.is_integer_dtype(dtype):
        return series.astype("int64")
    if pd.api.types.is_float_dtype(dtype):
        return series.astype("float64")
    return series


def fuse_records(ds, key: str, rules: dict,
                 count_col: str = "n_records"):
    """Survivorship: one canonical row per ``key`` from per-column
    rules. ``rules`` maps column -> rule:

    - ``"mode"``: most frequent non-null value; ties -> smallest value
      in the column's NATIVE order (decoded before the argmax).
    - ``"min"`` / ``"max"``: native-order extreme of non-null values.
    - ``"longest"``: longest string; ties -> lexicographically smallest.

    Nulls never survive unless a key has ONLY nulls for a column (then
    the fused value is null). Output: one row per key with the fused
    columns plus ``count_col`` = total input rows for the key.

    All rules are combiner-friendly: min/max/longest partials are the
    rule applied per batch (associative + idempotent); mode partials
    are per-batch value counts summed in the reduce — so the single
    keyed exchange moves aggregates, not rows."""
    rules = dict(rules)
    bad = {c: r for c, r in rules.items()
           if r not in ("mode", "min", "max", "longest")}
    if bad:
        raise ValueError(f"unknown fusion rules: {bad}")
    dtypes = _dtype_map(ds)
    key_dtype = dtypes.get(key, object)

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        counts = b.groupby(key, sort=False).size().reset_index(name="__cnt")
        counts["__col"] = _COUNT_SENTINEL
        counts["__val"] = ""
        frames.append(counts[[key, "__col", "__val", "__cnt"]])
        for col, rule in rules.items():
            nn = b[[key, col]].dropna(subset=[col])
            if nn.empty:
                continue
            if rule == "mode":
                p = (nn.groupby([key, col], sort=False).size()
                     .reset_index(name="__cnt"))
                p["__val"] = _encode(p[col], dtypes.get(col, object))
            elif rule in ("min", "max"):
                agg = nn.groupby(key, sort=False)[col].agg(rule)
                p = agg.reset_index()
                p["__val"] = _encode(p[col], dtypes.get(col, object))
                p["__cnt"] = np.int64(0)
            else:  # longest
                s = nn[col].astype(str)
                order = nn.assign(__len=s.str.len(), __s=s).sort_values(
                    ["__len", "__s"], ascending=[False, True],
                    kind="mergesort")
                p = order.groupby(key, sort=False).head(1).copy()
                p["__val"] = p["__s"]
                p["__cnt"] = np.int64(0)
            p["__col"] = col
            frames.append(p[[key, "__col", "__val", "__cnt"]])
        out = pd.concat(frames, ignore_index=True)
        out["__cnt"] = out["__cnt"].astype("int64")
        return out

    out_cols = [key] + list(rules) + [count_col]

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        picks = {}
        cnt = g[g["__col"] == _COUNT_SENTINEL]
        totals = cnt.groupby(key, sort=False)["__cnt"].sum()
        for col, rule in rules.items():
            sl = g[g["__col"] == col]
            if sl.empty:
                picks[col] = pd.Series(dtype=object)
                continue
            dec = sl.assign(__d=_decode(sl["__val"], dtypes.get(col, object)))
            if rule == "mode":
                summed = (dec.groupby([key, "__d"], sort=False)["__cnt"]
                          .sum().reset_index())
                best = summed.sort_values(
                    [key, "__cnt", "__d"], ascending=[True, False, True],
                    kind="mergesort").groupby(key, sort=False).head(1)
                picks[col] = best.set_index(key)["__d"]
            elif rule in ("min", "max"):
                picks[col] = dec.groupby(key, sort=False)["__d"].agg(rule)
            else:  # longest over partial survivors
                order = dec.assign(__len=dec["__d"].str.len()).sort_values(
                    [key, "__len", "__d"], ascending=[True, False, True],
                    kind="mergesort")
                picks[col] = (order.groupby(key, sort=False).head(1)
                              .set_index(key)["__d"])
        out = pd.DataFrame(index=totals.index)
        for col in rules:
            out[col] = picks[col]
        out[count_col] = totals.astype("int64")
        return out.reset_index()[out_cols]

    fused = bucketed_map_groups(
        ds.map_batches(_partial, batch_format="pandas"), key, _reduce)

    def _fields():
        def f(dt):
            # object / unmappable dtypes -> string (the typed-empty
            # schema only matters for the all-empty input case)
            try:
                return pa.from_numpy_dtype(np.dtype(dt))
            except (TypeError, pa.ArrowNotImplementedError):
                return pa.string()
        cols = [(key, f(key_dtype))]
        cols += [(c, f(dtypes.get(c, object))) for c in rules]
        cols.append((count_col, pa.int64()))
        return cols

    from .dedup import _typed_or_empty

    return _typed_or_empty(fused, _fields())


def fingerprint_clusters(ds, col: str, min_distinct: int = 2,
                         members_sep: str = "|"):
    """Key-collision clustering of attribute spellings (OpenRefine's
    public "fingerprint" method): the fingerprint of a value is its
    distinct lowercased ASCII-alnum tokens, sorted and space-joined, so
    case, whitespace, punctuation and token-order variants collide.
    Emits one row per fingerprint with >= ``min_distinct`` distinct raw
    spellings: (fingerprint, n_values rows, n_distinct spellings,
    members = sorted distinct spellings joined by ``members_sep``).

    Combiner: per-batch (fingerprint, value) counts; ONE keyed shuffle
    of those partials; per-bucket vectorized consolidation."""
    from .text import _TFIDF_TOKEN_RE

    def _fp(v: str) -> str:
        return " ".join(sorted({w.lower()
                                for w in _TFIDF_TOKEN_RE.findall(v or "")}))

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        nn = b[[col]].dropna()
        p = nn.groupby(col, sort=False).size().reset_index(name="__cnt")
        out = pd.DataFrame({"fingerprint": p[col].map(_fp),
                            "value": p[col].astype(str),
                            "__cnt": p["__cnt"].astype("int64")})
        return out[out["fingerprint"] != ""]

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        summed = (g.groupby(["fingerprint", "value"], sort=False)["__cnt"]
                  .sum().reset_index())
        summed = summed.sort_values(["fingerprint", "value"], kind="mergesort")
        agg = summed.groupby("fingerprint", sort=False).agg(
            n_values=("__cnt", "sum"), n_distinct=("value", "size"),
            members=("value", lambda v: members_sep.join(v)))
        agg = agg[agg["n_distinct"] >= min_distinct].reset_index()
        agg["n_values"] = agg["n_values"].astype("int64")
        agg["n_distinct"] = agg["n_distinct"].astype("int64")
        return agg

    out = bucketed_map_groups(
        ds.map_batches(_partial, batch_format="pandas"), "fingerprint",
        _reduce)
    from .dedup import _typed_or_empty

    return _typed_or_empty(out, [("fingerprint", pa.string()),
                                 ("n_values", pa.int64()),
                                 ("n_distinct", pa.int64()),
                                 ("members", pa.string())])


def cdc_apply(changelog_ds, key_col: str, ts_col: str, seq_col: str,
              op_col: str, value_cols):
    """Change-data-capture merge (the lakehouse MERGE INTO /
    upsert-with-deletes semantic, public: Delta/Hudi/Iceberg CDC): the
    changelog is a stream of (key, ts, seq, op, values) rows where op
    is 'upsert' or 'delete'; the materialized table state is, per key,
    the values of the LATEST change (ordered by ts with seq as the
    deterministic tie-break) — unless that latest change is a delete,
    in which case the key is absent.

    Scale shape: a per-batch keep-latest combiner first (each batch
    forwards at most one row per key, so the keyed shuffle moves
    O(keys x batches) rows, not the raw changelog), then ONE coarse
    bucketed reduce does the same argmax per key. Same discipline as
    dedup.canonical_keep_latest. Output: (key, ts, seq, *value_cols),
    live rows only."""
    from .relational import bucketed_map_groups

    value_cols = list(value_cols)
    cols = [key_col, ts_col, seq_col, op_col] + value_cols

    def _latest(b: pd.DataFrame) -> pd.DataFrame:
        b = b[cols].dropna(subset=[key_col])
        if b.empty:
            return b
        b = b.sort_values([key_col, ts_col, seq_col], kind="mergesort")
        return b.groupby(key_col, sort=False, as_index=False).tail(1)

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = _latest(g)
        live = g[g[op_col] != "delete"]
        return live[[key_col, ts_col, seq_col] + value_cols]

    return bucketed_map_groups(
        changelog_ds.map_batches(_latest, batch_format="pandas"),
        key_col, _reduce)
