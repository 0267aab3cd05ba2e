"""Generic relational operators on ray.data.Dataset.

Join strategy mirrors the reference's split (SURVEY.md §2.4): the only
joins it has are a broadcast semi-join against a small side
(`main.rs:216-260`) and a keyed enrichment lookup
(`check...openalex.py:128-170`) — both map to :func:`broadcast_join`
(small side shipped once via ``ray.put``, merged per batch, no
shuffle). :func:`bucket_join` is the big-big path: both sides hashed
into B buckets on the key, co-grouped with one shuffle, merged
per-bucket with pandas (an explicit partitioned hash join; salt count
B is the documented partitioning assumption).

Every keyed shuffle is ONE groupby over hash buckets
(:func:`_shuffle_buckets`): :func:`bucketed_map_groups` is its
one-sided entry, :func:`cogroup` the two-sided one behind
:func:`bucket_join`, :func:`asof_join`, :func:`range_join` and
:func:`set_op`.

Aggregation helpers pre-aggregate inside ``map_batches`` before the
keyed shuffle (combiner pattern) so the all-to-all exchange moves one
row per (key, batch), not one per input row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.pairs import group_pairs, pairs_before, ranked_codes


def broadcast_join(big_ds, small_df: pd.DataFrame, on, how: str = "inner",
                   suffix: str = "_r"):
    """Join a big Dataset against a small pandas side table without a
    shuffle. how in {'inner','left','semi','anti'}."""
    import ray

    on = [on] if isinstance(on, str) else list(on)
    small_ref = ray.put(small_df)

    def _merge(batch: pd.DataFrame) -> pd.DataFrame:
        small = ray.get(small_ref)
        if how in ("semi", "anti"):
            keys = small[on].drop_duplicates()
            marked = batch.merge(keys, on=on, how="left", indicator=True)
            mask = marked["_merge"] == "both" if how == "semi" else marked["_merge"] == "left_only"
            return marked.loc[mask, list(batch.columns)]
        return batch.merge(small, on=on, how=how, suffixes=("", suffix))

    return big_ds.map_batches(_merge, batch_format="pandas")


def bloom_semi_join(big_ds, keys_ds, on: str, small_on: str | None = None,
                    m_bits: int = 1 << 20, k_hashes: int = 4,
                    verify: str = "broadcast", num_buckets: int = 64):
    """Semi-join ``big ⋉ keys`` where the PRE-SHUFFLE prune ships only a
    Bloom BITSET of the key side (m_bits/8 bytes via ``ray.put``, e.g.
    180 MiB for 10^9 keys at 10 bits/key — vs gigabytes for the exact
    set a plain broadcast semi-join would need). Double hashing
    (Kirsch-Mitzenmacher 2006: position_i = h1 + i*h2 mod m) over
    pandas' stable row hash; no false negatives by construction, so
    correctness comes from the verify stage and the bloom only decides
    how much data survives to it.

    verify='broadcast': exact key set shipped once, per-batch isin on
    the bloom survivors (right when the key side fits in worker heap).
    verify='join': bucketed big-big semi join of the SURVIVORS against
    keys_ds — the 100-TB path: the bloom cuts the shuffle to matching
    + false-positive rows (~eps of the non-matching mass) before the
    all-to-all. verify='none': bloom-only superset (eps false-positive
    rate), for cascading prunes."""
    import numpy as np
    import ray
    from pandas.util import hash_pandas_object

    small_on = small_on or on

    def _h12(s: pd.Series):
        vals = s if (s.dtype == object or pd.api.types.is_string_dtype(s)) \
            else s.astype("string")
        h1 = hash_pandas_object(vals, index=False,
                                hash_key="bloomhash1bloomh").to_numpy()
        h2 = hash_pandas_object(vals, index=False,
                                hash_key="bloomhash2bloomh").to_numpy()
        return h1, (h2 | 1)  # odd h2: full-period stride

    # key side -> distinct keys on the driver (the key SIDE is the small
    # side by contract; only the bitset is broadcast to workers)
    keys = (keys_ds.map_batches(lambda b: b[[small_on]].drop_duplicates(),
                                batch_format="pandas")
            .to_pandas().drop_duplicates())
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if not keys.empty:
        h1, h2 = _h12(keys[small_on])
        for i in range(k_hashes):
            pos = (h1 + i * h2) % m_bits
            np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    bits_ref = ray.put(bits)
    exact_ref = ray.put(keys[small_on].to_numpy()) if verify == "broadcast" else None

    def _prune(batch: pd.DataFrame) -> pd.DataFrame:
        if batch.empty:
            return batch
        b = ray.get(bits_ref)
        h1, h2 = _h12(batch[on])
        mask = np.ones(len(batch), dtype=bool)
        for i in range(k_hashes):
            pos = (h1 + i * h2) % m_bits
            mask &= (b[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
        out = batch.loc[mask]
        if verify == "broadcast" and not out.empty:
            out = out.loc[np.isin(out[on].to_numpy(), ray.get(exact_ref))]
        return out

    pruned = big_ds.map_batches(_prune, batch_format="pandas")
    if verify != "join":
        return pruned
    # GLOBAL distinct of the key side: per-batch dedup alone would leave
    # cross-batch duplicates and the inner join would multiply big rows
    marker = distinct(keys_ds, small_on, num_buckets=num_buckets).map_batches(
        lambda b: b.rename(columns={small_on: on}).assign(__hit=np.int8(1)),
        batch_format="pandas")
    joined = bucket_join(pruned, marker, on=on, num_buckets=num_buckets)
    cols = list(big_ds.schema().names)
    return joined.map_batches(lambda b: b[cols], batch_format="pandas")


def _bucket_of(frame: pd.DataFrame, key_cols, num_buckets: int) -> pd.Series:
    """Stable bucket assignment for key columns. Keys are normalized to
    string dtype BEFORE hashing so that e.g. int64 and float64 blocks of
    the same logical key (a NaN-pad promotion artifact) land in the same
    bucket — but columns that are already strings (the common case: ids,
    block keys, hashes) hash as-is, skipping a full-column copy.

    All-plain-integer keys take a vectorized SplitMix64 path instead:
    the string normalization above materialized an int->str copy of
    every key column on EVERY shuffle tag (pair dedups, candidate
    distincts, CC rounds are all int-keyed), which measured as a large
    slice of tag cost on the dedup family. NaN-pad promotion cannot
    produce a plain numpy int column (promotion yields float), so the
    cross-dtype-collision concern the string path exists for does not
    arise here."""
    from pandas.util import hash_pandas_object

    if all(isinstance(frame[c].dtype, np.dtype)
           and np.issubdtype(frame[c].dtype, np.integer) for c in key_cols):
        from ..functions.minhash import _splitmix64

        acc = np.zeros(len(frame), dtype=np.uint64)
        for c in key_cols:
            acc = _splitmix64(
                acc ^ frame[c].to_numpy().astype(np.uint64, copy=False))
        return pd.Series((acc % np.uint64(num_buckets)).astype("int64"),
                         index=frame.index)

    cast = {c: "string" for c in key_cols
            if not (frame[c].dtype == object
                    or pd.api.types.is_string_dtype(frame[c]))}
    keyed = frame[key_cols].astype(cast) if cast else frame[key_cols]
    # each value hashed whole (categorize=False): the default factorizes
    # first, which merges strings that differ only after a NUL, so a
    # key's bucket depended on which such string its block saw first.
    # Every null (None, NaN, NA) is made NA so nulls still share a bucket
    nulls = keyed.isna()
    if nulls.to_numpy().any():
        keyed = keyed.mask(nulls, pd.NA)
    return (hash_pandas_object(keyed, index=False, categorize=False)
            % num_buckets).astype("int64")


def _dtype_map(ds) -> dict:
    """Column -> pandas dtype for a Dataset (arrow or pandas blocks).
    A fully-empty dataset has no schema at all -> {} (callers that can
    hit this short-circuit before joining)."""
    sch = ds.schema()
    if sch is None:
        return {}
    out = {}
    for name, typ in zip(sch.names, sch.types):
        try:
            out[name] = typ.to_pandas_dtype()
        except AttributeError:
            out[name] = typ
    return out


def _typed(dtypes: dict) -> pd.DataFrame:
    """Zero-row frame with exactly these columns and dtypes."""
    return pd.DataFrame({c: pd.Series(dtype=d) for c, d in dtypes.items()})


def _merged_dtypes(ldt: dict, rdt: dict, keys, suffixes) -> dict:
    """Output column -> dtype of a two-sided merge: every left column,
    then every right column not in ``keys``; names both sides carry
    (``keys`` excepted) take ``suffixes``."""
    overlap = (set(ldt) & set(rdt)) - set(keys)
    out = {(c + suffixes[0] if c in overlap else c): d for c, d in ldt.items()}
    out.update({(c + suffixes[1] if c in overlap else c): d
                for c, d in rdt.items() if c not in keys})
    return out


def _shuffle_buckets(tagged, per_bucket, max_in_blocks, ray_remote_args):
    """The one keyed shuffle behind every bucketed operator: ``tagged``
    carries a ``__bucket`` column, and ``per_bucket`` runs once per
    non-empty bucket on all of its rows.

    ``max_in_blocks`` bounds the block count entering the groupby's
    Sort: Ray's sort emits one range partition PER INPUT BLOCK, so an
    iterative caller whose round output feeds the next round's input
    sees block counts COMPOUND round over round (889 -> 1776 -> 2000+
    at sf1), and a union's block count is the SUM of its sides' —
    thousands of sort partitions mean quadratically many tiny
    inter-block exchanges and thousands of near-empty bucket tasks. A
    shuffle=False repartition is a cheap coalesce (split/concat, no key
    exchange) that caps the sort fan-out; bounded-depth callers don't
    need it. ``ray_remote_args`` (e.g. num_cpus from
    context.shuffle_task_cpus) applies to the per-bucket reduce tasks —
    the bandwidth-heavy leg."""
    if max_in_blocks is not None:
        tagged = tagged.repartition(max_in_blocks, shuffle=False)
    return tagged.groupby("__bucket").map_groups(per_bucket, batch_format="pandas",
                                                 **(ray_remote_args or {}))


def cogroup(left_ds, right_ds, on, fn, num_buckets: int,
            max_in_blocks: int | None = None,
            ray_remote_args: dict | None = None):
    """Co-partition two Datasets on ``on`` and call ``fn(left_df,
    right_df)`` once per non-empty bucket. Each side is hashed into
    num_buckets buckets and side-tagged per batch BEFORE the union, so
    no batch ever hashes keys the union NaN-padded; one groupby over
    the buckets follows (:func:`_shuffle_buckets`).

    ``fn`` gets each side in its own columns, cast back to the dtypes
    its Dataset declares (the union NaN-pads every row with the other
    side's columns, promoting ints to float), and a side with no rows
    in the bucket as a TYPED empty frame. ``ray_remote_args`` applies
    to the tagging maps (they copy and row-hash every payload batch)
    and to the per-bucket tasks."""
    on = [on] if isinstance(on, str) else list(on)
    ldt, rdt = _dtype_map(left_ds), _dtype_map(right_ds)
    remote = ray_remote_args or {}

    def _tagger(side):
        def tag(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__bucket"] = _bucket_of(b, on, num_buckets)
            b["__side"] = side
            return b
        return tag

    def _side(g: pd.DataFrame, side: str, dtypes: dict) -> pd.DataFrame:
        rows = g.loc[g["__side"] == side]
        # within its own side an int column is integral, so the cast
        # back from the union's float padding is lossless
        return rows[list(dtypes)].astype(dtypes) if len(rows) else _typed(dtypes)

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return fn(_side(g, "l", ldt), _side(g, "r", rdt))

    both = (left_ds.map_batches(_tagger("l"), batch_format="pandas", **remote)
            .union(right_ds.map_batches(_tagger("r"), batch_format="pandas",
                                        **remote)))
    return _shuffle_buckets(both, _per_bucket, max_in_blocks, ray_remote_args)


def bucket_join(left_ds, right_ds, on, num_buckets: int = 64, how: str = "inner",
                suffixes=("_l", "_r"), ray_remote_args: dict | None = None,
                max_in_blocks: int | None = None):
    """Partitioned hash join for two large Datasets: one shuffle keyed
    on hash(key) % num_buckets (:func:`cogroup`), pandas merge per
    bucket.

    A bucket that cannot produce rows returns a TYPED empty frame: a
    reindex-style NaN fill would upcast int key columns to float in
    empty blocks, and when Ray later concatenates such blocks into a
    batch the promoted float keys hash differently ("1.0" vs "1") and
    silently break any downstream bucket_join on them."""
    on = [on] if isinstance(on, str) else list(on)
    out_dtypes = _merged_dtypes(_dtype_map(left_ds), _dtype_map(right_ds), on,
                                suffixes)

    def _merge_bucket(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if (left.empty or right.empty) and how == "inner":
            return _typed(out_dtypes)
        return left.merge(right, on=on, how=how, suffixes=suffixes)

    return cogroup(left_ds, right_ds, on, _merge_bucket, num_buckets,
                   max_in_blocks=max_in_blocks, ray_remote_args=ray_remote_args)


def asof_join(left_ds, right_ds, by, on, num_buckets: int = 32,
              suffixes=("_l", "_r")):
    """AS-OF (most-recent-match) join — an operator Ray Data lacks:
    each left row is joined to the LATEST right row of the same ``by``
    key with ``right.on <= left.on`` (backward direction, exact matches
    allowed); unmatched left rows keep NULL right columns (ASOF LEFT
    JOIN semantics, matching DuckDB's `ASOF LEFT JOIN ... ON l.k = r.k
    AND l.t >= r.t`).

    Partitioning assumption (documented per the custom-operator rule):
    all rows of a ``by`` key co-locate in one hash bucket — ONE keyed
    shuffle of both sides (:func:`cogroup`), then a vectorized
    ``pandas.merge_asof`` per bucket (sorted by ``on``; C-level, no
    per-key Python). Right-side (by, on) pairs should be unique for
    engine-independent results — with duplicates, which of the tied
    rows wins is engine-defined."""
    by = [by] if isinstance(by, str) else list(by)
    # the right-side event time is consumed by the match; it is dropped
    out_dtypes = _merged_dtypes(_dtype_map(left_ds), _dtype_map(right_ds),
                                by + [on], suffixes)
    out_cols = list(out_dtypes)

    def _merge_bucket(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return _typed(out_dtypes)
        merged = pd.merge_asof(left.sort_values(on, kind="mergesort"),
                               right.sort_values(on, kind="mergesort"),
                               on=on, by=by, direction="backward",
                               suffixes=suffixes)
        return merged[out_cols]

    return cogroup(left_ds, right_ds, by, _merge_bucket, num_buckets)


def range_join(left_ds, right_ds, by, left_on, right_start, right_end,
               num_buckets: int = 32, suffixes=("_l", "_r"), how: str = "left"):
    """INTERVAL (range) join — the second custom join Ray Data lacks:
    each left row matches right rows of the same ``by`` key whose
    ``[right_start, right_end]`` interval contains ``left_on``
    (inclusive both ends).

    Partitioning assumption: all rows of a ``by`` key co-locate in one
    hash bucket (one keyed shuffle of both sides, :func:`cogroup`). Per
    bucket the match is vectorized: with NON-OVERLAPPING right
    intervals per key (the common sessions/validity-windows case —
    asserted nowhere, simply the candidate-selection rule) the
    containing interval is found by a ``merge_asof`` on the interval
    start, then filtered by the interval end; ``how="left"`` keeps
    unmatched left rows with NULL right columns, ``how="inner"`` drops
    them."""
    by = [by] if isinstance(by, str) else list(by)
    ldt, rdt = _dtype_map(left_ds), _dtype_map(right_ds)
    out_dtypes = _merged_dtypes(ldt, rdt, by, suffixes)
    out_cols = list(out_dtypes)
    overlap = (set(ldt) & set(rdt)) - set(by)
    lon = left_on + suffixes[0] if left_on in overlap else left_on
    rstart = right_start + suffixes[1] if right_start in overlap else right_start
    rend = right_end + suffixes[1] if right_end in overlap else right_end

    def _merge_bucket(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        if left.empty:
            return _typed(out_dtypes)
        left = (left.rename(columns={c: c + suffixes[0] for c in overlap})
                .sort_values(lon, kind="mergesort"))
        right = (right.rename(columns={c: c + suffixes[1] for c in overlap})
                 .sort_values(rstart, kind="mergesort"))
        merged = pd.merge_asof(left, right, left_on=lon, right_on=rstart,
                               by=by, direction="backward")
        inside = merged[rend].notna() & (merged[lon] <= merged[rend])
        if how == "inner":
            merged = merged[inside]
        else:
            rmask_cols = [c for c in merged.columns
                          if c not in left.columns]
            merged.loc[~inside, rmask_cols] = pd.NA
        return merged[out_cols]

    return cogroup(left_ds, right_ds, by, _merge_bucket, num_buckets)


def bucketed_map_groups(ds, key_cols, fn, num_buckets: int = 64,
                        max_in_blocks: int | None = None,
                        ray_remote_args: dict | None = None):
    """Keyed shuffle with COARSE partitions: rows are hashed into
    num_buckets buckets on key_cols (stable pandas hashing), the
    groupby runs over buckets (B Python calls total, not one per key),
    and ``fn`` receives each bucket as a DataFrame to process per-key
    with vectorized pandas internally. All rows of a key land in one
    bucket. This is the antidote to per-tiny-group map_groups overhead
    at high key cardinality. ``max_in_blocks`` and ``ray_remote_args``
    are those of :func:`_shuffle_buckets` (an iterative caller such as
    connected_components needs the coalesce)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def _tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bucket"] = _bucket_of(b, key_cols, num_buckets)
        return b

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return fn(g.drop(columns="__bucket"))

    return _shuffle_buckets(ds.map_batches(_tag, batch_format="pandas"),
                            _per_bucket, max_in_blocks, ray_remote_args)


def pre_aggregated(ds, keys, sums=(), counts=True, num_buckets: int = 64):
    """Combiner + reduce: per-batch partial sums/counts per key, then a
    bucketed vectorized sum over the partials (key cardinality is
    unbounded in general — see the per-group cost note on
    :func:`distinct`). Returns columns ``sum_{col}`` for each col in
    sums and ``n`` when counts."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    sums = list(sums)

    def _partial(batch: pa.Table) -> pa.Table:
        # Arrow-native combiner: pa group_by measured 3.3x the pandas
        # groupby-sum on string keys at 1M rows/50k keys (paired A/B,
        # BASELINE.md §c). Null keys are dropped to match pandas
        # groupby semantics; sums cast so the partial schema matches
        # the typed-empty branch exactly (int sums never drift float).
        import pyarrow.compute as pc

        t = batch.select(list(dict.fromkeys(keys + sums)))
        sum_types = {c: (pa.int64() if pa.types.is_integer(t.schema.field(c).type)
                         else pa.float64()) for c in sums}
        if t.num_rows:
            mask = None
            for k in keys:
                v = pc.is_valid(t[k])
                mask = v if mask is None else pc.and_(mask, v)
            t = t.filter(mask)
        if t.num_rows == 0:
            cols = {k: pa.array([], t.schema.field(k).type) for k in keys}
            for c in sums:
                cols[f"sum_{c}"] = pa.array([], sum_types[c])
            if counts:
                cols["n"] = pa.array([], pa.int64())
            return pa.table(cols)
        aggs = [(c, "sum") for c in sums]
        if counts:
            aggs.append(([], "count_all"))
        g = t.group_by(keys).aggregate(aggs)
        cols = {k: g[k] for k in keys}
        for c in sums:
            cols[f"sum_{c}"] = pc.cast(g[f"{c}_sum"], sum_types[c])
        if counts:
            cols["n"] = pc.cast(g["count_all"], pa.int64())
        return pa.table(cols)

    agg_cols = {f"sum_{c}": (f"sum_{c}", "sum") for c in sums}
    if counts:
        agg_cols["n"] = ("n", "sum")

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False, sort=False).agg(**agg_cols)

    partials = ds.map_batches(_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed_map_groups(partials, keys, _reduce, num_buckets=num_buckets)


def rollup_aggregate(ds, keys, sums=(), counts=True, sentinel: str = "ALL",
                     num_buckets: int = 64):
    """GROUP BY ROLLUP(keys...): subtotals at every key prefix plus the
    grand total, ANSI-rollup shaped. The DISTRIBUTED work is one
    :func:`pre_aggregated` pass at the finest grain (combiner + bucketed
    reduce); the coarser levels are then folded on the driver from that
    aggregated grain, which is small by construction (one row per
    distinct key tuple, not per input row) — the same driver-side-small
    contract as group_quantiles' output. Key columns must be strings
    (the rolled-up levels are marked with ``sentinel``)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    sums = list(sums)
    fine = pre_aggregated(ds, keys, sums=sums, counts=counts,
                          num_buckets=num_buckets).to_pandas()
    vals = [f"sum_{c}" for c in sums] + (["n"] if counts else [])
    levels = []
    for i in range(len(keys), -1, -1):
        if i == 0:
            lvl = fine[vals].sum().to_frame().T
        else:
            lvl = fine.groupby(keys[:i], as_index=False, sort=False)[vals].sum()
        for k_ in keys[i:]:
            lvl[k_] = sentinel
        levels.append(lvl[keys + vals])
    out = pd.concat(levels, ignore_index=True)
    for v in vals:
        if pd.api.types.is_integer_dtype(fine[v].dtype):
            out[v] = out[v].astype("int64")
    return out


def topk_per_group(ds, key, sort_col, k: int = 1, descending: bool = True,
                   tie_break=None, num_buckets: int = 64):
    """Per-group top-k (O4 argmax generalization). Deterministic:
    secondary sort on tie_break (pass an explicit column). In-batch
    combiner (local top-k per key) shrinks the shuffle to <= k rows per
    (key, batch); the bucketed reduce is one vectorized sort +
    groupby-head per bucket — no per-key Python call."""
    keys = [key] if isinstance(key, str) else list(key)
    cols = keys + [sort_col] + ([tie_break] if tie_break else [])
    asc = [True] * len(keys) + [not descending] + ([True] if tie_break else [])

    def _local_top(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(cols, ascending=asc, kind="mergesort")
                .groupby(keys, sort=False).head(k))

    combined = ds.map_batches(_local_top, batch_format="pandas")
    return bucketed_map_groups(combined, keys, _local_top, num_buckets=num_buckets)


def group_quantiles(ds, key, value, qs=(0.25, 0.5, 0.9), num_buckets: int = 32):
    """EXACT per-group discrete quantiles (DuckDB ``quantile_disc``
    semantics: sorted ascending, index ``ceil(q*n) - 1`` — verified
    empirically, so the values hash-match a SQL oracle bit-for-bit).

    One keyed shuffle co-locates each group's values; per bucket ONE
    vectorized sort + per-group position arithmetic (no per-key Python
    call). Exact per-group quantiles fundamentally need each group's
    values together — for sketch-sized memory at extreme group sizes
    use an approximate quantile sketch instead (not needed here)."""
    import numpy as np

    keys = [key] if isinstance(key, str) else list(key)
    qs = list(qs)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            cols = {k: g[k] for k in keys}
            for q in qs:
                cols[f"q{int(q * 100)}"] = pd.Series(dtype="float64")
            cols["n"] = pd.Series(dtype="int64")
            return pd.DataFrame(cols)
        s = g.sort_values(keys + [value], kind="mergesort")
        vals = s[value].to_numpy()
        grp = s.groupby(keys, sort=False)
        sizes = grp[value].size()
        # group start offsets in the sorted frame
        offs = np.concatenate([[0], np.cumsum(sizes.to_numpy())[:-1]])
        out = {k: v for k, v in zip(keys, zip(*sizes.index))} if len(keys) > 1 \
            else {keys[0]: sizes.index.to_numpy()}
        for q in qs:
            idx = offs + np.ceil(q * sizes.to_numpy()).astype(np.int64) - 1
            out[f"q{int(q * 100)}"] = vals[idx]
        out["n"] = sizes.to_numpy()
        return pd.DataFrame(out)

    return bucketed_map_groups(ds, keys, per_bucket, num_buckets=num_buckets)


def distinct(ds, cols, num_buckets: int = 64,
             ray_remote_args: dict | None = None,
             max_in_blocks: int | None = None):
    """Exact distinct rows over cols: in-batch combiner, then ONE
    coarse-bucketed shuffle with a vectorized dedup per bucket. (Both a
    per-key map_groups head(1) and a Ray groupby().aggregate() pay
    ~per-distinct-value Python overhead — measured ~0.7 ms/group, i.e.
    minutes at 10^5 keys; the bucketed path is 64 Python calls total at
    any cardinality.) Both dedups are Arrow ``group_by(cols)
    .aggregate([])``: it compares whole strings, where pandas'
    drop_duplicates merges strings that differ only after a NUL, and it
    keeps one row per null key (NaN converts to null)."""
    cols = [cols] if isinstance(cols, str) else list(cols)

    def _dedup(t: pa.Table) -> pa.Table:
        # measured 4.6x pandas drop_duplicates on string keys at 1M
        # rows/50k keys (paired A/B, BASELINE.md §c)
        return t.select(cols).group_by(cols).aggregate([])

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return _dedup(pa.Table.from_pandas(g, preserve_index=False)).to_pandas()

    proj = ds.map_batches(_dedup, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_map_groups(proj, cols, _reduce, num_buckets=num_buckets,
                               ray_remote_args=ray_remote_args,
                               max_in_blocks=max_in_blocks)


def ordered_cumsum(ds, order_col: str, value_col: str, num_ranges: int = 64,
                   out_col: str = "cum_before"):
    """Global EXCLUSIVE prefix sum of ``value_col`` in ``order_col``
    order — the distributed-scan primitive behind sequence packing,
    global offsets assignment, and resumable byte-offset manifests.

    Three-step scan (driver state is O(num_ranges), never O(rows)):

    1. one aggregate pass for [min, max] of ``order_col``; rows are
       range-partitioned into ``num_ranges`` ORDERED contiguous
       intervals (range partitioning, unlike hashing, preserves global
       order across partitions),
    2. per-range sums via the pre-aggregated combiner (``num_ranges``
       rows reach the driver) -> tiny driver exclusive scan -> range
       offsets broadcast with the closure,
    3. one keyed shuffle co-locates each range; per bucket a vectorized
       sort + per-range cumsum + offset.

    ``order_col`` must be integer-typed with unique values (ties would
    make the scan order nondeterministic). Pre-project ``ds`` to the
    columns you need — every surviving column rides the shuffle.
    """
    from ray.data.aggregate import Max, Min

    ds = ds.materialize()
    if ds.count() == 0:
        schema = ds.schema()
        cols = {n: pd.Series(dtype=t.to_pandas_dtype())
                for n, t in zip(schema.names, schema.types)}
        cols[out_col] = pd.Series(dtype="int64")
        return pd.DataFrame(cols)
    res = ds.aggregate(Min(order_col), Max(order_col))
    lo, hi = int(res[f"min({order_col})"]), int(res[f"max({order_col})"])
    span = max(hi - lo + 1, 1)

    def _tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__range"] = ((b[order_col].astype("int64") - lo)
                        * num_ranges // span).astype("int64")
        return b

    tagged = ds.map_batches(_tag, batch_format="pandas").materialize()
    sums = pre_aggregated(tagged.select_columns(["__range", value_col]),
                          "__range", sums=[value_col], counts=False,
                          num_buckets=min(num_ranges, 32)).to_pandas()
    sums = sums.sort_values("__range")
    excl = sums[f"sum_{value_col}"].cumsum().shift(1, fill_value=0)
    offsets = dict(zip(sums["__range"].astype("int64"), excl.astype("int64")))

    def _scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__range", order_col], kind="mergesort").copy()
        local = g.groupby("__range", sort=False)[value_col].cumsum() - g[value_col]
        g[out_col] = (local + g["__range"].map(offsets)).astype("int64")
        return g.drop(columns="__range")

    return bucketed_map_groups(tagged, "__range", _scan,
                               num_buckets=min(num_ranges, 32))


def fixed_histogram(ds, col: str, lo: float, hi: float, nbins: int):
    """Fixed-bin histogram over a numeric column. Per-batch partial is
    ONE ``np.bincount`` (nbins int64s per batch — no shuffle at all);
    the driver sums the tiny O(batches x nbins) partial frames. The bin
    rule ``min(max(floor((v - lo) / width), 0), nbins - 1)`` is
    evaluated in float64 with the identical IEEE expression in the SQL
    oracle, so the counts hash-match bit-for-bit. Returns nbins rows
    (empty bins included, n = 0): ``bin``, ``bin_lo``, ``n``.
    Scale shape: partials are nbins ints per batch regardless of input
    size — the only driver state is nbins rows."""
    import numpy as np

    width = (hi - lo) / nbins
    bins = np.arange(nbins, dtype=np.int64)

    def _part(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col].dropna().to_numpy(dtype="float64")
        idx = np.clip(np.floor((v - lo) / width), 0, nbins - 1).astype(np.int64)
        return pd.DataFrame({"bin": bins,
                             "n": np.bincount(idx, minlength=nbins).astype("int64")})

    parts = ds.map_batches(_part, batch_format="pandas").to_pandas()
    agg = parts.groupby("bin", as_index=False, sort=True)["n"].sum()
    agg = agg.set_index("bin").reindex(bins, fill_value=0).reset_index()
    return pd.DataFrame({"bin": bins, "bin_lo": lo + bins * width,
                         "n": agg["n"].astype("int64")})


def global_quantile_disc(ds, col: str, q: float):
    """EXACT global discrete quantile (DuckDB ``quantile_disc``
    semantics: ascending order statistic at index ``ceil(q*n) - 1``)
    via a value-count reduction: per-batch ``value_counts`` partials
    (<= distinct-values rows per batch), driver combine, then position
    arithmetic on the cumulative counts. Contract: the column's
    distinct-value cardinality must be driver-small (lengths, integer
    scores, bounded grids) — the full corpus never moves, only (value,
    count) partials. Same bounded-grid trick as the exact score median
    in stages/stats.py."""
    import numpy as np

    def _part(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[col].dropna().value_counts()
        return pd.DataFrame({"v": vc.index.to_numpy(),
                             "n": vc.to_numpy().astype("int64")})

    parts = ds.map_batches(_part, batch_format="pandas").to_pandas()
    agg = parts.groupby("v", sort=True)["n"].sum()
    n = int(agg.sum())
    if n == 0:
        return None
    k = int(np.ceil(q * n)) - 1  # 0-based order statistic
    pos = int(np.searchsorted(agg.cumsum().to_numpy(), k + 1))
    return agg.index[pos]


def pivot_aggregate(ds, row_key: str, col_key: str, value: str,
                    col_values, num_buckets: int = 32, fill=0.0):
    """Wide (pivot) aggregate: one output row per ``row_key`` value,
    one ``sum_<v>`` column per entry of ``col_values`` (the pivoted
    column domain must be declared up front — the standard distributed
    pivot contract, since the output schema cannot depend on data).

    Per-batch combiner collapses to <=1 row per (row, col) pair, so the
    ONE coarse-bucketed shuffle moves partial sums only; each bucket
    pivots vectorized. Unknown ``col_key`` values are dropped (they
    would otherwise silently widen the schema); absent combinations
    fill with ``fill``.
    """
    col_values = list(col_values)

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[col_key].isin(col_values)]
        out = b.groupby([row_key, col_key], as_index=False, sort=False).agg(
            __s=(value, "sum"))
        if out.empty:
            return pd.DataFrame({
                row_key: pd.Series(dtype=b[row_key].dtype if row_key in b else object),
                col_key: pd.Series(dtype=object),
                "__s": pd.Series(dtype="float64")})
        return out

    def _pivot(g: pd.DataFrame) -> pd.DataFrame:
        w = g.pivot_table(index=row_key, columns=col_key, values="__s",
                          aggfunc="sum", fill_value=fill)
        w = w.reindex(columns=col_values, fill_value=fill)
        w.columns = [f"sum_{c}" for c in col_values]
        return w.reset_index()

    partials = ds.map_batches(_partial, batch_format="pandas")
    return bucketed_map_groups(partials, row_key, _pivot,
                               num_buckets=num_buckets)


def set_op(left_ds, right_ds, cols, op: str = "except", num_buckets: int = 64):
    """Distributed set EXCEPT / INTERSECT (distinct semantics, like the
    ANSI operators): distinct rows of ``left`` minus / intersected with
    the distinct rows of ``right`` over ``cols``.

    Both sides are deduped per batch (combiner) and co-partitioned in
    ONE shuffle keyed on the row hash (:func:`cogroup`) — each bucket
    then resolves membership vectorized with an isin-style merge, so
    no side is ever broadcast or materialized whole."""
    cols = [cols] if isinstance(cols, str) else list(cols)
    if op not in ("except", "intersect"):
        raise ValueError(f"op must be 'except' or 'intersect', got {op!r}")

    def _distinct(b: pd.DataFrame) -> pd.DataFrame:
        return b[cols].drop_duplicates()

    def _resolve(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        left = left.drop_duplicates()
        mask = pd.MultiIndex.from_frame(left).isin(pd.MultiIndex.from_frame(right))
        return left[~mask if op == "except" else mask]

    return cogroup(left_ds.map_batches(_distinct, batch_format="pandas"),
                   right_ds.map_batches(_distinct, batch_format="pandas"),
                   cols, _resolve, num_buckets)


def correlation_exact(ds, x_col: str, y_col: str, x_scale: int = 100,
                      y_scale: int = 1):
    """Pearson correlation with EXACT integer moment accumulation so
    the float result is bit-identical across engines and summation
    orders: x and y are scaled to integers (x_scale/y_scale must make
    them exact, e.g. 100 for 2-decimal values), per-batch int64 partial
    sums (Sx, Sy, Sxy, Sxx, Syy, n) ride to the driver (6 ints per
    batch, no shuffle), are combined in Python big-ints, and ONE fixed
    float64 expression — replicated verbatim in the SQL oracle —
    produces the estimate. The scale factors cancel algebraically in
    Pearson r, so the integer moments ARE the real moments.

    int64 bound: per-batch sum |x*y| * batch_size must stay under 2^63
    — holds for bounded business values at any batch size used here;
    the driver combine is arbitrary precision."""
    import math

    import numpy as np

    def _part(b: pd.DataFrame) -> pd.DataFrame:
        x = np.rint(b[x_col].to_numpy(dtype="float64") * x_scale).astype("int64")
        y = np.rint(b[y_col].to_numpy(dtype="float64") * y_scale).astype("int64")
        return pd.DataFrame({
            "n": [np.int64(len(x))], "sx": [x.sum()], "sy": [y.sum()],
            "sxy": [(x * y).sum()], "sxx": [(x * x).sum()],
            "syy": [(y * y).sum()]})

    p = ds.map_batches(_part, batch_format="pandas").to_pandas()
    n = int(p["n"].sum())
    sx, sy = int(p["sx"].sum()), int(p["sy"].sum())
    sxy, sxx, syy = int(p["sxy"].sum()), int(p["sxx"].sum()), int(p["syy"].sum())
    num = float(n * sxy - sx * sy)
    den = math.sqrt(float(n * sxx - sx * sx)) * math.sqrt(float(n * syy - sy * sy))
    r = num / den if den else float("nan")
    return pd.DataFrame({"n": pd.array([n], dtype="int64"), "corr": [r]})


def _prefix56(s: str) -> int:
    """First 7 UTF-8 bytes of ``s`` as a big-endian integer (< 2^56).
    Order-preserving coarsening of lexicographic string order: if
    a < b as strings then prefix56(a) <= prefix56(b), and equal
    prefixes always land in the same contiguous range. 7 bytes (not 8)
    so that ``(p - lo) * num_ranges`` stays exact in int64."""
    return int.from_bytes(s.encode("utf-8")[:7].ljust(7, b"\0"), "big")


def global_rank(ds, key_col: str, id_col: str, num_ranges: int = 64,
                num_buckets: int = 32, out_col: str = "rn"):
    """0-based GLOBAL row rank ordered by ``(key_col, id_col)`` — the
    distributed equivalent of SQL ``row_number() OVER (ORDER BY key,
    id) - 1`` for STRING sort keys (``ordered_cumsum`` covers unique
    integer orders). Scale shape mirrors the three-step scan: rows are
    range-partitioned on the order-preserving 7-byte key prefix
    (contiguous intervals — all ties share a range), per-range counts
    reach the driver (O(num_ranges) state), a tiny exclusive scan
    yields range offsets, and ONE keyed shuffle sorts each range
    locally and adds its offset. ``id_col`` must be globally unique so
    the total order (and therefore every rank) is deterministic."""
    from ray.data.aggregate import Max, Min

    ds = ds.materialize()

    def _tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        # nulls rank as "" (and stay "" in the output) so the local
        # sort agrees with the prefix partitioning — pandas would
        # otherwise sort NaN last while the prefix tags it first
        keys = b[key_col].fillna("")
        b[key_col] = keys
        memo = {k: _prefix56(k) for k in pd.unique(keys)}
        b["__p"] = keys.map(memo).astype("int64")
        return b

    tagged = ds.map_batches(_tag, batch_format="pandas").materialize()
    if tagged.count() == 0:
        schema = ds.schema()
        cols = {n: pd.Series(dtype=t.to_pandas_dtype())
                for n, t in zip(schema.names, schema.types)}
        cols[out_col] = pd.Series(dtype="int64")
        return pd.DataFrame(cols)
    res = tagged.aggregate(Min("__p"), Max("__p"))
    lo, hi = int(res["min(__p)"]), int(res["max(__p)"])
    span = max(hi - lo + 1, 1)

    def _range(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__range"] = ((b["__p"] - lo) * num_ranges // span).astype("int64")
        return b.drop(columns="__p")

    ranged = tagged.map_batches(_range, batch_format="pandas").materialize()
    counts = pre_aggregated(ranged.select_columns(["__range"]), "__range",
                            counts=True, num_buckets=min(num_ranges, 32)
                            ).to_pandas().sort_values("__range")
    excl = counts["n"].cumsum().shift(1, fill_value=0)
    offsets = dict(zip(counts["__range"].astype("int64"), excl.astype("int64")))

    def _local(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__range", key_col, id_col], kind="mergesort").copy()
        local = g.groupby("__range", sort=False).cumcount()
        g[out_col] = (local + g["__range"].map(offsets)).astype("int64")
        return g.drop(columns="__range")

    return bucketed_map_groups(ranged, "__range", _local,
                               num_buckets=min(num_ranges, num_buckets))


def sorted_neighborhood_pairs(ds, key_col: str, id_col: str, window: int = 5,
                              num_ranges: int = 64, num_buckets: int = 32):
    """Sorted-neighborhood blocking (classic entity-resolution method:
    sort the corpus by a blocking key and pair every record with its
    ``window - 1`` successors). Equivalent SQL: rank rows by
    ``(key, id)``, self-join on ``0 < rn_b - rn_a <= window - 1``.

    Distributed shape: :func:`global_rank` assigns ranks without any
    AllToAll sort of payload columns, then each row is emitted into its
    rank-stripe ``floor(rn / g)`` and the preceding stripe (g = window
    - 1), so every qualifying pair is generated in EXACTLY one stripe
    group (the one owning the left/lower rank). Stripe groups hold
    ~2g rows each and are processed vectorized via the coarse-bucket
    shuffle — pair emission never needs a quadratic block or a global
    sort of the pair set. Returns (left_id, right_id, rank_dist) with
    left = lower rank."""
    g = int(window) - 1
    if g <= 0:
        raise ValueError("window must be >= 2")
    ranked = global_rank(ds.select_columns([key_col, id_col]), key_col,
                         id_col, num_ranges=num_ranges,
                         num_buckets=num_buckets)

    def _emit(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, "rn"]].copy()
        stripe = (b["rn"] // g).astype("int64")
        own = b.assign(__stripe=stripe)
        prev = b[stripe > 0].assign(__stripe=stripe[stripe > 0] - 1)
        return pd.concat([own, prev], ignore_index=True)

    def _pairs(grp: pd.DataFrame) -> pd.DataFrame:
        grp = grp.sort_values(["__stripe", "rn"], kind="mergesort")
        stripe = grp["__stripe"].to_numpy(dtype="int64")
        rn = grp["rn"].to_numpy(dtype="int64")
        ids = grp[id_col].to_numpy(dtype=object)
        # per left row that owns its stripe: its successors within rank
        # distance g, all stripe groups at once on one monotone axis (a
        # group's ranks span under 2g, so + 2g per stripe keeps every
        # window inside its own group)
        axis = rn + 2 * g * stripe
        own = (rn // g) == stripe
        li, ri = pairs_before(np.where(own, np.searchsorted(axis, axis + g, side="right"), 0))
        return pd.DataFrame({"left_id": ids[li], "right_id": ids[ri],
                             "rank_dist": (rn[ri] - rn[li]).astype("int64")})

    emitted = ranked.map_batches(_emit, batch_format="pandas")
    return bucketed_map_groups(emitted, "__stripe", _pairs,
                               num_buckets=num_buckets)


def dense_rank_join(ds, value_col: str, descending: bool = True,
                    out_col: str = "dense_rank", num_ranges: int = 64,
                    num_buckets: int = 32):
    """Distributed ``DENSE_RANK() OVER (ORDER BY value_col)`` for an
    INTEGER value column. Dense rank depends only on the DISTINCT value
    set, so the shape is: distinct values (combiner + one bucketed
    reduce — O(distinct) rows, never O(rows)), a 0-based prefix-scan
    position over them (:func:`ordered_cumsum` with weight 1 —
    O(num_ranges) driver state), then ONE bucket_join stamps each row
    with its value's rank. Ties share a rank and no ranks are skipped,
    by construction. ``descending=True`` gives leaderboard order
    (rank 1 = largest value)."""
    import numpy as np

    vals = distinct(ds.select_columns([value_col]), [value_col])
    vals = vals.map_batches(
        lambda b: b.assign(__one=np.ones(len(b), dtype="int64")),
        batch_format="pandas")
    ranked = ordered_cumsum(vals, order_col=value_col, value_col="__one",
                            num_ranges=num_ranges, out_col="__rank0")
    if isinstance(ranked, pd.DataFrame):  # empty input
        schema = ds.schema()
        cols = {n: pd.Series(dtype=t.to_pandas_dtype())
                for n, t in zip(schema.names, schema.types)}
        cols[out_col] = pd.Series(dtype="int64")
        return pd.DataFrame(cols)
    ranked = ranked.materialize()
    n_distinct = ranked.count()

    def _rank(b: pd.DataFrame) -> pd.DataFrame:
        r = (n_distinct - b["__rank0"] if descending else b["__rank0"] + 1)
        return pd.DataFrame({value_col: b[value_col],
                             out_col: r.astype("int64")})

    return bucket_join(ds, ranked.map_batches(_rank, batch_format="pandas"),
                       on=value_col, num_buckets=num_buckets)


def cooccurrence_pairs(ds, group_col: str, item_col: str,
                       num_buckets: int = 32):
    """Market-basket co-occurrence: for every unordered item pair,
    the number of groups containing BOTH (SQL: distinct (group, item)
    self-joined on group with item_a < item_b, counted). Groups are
    hash-partitioned into coarse buckets (all rows of a group share a
    bucket); each bucket encodes groups and items as integer codes in
    value order (functions.pairs.ranked_codes, NUL-exact), enumerates
    the pairs of its distinct (group, item) codes and counts them, and
    only per-bucket (pair, partial-count) aggregates ride to the final
    tiny reduce — the quadratic blow-up is bounded per group (distinct
    items per group), never global. Null groups form one group of
    their own; null items pair with nothing."""

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        group = ranked_codes(g[group_col].to_numpy())[0]
        item, items = ranked_codes(g[item_col].to_numpy())
        n = max(len(g), 1)
        rows = np.unique((group * n + item)[item >= 0])
        i, j = group_pairs(rows // n)
        pair, count = np.unique(rows[i] % n * n + rows[j] % n, return_counts=True)
        return pd.DataFrame({"item_a": items[pair // n], "item_b": items[pair % n],
                             "n_part": count.astype("int64")})

    # per-batch distinct is the combiner (Arrow: pandas' multi-column
    # drop_duplicates would merge items differing only after a NUL);
    # cross-batch duplicates of a (group, item) collapse inside the
    # group's bucket before pairing
    cols = [group_col, item_col]
    dedup = ds.map_batches(lambda t: t.select(cols).group_by(cols).aggregate([]),
                           batch_format="pyarrow", zero_copy_batch=True)

    def _total(g: pd.DataFrame) -> pa.Table:
        # summed by Arrow too, for the same reason
        t = pa.Table.from_pandas(g, preserve_index=False).group_by(
            ["item_a", "item_b"]).aggregate([("n_part", "sum")])
        return t.select(["item_a", "item_b", "n_part_sum"]).rename_columns(
            ["item_a", "item_b", "n_groups"])

    partials = bucketed_map_groups(dedup, group_col, _per_bucket,
                                   num_buckets=num_buckets)
    return bucketed_map_groups(partials, ["item_a", "item_b"], _total, num_buckets=8)


def _strings_have_nul(s: pd.Series) -> bool:
    """One vectorized C-level scan: does any string in the (object)
    Series carry an embedded NUL? pandas' khash paths (factorize,
    drop_duplicates, multi-column sort_values) hash strings as
    NUL-terminated C strings and silently MERGE keys differing only
    after a ``\\x00`` — callers gate an exact fallback on this."""
    if s.dtype != object and not str(s.dtype).startswith("str"):
        return False
    return bool(s.str.contains("\x00", regex=False).fillna(False).any())


def collect_set_strings(ds, group_col: str, item_col: str, sep: str = "|",
                        num_buckets: int = 32, out_col: str = "items"):
    """collect_set-style aggregate Ray Data lacks natively: per group,
    the SORTED DISTINCT item strings joined with ``sep`` (SQL:
    string_agg(DISTINCT item, sep ORDER BY item)). Per-batch distinct
    combiner, one coarse-bucketed shuffle, vectorized sort + a single
    C-level str.cat per bucket. NUL-bearing batches (adversarial web
    strings) take an exact tuple-keyed path — pandas' own
    drop_duplicates/multi-col sort would merge NUL-divergent rows."""

    def _distinct_sorted(g: pd.DataFrame) -> pd.DataFrame:
        if _strings_have_nul(g[group_col]) or _strings_have_nul(g[item_col]):
            # Python tuple hash/compare are full-string exact
            pairs = sorted(set(zip(g[group_col], g[item_col])))
            return pd.DataFrame(pairs, columns=[group_col, item_col])
        return (g[[group_col, item_col]].drop_duplicates()
                .sort_values([group_col, item_col], kind="mergesort"))

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = _distinct_sorted(g)
        if d.empty:
            return pd.DataFrame({group_col: pd.Series(dtype=object),
                                 out_col: pd.Series(dtype=object)})
        import numpy as np

        # adjacent-equality + reduceat, not a per-group join lambda
        # (the string-groupby-with-lambda path measures ~40x slower on
        # multi-million-row buckets). The frame is already sorted by
        # group, so boundaries fall out of one elementwise compare of
        # FULL Python strings — unlike pd.factorize, whose khash table
        # would merge keys differing only after an embedded NUL.
        keys = d[group_col].to_numpy()
        items = d[item_col].astype("string")
        not_first = np.r_[False, keys[1:] == keys[:-1]]
        items = items.where(~not_first, sep + items)
        starts = np.flatnonzero(~not_first)
        joined = np.add.reduceat(items.to_numpy(dtype=object), starts)
        return pd.DataFrame({group_col: d[group_col].to_numpy()[starts],
                             out_col: joined})

    def _combine(b: pd.DataFrame) -> pd.DataFrame:
        d = b[[group_col, item_col]]
        if _strings_have_nul(d[group_col]) or _strings_have_nul(d[item_col]):
            keys = pd.Series(list(zip(d[group_col], d[item_col])),
                             index=d.index, dtype=object)
            return d[~keys.duplicated()]  # pyobject table: exact
        return d.drop_duplicates()

    dedup = ds.map_batches(_combine, batch_format="pandas")
    return bucketed_map_groups(dedup, group_col, _per_bucket,
                               num_buckets=num_buckets)


def skew_join(big_ds, dim_ds, on: str, hot_threshold: int = 100_000,
              num_buckets: int = 64, how: str = "inner"):
    """Skew-aware hybrid join of a big fact stream against a dimension:
    the standard fix for the one-hot-key-stalls-one-reducer problem
    that plain hash partitioning (bucket_join) hits at web scale.

    1. A combiner-shaped count pass finds HOT keys (> hot_threshold
       fact rows). The hot set is bounded by n_rows / hot_threshold —
       scale-safe driver state by construction.
    2. Dimension rows for hot keys are broadcast once (map-side join:
       the skewed row mass never enters a shuffle, and no single
       reducer owns a hot key).
    3. The cold remainder takes the bucketed hash join as usual.

    Output equals ``bucket_join(big_ds, dim_ds, on, how=how)`` for
    inner/left joins against a unique-key dimension (equivalence is
    unit-tested); only the physical plan differs."""
    import ray

    counts = pre_aggregated(big_ds.select_columns([on]), on, counts=True,
                            num_buckets=min(num_buckets, 32)).to_pandas()
    hot = set(counts.loc[counts["n"] > hot_threshold, on])
    if not hot:
        return bucket_join(big_ds, dim_ds, on=on, how=how,
                           num_buckets=num_buckets)
    hot_ref = ray.put(hot)
    dim_hot = (dim_ds.map_batches(
        lambda b: b[b[on].isin(ray.get(hot_ref))], batch_format="pandas")
        .to_pandas())
    dim_cold = dim_ds.map_batches(
        lambda b: b[~b[on].isin(ray.get(hot_ref))], batch_format="pandas")
    big_hot = big_ds.map_batches(
        lambda b: b[b[on].isin(ray.get(hot_ref))], batch_format="pandas")
    big_cold = big_ds.map_batches(
        lambda b: b[~b[on].isin(ray.get(hot_ref))], batch_format="pandas")
    joined_hot = broadcast_join(big_hot, dim_hot, on=on, how=how)
    joined_cold = bucket_join(big_cold, dim_cold, on=on, how=how,
                              num_buckets=num_buckets)
    return joined_hot.union(joined_cold)


def profile_columns(ds, cols, num_buckets: int = 32):
    """Data-profiling summary (the schema-audit pass every ingest
    pipeline runs before trusting a new drop): per column, row count,
    null count, EXACT distinct count, and min/max rendered as strings.
    Works for integer and string columns (injective str rendering, so
    distinct-of-rendered == distinct-of-values and SQL CAST(x AS
    VARCHAR) agrees bit-for-bit).

    Shape: per-batch scalar partials (n, n_null, min, max — O(batches
    x cols) driver rows) + ONE melted (col, value) stream through the
    bucketed distinct for the exact cardinalities. Returns one row per
    column: (col, n, n_null, n_distinct, min_val, max_val)."""
    import numpy as np

    cols = list(cols)

    def _scalars(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = b[c]
            nn = s.dropna()
            # min/max stay NATIVE through the reduce (string renderings
            # of ints order wrongly: '10' < '9'); rendered once at the end
            rows.append((c, np.int64(len(s)), np.int64(s.isna().sum()),
                         nn.min() if len(nn) else None,
                         nn.max() if len(nn) else None))
        return pd.DataFrame(rows, columns=["col", "n", "n_null",
                                           "mn", "mx"])

    def _melt(b: pd.DataFrame) -> pd.DataFrame:
        parts = [pd.DataFrame({"col": c,
                               "val": b[c].dropna().astype(str).unique()})
                 for c in cols]
        out = pd.concat(parts, ignore_index=True)
        if out.empty:
            return pd.DataFrame({"col": pd.Series(dtype=object),
                                 "val": pd.Series(dtype=object)})
        return out

    scalars = ds.map_batches(_scalars, batch_format="pandas").to_pandas()
    counts = scalars.groupby("col").agg(
        n=("n", "sum"), n_null=("n_null", "sum")).reset_index()
    mm = (scalars.dropna(subset=["mn"]).groupby("col")
          .agg(min_val=("mn", "min"), max_val=("mx", "max")).reset_index())
    mm["min_val"] = mm["min_val"].map(str)
    mm["max_val"] = mm["max_val"].map(str)
    agg = counts.merge(mm, on="col", how="left")
    nd = pre_aggregated(
        distinct(ds.map_batches(_melt, batch_format="pandas"),
                 ["col", "val"], num_buckets=num_buckets),
        "col", counts=True, num_buckets=8).to_pandas().rename(
        columns={"n": "n_distinct"})
    out = agg.merge(nd, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    for c in ("n", "n_null"):
        out[c] = out[c].astype("int64")
    return (out[["col", "n", "n_null", "n_distinct", "min_val", "max_val"]]
            .sort_values("col", kind="mergesort").reset_index(drop=True))


def quantile_bin(ds, col: str, nbins: int = 4, id_col: str = "event_id"):
    """Quantile (equal-frequency) binning, the standard numeric feature
    transform: assign every row the 1-based bin of its value against
    the EXACT global quantile edges at i/nbins (DuckDB quantile_disc
    order statistics — same contract as :func:`global_quantile_disc`:
    the column's distinct-value cardinality is driver-small, so ONE
    value-count partial pass computes every edge; the corpus itself
    never moves). Assignment is a second streaming pass: searchsorted
    against the tiny edge array per batch — bin = first i with
    value <= edge_i, else nbins, exactly a SQL CASE chain. NULL values
    get bin 0. Returns (id_col, col, bin)."""
    import numpy as np

    def _part(b: pd.DataFrame) -> pd.DataFrame:
        vc = b[col].dropna().value_counts()
        return pd.DataFrame({"v": vc.index.to_numpy(),
                             "n": vc.to_numpy().astype("int64")})

    parts = ds.map_batches(_part, batch_format="pandas").to_pandas()
    agg = parts.groupby("v", sort=True)["n"].sum()
    n = int(agg.sum())
    if n == 0:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                             col: pd.Series(dtype="float64"),
                             "bin": pd.Series(dtype="int64")})
    cum = agg.cumsum().to_numpy()
    edges = np.array([
        # rank = ceil(i*n/nbins) in EXACT integer arithmetic — float
        # i/nbins*n double-rounds past integer boundaries for nbins
        # that aren't powers of two, shifting quantile_disc by one
        agg.index[int(np.searchsorted(cum, (-(-i * n // nbins) - 1) + 1))]
        for i in range(1, nbins)])

    def _assign(b: pd.DataFrame) -> pd.DataFrame:
        v = b[col]
        bins = np.searchsorted(edges, v.to_numpy(), side="left") + 1
        bins = np.where(v.isna(), 0, bins)
        return pd.DataFrame({id_col: b[id_col], col: v,
                             "bin": bins.astype("int64")})

    return ds.map_batches(_assign, batch_format="pandas")
