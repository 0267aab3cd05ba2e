"""Data-quality operators: declarative constraint auditing and
categorical concentration (Gini impurity) profiling.

At 100 TB you cannot eyeball a table; you assert properties and count
violations. Both operators keep everything integer-exact so the driver
oracle can reproduce every value bit-for-bit in SQL:

- :func:`validate_constraints`: ONE streaming pass computes per-batch
  violation partials for not_null / regex / range rules (summed on the
  driver — a handful of integers per rule per batch); each ``unique``
  rule adds one combiner+bucketed distinct count (the only shuffles).
- :func:`categorical_gini`: per-column value counts via ONE melted
  combiner + bucketed reduce, then per-batch integer partials of
  (sum counts, sum squared counts, distinct) merged on the driver.
  Gini = 1 - sum_sq/n^2 stays a ratio of integers — the float is
  computed identically on both sides from the same integer columns.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa


def validate_constraints(ds, rules) -> pd.DataFrame:
    """Audit declarative constraints in one pass. ``rules`` is a list of
    dicts:

    - ``{"type": "not_null", "col": c}`` — violations: NULL values.
    - ``{"type": "regex", "col": c, "pattern": p}`` — violations: NULL
      or not matching (search semantics, anchor explicitly).
    - ``{"type": "range", "col": c, "lo": x, "hi": y}`` — violations:
      NULL or outside [lo, hi].
    - ``{"type": "unique", "col": c}`` — violations: excess rows,
      ``n_rows - n_distinct_non_null`` (every NULL counts as excess,
      matching SQL's ``count(*) - count(DISTINCT col)``).

    Returns a small pandas frame (rule, col, n_rows, n_violations) in
    the given rule order — driver-side by design: the result is
    O(rules) regardless of input size."""
    rules = list(rules)
    streaming = [(i, r) for i, r in enumerate(rules) if r["type"] != "unique"]
    compiled = {i: re.compile(r["pattern"]) for i, r in streaming
                if r["type"] == "regex"}

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        out = {"__n": np.int64(len(b))}
        for i, r in streaming:
            col = b[r["col"]]
            if r["type"] == "not_null":
                v = int(col.isna().sum())
            elif r["type"] == "regex":
                pat = compiled[i]
                nn = col.dropna().astype(str)
                v = int(len(b) - len(nn)
                        + (~nn.map(lambda s: bool(pat.search(s)))).sum())
            else:  # range
                v = int(len(b) - ((col >= r["lo"]) & (col <= r["hi"])).sum())
            out[f"__v{i}"] = np.int64(v)
        return pd.DataFrame([out])

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    totals = parts.sum()
    n_rows = int(totals["__n"])

    from .relational import distinct

    results = []
    for i, r in enumerate(rules):
        if r["type"] == "unique":
            nd = distinct(ds.map_batches(
                lambda b, c=r["col"]: b[[c]].dropna(),
                batch_format="pandas"), [r["col"]]).count()
            viol = n_rows - int(nd)
        else:
            viol = int(totals[f"__v{i}"])
        results.append({"rule": r["type"], "col": r["col"],
                        "n_rows": n_rows, "n_violations": viol})
    return pd.DataFrame(results).astype({"n_rows": "int64",
                                         "n_violations": "int64"})


def grouped_moments(ds, group_col: str, value_col: str, decimals: int = 2) -> pd.DataFrame:
    """Per-group mean and population variance, integer-exact: values
    are fixed-point (``decimals`` places, e.g. currency/score columns),
    so each batch emits integer partials (n, sum, sum-of-squares) in
    scaled units; a bucketed reduce sums them per group; mean/variance
    are then float expressions over the SAME integers on both engines:

        mean    = sum_s   / (scale   * n)
        var_pop = sum_sq_s / (scale^2 * n) - mean * mean

    IEEE float64 evaluation of identical expression trees is
    bit-deterministic, so the driver oracle reproduces the floats
    verbatim (same discipline as :func:`categorical_gini`). ONE keyed
    shuffle of O(groups x batches) partial rows — never raw values —
    makes this the scale shape for a 100-TB profile pass. Result is
    O(groups), driver-side by design."""
    scale = 10 ** decimals

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[group_col, value_col]].dropna()
        vh = np.rint(b[value_col].to_numpy(dtype="float64")
                     * scale).astype("int64")
        g = pd.DataFrame({group_col: b[group_col].to_numpy(), "__vh": vh,
                          "__sq": vh * vh})
        agg = g.groupby(group_col, sort=False).agg(
            n=("__vh", "size"), sum_s=("__vh", "sum"), sum_sq_s=("__sq", "sum"))
        return agg.reset_index().astype(
            {"n": "int64", "sum_s": "int64", "sum_sq_s": "int64"})

    from .relational import bucketed_map_groups

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(group_col, sort=False, as_index=False)
                [["n", "sum_s", "sum_sq_s"]].sum()
                .astype({"n": "int64", "sum_s": "int64", "sum_sq_s": "int64"}))

    parts = bucketed_map_groups(
        ds.map_batches(_partial, batch_format="pandas"), [group_col],
        _reduce).to_pandas()
    if parts.empty:
        return pd.DataFrame({group_col: pd.Series(dtype=object),
                             "n": pd.Series(dtype="int64"),
                             "sum_s": pd.Series(dtype="int64"),
                             "sum_sq_s": pd.Series(dtype="int64"),
                             "mean": pd.Series(dtype="float64"),
                             "var_pop": pd.Series(dtype="float64")})
    tot = parts.astype({"n": "int64", "sum_s": "int64", "sum_sq_s": "int64"})
    n = tot["n"].astype("float64")
    tot["mean"] = tot["sum_s"].astype("float64") / (float(scale) * n)
    tot["var_pop"] = (tot["sum_sq_s"].astype("float64")
                      / (float(scale * scale) * n)
                      - tot["mean"] * tot["mean"])
    return (tot.sort_values(group_col, kind="mergesort")
            .reset_index(drop=True)
            [[group_col, "n", "sum_s", "sum_sq_s", "mean", "var_pop"]])


def zscore_outliers(ds, group_col: str, value_col: str, id_col: str,
                    k: float = 3.0, decimals: int = 2) -> pd.DataFrame:
    """Per-group z-score outlier detection: two passes, both streaming.
    Pass 1 is :func:`grouped_moments` (integer partials -> bit-exact
    per-group mean/var_pop floats). Pass 2 broadcasts the tiny moments
    frame and flags rows where ``(v - mean)^2 > k^2 * var_pop`` — the
    comparison is evaluated in float64 from the SAME integers with the
    SAME expression tree on both engines, so even boundary rows agree
    bit-for-bit. Returns ONLY the outlier rows (id, group, value in
    scaled integer units) — outliers are rare by construction, so the
    result is driver-small while the input streams.

    The moments frame is closure-captured (it is O(groups) and small);
    for million-group keys route the join through
    ``ops.relational.bucket_join`` instead."""
    scale = 10 ** decimals
    moments = grouped_moments(ds, group_col, value_col, decimals=decimals)
    mean = dict(zip(moments[group_col], moments["mean"]))
    var = dict(zip(moments[group_col], moments["var_pop"]))
    kk = float(k) * float(k)
    vh_col = f"{value_col}_h"

    def _flag(b: pd.DataFrame) -> pd.DataFrame:
        b = b[[id_col, group_col, value_col]].dropna()
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              group_col: pd.Series(dtype=object),
                              vh_col: pd.Series(dtype="int64")})
        if b.empty:
            return empty
        vh = np.rint(b[value_col].to_numpy(dtype="float64")
                     * scale).astype("int64")
        g = b[group_col].to_numpy()
        mu = np.array([mean.get(x, np.nan) for x in g], dtype="float64")
        va = np.array([var.get(x, np.nan) for x in g], dtype="float64")
        d = vh / float(scale) - mu
        keep = d * d > kk * va
        out = pd.DataFrame({id_col: b[id_col].to_numpy()[keep],
                            group_col: g[keep], vh_col: vh[keep]})
        return out if len(out) else empty

    res = ds.map_batches(_flag, batch_format="pandas").to_pandas()
    if res.empty:
        return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                             group_col: pd.Series(dtype=object),
                             vh_col: pd.Series(dtype="int64")})
    res[id_col] = res[id_col].astype("int64")
    res[vh_col] = res[vh_col].astype("int64")
    return res.sort_values(id_col, kind="mergesort").reset_index(drop=True)


def fd_audit(ds, dependencies) -> pd.DataFrame:
    """Functional-dependency audit: for each ``(lhs_col, rhs_col)``
    dependency, count determinant groups and violations (an lhs value
    mapping to >1 distinct rhs). Rows with NULL on either side are
    excluded (SQL join semantics). Scale shape per dependency: ONE
    per-batch distinct-pair combiner (the shuffle moves (lhs, rhs)
    DISTINCT pairs, never raw rows), one bucketed per-lhs reduce (all
    rhs of an lhs land in one bucket), then O(buckets) integer partials
    summed on the driver. Result is O(dependencies)."""
    results = []
    for lhs, rhs in dependencies:
        def _pairs(b: pd.DataFrame, l=lhs, r=rhs) -> pd.DataFrame:
            return b[[l, r]].dropna().drop_duplicates()

        def _reduce(g: pd.DataFrame, l=lhs, r=rhs) -> pd.DataFrame:
            nd = g.drop_duplicates().groupby(l, sort=False)[r].size()
            return pd.DataFrame({
                "n_lhs": [np.int64(len(nd))],
                "n_violating": [np.int64(int((nd > 1).sum()))],
                "max_rhs": [np.int64(int(nd.max()) if len(nd) else 0)]})

        from .relational import bucketed_map_groups

        parts = bucketed_map_groups(
            ds.map_batches(_pairs, batch_format="pandas"), [lhs],
            _reduce).to_pandas()
        results.append({
            "lhs": lhs, "rhs": rhs,
            "n_lhs_groups": int(parts["n_lhs"].sum()) if len(parts) else 0,
            "n_violating": int(parts["n_violating"].sum()) if len(parts) else 0,
            "max_distinct_rhs": int(parts["max_rhs"].max()) if len(parts) else 0,
            "holds": int(parts["n_violating"].sum() == 0) if len(parts) else 1})
    return pd.DataFrame(results).astype(
        {"n_lhs_groups": "int64", "n_violating": "int64",
         "max_distinct_rhs": "int64", "holds": "int64"})


def categorical_gini(ds, cols) -> pd.DataFrame:
    """Per-column categorical concentration: (col, n non-null rows,
    n_distinct, sum of squared value counts, gini) where
    ``gini = 1 - sum_sq / n^2`` — the Gini impurity, a fully rational
    statistic (unlike entropy) so the float column is reproducible
    bit-for-bit by any engine dividing the same integers. NULLs are
    excluded from the distribution."""
    cols = [cols] if isinstance(cols, str) else list(cols)

    def _melt(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            vc = b[c].dropna().astype(str).value_counts(sort=False)
            frames.append(pd.DataFrame({"col": c,
                                        "value": vc.index.to_numpy(),
                                        "__cnt": vc.to_numpy()}))
        out = pd.concat(frames, ignore_index=True)
        out["__cnt"] = out["__cnt"].astype("int64")
        return out

    from .relational import bucketed_map_groups

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby(["col", "value"], sort=False)["__cnt"].sum()
             .reset_index())
        # per-bucket integer partials; (col, value) never spans buckets
        agg = s.groupby("col", sort=False).agg(
            n=("__cnt", "sum"), n_distinct=("value", "size"),
            sum_sq=("__cnt", lambda v: int((v.astype(object) ** 2).sum())))
        return agg.reset_index().astype({"n": "int64", "n_distinct": "int64",
                                         "sum_sq": "int64"})

    parts = bucketed_map_groups(
        ds.map_batches(_melt, batch_format="pandas"), ["col", "value"],
        _reduce).to_pandas()
    if parts.empty:
        return pd.DataFrame({"col": pd.Series(dtype=object),
                             "n": pd.Series(dtype="int64"),
                             "n_distinct": pd.Series(dtype="int64"),
                             "sum_sq": pd.Series(dtype="int64"),
                             "gini": pd.Series(dtype="float64")})
    tot = parts.groupby("col", as_index=False)[["n", "n_distinct", "sum_sq"]].sum()
    tot = tot.astype({"n": "int64", "n_distinct": "int64", "sum_sq": "int64"})
    nf = tot["n"].astype("float64")
    # explicit n*n (not pow) — the SQL oracle computes n*n as DOUBLE and
    # IEEE multiply is the bit-identical operation
    tot["gini"] = 1.0 - tot["sum_sq"].astype("float64") / (nf * nf)
    return (tot.sort_values("col", kind="mergesort").reset_index(drop=True)
            [["col", "n", "n_distinct", "sum_sq", "gini"]])


def impute_group_median(ds, group_col: str, value_col: str, id_col: str,
                        missing_col: str = "__missing") -> "pd.DataFrame":
    """Missing-value imputation with the per-group EXACT median
    (quantile_disc semantics — the imputed value is an actual observed
    value of the group, so cross-engine float parity is inherent; no
    averaging). Input batches must carry a boolean ``missing_col``
    marking rows to impute; non-missing rows pass through unchanged.

    Two streaming passes: (1) per-group median of the NON-missing
    values via relational.group_quantiles (one keyed shuffle of the
    non-missing values only); (2) the tiny (group -> median) table
    closure-captures into a stateless fill pass over the full input —
    the corpus never shuffles. Groups that are entirely missing impute
    NaN (SQL NULL). Returns a Dataset of
    (id, group, value, was_imputed)."""
    import numpy as np

    from .relational import group_quantiles

    nonmiss = ds.map_batches(
        lambda b: b.loc[~b[missing_col], [group_col, value_col]],
        batch_format="pandas")
    med = group_quantiles(nonmiss, group_col, value_col,
                          qs=(0.5,)).to_pandas()
    medians = (dict(zip(med[group_col], med["q50"]))
               if not med.empty and "q50" in med.columns else {})

    def _fill(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.Series(dtype="int64"),
                              group_col: pd.Series(dtype=object),
                              value_col: pd.Series(dtype="float64"),
                              "was_imputed": pd.Series(dtype=bool)})
        if b.empty:
            return empty
        miss = b[missing_col].to_numpy(dtype=bool)
        fill = b[group_col].map(medians).to_numpy(dtype="float64")
        v = b[value_col].to_numpy(dtype="float64")
        return pd.DataFrame({
            id_col: b[id_col].astype("int64").to_numpy(),
            group_col: b[group_col].to_numpy(),
            value_col: np.where(miss, fill, v),
            "was_imputed": miss})

    return ds.map_batches(_fill, batch_format="pandas")


def ks_drift(ds, group_col: str, value_col: str, type_a: str, type_b: str,
             decimals: int = 2) -> pd.DataFrame:
    """Two-sample Kolmogorov–Smirnov drift statistic between the value
    distributions of two groups — the standard distribution-shift
    monitor for data pipelines. Values are fixed-point (``decimals``),
    so the statistic is computed EXACTLY in integers:

        D = max over distinct values v of |cum_a(v)*n_b - cum_b(v)*n_a|
        ks = D / (n_a * n_b)        (one IEEE division at the end)

    which both engines reproduce bit-for-bit. Scale shape: per-batch
    integer partial counts per distinct scaled value (the shuffle moves
    (value, side-count) partials, never rows), ONE bucketed reduce,
    then the cumulative-max scan runs on the driver over the DISTINCT
    value domain — O(distinct values), which for fixed-point telemetry
    is bounded (10^decimals x range), not O(rows). For unbounded
    domains route the scan through relational.ordered_cumsum instead.
    Returns one row: (type_a, type_b, n_a, n_b, d_num, ks)."""
    scale = 10 ** decimals

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[group_col].isin([type_a, type_b])][[group_col, value_col]]
        b = b.dropna()
        empty = pd.DataFrame({"vh": pd.Series(dtype="int64"),
                              "ca": pd.Series(dtype="int64"),
                              "cb": pd.Series(dtype="int64")})
        if b.empty:
            return empty
        vh = np.rint(b[value_col].to_numpy(dtype="float64")
                     * scale).astype("int64")
        is_a = (b[group_col] == type_a).to_numpy()
        g = pd.DataFrame({"vh": vh,
                          "ca": is_a.astype("int64"),
                          "cb": (~is_a).astype("int64")})
        return (g.groupby("vh", sort=False, as_index=False)[["ca", "cb"]]
                .sum().astype({"vh": "int64", "ca": "int64", "cb": "int64"}))

    from .relational import bucketed_map_groups

    def _reduce(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("vh", sort=False, as_index=False)[["ca", "cb"]]
                .sum().astype({"vh": "int64", "ca": "int64", "cb": "int64"}))

    parts = bucketed_map_groups(
        ds.map_batches(_partial, batch_format="pandas"), ["vh"],
        _reduce).to_pandas()
    out_cols = {"type_a": pd.Series(dtype=object),
                "type_b": pd.Series(dtype=object),
                "n_a": pd.Series(dtype="int64"),
                "n_b": pd.Series(dtype="int64"),
                "d_num": pd.Series(dtype="int64"),
                "ks": pd.Series(dtype="float64")}
    if parts.empty:
        return pd.DataFrame(out_cols)
    parts = parts.sort_values("vh", kind="mergesort")
    na = int(parts["ca"].sum())
    nb = int(parts["cb"].sum())
    if na == 0 or nb == 0:
        return pd.DataFrame(out_cols)
    cum_a = parts["ca"].cumsum().to_numpy(dtype="int64")
    cum_b = parts["cb"].cumsum().to_numpy(dtype="int64")
    d_num = int(np.max(np.abs(cum_a * nb - cum_b * na)))
    return pd.DataFrame({
        "type_a": [type_a], "type_b": [type_b],
        "n_a": np.int64(na), "n_b": np.int64(nb),
        "d_num": np.int64(d_num),
        "ks": [float(d_num) / (float(na) * float(nb))]})
