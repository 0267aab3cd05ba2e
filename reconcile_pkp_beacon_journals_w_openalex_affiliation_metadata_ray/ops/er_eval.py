"""Cluster-level ER evaluation and active-learning sampling.

The reference evaluates matching only pairwise (per-mention booleans
aggregated in `get_stats.py`); cluster-level metrics (purity, B-cubed —
Bagga & Baldwin 1998, public) and uncertainty sampling for labeling are
the standard next instruments. Both are built on the repo's scale
primitives:

- :func:`cluster_contingency`: TWO hash-partitioned inputs joined once
  on record_id (ops.relational.bucket_join) then a combiner+bucketed
  count per (pred, truth) cluster pair — the output is
  O(overlapping-cluster pairs) <= O(records), all integers, so the
  driver-side metric helpers work on an already-aggregated frame.
- :func:`uncertainty_band_sample`: band filter + deterministic
  md5-hex rank with PER-BATCH partial top-k (the sample_exact shape —
  at most k rows per block reach the driver; no shuffle). The rank is
  the full 32-char md5 hex string compared lexicographically, which a
  SQL engine reproduces verbatim (DuckDB md5() returns the same hex).
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa


def cluster_contingency(pred_ds, truth_ds):
    """Predicted vs truth cluster assignments -> integer contingency
    rows (pred_cluster, true_cluster, n), inner-joined on record_id
    (records present in only one assignment are excluded — the caller
    fixes the universe). Both inputs are (record_id, cluster_id)
    Datasets whose labels are canonical min-member ids (what
    stages.cluster.connected_components emits), so no relabeling
    shuffle is needed."""
    from .dedup import _typed_or_empty
    from .relational import bucket_join, pre_aggregated

    def _side(out_col):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"record_id": b["record_id"],
                                 out_col: b["cluster_id"]})
        return fn

    p = pred_ds.map_batches(_side("pred_cluster"), batch_format="pandas")
    t = truth_ds.map_batches(_side("true_cluster"), batch_format="pandas")
    j = bucket_join(p, t, on="record_id")
    agg = pre_aggregated(j, ["pred_cluster", "true_cluster"], counts=True)
    out = agg.map_batches(
        lambda b: b.rename(columns={"n": "n"})[
            ["pred_cluster", "true_cluster", "n"]],
        batch_format="pandas")
    return _typed_or_empty(out, [("pred_cluster", pa.string()),
                                 ("true_cluster", pa.string()),
                                 ("n", pa.int64())])


def bcubed_from_contingency(cont: pd.DataFrame) -> dict:
    """Exact B-cubed precision/recall/F1 and purity from an integer
    contingency frame (driver-side: the frame is already aggregated).
    B3 precision = (1/N) sum_ij n_ij^2 / |pred_i|; recall symmetric
    over truth sizes; purity = sum_i max_j n_ij / N."""
    if cont.empty:
        return {"n_records": 0, "b3_precision": 0.0, "b3_recall": 0.0,
                "b3_f1": 0.0, "purity": 0.0}
    n = int(cont["n"].sum())
    pred_sz = cont.groupby("pred_cluster")["n"].sum()
    true_sz = cont.groupby("true_cluster")["n"].sum()
    sq = cont["n"].astype(float) ** 2
    prec = float((sq / cont["pred_cluster"].map(pred_sz).astype(float)).sum()) / n
    rec = float((sq / cont["true_cluster"].map(true_sz).astype(float)).sum()) / n
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    purity = float(cont.groupby("pred_cluster")["n"].max().sum()) / n
    return {"n_records": n, "b3_precision": prec, "b3_recall": rec,
            "b3_f1": f1, "purity": purity}


def uncertainty_band_sample(pairs_ds, lo: float, hi: float, k: int,
                            score_col: str = "combined_score",
                            id_cols=("left_id", "right_id"), seed: int = 42):
    """Active-learning labeling sample: the k pairs whose score falls in
    the uncertainty band [lo, hi) — the region where fuzzy evidence is
    genuinely ambiguous — picked by a seeded deterministic hash rank so
    the sample is uniform over the band, reproducible, and independent
    of partitioning. Returns a pandas frame (id cols + score + rank),
    sorted by rank.

    Scale: the band filter and the md5 rank run per batch; each batch
    forwards at most k rows, the driver merges <= k x blocks rows.
    The whole corpus of scored pairs never moves."""
    id_cols = list(id_cols)

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        sl = b[(b[score_col] >= lo) & (b[score_col] < hi)]
        cols = id_cols + [score_col]
        sl = sl[cols].copy()
        if sl.empty:
            sl["__rank"] = pd.Series(dtype=object)
            return sl
        key = sl[id_cols[0]].astype(str)
        for c in id_cols[1:]:
            key = key + "|" + sl[c].astype(str)
        sl["__rank"] = [hashlib.md5(f"{seed}:{v}".encode()).hexdigest()
                        for v in key]
        # nsmallest is numeric-only; the rank is a hex string
        return (sl.sort_values(["__rank"] + id_cols, kind="mergesort")
                .head(min(k, len(sl))))

    parts = pairs_ds.map_batches(_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({c: pd.Series(dtype=object) for c in id_cols}
                            | {score_col: pd.Series(dtype="float64"),
                               "sample_rank": pd.Series(dtype=object)})
    out = (parts.sort_values(["__rank"] + id_cols, kind="mergesort").head(k)
           .rename(columns={"__rank": "sample_rank"}).reset_index(drop=True))
    return out


def cluster_cohesion(clusters_ds, edges_ds, edge_node_col: str = "left_id",
                     score_col: str = "combined_score") -> pd.DataFrame:
    """Per-cluster cohesion audit — the over-merge detector that
    pairwise metrics miss: a transitively-merged mega-cluster shows up
    here as a LOW edge density (few matched edges relative to the
    n*(n-1)/2 pairs the merge asserts) and a low minimum edge score
    (one weak bridge glued two dense groups together).

    Per multi-record cluster: ``n_records``, ``n_edges``, ``density`` =
    2*E / (n*(n-1)), ``min_score_h`` (minimum matched-edge score in
    integer hundredths — scores are 2-decimal, so the min is exact) and
    ``avg_score`` = (sum_h / E) / 100. All aggregation is integer-exact;
    the two float columns are single IEEE divisions of exact integers,
    so a SQL engine reproduces them bit-for-bit from the same inputs.

    Scale shape: edges ride ONE bucketed hash join on the left endpoint
    (both endpoints share a cluster by construction of the transitive
    closure, so one endpoint suffices); a per-batch combiner shrinks
    the per-cluster reduce input to O(clusters x batches) rows of
    (count, sum, min) partials; cluster sizes come from the
    pre-aggregated combiner. Output is O(multi-record clusters)."""
    import numpy as np

    from .relational import bucket_join, bucketed_map_groups, pre_aggregated

    def _edge(b: pd.DataFrame) -> pd.DataFrame:
        s = b[score_col].to_numpy(dtype="float64")
        return pd.DataFrame({
            "record_id": b[edge_node_col],
            "__h": np.floor(s * 100.0 + 0.5).astype("int64")})

    e = edges_ds.map_batches(_edge, batch_format="pandas")
    j = bucket_join(e, clusters_ds, on="record_id")

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("cluster_id", sort=False)["__h"]
        out = g.agg(n_edges="size", sum_h="sum", min_h="min").reset_index()
        return out.astype({"n_edges": "int64", "sum_h": "int64",
                           "min_h": "int64"})

    def _reduce(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("cluster_id", sort=False)
        out = g.agg(n_edges=("n_edges", "sum"), sum_h=("sum_h", "sum"),
                    min_h=("min_h", "min")).reset_index()
        return out.astype({"n_edges": "int64", "sum_h": "int64",
                           "min_h": "int64"})

    agg = bucketed_map_groups(j.map_batches(_partial, batch_format="pandas"),
                              "cluster_id", _reduce)
    sizes = pre_aggregated(clusters_ds, "cluster_id", counts=True).map_batches(
        lambda b: b.rename(columns={"n": "n_records"}), batch_format="pandas")
    joined = bucket_join(agg, sizes, on="cluster_id").to_pandas()
    if joined.empty:
        return pd.DataFrame({"cluster_id": pd.Series(dtype=object),
                             "n_records": pd.Series(dtype="int64"),
                             "n_edges": pd.Series(dtype="int64"),
                             "density": pd.Series(dtype="float64"),
                             "min_score_h": pd.Series(dtype="int64"),
                             "avg_score": pd.Series(dtype="float64")})
    n = joined["n_records"].to_numpy(dtype="int64")
    ne = joined["n_edges"].to_numpy(dtype="int64")
    sh = joined["sum_h"].to_numpy(dtype="int64")
    joined["density"] = ((2 * ne).astype("float64")
                         / (n * (n - 1)).astype("float64"))
    joined["avg_score"] = (sh.astype("float64") / ne.astype("float64")) / 100.0
    joined = joined.rename(columns={"min_h": "min_score_h"})
    return (joined[["cluster_id", "n_records", "n_edges", "density",
                    "min_score_h", "avg_score"]]
            .sort_values("cluster_id", kind="mergesort").reset_index(drop=True))


def score_calibration(scored_ds, labels_ds, bin_width: int = 5,
                      score_col: str = "combined_score") -> pd.DataFrame:
    """Classifier-score calibration table: bin every scored candidate
    pair into fixed-width score bins and, via the labeled ground-truth
    pairs, report each bin's empirical precision — the audit that turns
    a match score into a probability statement (is 'score 92' actually
    ~92% precise?) and picks thresholds with evidence instead of folklore.

    Per bin: ``n_pairs`` (all scored pairs), ``n_labeled`` (pairs with
    a ground-truth label), ``n_true`` (labeled true matches) and
    ``bin_precision`` = n_true / n_labeled (one IEEE division of exact
    integers; 0.0 where no labels landed). Pairs are orientation-
    normalized on both sides before the join.

    Scale shape: ONE bucketed hash join of the scored pairs against the
    (distinct, orientation-normalized) label set, then a per-batch
    integer combiner per bin — the driver sums O(bins x batches)
    integer partials; the scored corpus never collects."""
    import numpy as np

    from .relational import bucket_join, distinct

    bw = float(bin_width)

    def _norm_scored(b: pd.DataFrame) -> pd.DataFrame:
        s = b[score_col].to_numpy(dtype="float64")
        return pd.DataFrame({
            "a": b[["left_id", "right_id"]].min(axis=1),
            "b": b[["left_id", "right_id"]].max(axis=1),
            "score_bin": (np.floor(s / bw) * bw).astype("int64")})

    def _norm_labels(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "a": b[["left_id", "right_id"]].min(axis=1),
            "b": b[["left_id", "right_id"]].max(axis=1),
            "is_match": b["is_match"].astype(bool)})

    s = scored_ds.map_batches(_norm_scored, batch_format="pandas")
    lab = distinct(labels_ds.map_batches(_norm_labels, batch_format="pandas"),
                   ["a", "b", "is_match"])
    j = bucket_join(s, lab, on=["a", "b"], how="left")

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        lb = b["is_match"]
        g = pd.DataFrame({
            "score_bin": b["score_bin"],
            "n_pairs": np.int64(1),
            "n_labeled": lb.notna().to_numpy().astype("int64"),
            "n_true": lb.eq(True).to_numpy().astype("int64")})
        return (g.groupby("score_bin", sort=False, as_index=False)
                [["n_pairs", "n_labeled", "n_true"]].sum()
                .astype({"n_pairs": "int64", "n_labeled": "int64",
                         "n_true": "int64"}))

    parts = j.map_batches(_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({"score_bin": pd.Series(dtype="int64"),
                             "n_pairs": pd.Series(dtype="int64"),
                             "n_labeled": pd.Series(dtype="int64"),
                             "n_true": pd.Series(dtype="int64"),
                             "bin_precision": pd.Series(dtype="float64")})
    tot = (parts.groupby("score_bin", as_index=False)
           [["n_pairs", "n_labeled", "n_true"]].sum()
           .astype({"score_bin": "int64", "n_pairs": "int64",
                    "n_labeled": "int64", "n_true": "int64"}))
    nl = tot["n_labeled"].to_numpy(dtype="int64")
    nt = tot["n_true"].to_numpy(dtype="int64")
    tot["bin_precision"] = np.where(
        nl > 0, nt.astype("float64") / np.where(nl > 0, nl, 1).astype("float64"),
        0.0)
    return (tot.sort_values("score_bin", kind="mergesort")
            .reset_index(drop=True))


def fs_mu_weights(pairs_ds, labels_ds, feature_cols) -> pd.DataFrame:
    """Fellegi–Sunter m/u probability estimation (Fellegi & Sunter
    1969, public — the founding record-linkage decision model): join
    candidate-pair boolean feature-agreement indicators to ground-truth
    labels, then for each feature i estimate

        m_i = P(feature agrees | true match)      = m_num / m_den
        u_i = P(feature agrees | true non-match)  = u_num / u_den

    as EXACT integer-count ratios (one IEEE division each, so the
    floats are bit-reproducible by any engine given the same integers;
    log-likelihood weights are left to the caller — libm log parity
    across engines is NOT guaranteed, the counts are the contract).

    Scale shape: ONE bucketed hash join on (left_id, right_id) — the
    labeled set is usually small but this path handles big-big — then
    a per-batch integer combiner emitting O(features) partial rows per
    batch; the driver sums O(features x batches) integers. The pair
    corpus itself never collects.

    ``pairs_ds`` must carry left_id, right_id + boolean feature
    columns; ``labels_ds`` must carry left_id, right_id, is_match."""
    import numpy as np

    from .relational import bucket_join

    feature_cols = list(feature_cols)
    lab = labels_ds.map_batches(
        lambda b: pd.DataFrame({"left_id": b["left_id"],
                                "right_id": b["right_id"],
                                "__label": b["is_match"].astype(bool)}),
        batch_format="pandas")
    j = bucket_join(pairs_ds, lab, on=["left_id", "right_id"])

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        lb = b["__label"].to_numpy(dtype=bool)
        nm, nu = int(lb.sum()), int((~lb).sum())
        rows = []
        for f in feature_cols:
            ag = b[f].to_numpy(dtype=bool)
            rows.append((f, int((ag & lb).sum()), nm,
                         int((ag & ~lb).sum()), nu))
        return pd.DataFrame(rows, columns=["feature", "m_num", "m_den",
                                           "u_num", "u_den"])

    parts = j.map_batches(_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        tot = pd.DataFrame({"feature": feature_cols,
                            "m_num": 0, "m_den": 0,
                            "u_num": 0, "u_den": 0})
    else:
        tot = (parts.groupby("feature", as_index=False)
               [["m_num", "m_den", "u_num", "u_den"]].sum())
        tot = (pd.DataFrame({"feature": feature_cols})
               .merge(tot, on="feature", how="left").fillna(0))
    tot = tot.astype({"m_num": "int64", "m_den": "int64",
                      "u_num": "int64", "u_den": "int64"})
    with np.errstate(divide="ignore", invalid="ignore"):
        tot["m"] = np.where(tot["m_den"] > 0,
                            tot["m_num"].astype("float64")
                            / tot["m_den"].astype("float64"), np.nan)
        tot["u"] = np.where(tot["u_den"] > 0,
                            tot["u_num"].astype("float64")
                            / tot["u_den"].astype("float64"), np.nan)
    return (tot.sort_values("feature", kind="mergesort")
            .reset_index(drop=True))
