"""Distributed graph analytics over edge-list Datasets.

Connected components live in ``stages/cluster.py`` (they are the
linkage pipeline's third stage); this module holds the generic
beyond-reference graph operators. Design rule shared with the sketches
(ops/sketch.py): APPROXIMATE or ITERATIVE algorithms are formulated in
integer fixed-point arithmetic so every intermediate — and therefore
the final answer — is bit-exact across engines and summation orders,
making even an iterative computation value-hash oracle-able in SQL.
"""

from __future__ import annotations

import pandas as pd


def pagerank_fixedpoint(edges_ds, iters: int = 3,
                        init: int = 1_000_000_000):
    """Fixed-point integer PageRank (damping 0.85) over an UNDIRECTED
    edge list (left_id, right_id). Per round, with all arithmetic in
    int64 floor division (positive throughout, so Python ``//`` and
    SQL ``//`` agree bit-for-bit):

        contrib(u)   = s_t(u) // deg(u)
        s_{t+1}(v)   = (init * 15) // 100
                       + (85 * sum_{u in N(v)} contrib(u)) // 100

    Integer sums are order-independent, so the distributed reduce and a
    SQL GROUP BY produce identical values — the oracle simply unrolls
    the rounds as chained CTEs. Overflow bound: 85 * n_nodes * init
    must stay under 2^63 (scale ``init`` down for graphs beyond ~1e8
    nodes at the default).

    Scale shape per round: ONE bucketed join of the (bidirectional)
    edge stream against the score table on the source node + ONE
    combiner-reduced sum per destination — no driver state beyond the
    loop counter; the score table never materializes on the driver.
    Nodes are the edge endpoints (an isolated node has no edges and no
    rank mass to receive; deg >= 1 by construction).
    """
    from .relational import bucket_join, pre_aggregated

    base = (init * 15) // 100

    bidir = edges_ds.map_batches(
        lambda b: pd.DataFrame(
            {"src": pd.concat([b["left_id"], b["right_id"]],
                              ignore_index=True),
             "dst": pd.concat([b["right_id"], b["left_id"]],
                              ignore_index=True)}),
        batch_format="pandas").materialize()

    deg = pre_aggregated(
        bidir.map_batches(lambda b: b[["src"]].rename(columns={"src": "node"}),
                          batch_format="pandas"),
        "node", counts=True).map_batches(
        lambda b: pd.DataFrame({"node": b["node"],
                                "deg": b["n"].astype("int64")}),
        batch_format="pandas").materialize()

    scores = deg.map_batches(
        lambda b: pd.DataFrame({"node": b["node"],
                                "s": pd.Series([init] * len(b),
                                               dtype="int64"),
                                "deg": b["deg"].astype("int64")}),
        batch_format="pandas").materialize()

    for _ in range(iters):
        contrib = bucket_join(
            bidir, scores.map_batches(
                lambda b: pd.DataFrame(
                    {"src": b["node"],
                     "c": (b["s"] // b["deg"]).astype("int64")}),
                batch_format="pandas"),
            on="src").map_batches(
            lambda b: pd.DataFrame({"node": b["dst"],
                                    "c": b["c"].astype("int64")}),
            batch_format="pandas")
        sums = pre_aggregated(contrib, "node", sums=["c"], counts=False)
        scores = bucket_join(
            sums.map_batches(
                lambda b: pd.DataFrame(
                    {"node": b["node"],
                     "s": (base + (85 * b["sum_c"].astype("int64")) // 100
                           ).astype("int64")}),
                batch_format="pandas"),
            deg, on="node").materialize()

    return scores.map_batches(
        lambda b: pd.DataFrame({"node": b["node"],
                                "pagerank_fp": b["s"].astype("int64")}),
        batch_format="pandas")


def triangle_count(edges_ds):
    """Global triangle count over an undirected edge list. Edges are
    normalized to distinct (a < b); wedges (a < b < c) are generated by
    ONE bucketed self-join on the middle node and closed by a second
    bucketed join against the edge set — each triangle is counted
    exactly once because its three nodes admit a single increasing
    ordering. The id ordering acts as the orientation; for graphs with
    extreme hubs, replace it with (degree, id) ordering (degree-ordered
    orientation bounds out-degrees by O(sqrt(m)) and therefore the
    wedge blow-up) — same joins, one extra degree pass. Returns a
    1-row frame (n_triangles)."""
    from .relational import bucket_join, distinct

    e = distinct(
        edges_ds.map_batches(
            lambda b: pd.DataFrame(
                {"a": b[["left_id", "right_id"]].min(axis=1),
                 "b": b[["left_id", "right_id"]].max(axis=1)}),
            batch_format="pandas"),
        ["a", "b"]).materialize()

    # wedges a < b < c sharing middle node b: join e(a,b) x e(b,c)
    wedges = bucket_join(
        e.map_batches(lambda x: x.rename(columns={"b": "mid"}),
                      batch_format="pandas"),
        e.map_batches(lambda x: x.rename(columns={"a": "mid", "b": "c"}),
                      batch_format="pandas"),
        on="mid").map_batches(
        lambda x: x[["a", "c"]], batch_format="pandas")
    closed = bucket_join(wedges, e.map_batches(
        lambda x: x.assign(__edge=1)[["a", "b", "__edge"]].rename(
            columns={"b": "c"}), batch_format="pandas"),
        on=["a", "c"])
    n = closed.count()
    return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})


def common_neighbor_scores(edges_ds, min_common: int = 1):
    """Link-prediction scores for non-adjacent-or-adjacent node pairs:
    common-neighbor counts (every pair of a node's neighbors shares
    that node — exactly a co-occurrence over adjacency lists, computed
    by ops.relational.cooccurrence_pairs) plus the neighborhood Jaccard
    |N(u) & N(v)| / |N(u) | N(v)| from one degree join — a single IEEE
    division, reproducible in SQL. Returns (node_u, node_v, common,
    jaccard) for pairs with >= min_common shared neighbors."""
    from .relational import bucket_join, cooccurrence_pairs, pre_aggregated

    bidir = edges_ds.map_batches(
        lambda b: pd.DataFrame(
            {"src": pd.concat([b["left_id"], b["right_id"]],
                              ignore_index=True),
             "dst": pd.concat([b["right_id"], b["left_id"]],
                              ignore_index=True)}),
        batch_format="pandas").materialize()
    common = cooccurrence_pairs(bidir, "src", "dst").map_batches(
        lambda b: b[b["n_groups"] >= min_common].rename(
            columns={"item_a": "node_u", "item_b": "node_v",
                     "n_groups": "common"}),
        batch_format="pandas")
    from .relational import distinct

    # GLOBAL distinct of the adjacency (per-batch dedup alone would
    # double-count degrees for edges duplicated across batches)
    deg = pre_aggregated(
        distinct(bidir, ["src", "dst"]).map_batches(
            lambda b: b[["src"]].rename(columns={"src": "node"}),
            batch_format="pandas"),
        "node", counts=True).materialize()

    j1 = bucket_join(common, deg.map_batches(
        lambda b: pd.DataFrame({"node_u": b["node"],
                                "deg_u": b["n"].astype("int64")}),
        batch_format="pandas"), on="node_u")
    j2 = bucket_join(j1, deg.map_batches(
        lambda b: pd.DataFrame({"node_v": b["node"],
                                "deg_v": b["n"].astype("int64")}),
        batch_format="pandas"), on="node_v")

    def _score(b: pd.DataFrame) -> pd.DataFrame:
        c = b["common"].astype("int64")
        union = (b["deg_u"] + b["deg_v"] - c).astype("int64")
        return pd.DataFrame({
            "node_u": b["node_u"], "node_v": b["node_v"], "common": c,
            "jaccard": c.astype("float64") / union.astype("float64")})

    return j2.map_batches(_score, batch_format="pandas")


def neighborhood_signatures(edges_ds, src_col: str, dst_col: str):
    """Per-node neighborhood fingerprints — the 1-round
    Weisfeiler–Lehman-style relabeling (Weisfeiler & Leman 1968 /
    Shervashidze 2011, public) specialized to id labels: each node's
    signature is the md5 of its id concatenated with its SORTED
    distinct neighbor list. Two snapshots of a graph can be diffed on
    (node, signature) to find exactly the nodes whose neighborhoods
    changed — the cheap incremental-maintenance primitive for the
    match graph.

    Scale shape: ONE coarse bucketed shuffle co-locates each node's
    edges; per bucket a vectorized sort + dedup + groupby-join builds
    the canonical neighbor string, then one md5 per node (O(nodes),
    not O(edges)). Output: (node, degree, signature); degree counts
    DISTINCT neighbors. The canonical string is 'id|n1,n2,...' with
    ids rendered base-10 — reproducible verbatim in SQL via
    string_agg(... ORDER BY ...)."""
    import hashlib

    from .relational import bucketed_map_groups

    def _project(b: pd.DataFrame) -> pd.DataFrame:
        # drop NULL endpoints BEFORE the cast (oracle: IS NOT NULL);
        # astype("int64") on NaN raises, so the old trailing dropna
        # never ran
        p = b[[src_col, dst_col]].dropna()
        return pd.DataFrame({"node": p[src_col].astype("int64").to_numpy(),
                             "nbr": p[dst_col].astype("int64").to_numpy()})

    def _per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (g.drop_duplicates().sort_values(["node", "nbr"],
                                             kind="mergesort"))
        agg = g.groupby("node", sort=False)["nbr"].agg(
            lambda s: ",".join(map(str, s)))
        deg = g.groupby("node", sort=False)["nbr"].size()
        sig = [hashlib.md5(f"{n}|{a}".encode("utf-8")).hexdigest()
               for n, a in agg.items()]
        return pd.DataFrame({"node": agg.index.to_numpy(dtype="int64"),
                             "degree": deg.to_numpy(dtype="int64"),
                             "signature": sig})

    return bucketed_map_groups(
        edges_ds.map_batches(_project, batch_format="pandas"),
        "node", _per_bucket)
