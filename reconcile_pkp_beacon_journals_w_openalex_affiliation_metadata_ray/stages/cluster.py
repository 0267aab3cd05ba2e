"""Stage 4 — CLUSTER: matched pairs -> entity clusters.

Distributed transitive closure via iterative hash-partitioned min-label
propagation (the explicit generalization of the reference's implicit
per-DOI grouping, `check...openalex.py:72-74`): every node starts
labeled with its own id; each round every node takes the min label in
its closed neighborhood; convergence when the label assignment's
deterministic fingerprint stops changing (a tiny tree-reduce aggregate
— no extra shuffle). Each round costs exactly two keyed shuffles
(message delivery + min-reduction), both partitioned on node id — the
same key every round, so a multi-node scheduler keeps partitions
sticky. Rounds are materialized to keep lineage bounded
(SURVEY.md §7.3). Converges in O(component diameter) rounds.

A driver-side union-find (`union_find`) is the small-input path:
:func:`connected_components_auto` runs it (the flagship's CC) whenever
the matched edges number fewer than ``driver_edge_limit``, and tests
use it as the oracle. The Dataset implementation is the scale path
above that limit (the min-label / hash-to-min family of distributed
CC — cf. the load-balanced union-find line of work surveyed in
PAPERS.md, e.g. BTS, ICDE 2024).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def union_find(edges, nodes=()):
    """In-memory union-find: returns dict node -> min-id root."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra

    for n in nodes:
        parent.setdefault(n, n)
    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        union(a, b)
    return {n: find(n) for n in parent}


def _deliver_bucket(g: pd.DataFrame) -> pd.DataFrame:
    """Sort partition of label rows + edge rows (all rows of a node in
    one partition): deliver each node's label to all its neighbors and
    itself — vectorized pandas merge, one call per partition."""
    labels = g.loc[g["other"].isna(), ["node", "label"]]
    edges = g.loc[g["other"].notna(), ["node", "other"]]
    if labels.empty:
        return pd.DataFrame({"node": pd.Series(dtype=str), "label": pd.Series(dtype=str)})
    msgs = edges.merge(labels, on="node", how="inner")[["other", "label"]]
    msgs = msgs.rename(columns={"other": "node"})
    return pd.concat([labels, msgs], ignore_index=True)


def _min_bucket(g: pd.DataFrame) -> pd.DataFrame:
    return g.groupby("node", as_index=False, sort=False).agg(label=("label", "min"))


def _fingerprint(labels_ds) -> int:
    """Order-independent fingerprint of the (node, label) assignment.

    Per-row uint64 hashes (pandas' vectorized stable row hashing over
    the joined "node\\x00label" string — no per-row Python call; the
    old blake2b loop was the slowest per-round driver cost at scale)
    are summed EXACTLY per batch by splitting each hash into 32-bit
    halves (a raw uint64 sum would overflow and wrap
    nondeterministically vs the modular driver combine), then reduced
    modulo 2**62. The partials (one tiny row per batch) are combined on
    the driver: an ``aggregate`` here would cost a full AllToAll
    barrier PER CC ROUND just to add a handful of ints.
    """
    _MOD = 1 << 62

    def _fp_batch(b: pd.DataFrame) -> pd.DataFrame:
        from pandas.util import hash_pandas_object

        h = hash_pandas_object(
            b["node"].astype(str).str.cat(b["label"].astype(str), sep="\x00"),
            index=False).to_numpy()
        lo = int((h & 0xFFFFFFFF).sum())   # <= n * 2^32: exact in uint64
        hi = int((h >> 32).sum())
        total = (lo + (hi << 32)) % _MOD
        return pd.DataFrame({"fp": pd.Series([total], dtype="int64")})

    parts = labels_ds.map_batches(_fp_batch, batch_format="pandas").take_all()
    return sum(int(r["fp"]) for r in parts) % _MOD


def connected_components(edges_ds, nodes_ds=None, max_rounds: int = 25):
    """edges (left_id, right_id) [+ optional extra nodes (record_id)]
    -> Dataset (record_id, cluster_id). Singleton nodes keep their own
    id as cluster_id. Each round = two shuffles keyed on hash(node)
    (ops.relational.bucketed_map_groups).

    Two scale properties, both found by the sf1 (2.1M-page / 6.5M-edge)
    proof run where CC rounds had grown to ~8 min each:
    - a round's block count is bounded. A round's output feeds the
      next round's input, and a sort that makes one partition per
      input block let block counts COMPOUND (889 -> 1776 -> 2000+).
      Every shuffle here cuts the fixed hash space into at most 4 x
      the cluster's task slots ranges (ops.relational._shuffle_buckets),
      so each round emits at most that many blocks, however many enter;
    - label propagation runs over EDGE-ENDPOINT nodes only. Nodes
      outside any edge are singletons whose label never changes; they
      rejoin via one final min-merge shuffle instead of riding every
      round's two shuffles (at sf1 that is ~2M rows x 2 shuffles x
      rounds of dead weight).
    """
    from ..ops.relational import bucketed_map_groups

    edges_bidir = edges_ds.map_batches(
        lambda df: pd.DataFrame(
            {"node": pd.concat([df["left_id"], df["right_id"]], ignore_index=True),
             "other": pd.concat([df["right_id"], df["left_id"]], ignore_index=True)}),
        batch_format="pandas",
    ).materialize()

    node_sources = edges_bidir.map_batches(
        lambda df: pd.DataFrame({"node": df["node"]}), batch_format="pandas")
    labels = bucketed_map_groups(
        node_sources,
        "node",
        lambda df: df.drop_duplicates().assign(label=lambda d: d["node"]),
    ).materialize()
    prev_fp = _fingerprint(labels)

    converged = False

    def _tag_labels(df: pd.DataFrame) -> pd.DataFrame:
        # label rows PLUS label-shortcut edges (pointer jumping): treat
        # each node's CURRENT label as an extra bidirectional edge. A
        # label is always a node of the same component (it arrived over
        # real edges), so components never merge wrongly, and
        # path-shaped components converge in O(log diameter) rounds
        # instead of O(diameter).
        none = lambda k: pd.Series([None] * k, dtype=object)
        label_rows = pd.DataFrame({"node": df["node"], "other": none(len(df)),
                                   "label": df["label"]})
        jump = df.loc[df["label"] != df["node"]]
        jump_edges = pd.DataFrame(
            {"node": pd.concat([jump["node"], jump["label"]], ignore_index=True),
             "other": pd.concat([jump["label"], jump["node"]], ignore_index=True),
             "label": none(2 * len(jump))})
        return pd.concat([label_rows, jump_edges], ignore_index=True)

    rounds_run = 0
    for _ in range(max_rounds):
        rounds_run += 1
        tagged_labels = labels.map_batches(_tag_labels, batch_format="pandas")
        tagged_edges = edges_bidir.map_batches(
            lambda df: pd.DataFrame({"node": df["node"], "other": df["other"],
                                     "label": pd.Series([None] * len(df), dtype=object)}),
            batch_format="pandas")
        msgs = bucketed_map_groups(tagged_labels.union(tagged_edges), "node",
                                   _deliver_bucket)
        labels = bucketed_map_groups(msgs, "node", _min_bucket).materialize()
        fp = _fingerprint(labels)
        if fp == prev_fp:
            converged = True
            break
        prev_fp = fp

    import logging

    if not converged:
        logging.getLogger(__name__).warning(
            "connected_components: min-label propagation did not converge "
            "within max_rounds=%d; components with diameter > max_rounds are "
            "split. Raise max_rounds (rounds needed = component diameter).",
            max_rounds)
    else:
        # round count is the per-tier scale signal (rounds ~ log2 of
        # the largest component's diameter with the label-jump edges;
        # sf1 measured ~17 rounds x ~30 s)
        logging.getLogger(__name__).info(
            "connected_components: converged after %d rounds "
            "(%d label partitions)", rounds_run, labels.num_blocks())

    if nodes_ds is not None:
        # singletons rejoin HERE, once: a node with edges already holds
        # label <= its own id (its closed neighborhood includes itself),
        # so min(cc_label, self) is a no-op for it; nodes outside every
        # edge surface with their own id. One bounded shuffle total.
        self_labels = nodes_ds.map_batches(
            lambda df: pd.DataFrame({"node": df["record_id"],
                                     "label": df["record_id"]}),
            batch_format="pandas")
        labels = bucketed_map_groups(labels.union(self_labels), "node",
                                     _min_bucket)

    return labels.map_batches(
        lambda df: pd.DataFrame({"record_id": df["node"], "cluster_id": df["label"]}),
        batch_format="pandas")


def connected_components_auto(edges_ds, nodes_ds=None,
                              driver_edge_limit: int = 2_000_000):
    """Hybrid transitive closure: the matched-edge set is typically a
    tiny fraction of the input corpus (only records that scored as
    matches), so when it fits comfortably on the driver
    (< driver_edge_limit edges) we stream the edges once and run
    union-find there — one pass, no per-round shuffles. Above the
    limit, the fully-distributed min-label propagation
    (:func:`connected_components`) takes over. Both paths produce the
    identical min-id labeling (asserted in tests)."""
    edges_ds = edges_ds.materialize()
    n_edges = edges_ds.count()
    if n_edges > driver_edge_limit:
        return connected_components(edges_ds, nodes_ds=nodes_ds)
    edges = []
    for b in edges_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        edges.extend(zip(b["left_id"].to_pylist(), b["right_id"].to_pylist()))
    labels = union_find(edges)

    if nodes_ds is not None:
        import ray

        # the labels travel as one Arrow table that every task maps
        # zero-copy, and each records block is looked up whole on its
        # id column: no other column converts, no dict unpickles
        labels_ref = ray.put(pa.table({"node": pa.array(list(labels)),
                                       "label": pa.array(list(labels.values()))}))

        def _assign(t: pa.Table) -> pa.Table:
            lbl = ray.get(labels_ref)
            ids = t["record_id"].combine_chunks()
            # whole-value hashing: NUL-exact; an id no edge touched is
            # its own label
            at = pc.index_in(ids, value_set=lbl["node"].combine_chunks().cast(ids.type))
            return pa.table({"record_id": ids, "cluster_id": pc.coalesce(
                lbl["label"].combine_chunks().cast(ids.type).take(at), ids)})

        return nodes_ds.map_batches(_assign, batch_format="pyarrow",
                                    zero_copy_batch=True, batch_size=None)
    rows = sorted(labels.items())
    import ray.data as rd

    return rd.from_items([{"record_id": k, "cluster_id": v} for k, v in rows])


def incremental_cc(assign_ds, new_edges_ds):
    """Delta-maintenance of a min-id clustering: given the EXISTING
    (record_id, cluster_id) assignment and a batch of NEW match edges
    (clerical adjudications, a fresh crawl increment), produce the
    updated labeling WITHOUT re-running closure over the original edge
    set. Key fact: the old assignment IS a spanning edge set — each
    (node -> label) edge reproduces the original component exactly —
    so closure over (assignment edges) ∪ (new edges) equals closure
    over (all original edges) ∪ (new edges), but costs O(V + ΔE)
    instead of O(E + ΔE). At 100 TB the match-edge set dwarfs the node
    set, which is what makes this the incremental shape.

    Routed through :func:`connected_components_auto`, so small deltas
    take the one-pass driver union-find and huge ones fall back to the
    distributed min-label propagation."""
    lab_edges = assign_ds.map_batches(
        lambda b: pd.DataFrame({"left_id": b["record_id"],
                                "right_id": b["cluster_id"]}),
        batch_format="pandas")
    ne = new_edges_ds.map_batches(
        lambda b: pd.DataFrame({"left_id": b["left_id"],
                                "right_id": b["right_id"]}),
        batch_format="pandas")
    nodes = assign_ds.map_batches(
        lambda b: pd.DataFrame({"record_id": b["record_id"]}),
        batch_format="pandas")
    return connected_components_auto(lab_edges.union(ne), nodes_ds=nodes)
