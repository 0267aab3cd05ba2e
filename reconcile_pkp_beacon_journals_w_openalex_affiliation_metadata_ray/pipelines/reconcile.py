"""The flagship record-linkage pipeline (SURVEY.md §7.1):

pages.parquet ──row-group read + EXTRACT (one fused task per row-group
chunk, html never in plasma)──┐
reference_works.parquet ──row-group read + work records (fused)──┴──►
records ──► BLOCK (key emit + hot-key refine + groupby pair-gen) ──►
SCORE (broadcast attrs, or a bucketed join past the object-store
budget) ──► CLUSTER (iterative min-label CC) ──► STATS.

Every Parquet read here, checkpoints included, goes through
``sources.io.read_parquet_rowgroups`` (footers read in the calling
process, row groups grouped into tasks, per-table transforms fused into
the read).
``run_reconcile`` returns the intermediate Datasets so callers (driver
queries, tests, bench) can consume any stage;
``run_reconcile_checkpointed`` runs the same stages through
``state.manifest.checkpoint``. Nothing here calls ``ray.init``.
"""

from __future__ import annotations

import os

from ..sources.fixtures import ensure_fixtures
from ..sources.io import cluster_cpus, read_parquet_rowgroups
from ..stages import block, cluster, records, score
from ..stages.extract import mentions_from_extracted, read_extract_pages


def read_works(path: str):
    """The authority works table, spread over up to one read task per
    CPU: the work-record map of ``records.build_records`` fuses into
    these tasks."""
    return read_parquet_rowgroups(path, min_tasks=cluster_cpus())


# broadcast the record-attribute table only while it stays under this
# fraction of the node object store: the broadcast is one plasma copy
# per node (workers map it zero-copy), but past this point it starts
# crowding out the blocks the streaming executor needs in flight
BROADCAST_OBJECT_STORE_FRACTION = 0.2


def choose_scoring_path(records_ds) -> bool:
    """True -> use score_pairs_shuffle (big-big bucketed join); False
    -> broadcast scoring. Decision input: the MATERIALIZED record
    table's in-plasma size vs the object-store budget (the packed
    broadcast table is the same attribute columns, so size_bytes is the
    right proxy). Falls back to broadcast when resources are unknown
    (local/unit-test sessions)."""
    try:
        import ray

        budget = ray.cluster_resources().get("object_store_memory")
        size = records_ds.size_bytes()
        if budget and size:
            return size > BROADCAST_OBJECT_STORE_FRACTION * float(budget)
    except Exception:
        pass
    return False


def score_stage(pairs, recs):
    """Stage 3 of both the streaming and the checkpointed run, on the
    path :func:`choose_scoring_path` picks from ``recs``
    (materialized)."""
    if choose_scoring_path(recs):
        return score.score_pairs_shuffle(pairs, recs)
    return score.score_pairs(pairs, score.broadcast_records(recs))


def match_edges(scored):
    """Scored pairs -> the (left_id, right_id) edges clustering joins."""
    return scored.map_batches(
        lambda t: t.filter(t["is_match"]).select(["left_id", "right_id"]),
        batch_format="pyarrow")


def run_reconcile(sf_dir: str, materialize_extracted: bool = False,
                  materialize_pairs: bool = True,
                  materialize_scored: bool = True):
    """Full pipeline over the tier's synthesized pages. Returns a dict
    of stage outputs (lazy Datasets unless noted).

    Stage 3 scores by broadcast, or, when the materialized record
    table outgrows its share of the object store, by the bucketed-join
    path (:func:`choose_scoring_path`); both share one packer and one
    scoring body and emit identical scored rows (equivalence-tested in
    tests/test_pipeline.py).

    materialize_extracted=True checkpoints the extraction output in
    the object store so DOWNSTREAM CONSUMERS of out["extracted"] don't
    re-run the HTML parse (the driver's queries() memo uses this —
    many queries share that stage); the default keeps the flagship
    path fully streaming (extracted text never parked in plasma)."""
    import ray

    fdir = ensure_fixtures(sf_dir)
    # read fused into the extract task (html never enters the object
    # store — Ray 2.49 won't fuse a Read with a downstream map). Built
    # first: a session's first Dataset starts Ray Data's stats actor
    # (~1-2 s on one CPU), a cost that belongs to the first stage.
    extracted = read_extract_pages(os.path.join(fdir, "pages.parquet"))
    works = read_works(os.path.join(fdir, "reference_works.parquet"))
    if materialize_extracted:
        extracted = extracted.materialize()
    recs = records.build_records(extracted, works).materialize()  # reused 3x, small (no html)
    hot = block.find_hot_keys(recs)
    hot_ref = ray.put(hot)
    pairs = block.candidate_pairs(recs, hot_keys_ref=hot_ref)
    if materialize_pairs:
        # out["pairs"] has several downstream consumers in the driver
        # sweep — park it once. materialize_pairs=False is the flagship
        # e2e configuration: scoring streams straight off the pair
        # dedup (no plasma round trip, no stage barrier), and
        # out["pairs"] stays lazy for callers that ignore it.
        pairs = pairs.materialize()
    scored = score_stage(pairs, recs)
    if materialize_scored:
        # consumed twice in the driver sweep (edges + stats/eval).
        # materialize_scored=False is the e2e configuration: clustering
        # consumes scored exactly once (connected_components_auto
        # materializes the much smaller filtered EDGE table itself), so
        # parking the full scored table is a pure barrier + plasma
        # write there; out["scored"] stays lazy for callers that skip it
        scored = scored.materialize()
    clusters = cluster.connected_components_auto(match_edges(scored), nodes_ds=recs)
    return {
        "fixture_dir": fdir,
        "extracted": extracted,
        "records": recs,
        "hot_keys": hot,
        "pairs": pairs,
        "scored": scored,
        "clusters": clusters,
    }


def run_reconcile_checkpointed(sf_dir: str, workdir: str):
    """Checkpointed variant: every stage lands in per-partition Parquet
    with a lineage manifest under ``workdir`` (state.manifest). A rerun
    with unchanged inputs resumes: completed stages are READ, their
    upstream compute never re-executes (ds_factory laziness). The
    stages and the scoring-path choice are the streaming run's.

    The record table is materialized on its first use by a factory
    (three of them read it), so a full resume runs no factory and
    executes nothing until the caller consumes ``clusters``. Returns
    (outputs dict, resumed dict: stage -> bool)."""
    import ray

    from ..state import manifest as mf

    fdir = ensure_fixtures(sf_dir)
    pages_path = os.path.join(fdir, "pages.parquet")
    works_path = os.path.join(fdir, "reference_works.parquet")
    fp = mf.fingerprint_inputs(pages_path, works_path, "v1")
    resumed = {}

    def records_factory():
        return records.build_records(read_extract_pages(pages_path),
                                     read_works(works_path))

    recs, resumed["records"] = mf.checkpoint(
        records_factory, workdir, "records", fp, partition_key="record_id")
    parked = []

    def recs_once():
        if not parked:
            parked.append(recs.materialize())
        return parked[0]

    def pairs_factory():
        hot = block.find_hot_keys(recs_once())
        return block.candidate_pairs(recs_once(), hot_keys_ref=ray.put(hot))

    pairs, resumed["pairs"] = mf.checkpoint(
        pairs_factory, workdir, "pairs", fp, partition_key="left_id")

    scored, resumed["scored"] = mf.checkpoint(
        lambda: score_stage(pairs, recs_once()), workdir, "scored", fp,
        partition_key="left_id", histogram_col="combined_score")

    def clusters_factory():
        return cluster.connected_components_auto(match_edges(scored),
                                                 nodes_ds=recs_once())

    clusters, resumed["clusters"] = mf.checkpoint(
        clusters_factory, workdir, "clusters", fp, partition_key="record_id")

    return {"fixture_dir": fdir, "records": parked[0] if parked else recs,
            "pairs": pairs, "scored": scored, "clusters": clusters}, resumed


def pipeline_report(out: dict) -> dict:
    """Per-stage observability summary (A5/A6 analog of the reference's
    atomic counters + run summaries, `main.rs:86-144,812-823`): row
    counts, hot keys, and the total/blocked dropped-pairs accounting —
    every cap the blocking stage applied is visible here, never silent."""
    from ray.data.aggregate import Sum

    from ..ops.relational import bucketed_map_groups

    pairs = out["pairs"]
    # filter to capped blocks FIRST (rare), then a bucketed max — the
    # old groupby(block_key) aggregate paid per-distinct-key overhead
    # and take_all()'d one row per block key to the driver
    pos = pairs.map_batches(
        lambda b: b.loc[b["dropped_pairs"] > 0,
                        ["block_key", "dropped_pairs"]].drop_duplicates(),
        batch_format="pandas")
    dropped = bucketed_map_groups(
        pos, "block_key",
        lambda g: g.groupby("block_key", as_index=False, sort=False)
                   .agg(d=("dropped_pairs", "max")),
        num_buckets=16)
    dropped_rows = dropped.take_all()
    scored = out["scored"]
    n_matches = scored.map_batches(
        lambda b: b.assign(m=b.is_match.astype(int))[["m"]],
        batch_format="pandas").aggregate(Sum("m", alias_name="n"))
    return {
        "records": out["records"].count(),
        "hot_keys": sorted(out["hot_keys"]),
        "candidate_pairs": pairs.count(),
        "scored_pairs": scored.count(),
        "match_edges": int(n_matches["n"] or 0),
        "clusters": out["clusters"].count(),
        "capped_blocks": len(dropped_rows),
        "dropped_pairs_total": int(sum(r["d"] for r in dropped_rows)),
    }


def pairwise_f1_join(clusters_ds, labeled_path: str, num_buckets: int = 32) -> dict:
    """Pairwise F1 via TWO bucketed hash joins — the scale path: the
    labeled-pair table is joined to the cluster map on left_id and then
    on right_id (ops.relational.bucket_join, hash-partitioned, nothing
    broadcast or collected), and the confusion counts are per-batch
    partial sums merged on the driver (4 ints per batch). Use this when
    the cluster map no longer fits the driver; equivalence with the
    driver-side :func:`pairwise_f1` is asserted in tests."""
    import pandas as pd

    from ..ops.relational import bucket_join

    lp = read_parquet_rowgroups(labeled_path)

    def _side(col, out):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({col: b["record_id"], out: b["cluster_id"]})
        return fn

    left_cl = clusters_ds.map_batches(_side("left_id", "__cl_l"),
                                      batch_format="pandas")
    right_cl = clusters_ds.map_batches(_side("right_id", "__cl_r"),
                                       batch_format="pandas")
    j1 = bucket_join(lp, left_cl, on="left_id", how="left",
                     num_buckets=num_buckets).materialize()
    j2 = bucket_join(j1, right_cl, on="right_id", how="left",
                     num_buckets=num_buckets)

    def _counts(b: pd.DataFrame) -> pd.DataFrame:
        pred = b["__cl_l"].notna() & (b["__cl_l"] == b["__cl_r"])
        actual = b["is_match"].astype(bool)
        return pd.DataFrame({
            "tp": [int((pred & actual).sum())],
            "fp": [int((pred & ~actual).sum())],
            "fn": [int((~pred & actual).sum())],
            "tn": [int((~pred & ~actual).sum())],
        })

    parts = j2.map_batches(_counts, batch_format="pandas").to_pandas()
    tp, fp, fn, tn = (int(parts[c].sum()) for c in ("tp", "fp", "fn", "tn"))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": precision, "recall": recall, "f1": f1}


def pairwise_f1(clusters_ds, labeled_path: str) -> dict:
    """Pairwise precision/recall/F1 of predicted same-cluster vs the
    labeled pairs (the gate metric, BASELINE.json: F1 >= 0.99 at the
    same blocking keys). The cluster map is collected driver-side —
    it is one short row per record; :func:`pairwise_f1_join` is the
    no-collect scale path (equivalence-tested)."""
    import pyarrow.parquet as pq

    label = {}
    for batch in clusters_ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        for rid, cid in zip(batch["record_id"].to_pylist(), batch["cluster_id"].to_pylist()):
            label[rid] = cid
    lp = pq.read_table(labeled_path)
    tp = fp = fn = tn = 0
    for left, right, is_match in zip(
        lp["left_id"].to_pylist(), lp["right_id"].to_pylist(), lp["is_match"].to_pylist()
    ):
        cl, cr = label.get(left), label.get(right)
        pred = cl is not None and cl == cr
        if pred and is_match:
            tp += 1
        elif pred and not is_match:
            fp += 1
        elif not pred and is_match:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
            "precision": precision, "recall": recall, "f1": f1}


def run_mention_scoring(sf_dir: str):
    """The reference-parity chain: extract -> flat mentions -> 8-column
    comparison vs authority works (per-DOI lookup) — the Ray-native
    equivalent of scripts 6 -> 7 (`SURVEY.md §3.2`)."""
    fdir = ensure_fixtures(sf_dir)
    works = read_works(os.path.join(fdir, "reference_works.parquet"))
    extracted = read_extract_pages(os.path.join(fdir, "pages.parquet"))
    mentions = mentions_from_extracted(extracted)
    works_ref = score.broadcast_works_by_doi(works)
    return fdir, score.score_mentions(mentions, works_ref)
