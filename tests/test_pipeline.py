"""End-to-end pipeline gates (SURVEY.md §5):

- byte-identical extracted text per url vs the single-threaded oracle,
  at two parallelism levels (the input_hint invariant);
- pairwise F1 >= 0.99 vs labeled pairs (the BASELINE.json gate);
- distributed connected components vs union-find oracle;
- mention-scorer parity with an independent per-row oracle.
"""

import os

import pyarrow.parquet as pq
import pytest

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import fixtures
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import cluster as cluster_mod
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
    extract_pages,
    mentions_from_extracted,
    oracle_extract,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def fdir(ray_session):
    return fixtures.ensure_fixtures(SF)


def test_extraction_byte_identical_two_parallelism_levels(ray_session, fdir):
    import ray.data as rd

    pages_tbl = pq.read_table(os.path.join(fdir, "pages.parquet"))
    oracle = oracle_extract(pages_tbl)

    for num_blocks in (1, 8):
        ds = rd.read_parquet(os.path.join(fdir, "pages.parquet"),
                             override_num_blocks=num_blocks)
        extracted = extract_pages(ds, batch_size=32 if num_blocks == 8 else 256)
        got = {}
        for batch in extracted.iter_batches(batch_size=512, batch_format="pyarrow"):
            for row in batch.select(["url", "text", "doi"]).to_pylist():
                got[row["url"]] = row
        assert set(got) == set(oracle)
        for url, o in oracle.items():
            assert got[url]["text"] == o["text"], f"text differs for {url} at blocks={num_blocks}"
            assert got[url]["doi"] == o["doi"]


def test_mentions_match_oracle(ray_session, fdir):
    import ray.data as rd

    pages_tbl = pq.read_table(os.path.join(fdir, "pages.parquet"))
    oracle = oracle_extract(pages_tbl)
    want = set()
    for url, o in oracle.items():
        for author, inst, source in o["mentions"]:
            want.add((url, o["doi"], author, inst, source))

    ds = rd.read_parquet(os.path.join(fdir, "pages.parquet"))
    mentions = mentions_from_extracted(extract_pages(ds))
    got = set()
    for batch in mentions.iter_batches(batch_size=1024, batch_format="pyarrow"):
        for row in batch.to_pylist():
            got.add((row["url"], row["doi"], row["author"], row["institution"], row["source"]))
    assert got == want


def test_reconcile_f1_gate(ray_session, fdir):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import reconcile

    out = reconcile.run_reconcile(SF)
    clusters = out["clusters"].materialize()
    res = reconcile.pairwise_f1(clusters, os.path.join(fdir, "labeled_pairs.parquet"))
    assert res["f1"] >= 0.99, res
    assert res["precision"] >= 0.99, res
    assert res["recall"] >= 0.99, res


def test_connected_components_vs_union_find(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.RandomState(7)
    nodes = [f"n{i:03d}" for i in range(120)]
    edges = []
    # random clusters: partition nodes into chains + extra random intra-cluster edges
    k = 12
    for ci in range(k):
        members = nodes[ci::k]
        for a, b in zip(members, members[1:]):
            edges.append((a, b))
        for _ in range(3):
            i, j = rng.randint(len(members), size=2)
            edges.append((members[i], members[j]))
    oracle = cluster_mod.union_find(edges, nodes)

    edges_ds = rd.from_arrow(pa.table({
        "left_id": [e[0] for e in edges],
        "right_id": [e[1] for e in edges],
    }))
    nodes_ds = rd.from_arrow(pa.table({"record_id": nodes}))
    got_ds = cluster_mod.connected_components(edges_ds, nodes_ds=nodes_ds)
    got = {}
    for batch in got_ds.iter_batches(batch_size=1024, batch_format="pyarrow"):
        for row in batch.to_pylist():
            got[row["record_id"]] = row["cluster_id"]
    assert got == oracle


def _mention_oracle(mention_rows, works_by_doi):
    """Independent reimplementation of `check...openalex.py` semantics
    using the brute-force DP ratio (distinct code path from the
    bit-parallel production kernel)."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.textnorm import (
        normalize_text,
    )

    def dp_ratio(a, b):
        # indel distance via classic DP
        m, n = len(a), len(b)
        if m + n == 0:
            return 100.0
        prev = list(range(n + 1))
        for i in range(1, m + 1):
            cur = [i]
            for j in range(1, n + 1):
                if a[i - 1] == b[j - 1]:
                    cur.append(prev[j - 1])
                else:
                    cur.append(min(prev[j], cur[j - 1]) + 1)
            prev = cur
        return 100.0 * (1 - prev[n] / (m + n))

    out = []
    for rec in mention_rows:
        doi = (rec["doi"] or "").strip()
        if not doi.startswith("10."):
            continue
        auths = works_by_doi.get(doi.lower(), [])
        a_raw, i_raw = rec["author"] or "", rec["institution"] or ""
        a_norm, i_norm = normalize_text(a_raw), normalize_text(i_raw)
        best, best_idx = -1.0, -1
        if a_norm and auths:
            for idx, au in enumerate(auths):
                cur = dp_ratio(a_norm, normalize_text(au.get("raw_author_name") or ""))
                if cur > best:
                    best, best_idx = cur, idx
                    if best == 100.0:
                        break
        row = {"author_similarity_score": 0.0, "institution_similarity_score": 0.0,
               "exact_author_match": False, "normalized_author_match": False,
               "exact_institution_match": False, "normalized_institution_match": False}
        if best_idx != -1:
            au = auths[best_idx]
            api_name = au.get("raw_author_name") or ""
            row["author_similarity_score"] = round(best, 2)
            row["exact_author_match"] = a_raw == api_name
            row["normalized_author_match"] = a_norm == normalize_text(api_name)
            raw_affs = au.get("raw_affiliation_strings") or []
            norm_affs = [normalize_text(x) for x in raw_affs if x]
            norm_affs = [x for x in norm_affs if x]
            if not i_raw:
                row["exact_institution_match"] = not bool(raw_affs)
            elif raw_affs:
                row["exact_institution_match"] = any(i_raw.lower() == x.lower() for x in raw_affs)
            if not i_norm:
                row["normalized_institution_match"] = not bool(norm_affs)
            elif norm_affs:
                row["normalized_institution_match"] = i_norm in norm_affs
            if not i_norm:
                row["institution_similarity_score"] = 100.0 if not norm_affs else 0.0
            elif norm_affs:
                row["institution_similarity_score"] = round(
                    max(dp_ratio(i_norm, x) for x in norm_affs), 2)
        out.append(((rec["url"], doi, a_raw, i_raw), row))
    return dict(out)


def test_mention_scorer_parity(ray_session, fdir):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import reconcile

    _, scored = reconcile.run_mention_scoring(SF)
    got = {}
    for batch in scored.iter_batches(batch_size=1024, batch_format="pandas"):
        for rec in batch.to_dict("records"):
            got[(rec["url"], rec["doi"], rec["author"], rec["institution"])] = rec

    works = pq.read_table(os.path.join(fdir, "reference_works.parquet")).to_pylist()
    works_by_doi = {w["doi"].strip().lower(): w["authorships"] for w in works if w["doi"]}

    import ray.data as rd

    pages_tbl = pq.read_table(os.path.join(fdir, "pages.parquet"))
    oracle_pages = oracle_extract(pages_tbl)
    mention_rows = []
    for url, o in oracle_pages.items():
        for author, inst, source in o["mentions"]:
            mention_rows.append({"url": url, "doi": o["doi"], "author": author,
                                 "institution": inst})
    oracle = _mention_oracle(mention_rows, works_by_doi)

    assert set(got) == set(oracle)
    for key, orow in oracle.items():
        grow = got[key]
        for col, val in orow.items():
            assert grow[col] == pytest.approx(val) if isinstance(val, float) else grow[col] == val, (
                key, col, grow[col], val)


def test_shuffle_scoring_equals_broadcast(ray_session, fdir, monkeypatch):
    """The big-big (shuffle-join) scoring path must produce exactly the
    broadcast path's scored rows, at the adaptive bucket count and at a
    forced one that both of its joins receive."""
    import pandas as pd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import relational
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import (
        block, records, score,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    recs = records.build_records(
        read_extract_pages(os.path.join(fdir, "pages.parquet")),
        reconcile.read_works(os.path.join(fdir, "reference_works.parquet"))).materialize()
    pairs = block.candidate_pairs(recs).materialize()

    attrs = score.pack_attrs(recs).materialize()
    rec_ref = score.broadcast_records(attrs)
    key = ["left_id", "right_id"]
    a = (score.score_pairs(pairs, rec_ref).to_pandas()
         .sort_values(key, kind="mergesort").reset_index(drop=True))
    assert len(a) > 0

    def shuffle_rows():
        b = (score.score_pairs_shuffle(pairs, attrs).to_pandas()
             .sort_values(key, kind="mergesort").reset_index(drop=True))
        assert len(a) == len(b)
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)

    shuffle_rows()

    join_buckets = []
    orig_join = relational.bucket_join

    def spy_join(*args, **kwargs):
        join_buckets.append(kwargs["num_buckets"])
        return orig_join(*args, **kwargs)

    monkeypatch.setattr(block, "adaptive_num_buckets", lambda n: 5)
    monkeypatch.setattr(relational, "bucket_join", spy_join)
    shuffle_rows()
    assert join_buckets == [5, 5]


def test_parsing_stats_vs_serial_oracle(ray_session, fdir):
    """A4 parity: the distributed parsing statistics equal a serial
    recomputation over the oracle extraction (reference semantics,
    `parse_landing_page_html.py:250-363`)."""
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.htmlextract import (
        extract_page,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import stats

    pages_tbl = pq.read_table(os.path.join(fdir, "pages.parquet"))
    # serial oracle
    counters = dict(found=0, ok=0, a=0, i=0, both=0, ul=0)
    rows = []
    for idx in range(pages_tbl.num_rows):
        page = extract_page(pages_tbl["html"][idx].as_py())
        counters["found"] += 1
        counters["ok"] += 1
        counters["a"] += page["has_author_tag"]
        counters["i"] += page["has_inst_tag"]
        counters["both"] += page["has_author_tag"] and page["has_inst_tag"]
        counters["ul"] += page["has_ul_authors"]
        for author, inst, src in page["mentions"]:
            rows.append((author, inst, src, page["has_inst_tag"]))

    ds = rd.read_parquet(os.path.join(fdir, "pages.parquet"))
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        extract_pages as ep,
    )

    got = stats.parsing_stats(ep(ds))
    assert got["Total HTML files found"] == counters["found"]
    assert got["Files containing citation_author meta tag"] == counters["a"]
    assert got["Files containing both meta tags"] == counters["both"]
    assert got["Files containing ul.authors structure"] == counters["ul"]
    assert got["Total unique DOI/author/institution rows extracted (merged)"] == len(rows)
    assert got["Total valid author-institution pairs extracted (non-empty institution)"] == \
        sum(1 for r in rows if r[1])
    assert got["Rows sourced ONLY from meta tags"] == sum(1 for r in rows if r[2] == "meta")
    assert got["Rows sourced from BOTH meta and ul.authors"] == \
        sum(1 for r in rows if "meta" in r[2] and "ul.authors" in r[2])
    assert got["Unique authors found (merged)"] == len({r[0] for r in rows})
    assert got["Unique institutions found (non-empty, merged)"] == \
        len({r[1] for r in rows if r[1]})
    assert got["Author rows missing institution from files with institution meta tags"] == \
        sum(1 for r in rows if not r[1] and r[3])


def test_distributed_cc_equals_driver_path(ray_session, fdir):
    """Forcing the fully-distributed CC (driver_edge_limit=0) must give
    the same clustering as the hybrid auto path on the real pipeline
    edges."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )

    out = reconcile.run_reconcile(SF)
    edges = out["scored"].map_batches(
        lambda t: t.filter(t["is_match"]).select(["left_id", "right_id"]),
        batch_format="pyarrow").materialize()

    def as_partition_sets(ds):
        clusters = {}
        for b in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
            for r, c in zip(b["record_id"].to_pylist(), b["cluster_id"].to_pylist()):
                clusters.setdefault(c, set()).add(r)
        return {frozenset(v) for v in clusters.values()}

    auto = cluster_mod.connected_components_auto(edges, nodes_ds=out["records"])
    dist = cluster_mod.connected_components_auto(edges, nodes_ds=out["records"],
                                                 driver_edge_limit=0)
    assert as_partition_sets(auto) == as_partition_sets(dist)


def test_connected_components_large_batches(ray_session):
    """Regression: _fingerprint summed per-row 56-bit digests into one
    Python int and built a pa.int64 — OverflowError past ~256 rows per
    batch. 1500 nodes in one block exercises large fingerprint batches
    and checks the distributed labeling against union-find."""
    import pyarrow as pa
    import ray.data as rd

    nodes = [f"m{i:04d}" for i in range(1500)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(0, 1498, 2)]  # 750 pairs
    oracle = cluster_mod.union_find(edges, nodes)

    edges_ds = rd.from_arrow(pa.table({
        "left_id": [e[0] for e in edges],
        "right_id": [e[1] for e in edges],
    }))
    nodes_ds = rd.from_arrow(pa.table({"record_id": nodes}))
    got_ds = cluster_mod.connected_components(edges_ds, nodes_ds=nodes_ds)
    got = {r["record_id"]: r["cluster_id"] for r in got_ds.take_all()}
    assert got == oracle


def test_connected_components_long_chain_converges(ray_session):
    """A 100-hop path needs ~100 rounds under plain neighborhood-min;
    with label shortcutting it must finish inside a 10-round budget
    (O(log diameter))."""
    import pyarrow as pa
    import ray.data as rd

    nodes = [f"c{i:04d}" for i in range(100)]
    edges = list(zip(nodes, nodes[1:]))  # one long chain
    edges_ds = rd.from_arrow(pa.table({
        "left_id": [e[0] for e in edges],
        "right_id": [e[1] for e in edges],
    }))
    got_ds = cluster_mod.connected_components(edges_ds, max_rounds=10)
    got = {r["record_id"]: r["cluster_id"] for r in got_ds.take_all()}
    assert set(got.values()) == {nodes[0]}
    assert len(got) == 100


def test_choose_scoring_path_auto_switch(ray_session, monkeypatch):
    """shuffle_scoring=None picks broadcast below the object-store
    budget fraction and the bucketed-join path above it; forcing the
    threshold to ~0 must flip the decision on the same table."""
    import pandas as pd
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )

    recs = rd.from_pandas(pd.DataFrame({
        "record_id": [f"r{i}" for i in range(50)],
        "x": list(range(50))})).materialize()
    assert reconcile.choose_scoring_path(recs) is False  # tiny table
    monkeypatch.setattr(reconcile, "BROADCAST_OBJECT_STORE_FRACTION", 0.0)
    assert reconcile.choose_scoring_path(recs) is True


def test_scoring_path_decides_on_the_packed_table(ray_session, monkeypatch):
    """The flagship's scored stage measures the packed attribute table it
    would broadcast, not the records it is packed from: with the budget
    fraction between the two sizes the stage still broadcasts."""
    import ray

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import score

    recs = reconcile.run_reconcile(SF, materialize_pairs=False,
                                   materialize_scored=False)["records"].materialize()
    packed = score.pack_attrs(recs).materialize().size_bytes()
    assert packed < recs.size_bytes()  # the block-key columns are not packed
    budget = float(ray.cluster_resources()["object_store_memory"])
    monkeypatch.setattr(reconcile, "BROADCAST_OBJECT_STORE_FRACTION",
                        (packed + recs.size_bytes()) / 2 / budget)
    assert reconcile.choose_scoring_path(recs) is True  # records alone would flip it
    paths = []
    for name in ("score_pairs", "score_pairs_shuffle"):
        orig = getattr(score, name)
        monkeypatch.setattr(score, name, lambda *a, _n=name, _o=orig: paths.append(_n) or _o(*a))
    assert reconcile.run_reconcile(SF)["scored"].count() > 0
    assert paths == ["score_pairs"]


def _block_rows(ds) -> list[int]:
    return [meta.num_rows for bundle in ds.iter_internal_ref_bundles()
            for _, meta in bundle.blocks]


def test_drop_empty_blocks(ray_session, executions):
    """0-row blocks leave a materialized Dataset without an execution;
    rows, order and schema stay, and an all-empty input keeps one block."""
    import pyarrow as pa
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import records

    t = pa.table({"record_id": ["a", "b"], "n": [1, 2]})
    ds = rd.from_arrow([t, t.slice(0, 0), t.slice(1)]).materialize()
    executions.clear()
    got = records.drop_empty_blocks(ds)
    assert not executions
    assert _block_rows(got) == [2, 1]
    assert got.take_all() == ds.take_all()
    assert records.drop_empty_blocks(got) is got
    empty = records.drop_empty_blocks(rd.from_arrow([t.slice(0, 0)] * 2).materialize())
    assert _block_rows(empty) == [0] and empty.schema().names == ["record_id", "n"]


def test_noise_only_read_task_leaves_no_schemaless_block(ray_session, fdir, tmp_path):
    """A read task whose pages all lack linkage signal emits a 0-row
    records block; a later map turns it schema-less, and Ray logs a
    "different schema" warning. The flagship stages drop such blocks
    when they materialize the records, so their maps log none."""
    import logging
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import (
        records, score,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    tier = tmp_path / "tier"
    tier.mkdir()
    pages = pq.read_table(os.path.join(fdir, "pages.parquet"), columns=["url", "lang", "html"])
    noise = pa.table({"url": [f"https://noise.example/{i}" for i in range(45)],
                      "lang": ["en"] * 45,
                      "html": pa.array([b"<p>no signal</p>"] * 45, pages.schema.field("html").type)})
    # three 45-row groups, each its own read task; the last is all noise
    pq.write_table(pa.concat_tables([pages.slice(0, 90), noise]),
                   str(tier / "pages.parquet"), row_group_size=45)
    shutil.copy(os.path.join(fdir, "reference_works.parquet"), tier / "reference_works.parquet")
    recs = records.build_records(
        read_extract_pages(str(tier / "pages.parquet")),
        reconcile.read_works(str(tier / "reference_works.parquet"))).materialize()
    assert 0 in _block_rows(recs)

    warnings = []

    class _Count(logging.Handler):
        def emit(self, record):
            if "different schema" in record.getMessage():
                warnings.append(record)

    logger = logging.getLogger("ray.data._internal.execution.streaming_executor_state")
    handler, level = _Count(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        score.pack_attrs(recs).materialize()
        assert warnings  # the map over the 0-row block
        warnings.clear()
        parked = {}

        def park(stage, factory, *_):
            parked[stage] = factory()
            return lambda: parked[stage]

        readers, _ = reconcile._flagship_stages(str(tier), park)
        readers["clusters"]().materialize()
        assert not warnings
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert 0 not in _block_rows(readers["records"]())
    assert readers["records"]().count() == recs.count()


def test_connected_components_no_edges_all_singletons(ray_session):
    # post-refactor regression guard: propagation runs over edge
    # endpoints only, so with ZERO edges every node must still surface
    # through the final singleton min-merge with its own id
    import pandas as pd
    import ray.data as rds

    edges_ds = rds.from_pandas(pd.DataFrame({"left_id": pd.Series(dtype=str),
                                             "right_id": pd.Series(dtype=str)}))
    nodes_ds = rds.from_pandas(pd.DataFrame({"record_id": ["a", "b", "c"]}))
    got = cluster_mod.connected_components(edges_ds, nodes_ds=nodes_ds).to_pandas()
    got = got.sort_values("record_id").reset_index(drop=True)
    assert got["record_id"].tolist() == ["a", "b", "c"]
    assert got["cluster_id"].tolist() == ["a", "b", "c"]


def test_read_extract_pages_equals_unfused_path(ray_session, fdir):
    """The fused row-group source (read inside the extract task) must
    produce exactly the rows of read_parquet |> extract_pages — same
    urls, same bytes, at more tasks than row groups and fewer alike."""
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    path = os.path.join(fdir, "pages.parquet")
    base = extract_pages(rd.read_parquet(path)).to_pandas()
    base = base.sort_values("url").reset_index(drop=True)
    for target_rows in (100, 10**9):  # many tiny tasks / one big task
        got = read_extract_pages(path, target_rows=target_rows).to_pandas()
        got = got.sort_values("url").reset_index(drop=True)
        assert got.equals(base), f"fused != unfused at target_rows={target_rows}"


def test_read_extract_pages_shard_directory(ray_session, fdir, tmp_path):
    """Big tiers (sf1) write pages.parquet as a per-shard DIRECTORY of
    parquet files; the fused source must read it identically to a
    read_parquet over the same directory at any task size (a read task
    may span files; the scan's minimum task count still splits this
    90-row input into one task per shard)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    src = pq.read_table(os.path.join(fdir, "pages.parquet"))
    shard_dir = tmp_path / "pages.parquet"
    shard_dir.mkdir()
    n = src.num_rows
    cuts = [0, n // 3, 2 * n // 3, n]
    for i in range(3):
        pq.write_table(src.slice(cuts[i], cuts[i + 1] - cuts[i]),
                       shard_dir / f"shard-{i:05d}.parquet",
                       row_group_size=64)
    base = extract_pages(rd.read_parquet(str(shard_dir))).to_pandas()
    base = base.sort_values("url").reset_index(drop=True)
    for target_rows in (100, 10**9):
        got = read_extract_pages(str(shard_dir), target_rows=target_rows).to_pandas()
        got = got.sort_values("url").reset_index(drop=True)
        assert got.equals(base)


def test_flagship_execution_counts(ray_session, executions, tmp_path):
    """Ray Data executions per run, the caller's read of ``clusters``
    included: the flagship e2e configuration 6, ``run_reconcile``'s
    defaults 8 (pairs and scored parked), a cold checkpointed run 10 and a
    full resume 1. A run that builds pairs executes the pair stage's
    block-size pass (block._capped_blocks) on its own; with no capped
    block that is its only extra execution."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )

    workdir = str(tmp_path / "ckpt")
    runs = [
        (6, lambda: reconcile.run_reconcile(SF, materialize_pairs=False,
                                            materialize_scored=False)),
        (8, lambda: reconcile.run_reconcile(SF)),
        (10, lambda: reconcile.run_reconcile_checkpointed(SF, workdir)[0]),
        (1, lambda: reconcile.run_reconcile_checkpointed(SF, workdir)[0]),
    ]
    for want, run in runs:
        executions.clear()
        run()["clusters"].materialize()
        assert len(executions) == want, executions


def test_one_flagship_stage_sequence():
    """pipelines/reconcile.py writes the flagship stages once: each stage
    call appears exactly once, inside ``_flagship_stages``, and
    ``mf.checkpoint`` only in the checkpointed run's park step; neither
    entry point makes a stage call of its own."""
    import ast
    import inspect

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )

    stages = ("build_records", "find_hot_keys", "candidate_pairs", "broadcast_records",
              "score_pairs", "score_pairs_shuffle", "connected_components_auto")
    calls = {name: [] for name in stages + ("checkpoint",)}
    for fn in ast.parse(inspect.getsource(reconcile)).body:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in calls):
                calls[node.func.attr].append(fn.name)
    want = {name: ["_flagship_stages"] for name in stages}
    want["checkpoint"] = ["run_reconcile_checkpointed"]
    assert calls == want


def _name_records(names_by_id, path_key=""):
    """Records that block only by exact author name (``an:`` keys) and,
    when ``path_key`` is set, by one shared ``path:`` key."""
    import pyarrow as pa
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block

    ids = sorted(names_by_id)
    blank = [""] * len(ids)
    return rd.from_arrow(block.with_block_keys(pa.table({
        "record_id": ids, "doi_norm": blank, "host_key": blank,
        "path_key": [path_key] * len(ids), "name_blob": blank,
        "authors_norm": pa.array([names_by_id[i] for i in ids], pa.list_(pa.string())),
    }))).materialize()


def _report_with_cap(monkeypatch, recs):
    """(pipeline_report over ``recs``' pair stage, the pairs as pandas)
    with no ``bucketed_map_groups`` call made by the report."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import relational
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block

    pairs = block.candidate_pairs(recs).materialize()
    out = {"records": recs, "hot_keys": frozenset(), "pairs": pairs,
           "scored": pairs.map_batches(lambda b: b.assign(is_match=False),
                                       batch_format="pandas"),
           "clusters": recs}
    shuffles = []
    monkeypatch.setattr(relational, "bucketed_map_groups",
                        lambda *a, **k: shuffles.append(1))
    report = reconcile.pipeline_report(out)
    assert not shuffles
    return report, pairs.to_pandas()


def test_pipeline_report_counts_each_capped_block_once(ray_session, monkeypatch):
    """A 300-record ``an:x`` block capped at 1,000 pairs, three of whose
    sampled pairs ``an:a``/``an:b``/``an:c`` also block: those pairs
    keep the smaller key and the capped block's ``dropped_pairs``, yet
    the report counts one capped block and its 300*299/2 - 1,000 drops."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block

    monkeypatch.setattr(block, "DEFAULT_MAX_PAIRS_PER_BLOCK", 1000)
    names = {f"r{i:03d}": ["x"] for i in range(300)}
    sampled = block.candidate_pairs(_name_records(names)).to_pandas()
    assert len(sampled) == 1000
    picks = sampled.iloc[[0, 500, 999]]
    for name, left, right in zip("abc", picks["left_id"], picks["right_id"]):
        names[left] = names[left] + [name]
        names[right] = names[right] + [name]
    report, pairs = _report_with_cap(monkeypatch, _name_records(names))
    # grouping the pairs by block key would credit four blocks
    assert pairs.loc[pairs["dropped_pairs"] > 0, "block_key"].nunique() == 4
    assert report == {"records": 300, "hot_keys": [], "candidate_pairs": 1000,
                      "scored_pairs": 1000, "match_edges": 0, "clusters": 300,
                      "capped_blocks": 1, "dropped_pairs_total": 43_850}


def test_pipeline_report_sees_capped_block_hidden_by_smaller_keys(ray_session, monkeypatch):
    """Every sampled pair of a capped ``path:p`` block is also blocked by
    a smaller uncapped ``an:`` key, so no pair carries the capped key; the
    report still counts that one block and its drops."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block

    monkeypatch.setattr(block, "DEFAULT_MAX_PAIRS_PER_BLOCK", 6)
    names = {f"r{i:02d}": [] for i in range(12)}
    sampled = block.candidate_pairs(_name_records(names, path_key="p")).to_pandas()
    assert len(sampled) == 6
    for k, (left, right) in enumerate(zip(sampled["left_id"], sampled["right_id"])):
        for rid in (left, right):
            names[rid] = names[rid] + [f"n{k}"]
            assert len(names[rid]) <= 3  # only the first three names are keys
    report, pairs = _report_with_cap(monkeypatch, _name_records(names, path_key="p"))
    assert not pairs["block_key"].str.startswith("path:").any()
    assert report["candidate_pairs"] == 6
    assert report["capped_blocks"] == 1
    assert report["dropped_pairs_total"] == 12 * 11 // 2 - 6
