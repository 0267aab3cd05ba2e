"""Blocking-stage unit tests: key emission, hot-key refinement,
pair-generation caps, pair index math."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import block


def test_triu_unflatten_roundtrip():
    for n in (2, 3, 5, 17, 100):
        total = n * (n - 1) // 2
        flat = np.arange(total, dtype=np.int64)
        i, j = block._triu_unflatten(flat, n)
        iu, ju = np.triu_indices(n, k=1)
        assert (i == iu).all() and (j == ju).all()


def _emit(records, hot=frozenset(), record_keys=False):
    """Key rows of (record_id, doi_norm, host_key, path_key, name_blob,
    authors_norm) rows under the hot set ``hot``."""
    tbl = pa.table({
        "record_id": [r[0] for r in records],
        "doi_norm": [r[1] for r in records],
        "host_key": [r[2] for r in records],
        "path_key": [r[3] for r in records],
        "name_blob": [r[4] for r in records],
        "authors_norm": pa.array([r[5] for r in records], pa.list_(pa.string())),
    })
    return block.key_rows(block.with_block_keys(tbl), hot, record_keys).to_pandas()


def test_key_families_emitted():
    df = _emit([
        ("r1", "10.1/x", "https://h:443", "rev1/article/view/1", "alice b smith",
         ["alice b smith"]),
        ("r2", "", "", "", "bob jones", ["bob jones"]),
    ])
    fam = set(df.block_key.str.split(":").str[0])
    assert {"doi", "path", "host", "an", "b0"} <= fam
    # host key is ALWAYS refined by first author
    host_keys = df[df.block_key.str.startswith("host:")].block_key.tolist()
    assert host_keys == ["host:https://h:443~alice b smith"]
    # doi-less record emits no doi key
    assert not df[(df.record_id == "r2") & df.block_key.str.startswith("doi:")].shape[0]


def test_key_rows_literal():
    """Key rows, refinement and record_keys packing, row for row: a hot
    ``an:`` key and a hot band key are refined by the first author, a
    hot ``doi:`` / ``path:`` key is not, ``host:`` always is; the suffix
    falls back to the DOI, then to ``_``; a repeated author name keeps
    both rows but packs once; a DOI holding ``\\x1e`` and ``\\x1d`` packs
    escaped."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions import (
        minhash,
    )

    bands = minhash.band_keys(minhash.MinHasher(64).signature("li wei wang wei wang"), 4)
    doi = "10.2/e\x1ey\x1d."
    hot = frozenset(["an:wei wang", bands[0], "doi:10.1/d", "path:j/view/1",
                     "doi:" + doi, "host:h3~_"])
    records = [
        ("a", "10.1/d", "h", "j/view/1", "li wei wang wei wang", ["wei wang", "wei wang", "li"]),
        ("b", doi, "h2", "", "", []),
        ("c", "", "h3", "p", "", []),
    ]
    a_keys = ["doi:10.1/d", "path:j/view/1", "host:h~wei wang", "an:wei wang~wei wang",
              "an:wei wang~wei wang", "an:li", bands[0] + "~wei wang", *bands[1:]]
    b_keys = ["doi:" + doi, "host:h2~" + doi]
    c_keys = ["path:p", "host:h3~_"]
    df = _emit(records, hot, record_keys=True)
    assert df["block_key"].tolist() == a_keys + b_keys + c_keys
    assert df["record_id"].tolist() == ["a"] * 10 + ["b"] * 2 + ["c"] * 2
    assert df["has_doi"].tolist() == [True] * 12 + [False] * 2
    assert df["record_keys"].tolist() == (
        ["\x1e".join(sorted(set(a_keys)))] * 10
        + ["doi:10.2/e\x1d.y\x1d\x1d.\x1ehost:h2~10.2/e\x1d.y\x1d\x1d."] * 2
        + ["host:h3~_\x1epath:p"] * 2)
    assert df["record_keys"][0].count("an:wei wang~wei wang") == 1
    # no hot set, no refinement
    assert _emit(records[:1])["block_key"].tolist()[3:8] == [
        "an:wei wang", "an:wei wang", "an:li", *bands[:2]]


def test_find_hot_keys_counts_repeated_names(ray_session):
    """A record's repeated author name counts twice toward the hot set."""
    import ray.data as rds

    tbl = pa.table({
        "record_id": ["a", "b"], "doi_norm": ["", ""], "host_key": ["", ""],
        "path_key": ["", ""], "name_blob": ["", ""],
        "authors_norm": pa.array([["wei wang", "wei wang", "li"], ["li"]],
                                 pa.list_(pa.string())),
    })
    ds = rds.from_arrow(block.with_block_keys(tbl))
    assert block.find_hot_keys(ds, threshold=1) == frozenset(["an:wei wang", "an:li"])
    assert block.find_hot_keys(ds, threshold=2) == frozenset()


def test_later_passes_read_the_key_columns(ray_session):
    """Nothing after the records stage re-runs MinHash: with the key
    columns present and ``name_blob`` gone, the hot set and the pairs
    come out as expected, the hot ``an:ann lee`` split by first author."""
    import ray.data as rds

    names = {"r1": ["ann lee"], "r2": ["ann lee"], "r3": ["bo chen", "ann lee"],
             "r4": ["bo chen"]}
    tbl = block.with_block_keys(pa.table({
        "record_id": list(names), "doi_norm": ["", "", "", "10.1/x"],
        "host_key": [""] * 4, "path_key": [""] * 4,
        "name_blob": [" ".join(sorted(n)) for n in names.values()],
        "authors_norm": pa.array(list(names.values()), pa.list_(pa.string())),
    })).drop_columns(["name_blob"])
    ds = rds.from_arrow(tbl)
    hot = block.find_hot_keys(ds, threshold=2)
    assert hot == frozenset(["an:ann lee"])
    pairs = block.candidate_pairs(ds, hot).to_pandas().sort_values("left_id")
    assert [tuple(r) for r in pairs.itertuples(index=False)] == [
        ("r1", "r2", "an:ann lee~ann lee", 0, 8), ("r3", "r4", "an:bo chen", 0, 8)]


def test_pair_cap_logs_dropped():
    n = 300
    df = pd.DataFrame({
        "block_key": ["an:x"] * n,
        "record_id": [f"r{i:04d}" for i in range(n)],
        "has_doi": [False] * n,
        "ftok": ["x"] * n,
    })
    out = block._pairs_for_bucket(pa.Table.from_pandas(df, preserve_index=False), max_pairs=1000)
    total = n * (n - 1) // 2
    assert len(out) <= 1000
    assert out.dropped_pairs.max() == total - len(out)  # no silent cap


def test_doi_decided_pairs_pruned():
    df = pd.DataFrame({
        "block_key": ["host:h~x"] * 4,
        "record_id": ["a", "b", "c", "d"],
        "has_doi": [True, True, False, False],
        "ftok": ["x", "x", "y", "y"],
    })
    out = block._pairs_for_bucket(pa.Table.from_pandas(df, preserve_index=False),
                                  max_pairs=10_000)
    pairs = set(zip(out.left_id, out.right_id))
    # both-doi pair (a,b) must be pruned; pairs involving a no-doi side kept
    assert ("a", "b") not in pairs
    assert {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")} == pairs
    # doi-family blocks keep all pairs
    df2 = df.assign(block_key="doi:10.1/x")
    out2 = block._pairs_for_bucket(pa.Table.from_pandas(df2, preserve_index=False),
                                   max_pairs=10_000)
    assert len(out2) == 6


def test_find_hot_keys_driver_merge_equals_distributed(ray_session):
    """The driver-side partial merge (bounded samples) and the
    distributed bucketed reduce must produce the identical hot set —
    same partials, same sum, same threshold either way."""
    import ray.data as rds

    n = 600
    recs = pd.DataFrame({
        "record_id": [f"r{i}" for i in range(n)],
        "doi_norm": ["" for _ in range(n)],
        # one mega-host name key: every record shares the author name
        "host_key": ["" for _ in range(n)],
        "path_key": ["" for _ in range(n)],
        "name_blob": ["" for _ in range(n)],
        "authors_norm": [["wei wang"] for _ in range(n)],
    })
    ds = rds.from_pandas(recs, override_num_blocks=4).map_batches(
        block.with_block_keys, batch_format="pyarrow")
    # force the SAMPLED regime in both runs (n > sample_min_rows), with
    # eff_threshold low enough that the shared name key is always hot
    common = dict(threshold=64, sample_frac=0.5, sample_min_rows=100)
    hot_driver = block.find_hot_keys(ds, driver_merge_rows=10_000, **common)
    hot_dist = block.find_hot_keys(ds, driver_merge_rows=0, **common)
    assert hot_driver == hot_dist
    assert "an:wei wang" in hot_driver
    # the plan's caps too (frozenset equality ignores them): the refined
    # 600-record block has 179,700 pairs, past the default cap
    assert hot_driver.caps == hot_dist.caps
    assert "an:wei wang~wei wang" in hot_driver.caps

    # four first authors split the hot name key into 150-record blocks;
    # planned at a forced cap with the hot set found (refined split) and
    # with it fixed (a plain set), both reduces give the same caps
    split = rds.from_pandas(recs.assign(authors_norm=[[f"s{i % 4}", "wei wang"]
                                                      for i in range(n)]),
                            override_num_blocks=4).map_batches(
        block.with_block_keys, batch_format="pyarrow")
    per_block = 11_175 - len(block._pair_sample(11_175, 1000))
    for hot_keys in (None, frozenset(["an:wei wang"])):
        plans = [block.find_hot_keys(split, driver_merge_rows=rows, hot_keys=hot_keys,
                                     max_pairs=1000, **common) for rows in (10_000, 0)]
        assert plans[0] == plans[1] and plans[0].caps == plans[1].caps
        assert plans[0].max_pairs == 1000
        assert {f"an:wei wang~s{i}" for i in range(4)} <= set(plans[0].caps)
        assert {plans[0].caps[f"an:wei wang~s{i}"] for i in range(4)} == {per_block}
        assert "an:wei wang" not in plans[0].caps
    assert plans[0] == frozenset(["an:wei wang"])
    assert {f"an:s{i}" for i in range(4)} <= set(plans[0].caps)


def test_candidate_pairs_block_count_invariant(ray_session):
    """The records' block count sets only the pair shuffle's sort
    partitions: pair rows must be identical whether the records arrive
    as one block or as many."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import reconcile
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import fixtures
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import records
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    fdir = fixtures.ensure_fixtures("sf0.001")
    recs = records.build_records(
        read_extract_pages(os.path.join(fdir, "pages.parquet")),
        reconcile.read_works(os.path.join(fdir, "reference_works.parquet"))).materialize()
    key = ["left_id", "right_id"]
    frames = {}
    for nb in (1, 7, None):
        split = recs if nb is None else recs.repartition(nb, shuffle=False).materialize()
        assert nb is None or split.num_blocks() == nb
        df = block.candidate_pairs(split).to_pandas()
        assert list(df.columns) == ["left_id", "right_id", "block_key",
                                    "dropped_pairs", "families"]
        frames[nb] = df.sort_values(key, kind="mergesort").reset_index(drop=True)
    assert len(frames[1]) > 0
    pd.testing.assert_frame_equal(frames[1], frames[7])
    pd.testing.assert_frame_equal(frames[1], frames[None])


def _reference_pairs(recs, max_pairs):
    """Candidate pairs the slow way: every block's own pairs from
    ``_pairs_for_bucket`` over all key rows, then per pair the smallest
    block key, the largest ``dropped_pairs`` and the OR of the family
    bits (the rows the old pair-dedup shuffle produced)."""
    own = block._pairs_for_bucket(block.key_rows(recs), max_pairs)
    for bit in (1, 2, 4, 8):
        own[f"b{bit}"] = (own["families"] & bit) // bit
    g = own.groupby(["left_id", "right_id"], as_index=False).agg(
        block_key=("block_key", "min"), dropped_pairs=("dropped_pairs", "max"),
        b1=("b1", "max"), b2=("b2", "max"), b4=("b4", "max"), b8=("b8", "max"))
    g["families"] = g["b1"] + 2 * g["b2"] + 4 * g["b4"] + 8 * g["b8"]
    return g[["left_id", "right_id", "block_key", "dropped_pairs", "families"]]


def _assert_pairs_match_reference(ds, max_pairs):
    recs = ds.materialize()
    want = _reference_pairs(pa.concat_tables(
        recs.iter_batches(batch_size=None, batch_format="pyarrow")), max_pairs)
    got = block.candidate_pairs(recs, max_pairs_per_block=max_pairs).to_pandas()
    key = ["left_id", "right_id"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        want.sort_values(key).reset_index(drop=True))
    return want


def _records(rows):
    """Records from (record_id, doi_norm, path_key, authors_norm) rows."""
    import ray.data as rds

    return rds.from_arrow(block.with_block_keys(pa.table({
        "record_id": [r[0] for r in rows],
        "doi_norm": [r[1] for r in rows],
        "host_key": [""] * len(rows),
        "path_key": [r[2] for r in rows],
        "name_blob": [""] * len(rows),
        "authors_norm": pa.array([r[3] for r in rows], pa.list_(pa.string())),
    })), override_num_blocks=3)


def test_candidate_pairs_capped_equal_reference(ray_session):
    """Each pair is emitted once, by its owner block, even where blocks
    are capped: ``candidate_pairs`` equals the per-block reference on the
    two capped-block constructions of the pipeline_report tests, on
    sf0.001 records capped at 3 pairs per block (many capped, co-blocked
    pairs), and on a capped ``doi:`` block."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import reconcile
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import fixtures
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import records
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    # a 300-record an:x block capped at 1,000 pairs, three of whose
    # sampled pairs an:a / an:b / an:c also block
    names = {f"r{i:03d}": ["x"] for i in range(300)}
    sampled = _assert_pairs_match_reference(
        _records([(r, "", "", n) for r, n in names.items()]), 1000)
    for name, i in zip("abc", (0, 500, 999)):
        for rid in sampled.iloc[i][["left_id", "right_id"]]:
            names[rid] = names[rid] + [name]
    want = _assert_pairs_match_reference(
        _records([(r, "", "", n) for r, n in names.items()]), 1000)
    assert (want["block_key"] < "an:x").sum() == 3

    # a capped path:p block all of whose sampled pairs a smaller an: key
    # also blocks, so no pair carries the capped key
    names = {f"r{i:02d}": [] for i in range(12)}
    sampled = _assert_pairs_match_reference(
        _records([(r, "", "p", n) for r, n in names.items()]), 6)
    for k, (left, right) in enumerate(zip(sampled["left_id"], sampled["right_id"])):
        names[left] = names[left] + [f"n{k}"]
        names[right] = names[right] + [f"n{k}"]
    want = _assert_pairs_match_reference(
        _records([(r, "", "p", n) for r, n in names.items()]), 6)
    assert not want["block_key"].str.startswith("path:").any()

    # a capped doi: block: 40 records of one DOI, half also named "d",
    # plus DOI-less "d" records that pair with them through an:d; the
    # DOI holds the key-list separator and its escape character
    doi = "10.1/x\x1ey\x1d."
    rows = [(f"d{i:02d}", doi, "", ["d"] if i % 2 else []) for i in range(40)]
    rows += [(f"n{i}", "", "", ["d"]) for i in range(5)]
    want = _assert_pairs_match_reference(_records(rows), 50)
    assert (want["block_key"] == "doi:" + doi).sum() == 50
    assert (want["dropped_pairs"] > 0).any() and (want["families"] == 1).any()

    fdir = fixtures.ensure_fixtures("sf0.001")
    recs = records.build_records(
        read_extract_pages(os.path.join(fdir, "pages.parquet")),
        reconcile.read_works(os.path.join(fdir, "reference_works.parquet")))
    want = _assert_pairs_match_reference(recs, 3)
    # co-blocked pairs whose smallest key sampled them away
    assert (want["dropped_pairs"] > 0).sum() > 10
    assert (want["families"] & (want["families"] - 1)).astype(bool).any()


def _sf0001_records():
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import reconcile
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import fixtures
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import records
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        read_extract_pages,
    )

    fdir = fixtures.ensure_fixtures("sf0.001")
    return records.build_records(
        read_extract_pages(os.path.join(fdir, "pages.parquet")),
        reconcile.read_works(os.path.join(fdir, "reference_works.parquet"))).materialize()


def test_plan_caps_equal_brute_force_sizes(ray_session):
    """``find_hot_keys``' one pass equals a brute-force reference on sf0.001
    records: the hot set is every unrefined key seen more than the
    threshold (repeats counted), and the caps are every refined block's
    virtual pair space (its distinct pairing records with each other
    and with its DOI carriers) past 3 / 50 / 300 pairs, less the pairs
    ``_pair_sample`` keeps. ``candidate_pairs`` and ``block_caps`` read
    the plan's caps instead of planning again."""
    import collections

    recs = _sf0001_records()
    table = pa.concat_tables(recs.iter_batches(batch_size=None, batch_format="pyarrow"))
    seen = collections.Counter(k for keys in table["block_keys"].to_pylist() for k in keys)
    threshold = 2
    hot = frozenset(k for k, n in seen.items() if n > threshold)
    assert hot and any(not k.startswith(("doi:", "path:", "host:")) for k in hot)
    blocks = collections.defaultdict(dict)
    for key, rid, doi in zip(*block.key_rows(table, hot).to_pydict().values()):
        blocks[key][rid] = doi
    for cap in (3, 50, 300):
        want = {}
        for key, members in blocks.items():
            m = sum(1 for doi in members.values() if key.startswith("doi:") or not doi)
            total = m * (m - 1) // 2 + m * (len(members) - m)
            if total > cap:
                want[key] = total - len(block._pair_sample(total, cap))
        plan = block.find_hot_keys(recs, max_pairs=cap, threshold=threshold)
        assert plan == hot and plan.max_pairs == cap
        assert plan.caps == want and (want or cap > 3), cap
        assert block.find_hot_keys(recs, hot_keys=hot, max_pairs=cap).caps == want
    assert block.find_hot_keys(recs, threshold=threshold).caps == {}


def test_candidate_pairs_reads_the_plan(ray_session, executions):
    """With ``find_hot_keys``' result, pair generation and ``block_caps``
    run no size pass of their own: the pairs are one execution, the caps
    none."""
    recs = _sf0001_records()
    hot = block.find_hot_keys(recs, threshold=2)
    executions.clear()
    block.candidate_pairs(recs, hot).materialize()
    assert len(executions) == 1, executions
    executions.clear()
    assert block.block_caps(recs, hot) == {}
    assert not executions


def test_candidate_pairs_small_blocks_equal_reference(ray_session):
    """A pair shuffle partition reaches its function as one block: with
    Ray Data's target block size at 4 KiB, far below one partition, the
    pairs still equal the per-block reference."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    size = ctx.target_max_block_size
    ctx.target_max_block_size = 4096
    try:
        recs = _sf0001_records()
        assert recs.num_blocks() > 4
        _assert_pairs_match_reference(recs, 3)
        _assert_pairs_match_reference(recs, block.DEFAULT_MAX_PAIRS_PER_BLOCK)
    finally:
        ctx.target_max_block_size = size


def test_candidate_pairs_is_one_shuffle():
    """Static guard: ``candidate_pairs`` makes one ``bucketed_map_groups``
    call (no pair-dedup shuffle), and stages/block.py never interns
    strings through pandas' NUL-truncating ``factorize``,
    ``Categorical`` / category dtype or (multi-column)
    ``drop_duplicates``; its string codes come from Arrow."""
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(block))
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == "candidate_pairs")
    shuffles = [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "bucketed_map_groups"]
    assert len(shuffles) == 1
    pandas_interning = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                        and n.attr in ("factorize", "Categorical", "drop_duplicates")]
    assert not pandas_interning
    assert '"category"' not in inspect.getsource(block)


def _family(key):
    return next((bit for prefix, bit in (("doi:", 1), ("path:", 2), ("host:", 4))
                 if key.startswith(prefix)), 8)


def _brute_block_pairs(df, max_pairs):
    """Every block's own pairs by itertools: its distinct records (the
    first row's DOI flag) in id order, the DOI-less ones paired with
    each other and then with the DOI-carrying ones (all of them in a
    ``doi:`` block), sampled by ``_pair_sample`` past the cap."""
    import itertools

    first = {}
    for key, rid, doi in zip(df["block_key"], df["record_id"], df["has_doi"]):
        first.setdefault((key, rid), bool(doi))
    blocks = {}
    for (key, rid), doi in first.items():
        blocks.setdefault(key, {})[rid] = doi
    rows = []
    for key, recs in blocks.items():
        ids = sorted(recs)
        pairing = [r for r in ids if key.startswith("doi:") or not recs[r]]
        rest = [r for r in ids if r not in pairing]
        space = list(itertools.combinations(pairing, 2)) + list(itertools.product(pairing, rest))
        kept = block._pair_sample(len(space), max_pairs)
        rows += [(*sorted(space[i]), key, len(space) - len(kept), _family(key))
                 for i in kept.tolist()]
    return rows


def _brute_owned_pairs(rows):
    """Per pair: the smallest emitting key, the largest drop count and
    the OR of the family bits."""
    out = {}
    for left, right, key, dropped, fam in rows:
        k, d, f = out.get((left, right), (key, dropped, fam))
        out[(left, right)] = (min(k, key), max(d, dropped), f | fam)
    return sorted((left, right, *v) for (left, right), v in out.items())


def _tuples(df):
    return sorted(zip(df["left_id"], df["right_id"], df["block_key"],
                      df["dropped_pairs"].astype(int).tolist(), df["families"].astype(int).tolist()))


def test_pair_enumerator_equals_brute_force(ray_session, monkeypatch):
    """``_pairs_for_bucket`` and ``_owned_pairs`` against an itertools
    reference on random blocks: ids that differ only after a NUL,
    repeated (key, record) rows, ``doi:`` blocks (every record pairs),
    both-DOI pruning elsewhere, a key holding the key-list separator, a
    501-record block under the cap and a capped block. The owned rows
    are the same whether the key rows go through one call or are split
    by key into 32 buckets, and whether each row carries its record's
    key list or the lists are looked up by id in a broadcast per-record
    table. The owner probe runs in chunks of 97 pairs here, so chunks
    split the pairs of a partition."""
    import random
    import zlib

    import ray

    monkeypatch.setattr(block, "_PROBE_ROWS", 97)

    rng = random.Random(11)
    max_pairs = 1000
    pool = ["doi:10.1/x", "doi:10.1/y", "an:ann", "an:bo", "b0:7", "path:p",
            "host:h~ann", "path:a\x1eb\x1d"]
    recs = {}
    for i in range(120):
        rid = rng.choice(["r", "s"]) + "\x00" + str(i) if i % 3 == 0 else f"r{i:03d}"
        recs[rid] = (rng.random() < 0.4, set(rng.sample(pool, rng.randint(1, 4))))
    for i in range(60):
        recs[f"cap{i:02d}"] = (False, {"an:cap", rng.choice(pool)})
    for i in range(501):
        recs[f"big{i:03d}"] = (i >= 2, {"an:big"})
    rows = []
    for rid, (doi, keys) in recs.items():
        packed = "\x1e".join(sorted(block._escape(k) for k in keys))
        rows += [(k, rid, doi, packed) for k in sorted(keys)]
    rows += rng.sample(rows, 40)
    rng.shuffle(rows)
    df = pd.DataFrame(rows, columns=["block_key", "record_id", "has_doi", "record_keys"])

    rows_t = pa.Table.from_pandas(df, preserve_index=False)
    want = _brute_block_pairs(df, max_pairs)
    assert _tuples(block._pairs_for_bucket(rows_t, max_pairs)) == sorted(want)
    sizes = {}
    for _, _, key, dropped, _ in want:
        sizes[key] = dropped
    assert sizes["an:cap"] > 0 and sizes["an:big"] == 0
    assert any("\x00" in left for left, *_ in want)

    capped = ({block._escape(k): d for k, d in sizes.items() if d},
              {(block._escape(k), left, right) for left, right, k, d, _ in want if sizes[k]})
    owned = _brute_owned_pairs(want)
    assert _tuples(block._owned_pairs(rows_t, max_pairs, capped).to_pandas()) == owned
    bucket = df["block_key"].map(lambda k: zlib.crc32(k.encode()) % 32)
    split = pa.concat_tables([
        block._owned_pairs(pa.Table.from_pandas(g, preserve_index=False), max_pairs, capped)
        for _, g in df.groupby(bucket)])
    assert _tuples(split.to_pandas()) == owned

    # the lists from a broadcast per-record table (the scoring table's
    # shape), and key rows without them
    ids = sorted(recs)
    blank = [""] * len(ids)
    ref = ray.put(pa.table({
        "record_id": ids, "doi_norm": blank, "authors_packed": blank, "insts_packed": blank,
        "record_keys": ["\x1e".join(sorted(block._escape(k) for k in recs[r][1])) for r in ids]}))
    bare = df.drop(columns="record_keys")
    got = block._owned_pairs(pa.Table.from_pandas(bare, preserve_index=False), max_pairs,
                             capped, ref)
    assert _tuples(got.to_pandas()) == owned
    split = pa.concat_tables([
        block._owned_pairs(pa.Table.from_pandas(g, preserve_index=False), max_pairs, capped, ref)
        for _, g in bare.groupby(bucket)])
    assert _tuples(split.to_pandas()) == owned
