"""Checkpoint / lineage / resume gates (SURVEY.md §5 item 6)."""

import json
import os
import shutil

import pytest


@pytest.fixture()
def workdir(tmp_path):
    return str(tmp_path / "ckpt")


def _cluster_map(ds):
    out = {}
    for b in ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        for r, c in zip(b["record_id"].to_pylist(), b["cluster_id"].to_pylist()):
            out[r] = c
    return out


def test_checkpoint_resume_skips_recompute(ray_session, workdir):
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    sf = "/root/testdata/sf0.001"
    out1, resumed1 = reconcile.run_reconcile_checkpointed(sf, workdir)
    assert resumed1 == {"records": False, "pairs": False, "scored": False,
                       "clusters": False}
    clusters1 = _cluster_map(out1["clusters"])
    assert clusters1

    # manifests exist with lineage fields
    man = mf.read_manifest(workdir, "scored")
    assert man is not None and man["total_rows"] > 0
    assert man["fingerprint"]
    some_part = next(iter(man["partitions"].values()))
    assert some_part["rows"] >= 0 and "files" in some_part
    # score histogram recorded for the scored stage
    assert any("score_histogram" in p for p in man["partitions"].values())

    # second run: every stage must resume (manifest hit, no recompute)
    out2, resumed2 = reconcile.run_reconcile_checkpointed(sf, workdir)
    assert resumed2 == {"records": True, "pairs": True, "scored": True,
                       "clusters": True}
    assert _cluster_map(out2["clusters"]) == clusters1


def test_checkpoint_invalidated_by_fingerprint(ray_session, workdir, tmp_path):
    """A changed input fingerprint must force recompute (no stale
    checkpoint reuse)."""
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    calls = []

    def factory():
        calls.append(1)
        return rd.range(100)

    ds, resumed = mf.checkpoint(factory, workdir, "stage_a", "fp1")
    assert not resumed and ds.count() == 100 and len(calls) == 1
    ds, resumed = mf.checkpoint(factory, workdir, "stage_a", "fp1")
    assert resumed and len(calls) == 1
    ds, resumed = mf.checkpoint(factory, workdir, "stage_a", "fp2")
    assert not resumed and len(calls) == 2


def test_partial_checkpoint_not_trusted(ray_session, workdir):
    """A checkpoint without its manifest (crash before publish) must be
    recomputed, and a tampered manifest partition must invalidate."""
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    mf.checkpoint(lambda: rd.range(10), workdir, "st", "fp")
    stage_dir = os.path.join(workdir, "st")
    # remove a referenced partition dir -> incomplete
    man = mf.read_manifest(workdir, "st")
    part = next(iter(man["partitions"]))
    shutil.rmtree(os.path.join(stage_dir, f"part={part}"))
    assert not mf.is_complete(workdir, "st", "fp")
    # crash-simulated .tmp leftover is ignored entirely
    os.makedirs(stage_dir + ".tmp", exist_ok=True)
    ds, resumed = mf.checkpoint(lambda: rd.range(10), workdir, "st", "fp")
    assert not resumed and ds.count() == 10


def _docs_with_dups(n=120):
    import numpy as np
    import pandas as pd

    rng = np.random.RandomState(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [" ".join(rng.choice(words, 30)) for _ in range(n)]
    for i in range(0, n, 10):  # plant exact dups (i, i+1)
        texts[i + 1] = texts[i]
    return pd.DataFrame({"doc_id": range(n), "text": texts})


def test_minhash_checkpoint_full_resume_never_touches_corpus(
        ray_session, tmp_path):
    """Mid-run-kill economics for the 400 s-class dedup ops: a rerun
    with a complete pair checkpoint must return the pairs WITHOUT
    executing anything corpus-shaped (0 recompute) — proven by handing
    the resumed call a poison dataset that raises on execution."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        dedup,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    df = _docs_with_dups()
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.Table.from_pandas(df), src)
    ck = str(tmp_path / "ck")
    fp = mf.fingerprint_inputs(src)
    kw = dict(jaccard_threshold=0.6, verify="join", checkpoint_dir=ck,
              fingerprint=fp)

    p1 = dedup.minhash_lsh_pairs(rd.read_parquet(src), **kw)
    d1 = p1.to_pandas() if hasattr(p1, "to_pandas") else p1
    assert len(d1) >= 12  # the planted exact dups at least
    assert mf.read_manifest(ck, "minhash_candidates") is not None
    assert mf.read_manifest(ck, "minhash_pairs") is not None

    def _poison(b):
        raise RuntimeError("resume executed the corpus pipeline")

    poison = rd.range(1).map_batches(_poison)
    p2 = dedup.minhash_lsh_pairs(poison, **kw)
    d2 = p2.to_pandas() if hasattr(p2, "to_pandas") else p2
    key = ["left_id", "right_id"]
    assert (d1.sort_values(key).reset_index(drop=True)[key + ["jaccard"]]
            .equals(d2.sort_values(key).reset_index(drop=True)[key + ["jaccard"]]))

    # a changed parameter changes the fingerprint -> full recompute
    p3 = dedup.minhash_lsh_pairs(rd.read_parquet(src), jaccard_threshold=0.9,
                                 verify="join", checkpoint_dir=ck,
                                 fingerprint=fp)
    d3 = p3.to_pandas() if hasattr(p3, "to_pandas") else p3
    assert len(d3) <= len(d1)


def test_embedding_dedup_checkpoint_resume(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops import (
        dedup,
    )

    rng = np.random.RandomState(9)
    mat = rng.randn(80, 16)
    mat[40:60] = mat[:20]  # exact dup pairs (i, i+40)
    df = pd.DataFrame({"vec_id": range(80),
                       "embedding": [v.tolist() for v in mat]})
    ck = str(tmp_path / "ck_emb")
    kw = dict(cosine_threshold=0.99, verify="join", checkpoint_dir=ck,
              fingerprint="vecs-v1")
    p1 = dedup.embedding_near_dup_pairs(rd.from_pandas(df), **kw)
    d1 = p1.to_pandas() if hasattr(p1, "to_pandas") else p1

    def _poison(b):
        raise RuntimeError("resume executed the embedding pipeline")

    poison = rd.range(1).map_batches(_poison)
    p2 = dedup.embedding_near_dup_pairs(poison, **kw)
    d2 = p2.to_pandas() if hasattr(p2, "to_pandas") else p2
    key = ["left_id", "right_id"]
    assert (d1.sort_values(key).reset_index(drop=True)
            .equals(d2.sort_values(key).reset_index(drop=True)))
    assert len(d1) >= 20


def test_fingerprint_sees_every_shard(tmp_path):
    """A sharded input directory is fingerprinted file by file: replacing
    one shard changes the fingerprint, an untouched directory keeps it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    shards = tmp_path / "pages.parquet"
    shards.mkdir()
    for i in range(3):
        pq.write_table(pa.table({"url": [f"u{i}-{j}" for j in range(10)]}),
                       shards / f"shard-{i:05d}.parquet")
    fp = mf.fingerprint_inputs(str(shards), "v1")
    assert mf.fingerprint_inputs(str(shards), "v1") == fp
    tmp = shards / "shard-00001.parquet.tmp"
    pq.write_table(pa.table({"url": ["replaced"] * 10}), tmp)
    os.replace(tmp, shards / "shard-00001.parquet")
    replaced = mf.fingerprint_inputs(str(shards), "v1")
    assert replaced != fp
    assert mf.fingerprint_inputs(str(shards), "v1") == replaced


def test_zero_row_stage_resumes_typed(ray_session, workdir):
    """A stage with no rows writes no files; its resume is a typed empty
    Dataset built from the schema recorded in MANIFEST.json."""
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    def factory():
        return rd.range(10).filter(lambda r: r["id"] < 0)

    ds, resumed = mf.checkpoint(factory, workdir, "empty", "fp")
    assert not resumed and ds.count() == 0
    assert mf.read_manifest(workdir, "empty")["schema"]
    ds, resumed = mf.checkpoint(factory, workdir, "empty", "fp")
    assert resumed and ds.count() == 0
    assert ds.schema() is not None and ds.schema().names == ["id"]


def test_full_resume_runs_no_factory_and_no_materialize(ray_session, workdir, monkeypatch):
    """A full resume invokes no stage factory and materializes nothing:
    the only execution is the caller's read of ``clusters``."""
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.state import (
        manifest as mf,
    )

    sf = "sf0.001"  # fixture tier, synthesized by ensure_fixtures
    fresh = _cluster_map(reconcile.run_reconcile_checkpointed(sf, workdir)[0]["clusters"])

    calls = {"factory": 0, "materialize": 0}
    orig_checkpoint, orig_materialize = mf.checkpoint, rd.Dataset.materialize

    def counting_checkpoint(ds_factory, *args, **kwargs):
        def factory():
            calls["factory"] += 1
            return ds_factory()
        return orig_checkpoint(factory, *args, **kwargs)

    def counting_materialize(self):
        calls["materialize"] += 1
        return orig_materialize(self)

    monkeypatch.setattr(mf, "checkpoint", counting_checkpoint)
    monkeypatch.setattr(rd.Dataset, "materialize", counting_materialize)
    out, resumed = reconcile.run_reconcile_checkpointed(sf, workdir)
    assert all(resumed.values()), resumed
    assert calls == {"factory": 0, "materialize": 0}
    assert _cluster_map(out["clusters"]) == fresh


def test_checkpointed_scoring_follows_choose_scoring_path(ray_session, workdir, monkeypatch):
    """The checkpointed scored stage takes the same broadcast-vs-shuffle
    decision as run_reconcile: past the object-store budget it runs the
    bucketed-join scorer, and its rows equal the streaming run's."""
    import pandas as pd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages import (
        score,
    )

    monkeypatch.setattr(reconcile, "BROADCAST_OBJECT_STORE_FRACTION", 0.0)
    shuffled = []
    orig = score.score_pairs_shuffle

    def spy(*args, **kwargs):
        shuffled.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(score, "score_pairs_shuffle", spy)
    sf = "sf0.001"  # fixture tier, synthesized by ensure_fixtures
    flagship = reconcile.run_reconcile(sf)["scored"].to_pandas()
    assert len(shuffled) == 1
    checkpointed = reconcile.run_reconcile_checkpointed(sf, workdir)[0]["scored"].to_pandas()
    assert len(shuffled) == 2

    key = ["left_id", "right_id"]
    a = flagship.sort_values(key, kind="mergesort").reset_index(drop=True)
    b = checkpointed.sort_values(key, kind="mergesort").reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b[a.columns])
