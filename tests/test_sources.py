"""Source readers (CSV / gzipped JSONL) and sampling (S1/S4/O3)."""

import gzip
import json
import os

import pytest

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import io as src_io


def test_read_csv_with_validation(ray_session, tmp_path):
    p = tmp_path / "beacon.csv"
    p.write_text("oai_url,extra\nhttps://a.org/oai,1\nhttps://b.org/index.php/index/oai,2\n,3\n")
    ds = src_io.read_csv_table(str(p), required=["oai_url"])
    rows = ds.take_all()
    assert len(rows) == 3 and rows[0]["oai_url"] == "https://a.org/oai"
    with pytest.raises(src_io.MissingColumnsError):
        src_io.read_csv_table(str(p), required=["nonexistent_col"])


def test_read_gzipped_jsonl(ray_session, tmp_path):
    p = tmp_path / "works.jsonl.gz"
    recs = [{"id": f"W{i}", "doi": f"10.1/{i}",
             "authorships": [{"raw_author_name": f"A {i}",
                              "raw_affiliation_strings": ["U"]}]}
            for i in range(5)]
    with gzip.open(p, "wt") as f:
        for r in recs:
            f.write(json.dumps(r) + "\n")
    ds = src_io.read_jsonl(str(p), required=["id", "doi", "authorships"])
    rows = sorted(ds.take_all(), key=lambda r: r["id"])
    assert len(rows) == 5
    assert rows[0]["authorships"][0]["raw_author_name"] == "A 0"


def test_sample_exact_clamped_and_seeded(ray_session):
    import ray.data as rd

    ds = rd.range(100)
    s1 = sorted(r["id"] for r in src_io.sample_exact(ds, 10, seed=7).take_all())
    s2 = sorted(r["id"] for r in src_io.sample_exact(rd.range(100), 10, seed=7).take_all())
    assert len(s1) == 10 and s1 == s2  # deterministic under same seed
    big = src_io.sample_exact(rd.range(5), 10)
    assert big.count() == 5  # clamped to population


def test_csv_roundtrip_base_urls_pipeline(ray_session, tmp_path):
    """S1+M1+D1+O1 end-to-end from a CSV source (the reference's first
    script contract, `get_journal_base_urls_from_pkp_beacon_file.py`)."""
    import pandas as pd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.urlkeys import (
        strip_oai_suffix,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.ops.relational import (
        distinct,
    )

    p = tmp_path / "beacon.csv"
    p.write_text("oai_url\nhttps://x.org/oai\nhttps://x.org/oai\n"
                 "https://y.org/index.php/index/oai\nhttps://z.org/journal/index.php/index/oai\n")
    ds = src_io.read_csv_table(str(p), required=["oai_url"])

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        urls = b["oai_url"].fillna("").map(lambda u: strip_oai_suffix(u.strip()))
        return pd.DataFrame({"base_url": urls[urls != ""]})

    out = distinct(ds.map_batches(norm, batch_format="pandas"), "base_url").sort("base_url")
    assert [r["base_url"] for r in out.take_all()] == [
        "https://x.org", "https://y.org", "https://z.org"]


def test_sample_exact_no_global_shuffle(ray_session, monkeypatch):
    """sample_exact must be the hash-rank partial-top-k shape — a
    random_shuffle here would be an all-to-all exchange of the whole
    corpus to pick k rows. Also: deterministic across runs, exactly k
    rows, rows are REAL source rows."""
    import pandas as pd
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources.io import (
        sample_exact,
    )

    def _boom(self, *a, **k):
        raise AssertionError("sample_exact must not call random_shuffle")

    monkeypatch.setattr(rd.Dataset, "random_shuffle", _boom)

    src = pd.DataFrame({"doc_id": range(1000), "lang": ["en", "es"] * 500})
    ds = rd.from_pandas(src, override_num_blocks=8)
    got1 = sample_exact(ds, k=50, id_col="doc_id").to_pandas()
    got2 = sample_exact(rd.from_pandas(src, override_num_blocks=3),
                        k=50, id_col="doc_id").to_pandas()
    assert len(got1) == 50
    # identical sample at any partitioning (content-hash ranked)
    pd.testing.assert_frame_equal(
        got1.sort_values("doc_id").reset_index(drop=True),
        got2.sort_values("doc_id").reset_index(drop=True))
    # real rows
    merged = got1.merge(src, on=["doc_id", "lang"], how="left", indicator=True)
    assert (merged["_merge"] == "both").all()
    # k > n clamps
    assert len(sample_exact(rd.from_pandas(src.head(7)), k=50,
                            id_col="doc_id").to_pandas()) == 7


def test_sharded_generator_contract(ray_session, tmp_path, monkeypatch):
    """Big-tier sharded fixtures must (a) write directory-shaped
    pages/reference_works/labeled_pairs readable by both ray.data and
    pyarrow, (b) keep work_ids globally unique across shards, and (c)
    run the flagship pipeline to F1 == 1.0 on their own labeled pairs
    at toy scale (the sf1 generator is this same path at 900k
    entities)."""
    import glob

    import pyarrow.parquet as pq

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import (
        fixtures as fx,
    )

    monkeypatch.setitem(fx.BIG_TIER_ENTITIES, "sf1", 300)
    monkeypatch.setattr(fx, "FIXTURE_ROOT", str(tmp_path))
    out = reconcile.run_reconcile(str(tmp_path / "sf1"))
    fdir = out["fixture_dir"]
    shards = sorted(glob.glob(os.path.join(fdir, "pages.parquet",
                                           "*.parquet")))
    assert len(shards) == fx._BIG_SHARDS
    ids = pq.read_table(os.path.join(fdir, "reference_works.parquet"),
                        columns=["work_id"])["work_id"].to_pylist()
    assert len(ids) == len(set(ids)) > 300  # entities + siblings, unique
    f1 = reconcile.pairwise_f1(
        out["clusters"], os.path.join(fdir, "labeled_pairs.parquet"))
    assert f1["f1"] == 1.0, f1


def test_works_fixture_row_groups_split(tmp_path, monkeypatch):
    """reference_works is written in row groups of at most 1024 rows, as
    pages are, so ``read_works`` can spread it over several read tasks:
    the sf0.001 fixture, and a 1000-entity tier (1100 works) that splits
    into more than one group."""
    import pyarrow.parquet as pq

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import (
        fixtures as fx,
    )

    def groups(fdir):
        md = pq.read_metadata(os.path.join(fdir, "reference_works.parquet"))
        return [md.row_group(i).num_rows for i in range(md.num_row_groups)]

    assert max(groups(fx.ensure_fixtures("sf0.001"))) <= 1024
    monkeypatch.setitem(fx.TIER_ENTITIES, "sf_rg", 1000)
    fx.generate("sf_rg", str(tmp_path))
    big = groups(str(tmp_path))
    assert len(big) > 1 and max(big) <= 1024
