"""The pipeline's one Parquet reader (sources.io.read_parquet_rowgroups):
equivalence with ray.data.read_parquet on every input shape the
pipeline reads, and guards that pipelines/, stages/ and state/ read
Parquet only through it."""

import ast
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources import fixtures, io
from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.sources.io import (
    parquet_files,
    read_parquet_rowgroups,
)

# a fixture tier name: ensure_fixtures synthesizes the tier from it
SF = "sf0.001"
PKG_DIR = os.path.dirname(os.path.abspath(fixtures.__file__)).rsplit(os.sep, 1)[0]


@pytest.fixture(scope="module")
def fdir(ray_session):
    return fixtures.ensure_fixtures(SF)


@pytest.fixture()
def ordered(ray_session):
    """Both readers emit blocks in task order, so rows compare in order."""
    from ray.data import DataContext

    opts = DataContext.get_current().execution_options
    before = opts.preserve_order
    opts.preserve_order = True
    yield
    opts.preserve_order = before


def _table(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def _assert_same(got: pa.Table, want: pa.Table):
    assert got.column_names == want.column_names
    assert [f.type for f in got.schema] == [f.type for f in want.schema]
    assert got.to_pylist() == want.to_pylist()


def test_reader_single_file_projection(ordered, fdir):
    import ray.data as rd

    path = os.path.join(fdir, "reference_works.parquet")
    cols = ["work_id", "authorships", "doi"]
    want = _table(rd.read_parquet(path, columns=cols))
    for target_rows in (7, 10**9):  # several tasks / one task
        got = _table(read_parquet_rowgroups(path, columns=cols, target_rows=target_rows))
        assert got.num_rows > 0
        _assert_same(got, want)


def test_reader_flat_shard_directory(ordered, fdir, tmp_path):
    import ray.data as rd

    src = pq.read_table(os.path.join(fdir, "pages.parquet"), columns=["url", "lang", "html"])
    shard_dir = tmp_path / "pages.parquet"
    shard_dir.mkdir()
    n = src.num_rows
    cuts = [0, n // 4, n // 2, n]
    for i in range(3):
        pq.write_table(src.slice(cuts[i], cuts[i + 1] - cuts[i]),
                       shard_dir / f"shard-{i:05d}.parquet", row_group_size=16)
    want = _table(rd.read_parquet(str(shard_dir)))
    for target_rows in (10, 40, 10**9):  # tasks within files and spanning them
        _assert_same(_table(read_parquet_rowgroups(str(shard_dir), target_rows=target_rows)), want)
    assert want.num_rows == n


def test_reader_hive_checkpoint_directory(ordered, tmp_path):
    """A Ray-written part=N/ directory with several files per partition
    reads like read_parquet minus the Hive ``part`` column."""
    import ray.data as rd

    ckpt = str(tmp_path / "stage")
    src = rd.range(600, override_num_blocks=6).map_batches(
        lambda t: t.append_column("name", pa.array([f"n{i}" for i in t["id"].to_pylist()]))
                   .append_column("part", pa.array([i % 3 for i in t["id"].to_pylist()])),
        batch_format="pyarrow")
    src.write_parquet(ckpt, partition_cols=["part"])
    per_part = [len(os.listdir(os.path.join(ckpt, d))) for d in os.listdir(ckpt)]
    assert len(per_part) == 3 and min(per_part) > 1
    want = _table(rd.read_parquet(ckpt, file_extensions=["parquet"])).drop_columns(["part"])
    got = _table(read_parquet_rowgroups(ckpt))
    assert "part" not in got.column_names
    _assert_same(got, want)
    assert len(parquet_files(ckpt)) == sum(per_part)


def test_reader_empty_inputs_are_typed(ray_session, tmp_path):
    schema = pa.schema([("a", pa.int64()), ("b", pa.string())])
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    ds = read_parquet_rowgroups(str(empty_dir), schema=schema)
    assert ds.count() == 0 and ds.schema().names == ["a", "b"]
    f = str(tmp_path / "zero.parquet")
    pq.write_table(schema.empty_table(), f)
    ds = read_parquet_rowgroups(f, columns=["b"])
    assert ds.count() == 0 and ds.schema().names == ["b"]
    # a file of one 0-row group: no slice, yet fn still types the block
    ds = read_parquet_rowgroups(f, columns=["b"], fn=lambda t: t.append_column("c", t["b"]))
    assert ds.count() == 0 and ds.schema().names == ["b", "c"]


def _wide_files(tmp_path) -> list[str]:
    """Two page-like files, read as one task: 5,000-byte rows in
    300-row groups, then 80,000-byte rows (each over the test bound) in
    4-row groups. Every row is distinct, so no page dictionary shrinks
    the footers' uncompressed sizes."""
    specs = [(900, 300, 2500), (10, 4, 40000)]
    paths = []
    for k, (n, group, half_width) in enumerate(specs):
        path = str(tmp_path / f"wide-{k}.parquet")
        pq.write_table(pa.table({
            "url": [f"https://f{k}/{i}" for i in range(n)],
            "html": [os.urandom(half_width).hex() for _ in range(n)],
            "warc_ts": list(range(n)),
        }), path, row_group_size=group)
        paths.append(path)
    return paths


def _call_log():
    """An ``fn`` that returns one row per call: the slice's rows, Arrow
    bytes and first url (nested, so the workers unpickle it by value)."""
    def log(t: pa.Table) -> pa.Table:
        return pa.table({"rows": [t.num_rows], "nbytes": [t.nbytes],
                         "first": [t["url"][0].as_py() if t.num_rows else None]})
    return log


def test_reader_fn_slices_stay_within_the_bound(ordered, monkeypatch, tmp_path):
    """Every ``fn`` call of a transforming read holds at most SLICE_BYTES
    of the projected columns, or a single row when one row exceeds it,
    and the slices cover every row once, in order."""
    bound = 64 << 10
    monkeypatch.setattr(io, "SLICE_BYTES", bound)
    paths = _wide_files(tmp_path)
    log = _table(read_parquet_rowgroups(paths, columns=["url", "html"], fn=_call_log(),
                                        target_rows=10**9)).to_pylist()
    assert len(log) > 3 + 3  # more calls than row groups
    for call in log:
        assert call["nbytes"] <= bound or call["rows"] == 1, call
    assert sum(c["rows"] for c in log if c["nbytes"] > bound) == 10  # the 80 kB rows
    assert sum(c["rows"] for c in log) == 910
    want = pa.concat_tables([pq.read_table(p, columns=["url"]) for p in paths])
    starts, row = [], 0
    for call in log:
        starts.append(want["url"][row].as_py())
        row += call["rows"]
    assert [c["first"] for c in log] == starts


def test_reader_fn_slices_concatenate_to_the_one_shot_read(ordered, monkeypatch, tmp_path):
    """The sliced outputs of a task spanning two files concatenate to the
    whole-row-group read, in order, as ONE block per task."""
    monkeypatch.setattr(io, "SLICE_BYTES", 64 << 10)
    paths = _wide_files(tmp_path)
    want = pa.concat_tables([pq.read_table(p, columns=["url", "html"]) for p in paths])
    for target_rows in (10**9, 600):  # one task over both files / three tasks
        ds = read_parquet_rowgroups(paths, columns=["url", "html"], fn=lambda t: t,
                                    target_rows=target_rows).materialize()
        _assert_same(_table(ds), want)
        assert ds.num_blocks() == len(io._rowgroup_tasks(paths, target_rows, 1))
        _assert_same(_table(read_parquet_rowgroups(paths, columns=["url", "html"],
                                                   target_rows=target_rows)), want)


def test_reader_fn_light_rows_one_call_per_row_group(ordered, tmp_path):
    path = str(tmp_path / "light.parquet")
    pq.write_table(pa.table({"url": [f"u{i}" for i in range(250)],
                             "html": ["<p>x</p>"] * 250}), path, row_group_size=100)
    log = _table(read_parquet_rowgroups(path, fn=_call_log(), target_rows=10**9)).to_pylist()
    assert [c["rows"] for c in log] == [100, 100, 50]


def test_pipeline_layer_never_calls_read_parquet_statically():
    """No module under pipelines/, stages/ or state/ reaches
    ``read_parquet`` as an attribute (``rd.read_parquet``,
    ``ray.data.read_parquet``): every Parquet read goes through
    sources.io.read_parquet_rowgroups."""
    hits = []
    for sub in ("pipelines", "stages", "state"):
        for root, _, files in os.walk(os.path.join(PKG_DIR, sub)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                hits.extend(f"{path}:{node.lineno}" for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute) and node.attr == "read_parquet")
    assert not hits, hits


def test_pipeline_entry_points_never_call_read_parquet(ray_session, fdir, monkeypatch, tmp_path):
    import ray.data as rd

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )

    def _boom(*a, **k):
        raise AssertionError("the pipeline layer must not call ray.data.read_parquet")

    monkeypatch.setattr(rd, "read_parquet", _boom)

    out = reconcile.run_reconcile(SF)
    clusters = out["clusters"].materialize()
    assert reconcile.run_mention_scoring(SF)[1].count() > 0
    workdir = str(tmp_path / "ckpt")
    for _ in range(2):  # cold run, then a full resume
        ckpt_out, _ = reconcile.run_reconcile_checkpointed(SF, workdir)
        assert ckpt_out["clusters"].count() == clusters.count()
