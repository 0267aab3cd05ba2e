"""Per-stage Parquet checkpoints with lineage manifests and resume.

North-rule requirement: every stage checkpoints per-partition Parquet
with lineage (partition id, input fingerprint, row count, score
histogram) so a restarted run skips completed work instead of
recomputing. The reference's only resume mechanism is
output-file-existence skipping in the VLM tool
(`vlm_text_extractor.py:611-627,663-670`) and append-mode partition
writers that DUPLICATE on rerun (`main.rs:381`) — this module replaces
both with atomic temp-then-rename publication: a checkpoint either
exists completely (manifest written last) or not at all.

Layout:
    {root}/{stage}/part=N/*.parquet     hash-partitioned rows
    {root}/{stage}/MANIFEST.json        stage fingerprint, Arrow schema +
                                        per-partition {rows, files,
                                        (optional) histogram}

Resume contract: ``checkpoint(...)`` recomputes iff no manifest exists
OR the stored fingerprint differs from the caller's input fingerprint
(inputs or parameters changed). Otherwise it returns a reader over the
existing Parquet without touching the pipeline — stage-level
idempotence. Partitions are hash(key)%P so a future partial-resume can
recompute a single partition from the same input slice.

Reader: a checkpoint is read with the pipeline's one Parquet reader,
``sources.io.read_parquet_rowgroups``: the footers are read in the
calling process and the row groups of every ``part=N/`` file grouped
into tasks by row count, so a stage of dozens of tiny files is one read
task with no metadata or sampling tasks. Building the reader executes nothing;
the ``part`` directory name never surfaces as a column. A zero-row
stage writes no files and resumes as a typed empty Dataset from the
manifest's schema.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil

import pandas as pd

from ..sources.io import parquet_files, read_parquet_rowgroups


def fingerprint_inputs(*parts) -> str:
    """Stable fingerprint of input paths and parameter strings. An
    existing path contributes every file the Parquet reader would read
    under it (:func:`sources.io.parquet_files`), each by path, size and
    mtime, so replacing one shard of a directory changes the
    fingerprint."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, str) and os.path.exists(part):
            h.update(part.encode())
            for f in parquet_files(part):
                st = os.stat(f)
                h.update(f"\x00{f}:{st.st_size}:{st.st_mtime_ns}".encode())
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _manifest_path(stage_dir: str) -> str:
    return os.path.join(stage_dir, "MANIFEST.json")


def _complete_manifest(stage_dir: str, fingerprint: str) -> dict | None:
    """The stage's manifest if it matches ``fingerprint`` and every
    partition it lists is present, else None."""
    try:
        with open(_manifest_path(stage_dir)) as f:
            man = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    if man.get("fingerprint") != fingerprint:
        return None
    for part in man.get("partitions", {}):
        if not os.path.isdir(os.path.join(stage_dir, f"part={part}")):
            return None
    return man


def is_complete(root: str, stage: str, fingerprint: str) -> bool:
    return _complete_manifest(os.path.join(root, stage), fingerprint) is not None


def _reader(stage_dir: str, man: dict):
    """Reader over a published stage; the manifest's schema (base64
    Arrow IPC) types it when the stage has no rows."""
    import pyarrow as pa

    schema = man.get("schema")
    if schema is not None:
        schema = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(schema)))
    return read_parquet_rowgroups(stage_dir, schema=schema)


def _arrow_schema(ds):
    """Arrow schema of a stage that wrote no rows (this executes it
    again), or None (pandas-typed blocks). A row filter that kept
    nothing emits column-less blocks, so the schema its plan knows for
    its input stands in: a filter keeps its input's columns."""
    import pyarrow as pa

    schema = ds.schema()
    if schema is None:
        from ray.data._internal.logical.operators.map_operator import Filter

        op = ds._logical_plan.dag
        while schema is None and isinstance(op, Filter):
            op = op.input_dependencies[0]
            schema = op.infer_schema()
    base = getattr(schema, "base_schema", schema)
    return base if isinstance(base, pa.Schema) else None


def checkpoint(ds_factory, root: str, stage: str, fingerprint: str,
               partition_key: str | None = None, num_partitions: int = 16,
               histogram_col: str | None = None):
    """Materialize a stage to a checkpointed Parquet layout, or resume.

    ds_factory: zero-arg callable returning the stage's Dataset — only
    invoked on a checkpoint MISS, so a resumed run never re-executes
    the upstream pipeline for this stage.
    Returns (dataset, resumed: bool); dataset is a fresh read over the
    checkpoint files (lineage-free, bounded memory).
    """
    stage_dir = os.path.join(root, stage)
    man = _complete_manifest(stage_dir, fingerprint)
    if man is not None:
        return _reader(stage_dir, man), True

    ds = ds_factory()
    tmp_dir = stage_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(stage_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)

    from pandas.util import hash_pandas_object

    key = partition_key

    def _assign(batch):
        # arrow in/out so list-typed columns never round-trip through
        # pandas object dtype
        import pyarrow as pa

        if key is not None and key in batch.column_names:
            ser = batch[key].to_pandas().astype("string")
        else:
            ser = pd.Series(range(batch.num_rows), dtype="string")
        part = (hash_pandas_object(ser, index=False) % num_partitions).astype("int64")
        return batch.append_column("part", pa.array(part.to_numpy()))

    tagged = ds.map_batches(_assign, batch_format="pyarrow")
    tagged.write_parquet(tmp_dir, partition_cols=["part"])

    import pyarrow.parquet as pq

    # build lineage: per-partition row counts (+ optional histogram)
    partitions = {}
    for entry in sorted(os.listdir(tmp_dir)):
        if not entry.startswith("part="):
            continue
        pdir = os.path.join(tmp_dir, entry)
        rows = 0
        files = []
        hist = None
        for fname in sorted(os.listdir(pdir)):
            if fname.endswith(".parquet"):
                fpath = os.path.join(pdir, fname)
                rows += pq.read_metadata(fpath).num_rows
                files.append(fname)
        if histogram_col is not None:
            try:
                tbl = pq.read_table(pdir, columns=[histogram_col])
                col = tbl[histogram_col].to_pandas()
                hist = (col.clip(0, 100) // 10).value_counts().sort_index()
                hist = {str(int(k) * 10): int(v) for k, v in hist.items()}
            except Exception:
                hist = None
        info = {"rows": rows, "files": files}
        if hist is not None:
            info["score_histogram"] = hist
        partitions[entry.split("=", 1)[1]] = info

    # the files carry the schema; a zero-row stage writes none, and
    # only then is the (empty) stage executed again to learn it
    written = parquet_files(tmp_dir)
    schema = pq.read_schema(written[0]) if written else _arrow_schema(ds)
    manifest = {
        "stage": stage,
        "fingerprint": fingerprint,
        "num_partitions": num_partitions,
        "partition_key": partition_key,
        "partitions": partitions,
        "total_rows": sum(p["rows"] for p in partitions.values()),
        "schema": None if schema is None else base64.b64encode(
            schema.serialize().to_pybytes()).decode("ascii"),
    }
    with open(_manifest_path(tmp_dir), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.rename(tmp_dir, stage_dir)  # atomic publish: manifest travels with data
    return _reader(stage_dir, manifest), False


def read_manifest(root: str, stage: str) -> dict | None:
    mpath = _manifest_path(os.path.join(root, stage))
    if not os.path.exists(mpath):
        return None
    with open(mpath) as f:
        return json.load(f)
