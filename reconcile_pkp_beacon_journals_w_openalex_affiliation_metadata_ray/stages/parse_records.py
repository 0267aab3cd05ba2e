"""Distributed M6/M7: recursive *.jsonl.gz discovery + per-file parse
into the flat 11-column work-metadata contract.

Reference: `parse_record_data_from_files/parse_record_data_from_files.py`
(serial: one process walks files and appends to one CSV). Ray-native
design: gzip streams are non-splittable, so the FILE is the unit of
parallelism — a Dataset of file paths fans out through ``flat_map``
(one task per file, lines streamed, never the whole tree in memory) and
the parsed rows flow on as ordinary blocks. At 100 TB the input is
millions of shard files; discovery stays a cheap driver-side listing
(names only) and each task touches exactly one file, which also makes
the file the natural resume shard for the partitioned writer.

The Crossref variant derives (member_id, prefix) from the directory
layout ``<member>/<prefix>/*.jsonl.gz`` (reference `:363-375`) with the
same INVALID_PATH_* sentinels.
"""

from __future__ import annotations

import gzip
import os

import pyarrow as pa

from ..functions import recordparse

ROW_SCHEMA = pa.schema([
    ("member_id", pa.string()),
    ("prefix", pa.string()),
    ("doi", pa.string()),
    ("url", pa.string()),
    ("pdf_url", pa.string()),
    ("deposit_timestamp_yyyymmddhhmmss", pa.string()),
    ("openalex_id", pa.string()),
    ("source_file_relative", pa.string()),
    ("line_number", pa.int64()),
    ("parse_status", pa.string()),
    ("parse_error_details", pa.string()),
])


def discover_jsonl_gz(input_dir: str) -> list:
    """Recursive '*.jsonl.gz' discovery (reference `:59-67`), sorted for
    determinism. Returns relative paths."""
    out = []
    for root, _dirs, files in os.walk(input_dir):
        for f in files:
            if f.endswith(".jsonl.gz"):
                out.append(os.path.relpath(os.path.join(root, f), input_dir))
    return sorted(out)


def crossref_path_ids(rel_path: str):
    """<member>/<prefix>/file.jsonl.gz -> (member_id, prefix) with the
    reference's INVALID_PATH_* sentinels (`:363-375`); (None, None) when
    the layout doesn't match."""
    parts = rel_path.split(os.sep)
    if len(parts) >= 3 and parts[-1].endswith(".jsonl.gz"):
        member, prefix = parts[-3], parts[-2]
        if not member.isdigit():
            member = f"INVALID_PATH_MEMBER ({member})"
        split = prefix.split(".")
        if not prefix.startswith("10.") or not (len(split) > 1 and split[1].isdigit()):
            prefix = f"INVALID_PATH_PREFIX ({prefix})"
        return member, prefix
    return None, None


def _parse_file(input_dir: str, rel_path: str, source_type: str) -> list:
    """Parse one gzipped JSONL file -> list of contract row dicts.
    Streams line by line; empty lines are skipped without a row."""
    path_member = path_prefix = None
    if source_type == "crossref":
        path_member, path_prefix = crossref_path_ids(rel_path)
    rows = []
    full = os.path.join(input_dir, rel_path)
    with gzip.open(full, "rt", encoding="utf-8", errors="ignore") as f:
        for i, line in enumerate(f):
            line_num = i + 1
            if source_type == "crossref":
                row = recordparse.parse_crossref_line(
                    line, source_file=rel_path, line_number=line_num,
                    path_member_id=path_member, path_prefix=path_prefix)
            else:
                row = recordparse.parse_openalex_line(
                    line, source_file=rel_path, line_number=line_num)
            if row is not None:
                rows.append(row)
    return rows


def parse_record_files_checkpointed(input_dir: str, source_type: str,
                                    workdir: str):
    """Per-FILE resumable variant (S10: the gzip shard is the resume
    unit). Each input file's parsed rows land in their own parquet
    under ``workdir`` keyed by a content fingerprint (path+size+mtime);
    a rerun parses only new/changed files and re-reads the rest.
    Returns (dataset, n_parsed, n_skipped)."""
    import hashlib
    import json

    import pandas as pd
    import ray.data as rd

    from ..sources.io import read_parquet_rowgroups
    from ..state.manifest import fingerprint_inputs

    out_dir = os.path.join(workdir, f"parse_records_{source_type}")
    files_dir = os.path.join(out_dir, "files")
    os.makedirs(files_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "FILES.json")
    manifest: dict = {}
    if os.path.exists(mpath):
        try:
            with open(mpath) as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError):
            manifest = {}

    rels = discover_jsonl_gz(input_dir)
    todo, done = [], []
    for rel in rels:
        fp = fingerprint_inputs(os.path.join(input_dir, rel), source_type)
        slug = hashlib.blake2b(rel.encode(), digest_size=12).hexdigest()
        fpath = os.path.join(files_dir, f"{slug}.parquet")
        if manifest.get(rel, {}).get("fingerprint") == fp and os.path.exists(fpath):
            done.append(fpath)
        else:
            todo.append((rel, fp, fpath))

    if todo:
        todo_ds = rd.from_items(
            [{"rel": r, "fpath": p} for r, _, p in todo])

        def _parse_write(batch: pd.DataFrame) -> pd.DataFrame:
            import pyarrow as pa
            import pyarrow.parquet as pq

            rows_out = []
            for rel, fpath in zip(batch["rel"], batch["fpath"]):
                rows = _parse_file(input_dir, rel, source_type)
                tbl = (pa.Table.from_pylist(rows, schema=ROW_SCHEMA)
                       if rows else ROW_SCHEMA.empty_table())
                tmp = fpath + ".tmp"
                pq.write_table(tbl, tmp, row_group_size=4096)
                os.replace(tmp, fpath)  # atomic per-file publish
                rows_out.append({"rel": rel, "rows": len(rows)})
            return pd.DataFrame(rows_out)

        results = todo_ds.map_batches(_parse_write, batch_size=1,
                                      batch_format="pandas").to_pandas()
        counts = dict(zip(results["rel"], results["rows"]))
        for rel, fp, fpath in todo:
            manifest[rel] = {"fingerprint": fp, "rows": int(counts.get(rel, 0)),
                             "file": os.path.basename(fpath)}
            done.append(fpath)
        tmp = mpath + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
        os.replace(tmp, mpath)

    ds = read_parquet_rowgroups(sorted(done), schema=ROW_SCHEMA)
    return ds, len(todo), len(rels) - len(todo)


def parse_record_files(input_dir: str, source_type: str,
                       files=None, concurrency=None):
    """Dataset of parsed work-metadata rows for every *.jsonl.gz under
    input_dir. ``source_type`` in {'openalex', 'crossref'} (the CLI's
    --source-type dispatch, reference `:396-410`)."""
    if source_type not in ("openalex", "crossref"):
        raise ValueError(f"unknown source_type: {source_type}")
    import ray.data as rd

    rels = files if files is not None else discover_jsonl_gz(input_dir)
    if not rels:
        return rd.from_arrow(ROW_SCHEMA.empty_table())
    paths_ds = rd.from_items([{"rel": r} for r in rels])

    def _one(row: dict) -> list:
        return _parse_file(input_dir, row["rel"], source_type)

    kwargs = {"concurrency": concurrency} if concurrency else {}
    return paths_ds.flat_map(_one, **kwargs)
