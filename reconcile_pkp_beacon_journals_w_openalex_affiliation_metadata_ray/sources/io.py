"""Source readers (SURVEY.md §2.1 S1-S4).

Parquet: :func:`read_tasks` is the one Parquet read body of the pipeline
layer. :func:`read_parquet_rowgroups` plans its tasks from the footers of
inputs and shard directories; stage checkpoints plan theirs from their
manifests (``state.manifest``).

The reference reads CSV with DictReader + required-column validation
(`get_journal...py:42-46`, `check...openalex.py:51-82`) and streams
gzipped JSONL (`main.rs:680-747`, `parse_record...py:385-390`). Here
both map to Ray Data native readers plus an explicit required-column
gate that fails fast with the reference's error shape instead of
schema-on-read surprises downstream.
"""

from __future__ import annotations

import os

# rows per read task when the caller asks for no more tasks: a whole
# small table (or a checkpoint of many tiny files) is one task
DEFAULT_TASK_ROWS = 1 << 17
# rows per task of a heavy scan (pages html): sets task granularity
# only (how many blocks the scan emits); a task's memory is bounded by
# SLICE_BYTES whatever its row count
SCAN_TASK_ROWS = 16384
# uncompressed bytes (projected columns, from the row-group footers) of
# one slice a transforming read task hands its ``fn``: the task's heap
# holds one slice's decoded rows, not its whole row-group run
SLICE_BYTES = 4 << 20


def parquet_files(path) -> list[str]:
    """The Parquet files a read of ``path`` covers, in read order.

    ``path`` is one file, a list of paths (kept in the given order), or
    a directory searched recursively with its files sorted by full path
    -- a flat shard directory and a Hive ``part=N/`` checkpoint
    directory alike, in ``ray.data.read_parquet``'s order. Entries
    starting with ``.`` or ``_`` (``_SUCCESS``, ``.crc``) are skipped."""
    if isinstance(path, (list, tuple)):
        return [f for p in path for f in parquet_files(p)]
    if not os.path.isdir(path):
        return [path]
    out = []
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
        out.extend(os.path.join(root, f) for f in files
                   if f.endswith(".parquet") and not f.startswith((".", "_")))
    return sorted(out)


def cluster_cpus() -> int:
    """CPUs of the running Ray cluster (8 outside a session)."""
    try:
        import ray

        return max(1, int(ray.cluster_resources().get("CPU", 8)))
    except Exception:
        return 8


def scan_tasks() -> int:
    """Minimum task count of a heavy scan: ~4 per CPU, at least 8, so
    every CPU stays busy through a per-row parse fused into the read."""
    return max(8, 4 * cluster_cpus())


def _footer_pieces(files: list[str]) -> list[tuple]:
    """The footer pass: ``(file, row group, rows)`` for every row group
    of ``files``, in order, read in the calling process."""
    import pyarrow.parquet as pq

    pieces = []
    for f in files:
        md = pq.read_metadata(f)
        pieces.extend((f, i, md.row_group(i).num_rows) for i in range(md.num_row_groups))
    return pieces


def group_tasks(pieces, target_rows: int = DEFAULT_TASK_ROWS,
                min_tasks: int = 1) -> list[dict]:
    """Group ``(file, row group, rows)`` pieces, in order, into read
    tasks of about ``min(target_rows, total / min_tasks)`` rows. A task
    may span files, so a directory of many tiny files is read by one
    task. A piece whose row group is None stands for its whole file (a
    checkpoint file planned from its manifest). Each task is
    ``{"paths": [file, ...], "rgs": [[row group, ...] or None, ...]}``."""
    total = sum(n for _, _, n in pieces)
    target = max(1, min(target_rows, -(-total // max(1, min_tasks))))
    tasks, cur, cur_rows = [], {"paths": [], "rgs": []}, 0
    for f, i, n in pieces:
        if i is not None and cur["paths"] and cur["paths"][-1] == f:
            cur["rgs"][-1].append(i)
        else:
            cur["paths"].append(f)
            cur["rgs"].append(None if i is None else [i])
        cur_rows += n
        if cur_rows >= target:
            tasks.append(cur)
            cur, cur_rows = {"paths": [], "rgs": []}, 0
    if cur["paths"]:
        tasks.append(cur)
    return tasks


def _rowgroup_tasks(files: list[str], target_rows: int, min_tasks: int) -> list[dict]:
    """Read tasks over the files' row groups, planned from their footers."""
    return group_tasks(_footer_pieces(files), target_rows, min_tasks)


def _slice_rows(rg, cols, slice_bytes: int) -> int:
    """Rows per slice of row group ``rg`` (footer metadata): as many as
    keep the slice's share of the group's uncompressed bytes in the
    projected columns (top-level names ``cols``, all when None) within
    ``slice_bytes``; at least one row, at most the whole group."""
    nbytes = sum(rg.column(i).total_uncompressed_size for i in range(rg.num_columns)
                 if cols is None or rg.column(i).path_in_schema.split(".")[0] in cols)
    return max(1, min(rg.num_rows, slice_bytes * rg.num_rows // max(1, nbytes)))


def read_parquet_rowgroups(path, columns=None, fn=None,
                           target_rows: int = DEFAULT_TASK_ROWS,
                           min_tasks: int = 1, schema=None):
    """Parquet file(s) -> Dataset, each read task opening its own row
    groups.

    ``path`` is anything :func:`parquet_files` accepts. The footers are
    read in the calling process and the row groups grouped into tasks
    by row count (:func:`_rowgroup_tasks`), which :func:`read_tasks`
    reads. With no row groups at all the result is typed by ``schema``
    (an Arrow schema), else by the first file's."""
    import pyarrow.parquet as pq

    files = parquet_files(path)
    tasks = _rowgroup_tasks(files, target_rows, min_tasks)
    if not tasks and schema is None and files:
        schema = pq.read_schema(files[0])
    return read_tasks(tasks, columns, fn, schema)


def read_tasks(tasks: list[dict], columns=None, fn=None, schema=None):
    """The one Parquet read body: planned read tasks (:func:`group_tasks`)
    -> Dataset. It is ``from_items(tasks).map_batches(read)``, so no
    metadata or sampling tasks run and a downstream map fuses into the
    read task (Ray 2.49 never fuses a Read operator with a map). Each
    task emits one block.

    ``fn`` is a per-table transform run inside the read task, so a heavy
    column it consumes never enters the object store. The task streams
    its row groups (``ParquetFile.iter_batches``) in slices of at most
    :data:`SLICE_BYTES` uncompressed bytes in the projected columns
    (rows per slice from each group's footer, at least one row), calls
    ``fn`` on each slice and concatenates the outputs once, so its heap
    holds one slice of the heavy column whatever its row count. ``fn``
    must therefore be ROW-LOCAL: its output for a table is the
    concatenation of its outputs for any split of that table into
    consecutive slices. Without ``fn`` (checkpoint reads) a task reads
    its row groups whole.

    Rows come in task, file and row-group order, as
    ``ray.data.read_parquet`` yields them, with no Hive partition
    column. With no tasks the result is a typed empty Dataset:
    ``schema`` projected to ``columns`` and passed through ``fn``
    (untyped when ``schema`` is None)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    cols = list(columns) if columns is not None else None
    if not tasks:
        if schema is None:
            return rd.from_items([])
        empty = schema.empty_table()
        if cols is not None:
            empty = empty.select(cols)
        return rd.from_arrow(fn(empty) if fn is not None else empty)
    slice_bytes = SLICE_BYTES  # bound at build time, shipped with `read`

    def read_file(f: str, groups: list[int] | None) -> list[pa.Table]:
        if fn is None:
            with pq.ParquetFile(f) as pf:
                return [pf.read(columns=cols) if groups is None
                        else pf.read_row_groups(groups, columns=cols)]
        out = []
        # no pre-buffering: a group's column chunks are read through a
        # 1 MiB buffer as its slices decode, not loaded whole up front
        with pq.ParquetFile(f, buffer_size=1 << 20, pre_buffer=False) as pf:
            for g in range(pf.num_row_groups) if groups is None else groups:
                rows = _slice_rows(pf.metadata.row_group(g), cols, slice_bytes)
                out.extend(fn(pa.Table.from_batches([b])) for b in pf.iter_batches(
                    batch_size=rows, row_groups=[g], columns=cols))
            if not out:  # zero-row groups only: keep the block typed
                empty = pf.schema_arrow.empty_table()
                out.append(fn(empty.select(cols) if cols is not None else empty))
        return out

    def read(batch: pa.Table) -> pa.Table:
        out = []
        for paths, rgs in zip(batch["paths"].to_pylist(), batch["rgs"].to_pylist()):
            for f, groups in zip(paths, rgs):
                out.extend(read_file(f, groups))
        return pa.concat_tables(out, promote_options="default")

    return rd.from_items(tasks, override_num_blocks=len(tasks)).map_batches(
        read, batch_size=1, batch_format="pyarrow")


class MissingColumnsError(ValueError):
    pass


def require_columns(ds, required, source: str = "input"):
    """Fail fast if the dataset lacks required columns (the reference's
    required-column validation, `check...openalex.py:58-62`)."""
    names = set(ds.schema().names)
    missing = [c for c in required if c not in names]
    if missing:
        raise MissingColumnsError(
            f"{source} missing required columns: {', '.join(missing)}")
    return ds


def read_csv_table(path: str, required=(), **kwargs):
    """CSV -> Dataset with required-column validation (S1)."""
    import ray.data as rd

    ds = rd.read_csv(path, **kwargs)
    return require_columns(ds, required, source=path)


def read_jsonl(path: str, required=(), **kwargs):
    """(Gzipped) JSONL -> Dataset (S4). Ray's read_json handles .gz via
    arrow's automatic codec detection from the file extension."""
    import ray.data as rd

    ds = rd.read_json(path, **kwargs)
    return require_columns(ds, required, source=path)


def sample_exact(ds, k: int, seed: int = 42, id_col: str | None = None):
    """Uniform random sample WITHOUT replacement of exactly
    min(k, n) rows (O3 parity: `sample_csv/sample.py:5-14` clamps k to
    the population).

    Scale shape: every row is ranked by a seeded deterministic hash
    (md5 of ``seed:id`` when ``id_col`` is given — SQL-reproducible —
    else pandas' stable row hash of all columns) and the global k
    smallest ranks win. Each batch keeps only its local top-k, so the
    driver merges at most k rows per block — the same partial-top-k +
    tiny-merge shape as the KNN operator. The previous
    ``random_shuffle(seed).limit(k)`` was an ALL-TO-ALL exchange of the
    entire corpus to pick k rows; at 100 TB that is the whole dataset
    through the object store. A test asserts random_shuffle is never
    called."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    def _rank(b: pd.DataFrame) -> pd.Series:
        if id_col is not None:
            return b[id_col].map(lambda v: int(
                hashlib.md5(f"{seed}:{v}".encode("utf-8")).hexdigest()[:16], 16))
        from pandas.util import hash_pandas_object

        return hash_pandas_object(b.astype("string"), index=False,
                                  hash_key=f"{seed & 0xFFFF:016d}").astype("uint64")

    def _partial_topk(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return b.assign(__rank=pd.Series(dtype="uint64"))
        out = b.assign(__rank=_rank(b).to_numpy())
        return out.nsmallest(min(k, len(out)), "__rank", keep="first")

    parts = ds.map_batches(_partial_topk, batch_format="pandas").to_pandas()
    if parts.empty:
        return rd.from_pandas(parts.drop(columns="__rank", errors="ignore"))
    sort_cols = ["__rank"] + ([id_col] if id_col else [])
    top = (parts.sort_values(sort_cols, kind="mergesort").head(k)
           .drop(columns="__rank").reset_index(drop=True))
    return rd.from_pandas(top)


def stratified_sample(ds, k: int, group_col: str, id_col: str,
                      seed: int = 42):
    """Exactly min(k, group size) rows PER GROUP, deterministic: rows
    are ranked within their group by the md5 of ``seed:id`` (the hex
    string itself — lexicographic order is engine-identical, and SQL
    reproduces it as row_number() over md5). Same partial-top-k shape
    as :func:`sample_exact`, per group: each batch keeps at most k rows
    per group it touches, so the driver merge holds <= k * groups *
    blocks rows — bounded by the strata count, never the corpus."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return b.assign(__rk=pd.Series(dtype="string"))
        rk = b[id_col].map(lambda v: hashlib.md5(
            f"{seed}:{v}".encode("utf-8")).hexdigest())
        return (b.assign(__rk=rk.to_numpy())
                .sort_values("__rk", kind="mergesort")
                .groupby(group_col, sort=False).head(k))

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return rd.from_pandas(parts.drop(columns="__rk", errors="ignore"))
    top = (parts.sort_values("__rk", kind="mergesort")
           .groupby(group_col, sort=False).head(k)
           .drop(columns="__rk").reset_index(drop=True))
    return rd.from_pandas(top)


def weighted_sample_aes(ds, k: int, weight_col: str, id_col: str,
                        seed: int = 42):
    """Weighted random sample WITHOUT replacement (Efraimidis-Spirakis
    A-ES, Inf. Process. Lett. 2006): inclusion probability proportional
    to weight. Each row gets key = ln(u) / w with u derived from the
    md5 of ``seed:id`` (first 13 hex chars = 52 bits, exact in
    float64), and the k LARGEST keys win — equivalent to ranking by
    u^(1/w) but with one libm call both engines evaluate identically
    (ln + divide; the SQL oracle re-derives the full ranking with the
    verbatim expression, independently of this code).

    Scale shape: per-batch partial top-k, driver merges <= k rows per
    block — no shuffle, same as :func:`sample_exact`. Rows with
    non-positive weight are excluded (by A-ES definition)."""
    import hashlib

    import numpy as np
    import pandas as pd
    import ray.data as rd

    two52 = float(1 << 52)

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[weight_col] > 0]
        if b.empty:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "weight": pd.Series(dtype="float64"),
                                 "__key": pd.Series(dtype="float64")})
        u_int = b[id_col].map(lambda v: int(hashlib.md5(
            f"{seed}:{v}".encode("utf-8")).hexdigest()[:13], 16)).to_numpy(
                dtype="float64")
        w = b[weight_col].to_numpy(dtype="float64")
        key = np.log((u_int + 1.0) / two52) / w
        out = pd.DataFrame({id_col: b[id_col].to_numpy(),
                            "weight": w, "__key": key})
        # same (key desc, id asc) rule as the global merge, so a tie at
        # a batch's k boundary never drops the globally-winning row
        return (out.sort_values(["__key", id_col], ascending=[False, True],
                                kind="mergesort").head(min(k, len(out))))

    parts = ds.map_batches(_partial, batch_format="pandas").to_pandas()
    top = (parts.sort_values(["__key", id_col], ascending=[False, True],
                             kind="mergesort").head(k)
           .drop(columns="__key").reset_index(drop=True))
    return rd.from_pandas(top) if len(top) else rd.from_pandas(parts.drop(
        columns="__key"))
