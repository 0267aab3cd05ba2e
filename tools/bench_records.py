"""In-process micro-bench of the records stage's per-batch kernels.

Times ``stages.records.page_records_batch`` and ``work_records_batch``
(block keys included) on one input directory: a perfbench input
(``.perfbench_work/inputs/...``) or a fixture tier. The pages' mentions
are extracted first, untimed, with ``stages.extract.mentions_batch``;
then each side is cut into 1024-row batches and the whole side is timed
5 times. Prints one JSON line: µs per page record and µs per work record
(the minimum over the 5 passes), and the record counts.

Usage:
  python tools/bench_records.py DIR [--rows N] [--src CHECKOUT]

``--rows`` keeps the first N pages and N works (a slice of a large
tier); ``--src`` imports the package from another checkout, so a
before/after pair runs the same command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray"
BATCH_ROWS = 1024
REPS = 5


def _time(fn, batches) -> tuple[float, int]:
    """(min seconds over ``REPS`` passes of ``fn`` over ``batches``,
    output rows of one pass); one untimed pass warms the memos."""
    rows = sum(fn(b).num_rows for b in batches)
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        for b in batches:
            fn(b)
        best = min(best, time.perf_counter() - t0)
    return best, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", help="directory holding pages.parquet and reference_works.parquet")
    ap.add_argument("--rows", type=int, default=0, help="first N pages and works only")
    ap.add_argument("--src", default=ROOT, help="checkout to import the package from")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))

    import importlib

    import pyarrow as pa
    import pyarrow.dataset as ds

    records = importlib.import_module(PKG + ".stages.records")
    extract = importlib.import_module(PKG + ".stages.extract")

    def read(name, columns):  # a parquet file or shard directory
        data = ds.dataset(os.path.join(args.dir, name))
        return data.head(args.rows, columns) if args.rows else data.to_table(columns)

    pages = read("pages.parquet", ["url", "html"])
    works = read("reference_works.parquet", ["work_id", "doi", "landing_page_url", "authorships"])

    def cut(t):
        return [t.slice(i, BATCH_ROWS) for i in range(0, len(t), BATCH_ROWS)]

    mentions = pa.concat_tables([extract.mentions_batch(b) for b in cut(pages)])
    page_s, page_rows = _time(records.page_records_batch, cut(mentions))
    work_s, work_rows = _time(records.work_records_batch, cut(works))
    print(json.dumps({
        "src": os.path.abspath(args.src), "dir": os.path.abspath(args.dir),
        "page_records": page_rows, "work_records": work_rows,
        "us_per_page_record": round(page_s / max(page_rows, 1) * 1e6, 2),
        "us_per_work_record": round(work_s / max(work_rows, 1) * 1e6, 2),
    }))


if __name__ == "__main__":
    main()
