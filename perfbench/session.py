"""Shared pieces of one fresh-session benchmark process: Ray start-up,
pointing the flagship entry points at generated inputs, peak-RSS
accounting over the process tree, and output checks."""

from __future__ import annotations

import hashlib
import os
import time

PKG = "reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray"

# The workloads are sized for one core, which is what `nproc` reports on
# the host they were sized on; pinning it (rather than reading the core
# count) keeps the numbers comparable on hosts with more cores. A fixed
# object store keeps the broadcast-vs-shuffle scoring choice (20% of the
# store) the same everywhere too.
NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 << 20
# By default Ray kills a worker idle for more than 1 s once the pool
# exceeds its soft limit (NUM_CPUS), and the next stage that needs one
# pays a new worker's start-up (~1 s of CPU). Whether that happens depends
# on timing alone, so a full resume would take ~0.8 s or ~1.7 s at random;
# a session keeps the workers it started instead, as a long-lived job's
# pool would.
SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 3_600_000}


def start_session(ray_tmp: str) -> float:
    """Imports, ``ray.init`` with ``NUM_CPUS`` and the session's
    Data context tuning; returns the seconds it took (``setup_s``).
    The clock starts before the heavy imports."""
    t0 = time.perf_counter()
    import logging

    import ray
    from ray.data import DataContext

    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.context import (
        tune_data_context,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (  # noqa: F401
        reconcile,
    )

    ray.init(address="local", num_cpus=NUM_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=os.path.abspath(ray_tmp),
             _system_config=SYSTEM_CONFIG)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    tune_data_context(ctx)
    # Ray-internal schema-less-empty-block warning noise (see bench.py)
    logging.getLogger("ray.data._internal.execution.streaming_executor_state").setLevel(logging.ERROR)
    return time.perf_counter() - t0


def point_at(data_dir: str):
    """Make the flagship entry points read ``data_dir`` (passed as their
    ``sf_dir``) instead of a tier fixture directory, by rebinding the
    name they resolve at call time. Returns the reconcile module."""
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.pipelines import (
        reconcile,
    )

    reconcile.ensure_fixtures = lambda sf_dir: sf_dir
    return reconcile


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, stack = [], [root]
    while stack:
        pid = stack.pop()
        out.append(pid)
        stack.extend(children.get(pid, ()))
    return out


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and every process it started
    (the session's GCS, raylet, agents and workers)."""
    total_kb = 0
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def cluster_digest(clusters_ds) -> tuple[str, int, int]:
    """(digest of the sorted (record_id, cluster_id) rows, rows, distinct
    clusters)."""
    rows = []
    for b in clusters_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        rows.extend(zip(b["record_id"].to_pylist(), b["cluster_id"].to_pylist()))
    rows.sort()
    h = hashlib.blake2b(digest_size=16)
    for rid, cid in rows:
        h.update(f"{rid}\t{cid}\n".encode())
    return h.hexdigest(), len(rows), len({c for _, c in rows})
