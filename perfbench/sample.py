"""One timed sample in a fresh process and a fresh Ray session.

    python3 perfbench/sample.py --data DIR --ckpt DIR --ray-tmp DIR [--resumes N]

Times the flagship entry point, ``run_reconcile`` in its streaming e2e
configuration, up to a fully computed ``clusters`` dataset. Then, after
one untimed ``run_reconcile_checkpointed`` into ``--ckpt`` (a warm-up
resume, or the cold run that writes the checkpoints if they are missing
or stale), times ``--resumes`` reruns of it with every stage served from
those checkpoints. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import session  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--data", required=True)
    ap.add_argument("--ckpt", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--resumes", type=int, default=0)
    args = ap.parse_args()

    res = {"setup_s": session.start_session(args.ray_tmp)}
    import ray

    try:
        reconcile = session.point_at(args.data)
        t0 = time.perf_counter()
        out = reconcile.run_reconcile(args.data, materialize_pairs=False, materialize_scored=False)
        clusters = out["clusters"].materialize()
        res["e2e_s"] = time.perf_counter() - t0
        res["peak_rss_mb"] = session.peak_rss_mb()

        res["resume_s"], res["resume_digests"] = [], []
        # the first rerun, untimed, warms the resume path's functions in the
        # workers (and writes the checkpoints on a seed's first sample)
        for i in range(args.resumes + 1 if args.resumes else 0):
            t0 = time.perf_counter()
            out2, resumed = reconcile.run_reconcile_checkpointed(args.data, args.ckpt)
            clusters2 = out2["clusters"].materialize()
            if i:
                res["resume_s"].append(time.perf_counter() - t0)
                if not all(resumed.values()):
                    raise RuntimeError(f"rerun recomputed stages: {resumed}")
            res["resume_digests"].append(session.cluster_digest(clusters2)[0])

        res["f1"] = reconcile.pairwise_f1(clusters, os.path.join(args.data, "labeled_pairs.parquet"))["f1"]
        res["digest"], res["cluster_rows"], res["clusters"] = session.cluster_digest(clusters)
    finally:
        ray.shutdown()
    print(json.dumps(res))


if __name__ == "__main__":
    main()
