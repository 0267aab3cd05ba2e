"""Record-linkage benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload crawl|dense_names \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Generates the workload's inputs from the
seed (cached under ``.perfbench_work/inputs`` by workload, seed and
shape; generation time is printed
on stderr and is not part of any metric), then, with this process and all
it starts bound to one CPU:

- ``--trace 0``: takes timed samples for ``--seconds`` (at least one; no
  sample starts that the longest one so far says would end after them).
  A sample is a fresh process with a fresh one-CPU Ray session, so it
  pays cold workers and cold per-worker memos as a real job does: the
  flagship run, then one untimed warm-up resume and ``RESUMES`` timed
  full resumes from checkpoints. Reports the median of each end-to-end
  metric in BENCHMARK.json over the samples (``resume_s`` over every
  timed resume).
- ``--trace 1``: one untraced flagship run, then the traced run
  (``perfbench/trace.py``); reports the per-layer metrics in
  BENCHMARK.json and writes the spans to ``.perfbench_work/traces``.

Every sample is checked: pairwise F1 >= 0.99 against the generated
labeled pairs, every resumed run's clusters equal the fresh run's, and the
cluster-assignment digest is the same in every sample and in every
earlier run of the same workload and seed in this checkout. The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
# Ray's unix sockets live ~64 bytes below its temp dir and a socket path
# may not exceed 107 bytes, so the session dir sits at a short path in the
# checkout; a checkout too deep for that falls back to the system temp dir
RAY_TMP = os.path.join(ROOT, ".pbray")
if len(RAY_TMP) + 64 > 107:
    RAY_TMP = os.path.join(tempfile.gettempdir(), f"pbray-{os.getpid()}")
PKG_ENTRY = os.path.join(ROOT, "reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray",
                         "pipelines", "reconcile.py")

# input shapes (gen.generate keyword arguments)
WORKLOADS = {
    "crawl": {"entities": 900, "name_pool": None, "page_weight": "heavy", "noise_share": 0.15},
    "dense_names": {"entities": 900, "name_pool": 15, "page_weight": "light", "noise_share": 0.15},
}
# timed full resumes per sample; their median rejects a burst of host noise
RESUMES = 7
F1_FLOOR = 0.99
# a run ends within this many seconds of its start, hung children included
RUN_LIMIT_S = 170
# no sample starts unless the previous longest one still fits in this
SAMPLING_BUDGET_S = 120
T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def prepare_inputs(workload: str, seed: int) -> tuple[str, dict]:
    """Generated input dir for (workload, seed), and its summary."""
    sys.path.insert(0, ROOT)
    from perfbench import gen

    shape = WORKLOADS[workload]
    tag = hashlib.blake2b(json.dumps([gen.GEN_VERSION, shape], sort_keys=True).encode(), digest_size=6).hexdigest()
    data = os.path.join(WORK, "inputs", f"{workload}-seed{seed}-{tag}")
    summary_path = os.path.join(data, "summary.json")
    if not os.path.exists(summary_path):
        shutil.rmtree(data, ignore_errors=True)
        t0 = time.perf_counter()
        summary = gen.generate(data + ".tmp", seed, **shape)
        summary["gen_s"] = time.perf_counter() - t0
        with open(os.path.join(data + ".tmp", "summary.json"), "w") as f:
            json.dump(summary, f)
        os.rename(data + ".tmp", data)
    with open(summary_path) as f:
        summary = json.load(f)
    log(f"inputs {data}: {summary}")
    return data, summary


def run_child(script: str, argv: list[str]) -> dict:
    """Run a benchmark child to completion in its own process group and
    return its last stdout line as JSON; every process left in the group
    is killed before returning."""
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script)] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, T0 + RUN_LIMIT_S - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"{script} still running at the {RUN_LIMIT_S} s run limit\n{err[-3000:]}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # the child's Ray session dir is named after the child's pid
        for entry in glob.glob(os.path.join(RAY_TMP, f"session_*_{proc.pid}")):
            shutil.rmtree(entry, ignore_errors=True)
        latest = os.path.join(RAY_TMP, "session_latest")
        if os.path.islink(latest) and not os.path.exists(latest):
            os.unlink(latest)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{script} exited {proc.returncode}\n{err[-3000:]}")
    return json.loads(lines[-1])


def check_sample(s: dict, digests: set) -> list[str]:
    problems = []
    if s["f1"] < F1_FLOOR:
        problems.append(f"pairwise_f1 {s['f1']:.4f} < {F1_FLOOR}")
    if any(d != s["digest"] for d in s["resume_digests"]):
        problems.append("resumed clusters differ from the fresh run's")
    digests.add(s["digest"])
    if len(digests) > 1:
        problems.append(f"cluster digests differ across runs: {sorted(digests)}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(PKG_ENTRY):
        log(f"the linkage package is missing (no {os.path.relpath(PKG_ENTRY, ROOT)}); "
            "run from the root of a full checkout")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The workloads are sized for one core (session.NUM_CPUS). Spread over
    # a 4-vCPU VM, Ray's processes wake idle vCPUs for every hand-off, and
    # on a busy host each wake-up waits for the hypervisor: e2e_s of one
    # seed moved by 30% from run to run. Bound to one CPU, the same runs
    # stayed within 8%. The children inherit the binding.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    data, summary = prepare_inputs(args.workload, args.seed)
    # resumes read checkpoints kept with the inputs (written on a seed's
    # first sample, untimed)
    ckpt = os.path.join(data, "checkpoints")
    child_args = ["--data", data, "--ray-tmp", RAY_TMP]

    # digests of earlier runs of this (workload, seed) in this checkout
    digest_file = os.path.join(data, "digest.txt")
    digests: set = set()
    if os.path.exists(digest_file):
        with open(digest_file) as f:
            digests.add(f.read().strip())

    samples, attempted, failed = [], 0, 0
    t_start = time.perf_counter()
    longest = 0.0
    while not samples or (not args.trace and time.perf_counter() - t_start + longest <= args.seconds):
        if time.perf_counter() - T0 + longest > SAMPLING_BUDGET_S or failed >= 2:
            break
        attempted += 1
        t_sample = time.perf_counter()
        try:
            s = run_child("sample.py", child_args + ["--ckpt", ckpt, "--resumes", str(0 if args.trace else RESUMES)])
            problems = check_sample(s, digests)
        except (RuntimeError, ValueError, KeyError) as exc:
            s, problems = None, [str(exc)]
        longest = max(longest, time.perf_counter() - t_sample)
        if problems:
            failed += 1
            log(f"sample {attempted} FAILED: {'; '.join(problems)}")
            continue
        s["pages_per_s"] = summary["pages"] / s["e2e_s"]
        samples.append(s)
        log(f"sample {attempted} ({time.perf_counter() - t_sample:.1f} s): "
            + json.dumps({k: v for k, v in s.items() if "digest" not in k}))

    metrics: dict[str, float] = {}
    if args.trace and samples:
        spans = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        attempted += 1
        trace_ckpt = os.path.join(WORK, "ckpt", f"trace-{args.workload}-seed{args.seed}")
        try:
            t = run_child("trace.py", child_args + ["--ckpt", trace_ckpt, "--spans", spans])
            problems = [f"trace check failed: {k}" for k, ok in t["checks"].items() if not ok]
            if t["digest"] not in digests:
                problems.append("traced run's clusters differ from the untraced run's")
        except (RuntimeError, ValueError, KeyError) as exc:
            t, problems = None, [str(exc)]
        finally:
            shutil.rmtree(trace_ckpt, ignore_errors=True)
        if problems:
            failed += 1
            log("traced run FAILED: " + "; ".join(problems))
        if t is not None:
            metrics = dict(t["metrics"])
            metrics["pipelines.reconcile.trace_overhead_s"] = (
                metrics["pipelines.reconcile.traced_e2e_s"] - samples[0]["e2e_s"])
            log(f"spans written to {spans}")
    elif samples:
        metrics = {
            "e2e_s": statistics.median(s["e2e_s"] for s in samples),
            "pages_per_s": statistics.median(s["pages_per_s"] for s in samples),
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "resume_s": statistics.median(x for s in samples for x in s["resume_s"]),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "pairwise_f1": statistics.median(s["f1"] for s in samples),
        }
        log(f"{len(samples)} samples at {summary['pages']} pages; e2e_s raw: "
            + ", ".join(f"{s['e2e_s']:.3f}" for s in samples))
    if len(digests) == 1 and failed == 0:
        with open(digest_file, "w") as f:
            f.write(next(iter(digests)))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"no value for {missing}")
        failed = max(failed, 1)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
