"""The traced run: per-layer spans and kernel micro-benchmarks.

    python3 perfbench/trace.py --data DIR --ckpt DIR --ray-tmp DIR --spans FILE

In one fresh Ray session it runs the flagship entry point,
``run_reconcile``, with every stage call it makes wrapped in a span, then
a cold ``run_reconcile_checkpointed`` into ``--ckpt``, and last a rerun
served from those checkpoints. Each wrapper calls the original function, materializes
its output and records a span (name, start, end, parent, run id). The
stage names are rebound where the entry points resolve them -- the
``pipelines.reconcile`` namespace and the stage modules -- so the program
runs unedited. Spans stay in memory and are written to ``--spans`` when
the run ends.

After the session closes, the kernels run in-process and single-threaded
on this workload's own inputs, and the extracted text is compared per url
with ``stages.extract.oracle_extract``. Prints one JSON object (per-layer
metrics, counts and checks) as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import session  # noqa: E402

# stage calls the flagship entry points make: (module, attribute, span)
STAGE_CALLS = (
    ("pipelines.reconcile", "read_extract_pages", "stages.extract"),
    ("stages.records", "build_records", "stages.records"),
    ("stages.block", "find_hot_keys", "stages.block.find_hot_keys"),
    ("stages.block", "candidate_pairs", "stages.block.candidate_pairs"),
    ("stages.score", "broadcast_records", "stages.score.broadcast_records"),
    ("stages.score", "score_pairs", "stages.score.score_pairs"),
    ("stages.cluster", "connected_components_auto", "stages.cluster"),
)
CKPT_STAGES = ("records", "pairs", "scored", "clusters")


class Tracer:
    """In-memory span recorder that wraps module attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, run_id: str, name: str):
        """Top-level span of one traced run; spans opened inside share
        its run id."""
        self.run_id = run_id
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = _materialize(orig(*args, **kwargs))
            finally:
                self._close(span)
            span["args"], span["out"] = args, out
            if attr == "checkpoint":
                stage, resumed = args[2], out[1]
                span["name"] = f"state.manifest.{'resume' if resumed else 'checkpoint'}.{stage}"
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def run_spans(self, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]

    def self_times(self, run_id: str) -> dict[int, float]:
        """span id -> duration minus the time its children cover."""
        spans = self.run_spans(run_id)
        out = {}
        for s in spans:
            kids = sorted((c["start"], c["end"]) for c in spans if c["parent"] == s["id"])
            covered, cur_s, cur_e = 0.0, None, None
            for a, b in kids:
                if cur_e is None or a > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = a, b
                else:
                    cur_e = max(cur_e, b)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self_t = {}
        for run in {s["run"] for s in self.spans}:
            self_t.update(self.self_times(run))
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s["id"], "name": s["name"], "run": s["run"],
                                    "parent": s["parent"], "start_s": s["start"] - t0,
                                    "end_s": s["end"] - t0, "self_s": self_t[s["id"]]}) + "\n")


def _materialize(out):
    from ray.data import Dataset

    if isinstance(out, Dataset):
        return out.materialize()
    if isinstance(out, tuple) and out and isinstance(out[0], Dataset):
        return (out[0].materialize(),) + out[1:]
    return out


def _install(tracer: Tracer) -> None:
    import importlib

    import ray.data

    for mod, attr, name in STAGE_CALLS:
        tracer.wrap(importlib.import_module(f"{session.PKG}.{mod}"), attr, name)
    tracer.wrap(importlib.import_module(f"{session.PKG}.state.manifest"), "checkpoint", "checkpoint")
    # the works table and checkpoint readers; in a fresh session the first
    # read also pays the first worker start
    tracer.wrap(ray.data, "read_parquet", "sources.read_parquet")


def _dir_mb(path: str) -> float:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / 1e6


def _by_name(tracer: Tracer, run_id: str) -> dict[str, float]:
    """span name -> summed self time within one run."""
    self_t = tracer.self_times(run_id)
    out: dict[str, float] = {}
    for s in tracer.run_spans(run_id):
        out[s["name"]] = out.get(s["name"], 0.0) + self_t[s["id"]]
    return out


def _last_out(tracer: Tracer, run_id: str, name: str):
    hits = [s for s in tracer.run_spans(run_id) if s["name"] == name]
    return hits[-1] if hits else None


def _pair_counts(pairs_ds, scored_ds) -> tuple[int, int, int]:
    """(pairs, dropped pairs over capped blocks, match edges)."""
    import pandas as pd

    n_pairs = pairs_ds.count()
    capped = pairs_ds.map_batches(
        lambda b: b.loc[b["dropped_pairs"] > 0, ["block_key", "dropped_pairs"]],
        batch_format="pandas").to_pandas()
    dropped = int(capped.groupby("block_key")["dropped_pairs"].max().sum()) if len(capped) else 0
    matches = sum(int(pd.Series(b["is_match"]).sum())
                  for b in scored_ds.iter_batches(batch_size=65536, batch_format="numpy"))
    return n_pairs, dropped, matches


def _combos(recs_tbl, pairs_ds, limit: int = 40_000) -> list:
    """Distinct (author, author) name combos the scorer compares on
    this workload's candidate pairs, up to ``limit``."""
    names = dict(zip(recs_tbl["record_id"].to_pylist(), recs_tbl["authors_norm"].to_pylist()))
    seen: dict = {}
    for b in pairs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for left, right in zip(b["left_id"].to_pylist(), b["right_id"].to_pylist()):
            for x in names.get(left) or ():
                for y in names.get(right) or ():
                    if x != y:
                        seen[(x, y) if x <= y else (y, x)] = None
            if len(seen) >= limit:
                return list(seen)[:limit]
    return list(seen)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--data", required=True)
    ap.add_argument("--ckpt", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    session.start_session(args.ray_tmp)
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    reconcile = session.point_at(args.data)
    tracer = Tracer()
    _install(tracer)
    checks: dict[str, bool] = {}
    m: dict[str, float] = {}
    shutil.rmtree(args.ckpt, ignore_errors=True)
    try:
        # flagship, traced
        with tracer.root("flagship", "pipelines.reconcile.run_reconcile") as root:
            out = reconcile.run_reconcile(args.data, materialize_pairs=False,
                                          materialize_scored=False)
            clusters = out["clusters"].materialize()
        traced_e2e = root["end"] - root["start"]

        # checkpoint writes (a cold checkpointed run) and the full resume
        with tracer.root("checkpoint", "pipelines.reconcile.run_reconcile_checkpointed"):
            reconcile.run_reconcile_checkpointed(args.data, args.ckpt)[0]["clusters"].materialize()
        m["state.manifest.bytes_written_mb"] = _dir_mb(args.ckpt)
        with tracer.root("resume", "pipelines.reconcile.run_reconcile_checkpointed"):
            out2, resumed = reconcile.run_reconcile_checkpointed(args.data, args.ckpt)
            clusters2 = out2["clusters"].materialize()
        checks["resume_all_stages"] = all(resumed.values())

        # counts read from the flagship's stage outputs
        recs = _last_out(tracer, "flagship", "stages.records")["out"]
        recs_tbl = pa.concat_tables(list(recs.iter_batches(batch_size=65536, batch_format="pyarrow")))
        pairs = _last_out(tracer, "flagship", "stages.block.candidate_pairs")["out"]
        scored = _last_out(tracer, "flagship", "stages.score.score_pairs")["out"]
        cc_span = _last_out(tracer, "flagship", "stages.cluster")
        hot = _last_out(tracer, "flagship", "stages.block.find_hot_keys")["out"]
        n_pairs, dropped, matches = _pair_counts(pairs, scored)
        n_edges = cc_span["args"][0].count()
        digest, _, n_clusters = session.cluster_digest(clusters)
        checks["resume_digest"] = session.cluster_digest(clusters2)[0] == digest
        f1 = reconcile.pairwise_f1(clusters, os.path.join(args.data, "labeled_pairs.parquet"))["f1"]
        checks["f1"] = f1 >= 0.99
        extracted = _last_out(tracer, "flagship", "stages.extract")["out"]
        extracted_rows = {}
        for b in extracted.iter_batches(batch_size=4096, batch_format="pyarrow"):
            for url, text, err in zip(b["url"].to_pylist(), b["text"].to_pylist(),
                                      b["parse_error"].to_pylist()):
                extracted_rows[url] = (text, err)
        combos = _combos(recs_tbl, pairs)
        blobs = recs_tbl["name_blob"].to_pylist()
    finally:
        tracer.restore()
        ray.shutdown()

    by = _by_name(tracer, "flagship")
    n_rows = recs_tbl.num_rows
    pages = pq.read_table(os.path.join(args.data, "pages.parquet"), columns=["url", "html"])
    n_pages = pages.num_rows
    stage_self = sum(v for k, v in by.items() if not k.startswith("pipelines."))
    m.update({
        "stages.extract.self_s": by.get("stages.extract", 0.0),
        "stages.extract.us_per_page": by.get("stages.extract", 0.0) / n_pages * 1e6,
        "stages.records.self_s": by.get("stages.records", 0.0),
        "stages.records.rows": n_rows,
        "stages.block.find_hot_keys.self_s": by.get("stages.block.find_hot_keys", 0.0),
        "stages.block.hot_keys": len(hot),
        "stages.block.candidate_pairs.self_s": by.get("stages.block.candidate_pairs", 0.0),
        "stages.block.pairs": n_pairs,
        "stages.block.dropped_pairs": dropped,
        "stages.block.pairs_per_record": n_pairs / max(1, n_rows),
        "stages.score.broadcast_records.self_s": by.get("stages.score.broadcast_records", 0.0),
        "stages.score.score_pairs.self_s": by.get("stages.score.score_pairs", 0.0),
        "stages.score.us_per_pair": by.get("stages.score.score_pairs", 0.0) / max(1, n_pairs) * 1e6,
        "stages.score.match_edges": matches,
        "stages.score.match_ratio": matches / max(1, n_pairs),
        "stages.cluster.self_s": by.get("stages.cluster", 0.0),
        "stages.cluster.edges": n_edges,
        "stages.cluster.clusters": n_clusters,
        "sources.read_parquet.self_s": by.get("sources.read_parquet", 0.0),
        "pipelines.reconcile.traced_e2e_s": traced_e2e,
        "pipelines.reconcile.span_coverage": stage_self / traced_e2e,
    })
    cold = _by_name(tracer, "checkpoint")
    for stage in CKPT_STAGES:
        m[f"state.manifest.checkpoint.{stage}.self_s"] = cold.get(f"state.manifest.checkpoint.{stage}", 0.0)
    res = _by_name(tracer, "resume")
    m["state.manifest.resume.self_s"] = sum(res.get(f"state.manifest.resume.{s}", 0.0) for s in CKPT_STAGES)
    checks["span_coverage"] = m["pipelines.reconcile.span_coverage"] >= 0.9
    tracer.dump(args.spans)

    # kernels, single-threaded, on this workload's inputs
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.htmlextract import (
        extract_page,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.minhash import (
        MinHasher,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.functions.similarity import (
        indel_ratios_bulk,
    )
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.stages.extract import (
        oracle_extract,
    )

    htmls = pages["html"].to_pylist()[:1000]
    t0 = time.perf_counter()
    for h in htmls:
        extract_page(h)
    m["functions.htmlextract.us_per_page"] = (time.perf_counter() - t0) / max(1, len(htmls)) * 1e6
    m["stages.extract.html_mb"] = sum(len(h) for h in pages["html"].to_pylist()) / 1e6
    t0 = time.perf_counter()
    MinHasher(num_perm=64).signatures(blobs)
    m["functions.minhash.us_per_doc"] = (time.perf_counter() - t0) / max(1, len(blobs)) * 1e6
    t0 = time.perf_counter()
    indel_ratios_bulk(combos)
    m["functions.similarity.us_per_combo"] = (time.perf_counter() - t0) / max(1, len(combos)) * 1e6

    oracle = oracle_extract(pages)
    mismatched = sum(1 for url, page in oracle.items()
                     if extracted_rows.get(url, (None, ""))[0] != page["text"])
    checks["extract_matches_oracle"] = mismatched == 0 and len(extracted_rows) == n_pages
    m["stages.extract.parse_errors"] = sum(1 for _, err in extracted_rows.values() if err)

    print(json.dumps({"metrics": m, "checks": checks, "digest": digest}))


if __name__ == "__main__":
    main()
