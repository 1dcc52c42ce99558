"""Regenerate BENCH_knn.json: the kNN graph build, parent vs change.

Usage: ``python jobs/bench_knn.py --parent-rev REV``

Compares a checkout of git revision REV (extracted with ``git archive`` into
a temporary directory) with this working tree:

- ``interactive``'s end-to-end metrics from ``perfbench/run.py --trace 0``,
  in ``bench_store.PAIRS`` alternating parent/change pairs of
  BENCHMARK.json's ``run_seconds`` each;
- the set-up layers ``graph.knn_s``, ``graph.m_d_s`` and ``embed.build_s``
  from one ``--trace 1`` run per side;
- ``knn_graph_np(X, 10)`` on its own, on the LVIS (14K vectors) and BDD (32K
  vectors) multiscale bench sets, in ``KNN_ROUNDS`` alternating processes
  per side, with the SHA-256 of each side's graph bytes and its peak RSS.

Every run is a fresh process. Writes ``BENCH_knn.json`` at the repository
root, and nothing when the two sides' graphs differ in any byte or their
perfbench environment fingerprints differ.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

from bench_store import (
    END_TO_END,
    PAIRS,
    ROOT,
    _cpu,
    _env,
    _extract,
    _paired_runs,
    _rev,
    _stdout,
    _summary,
)

KNN_ROUNDS = 5
KNN_SETS = ("lvis", "bdd")
SETUP_LAYERS = ("graph.knn_s", "graph.m_d_s", "embed.build_s")

# Run inside one checkout: time one knn_graph_np(X, 10) per multiscale set
# and hash the graph it returns.
KNN_BUILD = r"""
import hashlib, json, resource, sys, time
sys.path[:0] = ["src"]
from repro.embed.datasets import build_dataset
from repro.graph.knn import knn_graph_np

out = {}
for name in sys.argv[1:]:
    X = build_dataset(name).vectors
    t0 = time.perf_counter()
    idx, dist = knn_graph_np(X, 10)
    out[f"{name}_s"] = time.perf_counter() - t0
    out[f"{name}_n"] = len(X)
    out[f"{name}_sha256"] = hashlib.sha256(idx.tobytes() + dist.tobytes()).hexdigest()
out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def _knn_builds(sides: dict[str, Path]) -> dict[str, list[dict]]:
    builds: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(KNN_ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = json.loads(_stdout([sys.executable, "-c", KNN_BUILD, *KNN_SETS], sides[side], _env())[-1])
            builds[side].append(out)
            print(f"knn round {i + 1} {side}: {out}", flush=True)
    return builds


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-rev", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    rev = _rev(args.parent_rev)
    with tempfile.TemporaryDirectory(prefix="bench_knn_parent_") as tmp:
        sides = {"parent": _extract(rev, Path(tmp)), "change": ROOT}
        builds = _knn_builds(sides)
        hashes = {b[f"{name}_sha256"] for bs in builds.values() for b in bs for name in KNN_SETS}
        if len(hashes) != len(KNN_SETS):
            raise RuntimeError("kNN graphs differ between the two sides or between runs")
        runs, traced, fingerprint = _paired_runs("interactive", sides, seconds)

    wins = sum(c["setup_s"] < p_["setup_s"] for p_, c in zip(runs["parent"], runs["change"]))
    first = builds["change"][0]
    timed = [f"{name}_s" for name in KNN_SETS] + ["maxrss_mb"]
    record = {
        "what": "kNN graph build and interactive set-up, parent vs change",
        "command": "python jobs/bench_knn.py --parent-rev " + rev,
        "parent_rev": rev,
        "perfbench_fingerprint": fingerprint,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu(),
            "python": platform.python_version(),
        },
        "interactive": {
            "pairs": PAIRS,
            "seconds": seconds,
            "parent": _summary(runs["parent"], END_TO_END),
            "change": _summary(runs["change"], END_TO_END),
            "setup_s_change_wins": wins,
        },
        "interactive_trace": {s: {n: t[n] for n in SETUP_LAYERS} for s, t in traced.items()},
        "knn_graph_np_k10_multiscale": {
            "rounds": KNN_ROUNDS,
            "graphs_identical": True,
            "n_vectors": {name: first[f"{name}_n"] for name in KNN_SETS},
            "sha256": {name: first[f"{name}_sha256"] for name in KNN_SETS},
            "parent": _summary(builds["parent"], timed),
            "change": _summary(builds["change"], timed),
        },
    }
    (ROOT / "BENCH_knn.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
