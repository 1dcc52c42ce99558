"""Regenerate BENCH_kernels.json: the sweep's per-round numpy work, parent vs change.

Usage: ``python jobs/bench_kernels.py --parent-rev REV``

Compares a checkout of git revision REV (extracted with ``git archive`` into
a temporary directory) with this working tree:

- ``sweep-coarse``'s end-to-end metrics from ``perfbench/run.py --trace 0``,
  in ``bench_store.PAIRS`` alternating parent/change pairs of
  BENCHMARK.json's ``run_seconds`` each;
- the per-round layers ``TRACE_LAYERS`` from one ``--trace 1`` run per side;
- ``sweep-coarse``'s timed pass (every 16th category of each coarse bundle,
  Table 3's five methods) replayed serially with ``run_search``, in
  ``REPLAY_ROUNDS`` alternating processes per side: the pass time and the
  SHA-256 of every search's (AP, shown image ids).

Every run is a fresh process. Writes ``BENCH_kernels.json`` at the
repository root, and nothing when any two replays' hashes differ (a search
changed) or the perfbench environment fingerprints differ.
"""
from __future__ import annotations

import argparse
import json
import operator
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

REPLAY_ROUNDS = 3
TRACE_LAYERS = (
    "baselines.ens_score_ms_p50",
    "core.align_ms_p50",
    "core.fg_evals_per_solve",
    "core.lbfgs_iters_mean",
    "loop.select_ms_p50",
    "loop.feedback_ms_p50",
    "bench.map",
)

# Run inside one checkout: build the coarse bundles as sweep-coarse does,
# replay its timed pass once, and hash what every search showed.
REPLAY = r"""
import hashlib, json, sys, time
sys.path[:0] = ["src", "."]
from perfbench.workloads import BUDGET, CATEGORY_STRIDE, TABLE3_METHODS, TARGET
from repro.bench.loop import run_search
from repro.bench.runner import build_bundle, make_ranker
from repro.embed.datasets import DATASET_NAMES, build_dataset

bundles = {
    f"{name}:coarse": build_bundle(build_dataset(name).coarse_only(), with_graph=True)
    for name in DATASET_NAMES
}
tasks = [
    (b, method, params, cat)
    for b in bundles
    for method, params, _ in TABLE3_METHODS
    for cat in range(0, bundles[b].ds.n_categories, CATEGORY_STRIDE)
]
t0 = time.perf_counter()
out = []
for b, method, params, cat in tasks:
    ranker = make_ranker(method, dict(params, cat=cat), bundles[b])
    res = run_search(bundles[b].ds, cat, ranker, target=TARGET, budget=BUDGET)
    out.append([repr(res.ap), [int(i) for i in res.shown_images]])
pass_s = time.perf_counter() - t0
digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
print(json.dumps({"pass_s": pass_s, "searches": len(out), "sha256": digest}))
"""


def _replays(sides: dict[str, Path]) -> dict[str, list[dict]]:
    replays: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(REPLAY_ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = json.loads(_stdout([sys.executable, "-c", REPLAY], sides[side], _env())[-1])
            replays[side].append(out)
            print(f"replay round {i + 1} {side}: {out}", flush=True)
    return replays


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-rev", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    rev = _rev(args.parent_rev)
    with tempfile.TemporaryDirectory(prefix="bench_kernels_parent_") as tmp:
        sides = {"parent": _extract(rev, Path(tmp)), "change": ROOT}
        replays = _replays(sides)
        hashes = {r["sha256"] for rs in replays.values() for r in rs}
        if len(hashes) != 1:
            raise RuntimeError("the timed pass's searches differ between the two sides or between runs")
        runs, traced, fingerprint = _paired_runs("sweep-coarse", sides, seconds)

    def wins(name: str, better) -> int:
        return sum(better(c[name], p_[name]) for p_, c in zip(runs["parent"], runs["change"]))

    record = {
        "what": "sweep-coarse per-round numpy work (ENS scoring, loss, feedback, pick), parent vs change",
        "command": "python jobs/bench_kernels.py --parent-rev " + rev,
        "parent_rev": rev,
        "perfbench_fingerprint": fingerprint,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu(),
            "python": platform.python_version(),
        },
        "sweep_coarse": {
            "pairs": PAIRS,
            "seconds": seconds,
            "parent": _summary(runs["parent"], END_TO_END),
            "change": _summary(runs["change"], END_TO_END),
            "searches_per_s_change_wins": wins("searches_per_s", operator.gt),
            "round_ms_p50_change_wins": wins("round_ms_p50", operator.lt),
        },
        "sweep_coarse_trace": {s: {n: t[n] for n in TRACE_LAYERS} for s, t in traced.items()},
        "timed_pass_replay": {
            "rounds": REPLAY_ROUNDS,
            "searches": replays["change"][0]["searches"],
            "searches_identical": True,
            "sha256": hashes.pop(),
            "parent": _summary(replays["parent"], ["pass_s"]),
            "change": _summary(replays["change"], ["pass_s"]),
        },
    }
    (ROOT / "BENCH_kernels.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
