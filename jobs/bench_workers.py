"""Regenerate BENCH_workers.json: Spark's Python worker start-up cost per task, parent vs change.

Usage: ``python jobs/bench_workers.py --parent-rev REV``

Compares a checkout of git revision REV (extracted with ``git archive`` into
a temporary directory) with this working tree:

- ``sweep-coarse``'s end-to-end metrics from ``perfbench/run.py --trace 0``,
  in ``bench_store.PAIRS`` alternating parent/change pairs of
  BENCHMARK.json's ``run_seconds`` each, and the layers ``TRACE_LAYERS``
  from one ``--trace 1`` run per side;
- in ``PROBE_ROUNDS`` alternating processes per side, on the session of
  ``jobs/_common.get_spark``: the wall time of a trivial job of one task per
  core once the workers are up, and, inside each task, the time of
  ``importlib.invalidate_caches()`` (pyspark calls it before every task) and
  the number of cached ``zipimporter``s on archives under ``SPARK_HOME``.

Every run is a fresh process. Writes ``BENCH_workers.json`` at the
repository root, and nothing when the perfbench environment fingerprints of
the runs differ or a perfbench check fails.
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
from statistics import median

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

PROBE_ROUNDS = 3
JOB_REPS = 9  # trivial jobs timed per probe process
TRACE_LAYERS = (
    "runner.make_ranker_ms_p50",
    "runner.sweep_s",
    "runner.udf_tasks",
    "runner.broadcast_mb",
    "runner.parallel_speedup",
    "bench.map",
)

# Run inside one checkout: start its Spark session, warm the workers up, time
# trivial one-task-per-core jobs, then probe the workers from inside a task.
PROBE = r"""
import json, sys, time
sys.path[:0] = ["src", "jobs"]
from _common import get_spark

reps = int(sys.argv[1])
spark = get_spark("bench_workers")
sc = spark.sparkContext
sc.setLogLevel("ERROR")
n = sc.defaultParallelism


def probe(_):
    import importlib, os, sys, time, zipimport
    home = os.path.join(os.path.realpath(os.environ["SPARK_HOME"]), "")
    held = sum(
        isinstance(imp, zipimport.zipimporter) and os.path.realpath(imp.archive).startswith(home)
        for imp in sys.path_importer_cache.values()
    )
    t0 = time.perf_counter()
    importlib.invalidate_caches()
    yield (time.perf_counter() - t0) * 1e3, held


sc.parallelize(range(n), n).count()
job_s = []
for _ in range(reps):
    t0 = time.perf_counter()
    sc.parallelize(range(n), n).count()
    job_s.append(time.perf_counter() - t0)
probes = sc.parallelize(range(n), n).mapPartitions(probe).collect()
spark.stop()
print(json.dumps({"tasks": n, "job_s": job_s, "probes": probes}))
"""


def _probe(root: Path) -> dict:
    env = _env() | {
        "SPARK_MASTER": f"local[{len(os.sched_getaffinity(0))}]",
        "SPARK_DRIVER_MEM": "2g",
        "PYTHONPATH": str(root / "src"),  # the workers import repro, as under perfbench
    }
    out = json.loads(_stdout([sys.executable, "-c", PROBE, str(JOB_REPS)], root, env)[-1])
    return {
        "tasks": out["tasks"],
        "trivial_job_s": median(out["job_s"]),
        "invalidate_caches_ms": median(ms for ms, _ in out["probes"]),
        "spark_home_zipimporters": max(held for _, held in out["probes"]),
    }


def _probes(sides: dict[str, Path]) -> dict[str, list[dict]]:
    probes: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(PROBE_ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            probes[side].append(_probe(sides[side]))
            print(f"probe round {i + 1} {side}: {probes[side][-1]}", flush=True)
    return probes


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-rev", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    rev = _rev(args.parent_rev)
    with tempfile.TemporaryDirectory(prefix="bench_workers_parent_") as tmp:
        sides = {"parent": _extract(rev, Path(tmp)), "change": ROOT}
        probes = _probes(sides)
        runs, traced, fingerprint = _paired_runs("sweep-coarse", sides, seconds)

    def wins(name: str, better) -> int:
        return sum(better(c[name], p_[name]) for p_, c in zip(runs["parent"], runs["change"]))

    probe_names = ("trivial_job_s", "invalidate_caches_ms", "spark_home_zipimporters")
    record = {
        "what": "Python worker start-up cost per Spark task and sweep-coarse, parent vs change",
        "command": "python jobs/bench_workers.py --parent-rev " + rev,
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
        "worker_probe": {
            "rounds": PROBE_ROUNDS,
            "job_reps": JOB_REPS,
            "tasks_per_job": probes["change"][0]["tasks"],
            "parent": _summary(probes["parent"], probe_names),
            "change": _summary(probes["change"], probe_names),
        },
    }
    (ROOT / "BENCH_workers.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
