"""Regenerate BENCH_store.json: the vector-store lookup, parent vs change.

Usage: ``python jobs/bench_store.py --parent-rev REV``

Compares a checkout of git revision REV (extracted with ``git archive`` into
a temporary directory) with this working tree:

- ``interactive``'s end-to-end metrics from ``perfbench/run.py --trace 0``,
  in ``PAIRS`` alternating parent/change pairs of BENCHMARK.json's
  ``run_seconds`` each (the side that runs first alternates; both sides of a
  pair use the same seed);
- the ``store.*`` per-layer metrics from one ``--trace 1`` run per side;
- the Table 6 lookup at 160K multiscale vectors: Table 6's CLIP cell
  (``bench.latency.measure_iteration``, one search round) on
  ``build_fixture``'s store, plus the top-10 of both sides compared over
  random queries.

Every run is a fresh process, so the two sides never share a JVM. The two
sides' perfbench environment fingerprints must match, and so must every
top-10: a side that builds another Table 6 database times another cell.
Both revisions must therefore build that database with ``generate_world``
(older revisions drew random vectors). Writes ``BENCH_store.json`` at the
repository root, and nothing when a check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating parent/change pairs: enough to claim a gain
TABLE6_REPS = 7
END_TO_END = ("round_ms_p50", "searches_per_s", "setup_s", "driver_rss_mb")
STORE_LAYERS = (
    "store.lookup_ms_p50",
    "store.lookup_ms_p90",
    "store.spark_jobs_per_lookup",
    "store.spark_tasks_per_lookup",
    "store.load_s",
)

# Run inside one checkout: build the 160K-vector multiscale store of
# Table 6's "BDD" row, time its CLIP cell and record the top-10 of random
# unit queries.
TABLE6_LOOKUP = r"""
import json, sys
import numpy as np
sys.path[:0] = ["src", "jobs"]
from _common import get_spark
from repro.bench.latency import build_fixture, measure_iteration
from repro.store.scan import topk_images

reps = int(sys.argv[1])
spark = get_spark("bench_store")
spark.sparkContext.setLogLevel("ERROR")
fix = build_fixture(spark, "BDD", 160_000, True)
s = measure_iteration(fix, "CLIP", reps=reps)
qs = np.random.default_rng(7).standard_normal((reps, 64))
qs /= np.linalg.norm(qs, axis=1, keepdims=True)
tops = [[int(r["image_id"]) for r in topk_images(fix.vec_df, q, 10).collect()] for q in qs]
spark.stop()
print(json.dumps({"ms": s * 1e3, "tops": tops}))
"""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("PYTHONPATH", "PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        env.pop(var, None)
    return env


def _stdout(cmd: list[str], cwd: Path, env: dict[str, str]) -> list[str]:
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"{cmd} in {cwd} failed:\n{out.stderr[-3000:]}")
    return out.stdout.strip().splitlines()


def _perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One perfbench run: its metric values and its environment fingerprint."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = _stdout(cmd, root, _env())
    env = json.loads(next(ln for ln in lines if ln.startswith("perfbench env "))[len("perfbench env "):])
    res = json.loads(lines[-1])
    if res["failed"]:
        raise RuntimeError(f"{root}: {res['failed']} of {res['attempted']} {workload} checks failed")
    return {k: v["value"] for k, v in res["metrics"].items()}, env["fingerprint"]


def _table6_lookup(root: Path) -> dict:
    env = _env() | {
        "SPARK_MASTER": f"local[{len(os.sched_getaffinity(0))}]",
        "SPARK_DRIVER_MEM": "4g",
    }
    return json.loads(_stdout([sys.executable, "-c", TABLE6_LOOKUP, str(TABLE6_REPS)], root, env)[-1])


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.machine()


def _summary(runs: list[dict], names) -> dict:
    return {n: {"median": median(r[n] for r in runs), "runs": [r[n] for r in runs]} for n in names}


def _rev(name: str) -> str:
    return subprocess.run(["git", "rev-parse", name], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def _extract(rev: str, dest: Path) -> Path:
    """Write the files of git revision ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest


def _paired_runs(workload: str, sides: dict[str, Path], seconds: float) -> tuple[dict, dict, str]:
    """``PAIRS`` alternating untraced runs of ``workload`` per side, then one
    traced run per side: ``(runs, traced, fingerprint)``. Raises when the
    runs' perfbench environment fingerprints are not all equal."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    fingerprints = set()
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, fp = _perfbench(sides[side], workload, i + 1, seconds, 0)
            runs[side].append(metrics)
            fingerprints.add(fp)
            print(f"pair {i + 1} {side}: {metrics}", flush=True)
    traced = {}
    for side, root in sides.items():
        traced[side], fp = _perfbench(root, workload, 1, seconds, 1)
        fingerprints.add(fp)
    if len(fingerprints) != 1:
        raise RuntimeError(f"perfbench environments differ, results not comparable: {fingerprints}")
    return runs, traced, fingerprints.pop()


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent-rev", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    rev = _rev(args.parent_rev)
    with tempfile.TemporaryDirectory(prefix="bench_store_parent_") as tmp:
        sides = {"parent": _extract(rev, Path(tmp)), "change": ROOT}
        runs, traced, fingerprint = _paired_runs("interactive", sides, seconds)
        lookups = {s: _table6_lookup(root) for s, root in sides.items()}
    if lookups["parent"]["tops"] != lookups["change"]["tops"]:
        raise RuntimeError("Table 6 top-10s differ: the two sides built different stores")

    wins = sum(c["round_ms_p50"] < p_["round_ms_p50"] for p_, c in zip(runs["parent"], runs["change"]))
    record = {
        "what": "interactive workload and Table 6 store lookup, parent vs change",
        "command": "python jobs/bench_store.py --parent-rev " + rev,
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
            "round_ms_p50_change_wins": wins,
        },
        "interactive_trace": {s: {n: t[n] for n in STORE_LAYERS} for s, t in traced.items()},
        "table6_lookup_160k_multiscale_top10": {
            "reps": TABLE6_REPS,
            "parent_ms_p50": lookups["parent"]["ms"],
            "change_ms_p50": lookups["change"]["ms"],
            "top10_identical": sum(
                a == b for a, b in zip(lookups["parent"]["tops"], lookups["change"]["tops"])
            ),
        },
    }
    (ROOT / "BENCH_store.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
