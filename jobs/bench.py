"""Write a perf record, BENCH_<RECORD>.json: this working tree against a parent revision.

Usage: ``python jobs/bench.py RECORD --parent-rev REV``, with RECORD one of
``store``, ``knn``, ``kernels`` or ``workers`` (``RECORDS``).

Compares a checkout of git revision REV (extracted with ``git archive`` into
a temporary directory) with this working tree. Every run is a fresh
process, so the two sides never share a JVM:

- the record's probe script, in ``PROBE_ROUNDS`` alternating rounds (the
  parent runs first in even rounds), each under one environment
  (``_probe``). A probe prints one JSON line of numeric fields and an
  optional ``identity`` string, which must be equal in every run of both
  sides: a side whose probe computes something else times something else;
- the record's perfbench workload: ``PAIRS`` alternating parent/change pairs
  of ``perfbench/run.py --trace 0`` of BENCHMARK.json's ``run_seconds``
  each (both sides of a pair use the same seed), then one ``--trace 1`` run
  per side, whose per-layer metrics the record keeps. Every run's perfbench
  environment fingerprint must be equal.

The change's wins are counted for every end-to-end metric of
BENCHMARK.json, in the direction its ``better`` gives. Writes
``BENCH_<RECORD>.json`` at the repository root, and nothing when a check
fails.
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
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating parent/change pairs: enough to claim a gain
PROBE_ROUNDS = 3

# Table 6's "BDD" row: build the 160K-vector multiscale store, time its CLIP
# cell and record the top-10 of random unit queries.
STORE_PROBE = r"""
import hashlib, json, sys
import numpy as np
sys.path[:0] = ["jobs"]
from _common import get_spark
from repro.bench.latency import build_fixture, measure_iteration
from repro.store.scan import topk_images

reps = 7
spark = get_spark("bench_store")
spark.sparkContext.setLogLevel("ERROR")
fix = build_fixture(spark, "BDD", 160_000, True)
s = measure_iteration(fix, "CLIP", reps=reps)
qs = np.random.default_rng(7).standard_normal((reps, 64))
qs /= np.linalg.norm(qs, axis=1, keepdims=True)
tops = [[int(r["image_id"]) for r in topk_images(fix.vec_df, q, 10).collect()] for q in qs]
spark.stop()
digest = hashlib.sha256(json.dumps(tops).encode()).hexdigest()
print(json.dumps({"table6_clip_ms": s * 1e3, "identity": digest}))
"""

# knn_graph_np(X, 10) on the LVIS (14K vectors) and BDD (32K vectors)
# multiscale bench sets.
KNN_PROBE = r"""
import hashlib, json, resource, time
from repro.embed.datasets import build_dataset
from repro.graph.knn import knn_graph_np

out, digest = {}, hashlib.sha256()
for name in ("lvis", "bdd"):
    X = build_dataset(name).vectors
    t0 = time.perf_counter()
    idx, dist = knn_graph_np(X, 10)
    out[f"{name}_s"] = time.perf_counter() - t0
    out[f"{name}_n"] = len(X)
    digest.update(idx.tobytes() + dist.tobytes())
out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out | {"identity": digest.hexdigest()}))
"""

# sweep-coarse's timed pass (every 16th category of each coarse bundle,
# Table 3's five methods) replayed serially with run_search, hashing every
# search's AP and shown image ids.
KERNELS_PROBE = r"""
import hashlib, json, sys, time
sys.path[:0] = ["."]
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
print(json.dumps({"pass_s": pass_s, "searches": len(out), "identity": digest}))
"""

# Spark's Python workers on the session of jobs/_common.get_spark: the wall
# time of a trivial job of one task per core once the workers are up and,
# inside each task, the time of importlib.invalidate_caches() (pyspark calls
# it before every task) and the number of cached zipimporters on archives
# under SPARK_HOME. No identity: the two sides are meant to differ.
WORKERS_PROBE = r"""
import json, sys, time
from statistics import median
sys.path[:0] = ["jobs"]
from _common import get_spark

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
for _ in range(9):
    t0 = time.perf_counter()
    sc.parallelize(range(n), n).count()
    job_s.append(time.perf_counter() - t0)
probes = sc.parallelize(range(n), n).mapPartitions(probe).collect()
spark.stop()
ms, held = zip(*probes)
print(json.dumps({"tasks": n, "trivial_job_s": median(job_s),
                  "invalidate_caches_ms": median(ms), "spark_home_zipimporters": max(held)}))
"""


class Record(NamedTuple):
    what: str
    workload: str  # the perfbench workload
    probe: str  # a Python script, run from the root of a checkout


RECORDS = {
    "store": Record("interactive workload and Table 6 store lookup", "interactive", STORE_PROBE),
    "knn": Record("kNN graph build and interactive set-up", "interactive", KNN_PROBE),
    "kernels": Record("sweep-coarse per-round numpy work (ENS scoring, loss, feedback, pick)",
                      "sweep-coarse", KERNELS_PROBE),
    "workers": Record("Python worker start-up cost per Spark task and sweep-coarse", "sweep-coarse", WORKERS_PROBE),
}


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


def _probe(script: str, root: Path) -> dict:
    """One probe process in the checkout at ``root``, with Spark on every core
    and a 4g driver, and ``src`` on the path of the probe and of Spark's
    Python workers: its JSON line."""
    env = _env() | {
        "SPARK_MASTER": f"local[{len(os.sched_getaffinity(0))}]",
        "SPARK_DRIVER_MEM": "4g",
        "PYTHONPATH": str(root / "src"),
    }
    return json.loads(_stdout([sys.executable, "-c", script], root, env)[-1])


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


def _alternating(rounds: int, run) -> dict[str, list]:
    """``run(side, i)`` for ``rounds`` rounds of both sides, the parent
    first in even rounds: the results per side, in round order."""
    out: dict[str, list] = {"parent": [], "change": []}
    for i in range(rounds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out[side].append(run(side, i))
            print(f"round {i + 1} {side}: {out[side][-1]}", flush=True)
    return out


def _paired_runs(workload: str, sides: dict[str, Path], seconds: float) -> tuple[dict, dict, str]:
    """``PAIRS`` alternating untraced runs of ``workload`` per side, then one
    traced run per side: ``(runs, traced, fingerprint)``. Raises when the
    runs' perfbench environment fingerprints are not all equal."""
    fingerprints = set()

    def run(side: str, i: int, trace: int = 0) -> dict:
        metrics, fp = _perfbench(sides[side], workload, i + 1, seconds, trace)
        fingerprints.add(fp)
        return metrics

    runs = _alternating(PAIRS, run)
    traced = {side: run(side, 0, trace=1) for side in sides}
    if len(fingerprints) != 1:
        raise RuntimeError(f"perfbench environments differ, results not comparable: {fingerprints}")
    return runs, traced, fingerprints.pop()


def _wins(runs: dict[str, list[dict]], name: str, better: str) -> int:
    """The pairs in which the change's ``name`` is better than the parent's."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c[name] - p[name]) > 0 for p, c in zip(runs["parent"], runs["change"]))


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("record", choices=RECORDS)
    p.add_argument("--parent-rev", required=True)
    args = p.parse_args(argv)
    what, workload, script = RECORDS[args.record]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rev = _rev(args.parent_rev)
    with tempfile.TemporaryDirectory(prefix=f"bench_{args.record}_parent_") as tmp:
        sides = {"parent": _extract(rev, Path(tmp)), "change": ROOT}
        probes = _alternating(PROBE_ROUNDS, lambda side, _: _probe(script, sides[side]))
        identities = {r.get("identity") for rs in probes.values() for r in rs}
        if len(identities) != 1:
            raise RuntimeError(f"probe identities differ between the two sides or between runs: {identities}")
        runs, traced, fingerprint = _paired_runs(workload, sides, bench["run_seconds"])

    fields = [k for k in probes["change"][0] if k != "identity"]
    wins = {m["name"]: _wins(runs, m["name"], m["better"]) for m in bench["end_to_end"]}
    record = {
        "what": f"{what}, parent vs change",
        "command": f"python jobs/bench.py {args.record} --parent-rev {rev}",
        "parent_rev": rev,
        "perfbench_fingerprint": fingerprint,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu(), "python": platform.python_version()},
        "probe": {
            "rounds": PROBE_ROUNDS,
            "identity": identities.pop(),
            "parent": _summary(probes["parent"], fields),
            "change": _summary(probes["change"], fields),
        },
        "perfbench": {
            "workload": workload,
            "pairs": PAIRS,
            "seconds": bench["run_seconds"],
            "parent": _summary(runs["parent"], wins),
            "change": _summary(runs["change"], wins),
            "change_wins": wins,
            "trace": traced,
        },
    }
    (ROOT / f"BENCH_{args.record}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
