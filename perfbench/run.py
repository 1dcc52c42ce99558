"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The lines before it give the run environment and
a summary. Every result, with its environment, is also written under
``.perfbench/results/``, and a traced run's spans under ``.perfbench/traces/``.

``--scale test`` runs on the test-scale datasets and ``--inject-fault``
makes the program under test answer wrongly (the benchmark's own tests use
both).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SPARK_DRIVER_MEM = "2g"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The session confs jobs/_common.get_spark sets, plus the adaptive-execution
# settings that decide how many tasks a sweep gets.
RECORDED_CONFS = (
    "spark.sql.shuffle.partitions",
    "spark.sql.execution.arrow.pyspark.enabled",
    "spark.sql.autoBroadcastJoinThreshold",
    "spark.sql.adaptive.enabled",
    "spark.sql.adaptive.coalescePartitions.enabled",
    "spark.driver.memory",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("bench", "test"), default="bench")
    p.add_argument("--inject-fault", action="store_true")
    return p.parse_args(argv)


def _pin_environment(ncores: int) -> None:
    """Spark settings of ``jobs/_common.get_spark`` with the master pinned to
    the machine's cores; scratch files kept inside the checkout."""
    tmp, local = OUT / "tmp", OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    for var in ("PYSPARK_SUBMIT_ARGS", "SPARK_SHUFFLE_PARTITIONS"):
        os.environ.pop(var, None)
    os.environ["SPARK_MASTER"] = f"local[{ncores}]"
    os.environ["SPARK_DRIVER_MEM"] = SPARK_DRIVER_MEM
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_PYTHON"] = sys.executable
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)  # for Spark's Python workers
    sys.path[:0] = paths[:2]


def _start_spark():
    from jobs._common import get_spark

    t0 = time.perf_counter()
    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    spark.range(1).count()
    return spark, time.perf_counter() - t0


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and so its Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def _environment(args, spark, ncores: int) -> dict:
    import numpy as np
    import pandas as pd
    import pyspark

    def conf(key: str):
        try:
            return spark.conf.get(key)
        except Exception:  # a key with neither a value nor a default
            return None

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {
        "nproc": ncores,
        "spark_master": spark.sparkContext.master,
        "spark_confs": {k: conf(k) for k in RECORDED_CONFS},
        "aqe_enabled": conf("spark.sql.adaptive.enabled"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "pyspark": pyspark.__version__,
        "scale": args.scale,
        "seconds": args.seconds,
    }
    # Results are comparable only when their fingerprints are equal.
    env["fingerprint"] = hashlib.sha256(
        json.dumps(env, sort_keys=True).encode()
    ).hexdigest()[:16]
    return env | {"workload": args.workload, "seed": args.seed, "trace": args.trace}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_common.py").is_file():
        print(f"perfbench: no program sources (src/repro, jobs/) under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ncores = len(os.sched_getaffinity(0))
    _pin_environment(ncores)

    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, Run

    tracer = Tracer(enabled=bool(args.trace))
    spark, warmup_s = _start_spark()
    try:
        env = _environment(args, spark, ncores)
        run = Run(spark, args.seed, args.seconds, args.scale, tracer, args.inject_fault)
        outcome = WORKLOADS[args.workload](run)
    finally:
        _stop_spark(spark)

    values = outcome.end_to_end | {
        "driver_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    if args.trace:
        values = outcome.layers | {"spark.warmup_s": warmup_s}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    summary = outcome.summary | {
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "spark_warmup_s": warmup_s,
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps({"env": env, "summary": summary, "result": result}, indent=1)
    )
    if args.trace:
        tracer.dump(OUT / "traces" / f"{stem}.json")
    print("perfbench env " + json.dumps(env))
    print("perfbench summary " + json.dumps(summary))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
