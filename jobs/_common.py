"""Shared helpers for the spark-submit job entrypoints."""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pandas as pd

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def get_spark(app: str):
    """The SparkSession of the jobs, perfbench and the pytest fixture.

    Its Python workers start through ``repro.sparkdaemon``, which keeps
    pyspark's per-task import-cache reset from re-reading SPARK_HOME's
    archives; they need ``src`` (or an installed ``repro``) on their path.
    """
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.python.daemon.module", "repro.sparkdaemon")
        .getOrCreate()
    )


def emit(name: str, text: str) -> None:
    """Print a results block and persist it under results/ for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(text)
    print(text)
    sys.stdout.flush()


def md(df: pd.DataFrame, *, floatfmt: str = "%.2f") -> str:
    """Render a DataFrame as a GitHub markdown table (no tabulate dep)."""
    df = df.copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].map(lambda v: "" if pd.isna(v) else floatfmt % v)
    cols = [str(c) for c in df.columns]
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(str(v) for v in row.tolist()) + " |")
    return "\n".join(lines) + "\n"
