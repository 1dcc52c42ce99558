"""Import smoke test: every module of the package, of ``jobs/`` and of
``benchmarks/`` imports, so a dangling import of a deleted module fails here
even though no other test imports the job scripts or the benchmarks. The
probe scripts of ``jobs/bench.py``'s perf records are strings no import
reaches, so each record's case compiles its probe."""
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))
BENCHMARKS = sorted(f"benchmarks.{p.stem}" for p in (ROOT / "benchmarks").glob("bench_*.py"))
JOBS = sorted(p.stem for p in (ROOT / "jobs").glob("*.py"))
BENCH_RECORDS = [f"bench_{r}" for r in ("kernels", "knn", "store", "workers")]


@pytest.mark.parametrize("name", PACKAGE + BENCHMARKS)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", JOBS + BENCH_RECORDS)
def test_job_imports(name, monkeypatch):
    # The job scripts import their shared helpers as the top-level ``_common``.
    monkeypatch.syspath_prepend(str(ROOT / "jobs"))
    if name not in BENCH_RECORDS:
        importlib.import_module(name)
        return
    record = importlib.import_module("bench").RECORDS[name.removeprefix("bench_")]
    compile(record.probe, f"<{name} probe>", "exec")
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert record.workload in [w["name"] for w in workloads]
