"""Tests of the benchmark itself, on the test-scale datasets.

    python -m pytest perfbench/tests -q

Each test runs the benchmark's command as a subprocess, as a harness would.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, *, trace: int = 0, fault: bool = False, cwd: Path = ROOT):
    cmd = [
        *SPEC["command"],
        "--workload", workload,
        "--seed", "5",
        "--seconds", "2",
        "--trace", str(trace),
        "--scale", "test",
    ] + (["--inject-fault"] if fault else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=400)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    res = _result(_run(workload, trace=trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in res["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_is_counted_as_failed(workload):
    res = _result(_run(workload, fault=True))
    assert not res["correct"]
    assert 0 < res["failed"] <= res["attempted"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero, and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
