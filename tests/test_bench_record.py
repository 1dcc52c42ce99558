"""The perf-record driver ``jobs/bench.py`` on a stub perfbench and a
trivial probe script: no Spark, no perfbench run, no git checkout."""
import importlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Toy:
    """The record ``toy`` of ``jobs/bench.py`` rooted at ``root``."""

    bench: ModuleType
    root: Path
    probe_log: Path
    parent_identity: str = "same"
    fingerprint_per_side: bool = False
    perfbench_calls: list = field(default_factory=list)

    def write(self) -> dict:
        self.bench.main(["toy", "--parent-rev", "HEAD"])
        return json.loads((self.root / "BENCH_toy.json").read_text())


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """The probe logs the side it ran on and prints that side's
    ``identity`` file. The perfbench stub gives the change a lower
    ``round_ms_p50`` and ``driver_rss_mb``, a higher ``searches_per_s`` and
    a higher (worse) ``setup_s`` than the parent."""
    monkeypatch.syspath_prepend(str(ROOT / "jobs"))
    bench = importlib.import_module("bench")
    change = tmp_path / "change"
    change.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change)
    (change / "side").write_text("change")
    (change / "identity").write_text("same")
    t = Toy(bench, change, tmp_path / "probes.log")
    probe = (
        "import json, pathlib\n"
        f"with open({str(t.probe_log)!r}, 'a') as f: f.write(pathlib.Path('side').read_text() + '\\n')\n"
        "print(json.dumps({'x': 1.5, 'identity': pathlib.Path('identity').read_text()}))\n"
    )

    def extract(rev, dest):
        (dest / "side").write_text("parent")
        (dest / "identity").write_text(t.parent_identity)
        return dest

    def perfbench(root, workload, seed, seconds, trace):
        side = (root / "side").read_text()
        t.perfbench_calls.append((side, seed, trace))
        parent = side == "parent"
        metrics = {
            "round_ms_p50": 2.0 if parent else 1.0,
            "searches_per_s": 2.0 if parent else 3.0,
            "setup_s": 4.0 if parent else 5.0,
            "driver_rss_mb": 200.0 if parent else 100.0,
        }
        if trace:
            metrics["store.lookup_ms_p50"] = 9.0
        return metrics, side if t.fingerprint_per_side else "fp"

    monkeypatch.setattr(bench, "ROOT", change)
    monkeypatch.setattr(bench, "_rev", lambda name: "abc123")
    monkeypatch.setattr(bench, "_extract", extract)
    monkeypatch.setattr(bench, "_perfbench", perfbench)
    monkeypatch.setitem(bench.RECORDS, "toy", bench.Record("a toy", "interactive", probe))
    return t


def test_sides_alternate_parent_first_on_even_rounds(toy):
    record = toy.write()
    assert toy.probe_log.read_text().split() == ["parent", "change", "change", "parent", "parent", "change"]
    pairs = [(side, seed) for side, seed, trace in toy.perfbench_calls if not trace]
    assert pairs[:4] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert len(pairs) == 2 * toy.bench.PAIRS
    assert record["probe"]["identity"] == "same"
    assert record["probe"]["change"]["x"] == {"median": 1.5, "runs": [1.5] * toy.bench.PROBE_ROUNDS}
    assert record["perfbench"]["trace"]["change"]["store.lookup_ms_p50"] == 9.0


def test_identity_mismatch_raises_and_writes_nothing(toy):
    toy.parent_identity = "other"
    with pytest.raises(RuntimeError, match="identities differ"):
        toy.write()
    assert not toy.perfbench_calls
    assert not (toy.root / "BENCH_toy.json").exists()


def test_fingerprint_mismatch_raises(toy):
    toy.fingerprint_per_side = True
    with pytest.raises(RuntimeError, match="environments differ"):
        toy.write()
    assert not (toy.root / "BENCH_toy.json").exists()


def test_wins_follow_better(toy):
    wins = toy.write()["perfbench"]["change_wins"]
    n = toy.bench.PAIRS
    assert wins == {"round_ms_p50": n, "searches_per_s": n, "setup_s": 0, "driver_rss_mb": n}


def test_unknown_record_rejected(toy):
    with pytest.raises(SystemExit):
        toy.bench.main(["nope", "--parent-rev", "HEAD"])
    assert not list(toy.root.glob("BENCH_*.json"))
