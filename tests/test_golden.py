"""Golden behaviour gate: every test-scale search of Tables 2, 3, 4 and 7.

The table drivers in :mod:`repro.bench.harness` enumerate the searches. The
gate swaps their Spark sweep for an in-driver ``run_search`` replay and
compares each search's AP (as an exact float) and its shown image-id
sequence with ``tests/golden/searches_test_scale.json``. A refactor must
leave the file unchanged; a deliberate behaviour change regenerates it with
``PYTHONPATH=src python -m tests.test_golden`` and says why in CHANGES.md.

The pinned outcomes must not hang on last-bit rounding. The file was checked
byte-identical on a Sapphire Rapids Xeon with numpy 1.26's OpenBLAS 0.3.23
under its default kernel, ``OPENBLAS_CORETYPE`` set to ``SkylakeX``,
``Sandybridge``, ``Cooperlake`` or ``SapphireRapids``, and with
``NPY_DISABLE_CPU_FEATURES="AVX512F AVX512CD AVX512_SKX AVX512_CLX
AVX512_CNL AVX512_ICL"``. Under ``Haswell`` and ``Zen`` kernels one search
differs (``table7 objectnet:multi 'lc=3 ld=3000 l=100' cat=6``): an
aligner solve whose infimum lies at ``w -> 0`` returns a direction that
rounding decides.
"""
from __future__ import annotations

import json
from pathlib import Path

import pandas as pd

from repro.bench import harness
from repro.bench.loop import run_search
from repro.bench.runner import make_ranker

GOLDEN = Path(__file__).parent / "golden" / "searches_test_scale.json"
TABLES = ("table2", "table3", "table4", "table7")


def replay_tables(scale: str = "test") -> list[dict]:
    """Every distinct search of the four accuracy tables, replayed in this
    process, in the order the table drivers first enumerate them. A search
    two tables share (same bundle, method, params and category) runs once
    and is named by its first table and config."""
    searches: dict[tuple, dict] = {}
    table = ""

    def sweep(spark, bundles, tasks, *, target=10, budget=60):
        rows = []
        for t in tasks:
            cat = int(t["cat"])
            key = (t["bundle"], t["method"], json.dumps(t["params"], sort_keys=True), cat)
            if key not in searches:
                b = bundles[t["bundle"]]
                res = run_search(
                    b.ds, cat, make_ranker(t["method"], dict(t["params"], cat=cat), b),
                    target=target, budget=budget,
                )
                searches[key] = {
                    "table": table,
                    "bundle": t["bundle"],
                    "config": t["config"],
                    "cat": cat,
                    "ap": res.ap,
                    "shown": [int(i) for i in res.shown_images],
                }
            rows.append((t["bundle"], t["config"], cat, searches[key]["ap"]))
        return pd.DataFrame(rows, columns=["bundle", "config", "cat", "ap"])

    saved = harness.run_sweep
    harness.run_sweep = sweep
    try:
        for table in TABLES:
            getattr(harness, table)(None, scale)
    finally:
        harness.run_sweep = saved
    return list(searches.values())


def _name(s: dict) -> str:
    return f"{s['table']} {s['bundle']} {s['config']!r} cat={s['cat']}"


def _difference(golden: dict, got: dict) -> str | None:
    """How ``got`` differs from ``golden``, or None if it does not."""
    if _name(got) != _name(golden):
        return f"expected search {_name(golden)}, replay ran {_name(got)}"
    if got["shown"] != golden["shown"]:
        a, b = golden["shown"], got["shown"]
        r = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return (
            f"{_name(golden)}: shown images differ first at round {r} "
            f"(golden {a[r:r + 3]}, now {b[r:r + 3]})"
        )
    if got["ap"] != golden["ap"]:
        return f"{_name(golden)}: AP {got['ap']!r} != golden {golden['ap']!r}"
    return None


def test_searches_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = replay_tables()
    for g, r in zip(golden, got):
        diff = _difference(g, r)
        assert diff is None, diff
    assert len(got) == len(golden), f"{len(got)} searches replayed, golden has {len(golden)}"


def write_golden() -> None:
    searches = replay_tables()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(s) for s in searches) + "\n]\n")
    print(f"wrote {len(searches)} searches to {GOLDEN}")


if __name__ == "__main__":
    write_golden()
