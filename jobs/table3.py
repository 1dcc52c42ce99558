"""Reproduce Table 3: baseline comparison (coarse representation).

Usage: ``python jobs/table3.py [scale]``. Writes results/table3.md.
"""
from __future__ import annotations

import sys

import pandas as pd

from _common import emit, get_spark, md
from repro.bench.harness import PAPER, pivot, table3


def main(scale: str = "bench") -> None:
    spark = get_spark("table3")
    agg = table3(spark, scale)
    out = []
    for panel, value, key in (
        ("all queries", "map_all", "table3_all"),
        ("hard subset", "map_hard", "table3_hard"),
    ):
        wide = pivot(agg, value)
        paper = pd.DataFrame(PAPER[key]).T
        paper.columns = ["lvis", "objectnet", "coco", "bdd", "avg"]
        out.append(f"### Table 3 ({panel}) — measured\n\n{md(wide.reset_index())}")
        out.append(f"### Table 3 ({panel}) — paper\n\n{md(paper.reset_index(names='config'))}")
    emit("table3", "\n".join(out))


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["bench"]))
