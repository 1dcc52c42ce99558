"""Reproduce Table 2: the SeeSaw optimization-ablation stack.

Usage: ``python jobs/table2.py [scale]`` (scale = test|bench, default bench).
Writes results/table2.md with measured vs paper numbers.
"""
from __future__ import annotations

import sys

import pandas as pd

from _common import emit, get_spark, md
from repro.bench.harness import PAPER, pivot, table2


def main(scale: str = "bench") -> None:
    spark = get_spark("table2")
    agg = table2(spark, scale)
    out = []
    for panel, value in (("all queries", "map_all"), ("hard subset", "map_hard")):
        wide = pivot(agg, value)
        paper = pd.DataFrame(
            PAPER["table2_all" if panel == "all queries" else "table2_hard"],
        ).T
        paper.columns = ["lvis", "objectnet", "coco", "bdd", "avg"]
        out.append(f"### Table 2 ({panel}) — measured\n\n{md(wide.reset_index())}")
        out.append(f"### Table 2 ({panel}) — paper\n\n{md(paper.reset_index(names='config'))}")
    emit("table2", "\n".join(out))


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["bench"]))
