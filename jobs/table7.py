"""Reproduce Table 7: SeeSaw AP across the hyperparameter grid.

Usage: ``python jobs/table7.py [scale]``. Writes results/table7.md.
"""
from __future__ import annotations

import sys

import pandas as pd

from _common import emit, get_spark, md
from repro.bench.harness import PAPER, table7


def main(scale: str = "bench") -> None:
    spark = get_spark("table7")
    agg = table7(spark, scale)
    sub = agg[agg["config"] != "zero-shot CLIP"]
    wide = sub.pivot_table(
        index="config", columns="dataset", values="map_all", sort=False
    )[["bdd", "coco", "lvis", "objectnet"]]
    wide["avg"] = wide.mean(axis=1)
    paper = pd.DataFrame(
        [
            {
                "config": f"lc={lc} ld={ld} l={l}",
                "bdd": v[0],
                "coco": v[1],
                "lvis": v[2],
                "objectnet": v[3],
                "avg": v[4],
            }
            for lc, ld, l, v in PAPER["table7"]
        ]
    )
    text = (
        "### Table 7 — measured (SeeSaw mAP, all queries, multiscale)\n\n"
        + md(wide.round(3).reset_index())
        + "\n### Table 7 — paper\n\n"
        + md(paper)
    )
    emit("table7", text)


if __name__ == "__main__":
    main(*(sys.argv[1:2] or ["bench"]))
