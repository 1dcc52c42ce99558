"""Reproduce Table 6: per-iteration latency vs database size.

Usage: ``python jobs/table6.py [--quick]`` (--quick measures only the three
coarse scales). Writes results/table6.md.
"""
from __future__ import annotations

import sys

import pandas as pd

from _common import emit, get_spark, md
from repro.bench.harness import PAPER
from repro.bench.latency import SCALES, table6


def main(quick: bool = False) -> None:
    spark = get_spark("table6")
    scales = SCALES[:3] if quick else SCALES
    got = table6(spark, reps=5, scales=scales)
    paper = pd.DataFrame(PAPER["table6"]).T.reset_index(names="dataset")
    text = (
        "### Table 6 — measured (seconds per iteration; 1/10 paper vector "
        "counts; this container)\n\n"
        + md(got, floatfmt="%.2f")
        + "\n### Table 6 — paper (authors' testbed)\n\n"
        + md(paper)
    )
    emit("table6", text)


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
