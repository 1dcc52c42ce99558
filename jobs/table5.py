"""Reproduce Table 5: per-image annotation time, baseline vs SeeSaw UI.

Usage: ``python jobs/table5.py``. Writes results/table5.md.
"""
from __future__ import annotations

import pandas as pd

from _common import emit, get_spark, md
from repro.bench.harness import PAPER
from repro.bench.usertime import table5


def main() -> None:
    spark = get_spark("table5")
    got = table5(spark)
    paper_rows = [
        {"system": s, "label": lbl, "paper_mean_s": m, "paper_ci95": ci}
        for (s, lbl), (m, ci) in PAPER["table5"].items()
    ]
    merged = got.merge(pd.DataFrame(paper_rows), on=["system", "label"])
    text = "### Table 5 — measured vs paper (seconds per image ± 95% CI)\n\n" + md(merged)
    emit("table5", text)


if __name__ == "__main__":
    main()
