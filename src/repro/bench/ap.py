"""Truncated Average Precision, exactly as defined in paper §5.1.

The benchmark task shows up to ``budget``=60 images and stops once
``target``=10 relevant ones are found. ``R = min(target, R_dataset)`` where
``R_dataset`` is the number of relevant images in the whole dataset. The
precision at the i-th relevant result found at (1-based) display rank k_i is
``P_i = i / k_i``; relevant results never found within the budget contribute
``P_i = 0``. ``AP = (sum_i P_i) / R``: 0 means nothing found in 60 images, 1
means the first ``R`` images shown were all relevant.
"""
from __future__ import annotations

from typing import Sequence


def average_precision(
    shown_relevance: Sequence[bool],
    n_relevant_in_dataset: int,
    *,
    target: int = 10,
    budget: int = 60,
) -> float:
    """AP of one search run.

    ``shown_relevance`` is the ordered relevance of each image the system
    displayed (already truncated by the loop's stopping rule; anything past
    ``budget`` is ignored defensively here).
    """
    if target < 1 or budget < 1:
        raise ValueError(f"target and budget must be >= 1, got {target} and {budget}")
    if n_relevant_in_dataset <= 0:
        raise ValueError("category has no relevant images in the dataset")
    r_cap = min(target, n_relevant_in_dataset)
    hits = 0
    precision_sum = 0.0
    for rank, rel in enumerate(shown_relevance[:budget], start=1):
        if rel:
            hits += 1
            precision_sum += hits / rank
            if hits >= r_cap:
                break
    return precision_sum / r_cap
