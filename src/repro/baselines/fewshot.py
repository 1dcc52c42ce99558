"""Few-shot CLIP baseline (paper §3.2, Eq. 1).

Plain ridge-regularized logistic regression on the feedback set — no CLIP
alignment, no DB alignment. Implemented as a :class:`SeeSawSession` with
λ_c = λ_D = 0, keeping ``q0`` until the first positive arrives (see
``require_positive`` in :mod:`repro.core.seesaw`).
"""
from __future__ import annotations

from repro.core.aligner import AlignerParams
from repro.core.seesaw import SeeSawSession


class FewShotRanker(SeeSawSession):
    """Eq. 1 re-ranker: logistic loss + ridge only."""

    def __init__(self):
        super().__init__(
            AlignerParams(lam=100.0, lam_c=0.0, lam_d=0.0),
            M=None,
            require_positive=True,
            balanced=1.25,  # near-textbook logistic regression with a mild rebalance cap
        )
