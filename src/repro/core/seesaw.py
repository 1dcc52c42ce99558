"""SeeSaw's interactive session: feedback accumulation + query re-alignment.

``SeeSawSession`` is the :class:`repro.bench.loop.Ranker` implementation of
the paper's system: it accumulates region feedback as labeled vectors
``(X_t, y_t)`` and re-solves the full loss (Eq. 5) after every feedback
round to produce the next query vector. Depending on ``AlignerParams`` it
covers SeeSaw proper (λ_c, λ_D > 0, with ``M``), CLIP-alignment-only
(λ_D = 0) and few-shot CLIP (λ_c = λ_D = 0) — the ablation rows of Table 2.
"""
from __future__ import annotations

import numpy as np

from repro.core.aligner import AlignerParams, QueryAligner
from repro.core.linear import LinearRanker
from repro.embed.clipsim import EmbeddedDataset


class SeeSawSession(LinearRanker):
    """Feedback-driven re-ranker solving Eq. 5 each round.

    Parameters
    ----------
    params:
        Loss hyper-parameters (λ, λ_c, λ_D).
    M:
        Precomputed DB-alignment matrix for the dataset's vector
        representation (``None`` disables DB alignment).
    require_positive:
        If True, keep using ``q0`` until the first positive example is
        observed. SeeSaw itself does not need this (the λ_c term anchors the
        solve to ``q0``), but the few-shot baseline (λ_c = 0) does —
        otherwise an all-negative feedback set erases the query entirely.
        Mirrors the paper's ENS modification of waiting for zero-shot CLIP
        to find the first positive.
    """

    def __init__(
        self,
        params: AlignerParams | None = None,
        M: np.ndarray | None = None,
        *,
        require_positive: bool = False,
        balanced: bool | float = True,
    ):
        self.aligner = QueryAligner(params, M, balanced=balanced)
        self.require_positive = require_positive
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._n_pos = 0

    # -- Ranker protocol ---------------------------------------------------
    def reset(self, ds: EmbeddedDataset, q0: np.ndarray) -> None:
        super().reset(ds, q0)
        self._X, self._y, self._n_pos = [], [], 0

    def observe(
        self, image_id: int, relevant: bool, pos_vecs: np.ndarray, neg_vecs: np.ndarray
    ) -> None:
        for vid in np.asarray(pos_vecs, dtype=np.int64):
            self._X.append(self._vectors[vid].astype(np.float64))
            self._y.append(1.0)
            self._n_pos += 1
        for vid in np.asarray(neg_vecs, dtype=np.int64):
            self._X.append(self._vectors[vid].astype(np.float64))
            self._y.append(0.0)
        if self.require_positive and self._n_pos == 0:
            self._q = self._q0.copy()
            return
        if not self._X:
            return
        X = np.vstack(self._X)
        y = np.asarray(self._y)
        self._q = self.aligner.align(self._q0, X, y)

    # -- Introspection (used by tests) ------------------------------------
    @property
    def n_feedback(self) -> int:
        return len(self._y)
