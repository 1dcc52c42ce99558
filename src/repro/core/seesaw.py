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
        self._X = np.empty((0, 0))
        self._y = np.empty(0)
        self._n = 0
        self._n_pos = 0

    # -- Ranker protocol ---------------------------------------------------
    def reset(self, ds: EmbeddedDataset, q0: np.ndarray) -> None:
        super().reset(ds, q0)
        # Feedback rows live in the first ``_n`` rows of buffers that grow
        # by doubling, so a round copies only its own new rows.
        self._X = np.empty((64, ds.vectors.shape[1]))
        self._y = np.empty(64)
        self._n = self._n_pos = 0

    def observe(
        self, image_id: int, relevant: bool, pos_vecs: np.ndarray, neg_vecs: np.ndarray
    ) -> None:
        pos = np.asarray(pos_vecs, dtype=np.int64)
        self._append(pos, 1.0)
        self._append(np.asarray(neg_vecs, dtype=np.int64), 0.0)
        self._n_pos += pos.size
        if self.require_positive and self._n_pos == 0:
            self._q = self._q0.copy()
            return
        if not self._n:
            return
        self._q = self.aligner.align(self._q0, self._X[: self._n], self._y[: self._n])

    def _append(self, vids: np.ndarray, label: float) -> None:
        end = self._n + vids.size
        if end > len(self._y):
            cap = max(2 * len(self._y), end)
            X, y = np.empty((cap, self._X.shape[1])), np.empty(cap)
            X[: self._n], y[: self._n] = self._X[: self._n], self._y[: self._n]
            self._X, self._y = X, y
        self._X[self._n : end] = self._vectors[vids]
        self._y[self._n : end] = label
        self._n = end

    # -- Introspection (used by tests) ------------------------------------
    @property
    def n_feedback(self) -> int:
        return self._n
