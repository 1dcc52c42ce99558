"""Rocchio's relevance-feedback algorithm (paper §5.4, Eq. 6).

``q_t = α q0 + (β/|D_r|) Σ d_r − (γ/|D_n|) Σ d_n`` over the relevant /
non-relevant example vectors seen so far. Paper hyper-parameters: α = 1,
β = .5, γ = .25 (γ = 0 was tried and found worse). An empty ``D_r`` or
``D_n`` drops its term.
"""
from __future__ import annotations

import numpy as np

from repro.core.linear import LinearRanker
from repro.embed.clipsim import EmbeddedDataset


class RocchioRanker(LinearRanker):
    """Classic Rocchio query update over region-feedback vectors."""

    def __init__(self, alpha: float = 1.0, beta: float = 0.5, gamma: float = 0.25):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self._pos: list[np.ndarray] = []
        self._neg: list[np.ndarray] = []

    def reset(self, ds: EmbeddedDataset, q0: np.ndarray) -> None:
        super().reset(ds, q0)
        self._pos, self._neg = [], []

    def observe(self, image_id, relevant, pos_vecs, neg_vecs) -> None:
        for vid in np.asarray(pos_vecs, dtype=np.int64):
            self._pos.append(self._vectors[vid].astype(np.float64))
        for vid in np.asarray(neg_vecs, dtype=np.int64):
            self._neg.append(self._vectors[vid].astype(np.float64))
        q = self.alpha * self._q0
        if self._pos:
            q = q + self.beta * np.mean(self._pos, axis=0)
        if self._neg:
            q = q - self.gamma * np.mean(self._neg, axis=0)
        n = float(np.linalg.norm(q))
        self._q = q / n if n > 0 else self._q0.copy()
