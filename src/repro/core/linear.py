"""The linear scorer shared by zero-shot, Rocchio, few-shot and SeeSaw.

Each of these methods ranks the database by ``vectors @ q`` for a query
vector ``q`` it updates from feedback (paper §4.4). Only the update differs:
a subclass implements ``observe``, which sets ``self._q``, and clears its
own feedback state in ``reset``.
"""
from __future__ import annotations

import numpy as np

from repro.embed.clipsim import EmbeddedDataset


def check_query(q0: np.ndarray) -> np.ndarray:
    """``q0`` as float64, rejecting a non-finite or zero-norm vector (it
    would score every database vector alike)."""
    q0 = np.asarray(q0, dtype=np.float64)
    if not np.isfinite(q0).all() or not np.any(q0):
        raise ValueError("q0 must be finite with non-zero norm")
    return q0


class LinearRanker:
    """Scores every vector by its inner product with the current query."""

    _q0: np.ndarray
    _q: np.ndarray
    _vectors: np.ndarray

    def reset(self, ds: EmbeddedDataset, q0: np.ndarray) -> None:
        self._vectors = ds.vectors
        self._q0 = check_query(q0)
        self._q = self._q0.copy()

    def vector_scores(self, remaining: int) -> np.ndarray:
        return self._vectors @ self._q.astype(np.float32)

    @property
    def query(self) -> np.ndarray:
        """The query vector the next ``vector_scores`` call scores with."""
        return self._q
