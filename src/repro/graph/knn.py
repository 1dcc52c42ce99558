"""k-nearest-neighbor graph construction.

The paper uses NN-descent (approximate) because CLIP databases are large; at
our scales an exact blocked brute-force build is affordable and removes one
source of noise: ``knn_graph_np`` runs one row-block kernel over blocks of
rows in this process.
"""
from __future__ import annotations

import numpy as np


def _knn_rows(
    X: np.ndarray, sq: np.ndarray, rows: slice, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The row-block kernel: the ``k`` nearest other rows of ``X`` to each
    row in ``rows``, as ``(indices, dists)`` sorted by ascending distance.
    ``sq`` holds the squared norms of ``X``'s rows. The slice keeps
    ``X[rows]`` a view, so a block spanning all of ``X`` takes numpy's
    symmetric ``X @ X.T`` routine, whose rounding (pinned by the golden
    searches) differs from the general product's."""
    ids = np.arange(X.shape[0])[rows]
    d2 = sq[rows, None] - 2.0 * (X[rows] @ X.T) + sq[None, :]
    d2[np.arange(ids.size), ids] = np.inf  # no self-loop
    part = np.argpartition(d2, k, axis=1)[:, :k]
    pd2 = np.take_along_axis(d2, part, axis=1)
    order = np.argsort(pd2, axis=1)
    nbr = np.take_along_axis(part, order, axis=1)
    dist = np.sqrt(np.maximum(np.take_along_axis(pd2, order, axis=1), 0.0))
    return nbr, dist


def knn_graph_np(
    X: np.ndarray, k: int, *, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by squared Euclidean distance, excluding self.

    Returns ``(indices, dists)`` of shapes (N, k): ``indices[i]`` are the k
    nearest rows to row i (ascending distance), ``dists[i]`` the Euclidean
    distances. Rejects ``k >= N`` and non-finite values (which would yield
    NaN distances).
    """
    X = np.asarray(X, dtype=np.float32)
    n = X.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite vector(s), first at row {bad[0]}")
    sq = (X * X).sum(axis=1)
    idx_out = np.empty((n, k), dtype=np.int32)
    d_out = np.empty((n, k), dtype=np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        idx_out[lo:hi], d_out[lo:hi] = _knn_rows(X, sq, slice(lo, hi), k)
    return idx_out, d_out
