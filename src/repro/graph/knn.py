"""k-nearest-neighbor graph construction.

The paper uses NN-descent (approximate) because CLIP databases are large; at
our scales an exact blocked brute-force build is affordable and removes one
source of noise: ``knn_graph_np`` runs one row-block kernel over blocks of
rows in this process. Each block's product runs in the calling thread; the
per-row selection after it runs on a thread pool with one worker per core.
"""
from __future__ import annotations

import os
from concurrent.futures import Executor, ThreadPoolExecutor

import numpy as np

_CHUNK = 32  # rows of a block's selection that one pool task takes


def _knn_rows(
    X: np.ndarray,
    sq: np.ndarray,
    rows: slice,
    k: int,
    idx_out: np.ndarray,
    d_out: np.ndarray,
    pool: Executor,
) -> None:
    """The row-block kernel: write the ``k`` nearest other rows of ``X`` to
    each row in ``rows``, sorted by ascending distance, into those rows of
    ``idx_out`` and ``d_out``. ``sq`` holds the squared norms of ``X``'s
    rows.

    A block product's shape decides its rounding (pinned by the golden
    searches), so blocks stay 2048 rows and run one at a time; only the
    per-row selection runs on threads. The slice keeps ``X[rows]`` a view,
    so a block spanning all of ``X`` takes numpy's symmetric ``X @ X.T``
    routine, whose rounding differs from the general product's. The
    selection is row-wise, so ``_CHUNK``-row pieces of the block give the
    bits the whole block would; numpy releases the GIL in its calls."""
    G = X[rows] @ X.T

    def select(lo: int) -> None:
        c = slice(lo, min(lo + _CHUNK, G.shape[0]))
        r = slice(rows.start + c.start, rows.start + c.stop)
        d2 = sq[r, None] - 2.0 * G[c] + sq[None, :]
        d2[np.arange(c.stop - c.start), np.arange(r.start, r.stop)] = np.inf  # no self-loop
        part = np.argpartition(d2, k, axis=1)[:, :k]
        pd2 = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(pd2, axis=1)
        idx_out[r] = np.take_along_axis(part, order, axis=1)
        d_out[r] = np.sqrt(np.maximum(np.take_along_axis(pd2, order, axis=1), 0.0))

    list(pool.map(select, range(0, G.shape[0], _CHUNK)))
    # Empties the closure's cell too, so a pool thread still dropping its
    # finished task cannot keep this product alive into the next block's.
    del G


def knn_graph_np(
    X: np.ndarray, k: int, *, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by squared Euclidean distance, excluding self.

    Returns ``(indices, dists)`` of shapes (N, k): ``indices[i]`` are the k
    nearest rows to row i (ascending distance), ``dists[i]`` the Euclidean
    distances. Rejects a non-2-D ``X``, ``k < 1``, ``k >= N`` and non-finite
    values (which would yield NaN distances).

    A block product's shape decides its rounding (pinned by the golden
    searches), so blocks stay 2048 rows and run one at a time; only the
    per-row selection runs on threads. Each block's product is released
    before the next one is computed.
    """
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (vectors by dimensions), got shape {X.shape}")
    n = X.shape[0]
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite vector(s), first at row {bad[0]}")
    sq = (X * X).sum(axis=1)
    idx_out = np.empty((n, k), dtype=np.int32)
    d_out = np.empty((n, k), dtype=np.float32)
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for lo in range(0, n, block):
            _knn_rows(X, sq, slice(lo, min(lo + block, n)), k, idx_out, d_out, pool)
    return idx_out, d_out
