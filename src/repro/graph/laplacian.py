"""Graph Laplacian machinery for DB alignment (paper §4.2).

Builds the similarity weights ``w_ij = exp(-|x_i - x_j|^2 / 2 sigma^2)`` over
kNN edges, the degree matrix D, and the DB-alignment matrix
``M_D = X^T (D - W) X`` — a (d, d) matrix whose size is independent of the
database, which is the whole point: at query time only ``w^T M_D w`` is
evaluated.

Substitutions vs the paper (DESIGN.md §2): sigma is expressed *relative to
the median kNN distance* of the dataset (the paper's absolute sigma = .05 is
specific to CLIP-space distances), and ``M_D`` is normalized by the number
of vectors N so the paper's lambda_D magnitude transfers across scales.
"""
from __future__ import annotations

import numpy as np

from repro.graph.knn import knn_graph_np


def edge_weights(dists: np.ndarray, *, sigma_rel: float = 1.0) -> tuple[np.ndarray, float]:
    """Similarity weights for kNN edge distances.

    ``sigma = sigma_rel * median(dists)``; returns ``(weights, sigma)``.
    """
    med = float(np.median(dists))
    sigma = max(sigma_rel * med, 1e-9)
    w = np.exp(-(dists.astype(np.float64) ** 2) / (2.0 * sigma**2))
    return w, sigma


def m_matrix_np(X: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``M_D = X^T (D - W_sym) X / N`` over the kNN edges ``i -> idx[i]`` of
    weight ``w``, each entering ``W_sym = (W + W^T)/2`` as ``w/2`` in both
    directions. Symmetric PSD."""
    X = np.asarray(X, dtype=np.float64)
    n, k = idx.shape
    d = X.shape[1]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = idx.ravel().astype(np.int64)
    ww = w.ravel().astype(np.float64) / 2.0
    i = np.concatenate([src, dst])
    j = np.concatenate([dst, src])
    vv = np.concatenate([ww, ww])
    deg = np.bincount(i, weights=vv, minlength=n)
    # (W X)_i = sum_j w_ij x_j via scatter-add over edges.
    WX = np.zeros((n, d))
    np.add.at(WX, i, vv[:, None] * X[j])
    M = X.T @ (deg[:, None] * X - WX)
    return (M + M.T) / 2.0 / n  # numerical symmetry, then the 1/N scaling


def build_db_alignment(
    X: np.ndarray, *, k: int = 10, sigma_rel: float = 1.0
) -> np.ndarray:
    """One-call preprocessing path: kNN graph -> weights -> normalized M_D."""
    idx, dist = knn_graph_np(X, k)
    w, _ = edge_weights(dist, sigma_rel=sigma_rel)
    return m_matrix_np(X, idx, w)
