"""Tests for edge weights, the graph Laplacian, and ``M_D``."""
import numpy as np
import pytest

from repro.graph.knn import knn_graph_np
from repro.graph.laplacian import build_db_alignment, edge_weights, m_matrix_np


def _data(seed=0, n=200, d=10):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, d)).astype(np.float32)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X


def _dense_m(X, idx, w):
    """Straightforward dense computation of X^T (D - W_sym) X / n."""
    n = len(X)
    W = np.zeros((n, n))
    for i in range(n):
        for j, wij in zip(idx[i], w[i]):
            W[i, j] += wij / 2
            W[j, i] += wij / 2
    D = np.diag(W.sum(axis=1))
    return X.astype(np.float64).T @ (D - W) @ X.astype(np.float64) / n


class TestEdgeWeights:
    def test_weights_in_unit_interval(self):
        d = np.abs(np.random.default_rng(0).standard_normal((50, 5)))
        w, sigma = edge_weights(d)
        assert ((w > 0) & (w <= 1)).all()
        assert sigma > 0

    def test_zero_distance_weight_one(self):
        w, _ = edge_weights(np.array([[0.0, 1.0]]))
        assert w[0, 0] == pytest.approx(1.0)

    def test_monotone_decreasing_in_distance(self):
        w, _ = edge_weights(np.array([[0.1, 0.5, 2.0]]))
        assert w[0, 0] > w[0, 1] > w[0, 2]

    def test_sigma_rel_scales(self):
        d = np.abs(np.random.default_rng(1).standard_normal((20, 3))) + 0.1
        w_narrow, _ = edge_weights(d, sigma_rel=0.5)
        w_wide, _ = edge_weights(d, sigma_rel=2.0)
        assert (w_wide >= w_narrow - 1e-12).all()


class TestMNumpy:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense(self, seed):
        X = _data(seed, n=40, d=6)
        idx, dist = knn_graph_np(X, 4)
        w, _ = edge_weights(dist)
        M = m_matrix_np(X, idx, w)
        np.testing.assert_allclose(M, _dense_m(X, idx, w), rtol=1e-6, atol=1e-9)

    def test_symmetric_psd(self):
        X = _data(1)
        idx, dist = knn_graph_np(X, 5)
        w, _ = edge_weights(dist)
        M = m_matrix_np(X, idx, w)
        np.testing.assert_allclose(M, M.T, atol=1e-10)
        assert np.linalg.eigvalsh(M).min() > -1e-9

    def test_build_db_alignment_shape(self):
        X = _data(3, n=80, d=12)
        M = build_db_alignment(X, k=5)
        assert M.shape == (12, 12)

    def test_build_db_alignment_rejects_non_finite(self):
        X = _data(3, n=80, d=12)
        X[5, 0] = np.nan
        with pytest.raises(ValueError):
            build_db_alignment(X, k=5)

    def test_constant_direction_low_penalty(self):
        """A direction along which all vectors score equally has zero
        Laplacian penalty; an edge-separating direction has a positive one."""
        g = np.random.default_rng(4)
        # two clusters along dim 0
        X = np.vstack(
            [
                np.array([1.0, 0, 0]) + 0.01 * g.standard_normal((20, 3)),
                np.array([-1.0, 0, 0]) + 0.01 * g.standard_normal((20, 3)),
            ]
        ).astype(np.float32)
        idx, dist = knn_graph_np(X, 3)
        w, _ = edge_weights(dist)
        M = m_matrix_np(X, idx, w)
        sep = np.array([1.0, 0, 0])
        flat = np.array([0.0, 1.0, 0])
        # neighbors are within-cluster -> scores along dim0 are locally
        # constant -> small penalty in all directions; but the separating
        # direction still varies most across edges.
        assert sep @ M @ sep >= flat @ M @ flat - 1e-6
