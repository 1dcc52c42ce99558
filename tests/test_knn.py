"""Tests for kNN graph construction."""
import numpy as np
import pytest

from repro.graph.knn import knn_graph_np


def _data(seed=0, n=300, d=12):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, d)).astype(np.float32)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X


class TestNumpy:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_naive(self, k):
        X = _data(n=60)
        idx, dist = knn_graph_np(X, k)
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        for i in range(len(X)):
            naive = np.sort(np.sqrt(d2[i]))[:k]
            np.testing.assert_allclose(np.sort(dist[i]), naive, rtol=1e-4, atol=1e-5)

    def test_no_self_loops(self):
        X = _data(n=100)
        idx, _ = knn_graph_np(X, 5)
        for i in range(len(X)):
            assert i not in idx[i]

    def test_sorted_ascending(self):
        X = _data(n=100)
        _, dist = knn_graph_np(X, 8)
        assert (np.diff(dist, axis=1) >= -1e-6).all()

    def test_blocking_invariant(self):
        X = _data(n=150)
        i1, d1 = knn_graph_np(X, 4, block=7)
        i2, d2 = knn_graph_np(X, 4, block=1000)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_allclose(d1, d2, atol=1e-6)

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError):
            knn_graph_np(_data(n=5), 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        X = _data(n=20)
        X[7, 3] = bad
        with pytest.raises(ValueError, match="row 7"):
            knn_graph_np(X, 3)

    def test_duplicate_points_zero_distance(self):
        X = np.ones((4, 3), dtype=np.float32)
        idx, dist = knn_graph_np(X, 2)
        np.testing.assert_allclose(dist, 0.0, atol=1e-6)
