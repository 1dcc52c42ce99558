"""Tests for kNN graph construction."""
import os
import sys

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, k):
        with pytest.raises(ValueError, match="k="):
            knn_graph_np(_data(n=20), k)

    @pytest.mark.parametrize("shape", [(20,), (4, 5, 3)])
    def test_not_2d_raises(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            knn_graph_np(np.ones(shape, dtype=np.float32), 1)

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


def _serial_reference(X, k):
    """The serial build: one whole 2048-row block at a time, formula and
    selection written out."""
    X = X.astype(np.float32)
    n = len(X)
    sq = (X * X).sum(axis=1)
    idx = np.empty((n, k), dtype=np.int32)
    dist = np.empty((n, k), dtype=np.float32)
    for lo in range(0, n, 2048):
        hi = min(lo + 2048, n)
        d2 = sq[lo:hi, None] - 2.0 * (X[lo:hi] @ X.T) + sq[None, :]
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        part = np.argpartition(d2, k, axis=1)[:, :k]
        pd2 = np.take_along_axis(d2, part, axis=1)
        order = np.argsort(pd2, axis=1)
        idx[lo:hi] = np.take_along_axis(part, order, axis=1)
        dist[lo:hi] = np.sqrt(np.maximum(np.take_along_axis(pd2, order, axis=1), 0.0))
    return idx, dist


class TestBitPin:
    """The threaded selection returns the serial build's bits exactly."""

    @pytest.fixture(scope="class", params=[2 * 2048 + 301, 1500])
    def X(self, request):
        X = _data(seed=3, n=request.param, d=32)
        # Duplicated rows give exact distance ties, across blocks too.
        X[[5, 900, len(X) - 1]] = X[17]
        return X

    @pytest.mark.parametrize("k", [10, 20])
    def test_matches_serial_reference(self, X, k):
        idx, dist = knn_graph_np(X, k)
        ref_idx, ref_dist = _serial_reference(X, k)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)

    def test_repeat_calls_equal(self, X):
        a, b = knn_graph_np(X, 10), knn_graph_np(X, 10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_more_workers_than_cores(self, X, monkeypatch):
        # 16 pool threads switching every microsecond still fill each row once.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            idx, dist = knn_graph_np(X, 10)
        finally:
            sys.setswitchinterval(interval)
        ref_idx, ref_dist = _serial_reference(X, 10)
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)
