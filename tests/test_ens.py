"""Tests for the ENS active-search baseline and Platt calibration."""
import numpy as np
import pytest

from repro.baselines.ens import EnsRanker, platt_scale
from repro.core.loss import sigmoid
from repro.embed.clipsim import WorldSpec, generate_world
from repro.graph.knn import knn_graph_np
from repro.graph.laplacian import edge_weights

DS = generate_world(WorldSpec(n_images=80, n_categories=4, d=8, grid=(0, 0), seed=6))
GI, GD = knn_graph_np(DS.vectors, 5)
GW, _ = edge_weights(GD)


def _ranker(**kw):
    r = EnsRanker(GI, GW, **kw)
    r.reset(DS, DS.query_vecs[0].astype(np.float64))
    return r


class TestPosterior:
    def test_prior_before_labels(self):
        r = _ranker()
        p = r.posterior()
        np.testing.assert_allclose(p, r.gamma)

    def test_posterior_update_hand_check(self):
        r = _ranker()
        # label vertex v positive; every j with v in N(j) must satisfy
        # p_j = (gamma_j + w_jv) / (1 + w_jv), everything else unchanged.
        v = 0
        r.observe(0, True, np.array([v]), np.empty(0, int))
        p = r.posterior()
        affected = np.flatnonzero((GI == v).any(axis=1))
        for j in range(DS.n_vectors):
            if j in affected:
                w_jv = GW[j][GI[j] == v].sum()
                expect = (r.gamma[j] + w_jv) / (1.0 + w_jv)
            else:
                expect = r.gamma[j]
            assert p[j] == pytest.approx(expect, abs=1e-12)

    def test_negative_label_lowers_neighbors(self):
        r = _ranker()
        v = 3
        base = r.posterior().copy()
        r.observe(0, False, np.empty(0, int), np.array([v]))
        p = r.posterior()
        affected = np.flatnonzero((GI == v).any(axis=1))
        assert (p[affected] <= base[affected] + 1e-12).all()

    def test_double_observe_idempotent(self):
        r = _ranker()
        r.observe(0, True, np.array([2]), np.empty(0, int))
        p1 = r.posterior().copy()
        r.observe(0, True, np.array([2]), np.empty(0, int))
        np.testing.assert_array_equal(p1, r.posterior())

    def test_posterior_in_unit_interval(self):
        r = _ranker()
        g = np.random.default_rng(0)
        for i in range(20):
            v = int(g.integers(0, DS.n_vectors))
            if r.labeled[v]:
                continue
            pos = v if g.random() < 0.3 else None
            r.observe(i, pos is not None,
                      np.array([v]) if pos is not None else np.empty(0, int),
                      np.empty(0, int) if pos is not None else np.array([v]))
        p = r.posterior()[~r.labeled]
        assert ((p >= 0) & (p <= 1)).all()


class TestScoring:
    def test_waits_for_first_positive(self):
        r = _ranker()
        np.testing.assert_allclose(r.vector_scores(60), r.s0)
        r.observe(0, False, np.empty(0, int), np.array([1]))
        np.testing.assert_allclose(r.vector_scores(59), r.s0)
        r.observe(1, True, np.array([2]), np.empty(0, int))
        assert not np.allclose(r.vector_scores(58), r.s0)

    def test_labeled_never_reselected(self):
        r = _ranker()
        r.observe(0, True, np.array([5]), np.empty(0, int))
        r.observe(1, False, np.empty(0, int), np.array([6]))
        s = r.vector_scores(40)
        assert s[5] == -np.inf and s[6] == -np.inf

    def test_horizon_one_is_greedy_posterior(self):
        r = _ranker(horizon=1)
        r.observe(0, True, np.array([4]), np.empty(0, int))
        s = r.vector_scores(40)
        p = r.posterior()
        unl = ~r.labeled
        assert np.argmax(np.where(unl, s, -np.inf)) == np.argmax(
            np.where(unl, p, -np.inf)
        )

    def test_scores_finite_for_unlabeled(self):
        r = _ranker(horizon=60)
        r.observe(0, True, np.array([7]), np.empty(0, int))
        s = r.vector_scores(50)
        assert np.isfinite(s[~r.labeled]).all()

    def test_shrinking_horizon_changes_scores(self):
        r = _ranker(horizon=60)
        r.observe(0, True, np.array([7]), np.empty(0, int))
        s_long = r.vector_scores(50)
        s_short = r.vector_scores(2)
        assert not np.allclose(s_long, s_short)

    def test_nonmyopic_score_at_least_myopic_shape(self):
        """The expected-total-reward score must be >= the plain posterior
        (future reward is non-negative)."""
        r = _ranker(horizon=10)
        r.observe(0, True, np.array([4]), np.empty(0, int))
        s = r.vector_scores(10)
        p = r.posterior()
        unl = ~r.labeled
        assert (s[unl] >= p[unl] - 1e-9).all()

    def test_multiscale_rejected(self):
        ds_m = generate_world(
            WorldSpec(n_images=20, n_categories=2, d=8, grid=(1, 2), seed=1)
        )
        gi, gd = knn_graph_np(ds_m.vectors, 3)
        gw, _ = edge_weights(gd)
        r = EnsRanker(gi, gw)
        with pytest.raises(ValueError):
            r.reset(ds_m, ds_m.query_vecs[0].astype(np.float64))

    def test_graph_of_another_dataset_rejected(self):
        other = generate_world(
            WorldSpec(n_images=81, n_categories=4, d=8, grid=(0, 0), seed=6)
        )
        r = EnsRanker(GI, GW)
        with pytest.raises(ValueError, match="81 vectors but the kNN graph has 80 rows"):
            r.reset(other, other.query_vecs[0].astype(np.float64))

    def test_gamma_override_used(self):
        gam = np.full(DS.n_vectors, 0.42)
        r = EnsRanker(GI, GW, gamma=gam)
        r.reset(DS, DS.query_vecs[0].astype(np.float64))
        np.testing.assert_allclose(r.gamma, 0.42)


class TestPlatt:
    def test_recovers_known_scaling(self):
        g = np.random.default_rng(0)
        s = g.uniform(-1, 1, 4000)
        p = sigmoid(3.0 * s - 1.0)
        y = (g.random(4000) < p).astype(float)
        a, b = platt_scale(s, y)
        assert a == pytest.approx(3.0, abs=0.4)
        assert b == pytest.approx(-1.0, abs=0.3)

    def test_monotone_output(self):
        g = np.random.default_rng(1)
        s = g.uniform(-1, 1, 500)
        y = (s + 0.2 * g.standard_normal(500) > 0).astype(float)
        a, _ = platt_scale(s, y)
        assert a > 0

    def test_calibrated_probabilities_mean_matches_base_rate(self):
        g = np.random.default_rng(2)
        s = g.uniform(-1, 1, 2000)
        y = (g.random(2000) < 0.1).astype(float)  # uninformative scores
        a, b = platt_scale(s, y)
        p = sigmoid(a * s + b)
        assert p.mean() == pytest.approx(0.1, abs=0.03)
