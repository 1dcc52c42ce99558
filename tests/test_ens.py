"""Tests for the ENS active-search baseline and Platt calibration."""
import numpy as np
import pytest

from repro.baselines.ens import EnsGraph, EnsRanker, platt_scale
from repro.bench.loop import run_search
from repro.core.loss import sigmoid
from repro.embed.clipsim import WorldSpec, generate_world
from repro.graph.knn import knn_graph_np
from repro.graph.laplacian import edge_weights

DS = generate_world(WorldSpec(n_images=80, n_categories=4, d=8, grid=(0, 0), seed=6))
GI, GD = knn_graph_np(DS.vectors, 5)
GW, _ = edge_weights(GD)


def _ranker(**kw):
    r = EnsRanker(EnsGraph(GI, GW), **kw)
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
        r = EnsRanker(EnsGraph(gi, gw))
        with pytest.raises(ValueError):
            r.reset(ds_m, ds_m.query_vecs[0].astype(np.float64))

    def test_graph_of_another_dataset_rejected(self):
        other = generate_world(
            WorldSpec(n_images=81, n_categories=4, d=8, grid=(0, 0), seed=6)
        )
        r = EnsRanker(EnsGraph(GI, GW))
        with pytest.raises(ValueError, match="81 vectors but the kNN graph has 80 rows"):
            r.reset(other, other.query_vecs[0].astype(np.float64))

    def test_gamma_override_used(self):
        gam = np.full(DS.n_vectors, 0.42)
        r = EnsRanker(EnsGraph(GI, GW), gamma=gam)
        r.reset(DS, DS.query_vecs[0].astype(np.float64))
        np.testing.assert_allclose(r.gamma, 0.42)


class TestTies:
    """On a graph whose only edges are self-loops no candidate has a live
    edge, so the top-(m+1) unlabeled candidates all score ``base_sum +
    next_val`` and the pick falls to the lowest image id."""

    @staticmethod
    def _edgeless(horizon):
        n = DS.n_vectors
        gamma = np.random.default_rng(11).uniform(0.05, 0.95, n)
        return EnsRanker(EnsGraph(np.arange(n)[:, None], np.ones((n, 1))), horizon=horizon, gamma=gamma)

    @staticmethod
    def _top(r, m):
        """The m + 1 unlabeled vertices of highest posterior."""
        p = np.where(r.labeled, -np.inf, r.posterior())
        return np.argsort(-p, kind="stable")[: min(m, int((~r.labeled).sum()) - 1) + 1]

    @pytest.mark.parametrize("horizon", [60, 10])
    def test_top_set_scores_bit_equal(self, horizon):
        r = self._edgeless(horizon)
        r.reset(DS, DS.query_vecs[0].astype(np.float64))
        r.observe(0, True, np.array([3]), np.empty(0, int))
        r.observe(1, False, np.empty(0, int), np.array([8]))
        s = r.vector_scores(58)
        top = self._top(r, min(horizon, 58) - 1)
        assert np.unique(s[top]).size == 1
        assert (np.delete(s, top) < s[top[0]]).all()

    def test_run_search_shows_lowest_id_of_the_tie(self):
        ds = DS.coarse_only()
        r = self._edgeless(horizon=10)
        res = run_search(ds, 0, r, target=10, budget=60)
        first = res.shown_relevance.index(True)
        assert first + 1 < res.n_shown
        # Replay the labels in order: every pick after the first positive
        # is the lowest id among the m + 1 best unlabeled candidates.
        ref = self._edgeless(horizon=10)
        ref.reset(ds, ds.query_vecs[0].astype(np.float64))
        for i, (img, rel) in enumerate(zip(res.shown_images, res.shown_relevance)):
            if i > first:
                assert img == self._top(ref, min(10, 60 - i) - 1).min(), f"round {i}"
            ids, none = np.array([img]), np.empty(0, int)
            ref.observe(img, rel, *((ids, none) if rel else (none, ids)))


class _ReverseLayoutEns:
    """ENS as scored on the reverse (dst-sorted) edge list: the reference
    that the forward-layout scoring must match bit for bit."""

    def __init__(self, idx, w, horizon=60, gamma=None):
        self.idx = np.asarray(idx, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)
        self.horizon, self.gamma_override = horizon, gamma
        n, k = self.idx.shape
        src = np.repeat(np.arange(n, dtype=np.int64), k)
        dst = self.idx.ravel()
        order = np.argsort(dst, kind="stable")
        self.rev_src, self.rev_dst = src[order], dst[order]
        self.rev_w = self.w.ravel()[order]
        self.rev_ptr = np.searchsorted(self.rev_dst, np.arange(n + 1))
        self.n = n
        self.top_rows_with_dead_edges = 0

    def reset(self, ds, q0):
        self.s0 = (ds.vectors @ q0.astype(np.float32)).astype(np.float64)
        g = self.gamma_override if self.gamma_override is not None else (self.s0 + 1.0) / 2.0
        self.gamma = np.clip(g, 1e-6, 1 - 1e-6)
        self.sum_wy, self.sum_w = np.zeros(self.n), np.zeros(self.n)
        self.labeled = np.zeros(self.n, dtype=bool)
        self.n_pos = 0

    def observe(self, image_id, relevant, pos_vecs, neg_vecs):
        for vid, yv in [(v, 1.0) for v in pos_vecs] + [(v, 0.0) for v in neg_vecs]:
            if self.labeled[vid]:
                continue
            self.labeled[vid] = True
            self.n_pos += int(yv)
            lo, hi = self.rev_ptr[vid], self.rev_ptr[vid + 1]
            self.sum_wy[self.rev_src[lo:hi]] += self.rev_w[lo:hi] * yv
            self.sum_w[self.rev_src[lo:hi]] += self.rev_w[lo:hi]

    def vector_scores(self, remaining):
        if self.n_pos == 0:
            return self.s0.copy()
        m = min(self.horizon, remaining) - 1
        p = np.where(self.labeled, -1.0, (self.gamma + self.sum_wy) / (1.0 + self.sum_w))
        scores = p.copy() if m <= 0 else self._nonmyopic(p, m)
        scores[self.labeled] = -np.inf
        return scores

    def _nonmyopic(self, p, m):
        n, unl = self.n, ~self.labeled
        m_eff = min(m, max(int(unl.sum()) - 1, 0))
        if m_eff == 0:
            return p.copy()
        kth = np.argpartition(-p, m_eff)[: m_eff + 1]
        kth = kth[np.argsort(-p[kth])]
        top_m = kth[:m_eff]
        next_val = p[kth[m_eff]] if kth.size > m_eff else 0.0
        tau = p[top_m[-1]]
        base_sum = float(p[top_m].sum())
        in_top = np.zeros(n, dtype=bool)
        in_top[top_m] = True
        self.top_rows_with_dead_edges += int(self.labeled[self.idx[top_m]].any())
        lead = np.where(in_top, base_sum + next_val, base_sum + p)
        i_e, j_e, w_e = self.rev_dst, self.rev_src, self.rev_w
        valid = unl[i_e] & unl[j_e] & (i_e != j_e)
        num = self.gamma[j_e] + self.sum_wy[j_e]
        den = 1.0 + self.sum_w[j_e]
        p_new1 = (num + w_e) / (den + w_e)
        p_new0 = num / (den + w_e)
        pj = p[j_e]
        c1 = np.where(in_top[j_e], p_new1 - pj, np.maximum(0.0, p_new1 - tau))
        c0 = np.where(in_top[j_e], p_new0 - pj, np.maximum(0.0, p_new0 - tau))
        c1[~valid] = 0.0
        c0[~valid] = 0.0
        g1 = np.bincount(i_e, weights=c1, minlength=n)
        g0 = np.bincount(i_e, weights=c0, minlength=n)
        return lead + g0 + p * (g1 - g0)


def _tied_graph(seed, n, k):
    """A kNN graph whose weights take three values, so that many edge
    weights and posteriors tie."""
    ds = generate_world(WorldSpec(n_images=n, n_categories=3, d=8, grid=(0, 0), seed=seed))
    gi, gd = knn_graph_np(ds.vectors, k)
    gw, _ = edge_weights(gd)
    return ds, gi, np.round(gw * 2.0) / 2.0 + 0.25


class TestForwardLayoutBitPin:
    """``vector_scores`` equals the reverse-layout formula exactly, round
    after round, while labels arrive in a seeded random order."""

    @staticmethod
    def _drive(ds, gi, gw, *, horizon, gamma=None, seed=0, rounds=40, batch=3):
        ens = EnsRanker(EnsGraph(gi, gw), horizon=horizon, gamma=gamma)
        ref = _ReverseLayoutEns(gi, gw, horizon=horizon, gamma=gamma)
        q0 = ds.query_vecs[0].astype(np.float64)
        ens.reset(ds, q0)
        ref.reset(ds, q0)
        g = np.random.default_rng(seed)
        n = ds.n_vectors
        for r in range(rounds):
            a, b = ens.vector_scores(horizon - r), ref.vector_scores(horizon - r)
            assert np.array_equal(a, b), f"round {r}"
            # Label the best candidate and a few random vertices (repeats
            # and already-labeled ones included).
            best = int(np.argmax(np.where(ref.labeled, -np.inf, b)))
            vids = np.concatenate([[best], g.integers(0, n, batch)])
            y = g.random(vids.size) < 0.4
            y[0] = r % 3 == 0
            for o in (ens, ref):
                o.observe(r, bool(y[0]), vids[y], vids[~y])
            if ref.labeled.all():
                break
        np.testing.assert_array_equal(ens.posterior(), (ref.gamma + ref.sum_wy) / (1.0 + ref.sum_w))
        return ref

    @pytest.mark.parametrize("horizon", [60, 10, 2])
    def test_matches_reverse_layout(self, horizon):
        ref = self._drive(DS, GI, GW, horizon=horizon)
        if horizon > 2:
            assert ref.top_rows_with_dead_edges > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_tied_weights(self, seed):
        ds, gi, gw = _tied_graph(seed, 120, 6)
        assert len(np.unique(gw)) <= 4
        self._drive(ds, gi, gw, horizon=60, seed=seed)

    def test_few_unlabeled_clip_the_lookahead(self):
        """On 30 vertices with horizon 60, ``m_eff`` is clipped by the
        unlabeled count every round, down to 0."""
        ds, gi, gw = _tied_graph(3, 30, 4)
        ref = self._drive(ds, gi, gw, horizon=60, rounds=30, batch=2)
        assert ref.labeled.sum() >= 28

    def test_calibrated_gamma(self):
        gamma = sigmoid(4.0 * (DS.vectors @ DS.query_vecs[0]).astype(np.float64) - 1.0)
        self._drive(DS, GI, GW, horizon=60, gamma=gamma, seed=5)

    def test_reverse_adjacency_is_a_stable_argsort(self):
        for gi in (GI, _tied_graph(1, 120, 6)[1]):
            r = EnsRanker(EnsGraph(gi, np.ones(gi.shape)))
            dst = np.asarray(gi, dtype=np.int64).ravel()
            order = np.argsort(dst, kind="stable")
            assert np.array_equal(r.rev_pos, order)
            assert np.array_equal(r.rev_ptr, np.searchsorted(dst[order], np.arange(len(gi) + 1)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EnsGraph(GI, -GW)


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
