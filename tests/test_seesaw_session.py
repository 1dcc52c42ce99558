"""Tests for the SeeSawSession ranker (feedback accumulation + re-align)."""
import numpy as np
import pytest

from repro.baselines import FewShotRanker, ZeroShotRanker
from repro.core.aligner import AlignerParams
from repro.core.seesaw import SeeSawSession
from repro.embed.clipsim import WorldSpec, generate_world

DS = generate_world(WorldSpec(n_images=100, n_categories=5, d=16, grid=(2, 2), seed=4))


def _session(**kw):
    s = SeeSawSession(**kw)
    s.reset(DS, DS.query_vecs[0].astype(np.float64))
    return s


class TestSession:
    def test_initial_scores_are_zero_shot(self):
        s = _session()
        zs = ZeroShotRanker()
        zs.reset(DS, DS.query_vecs[0].astype(np.float64))
        np.testing.assert_allclose(s.vector_scores(60), zs.vector_scores(60), atol=1e-6)

    def test_observe_accumulates(self):
        s = _session()
        s.observe(0, True, np.array([0]), np.array([1, 2]))
        assert s.n_feedback == 3
        s.observe(1, False, np.empty(0, int), np.array([5]))
        assert s.n_feedback == 4

    def test_query_changes_after_feedback(self):
        s = _session()
        q_before = s.query.copy()
        s.observe(0, True, np.array([0]), np.array([1, 2, 3]))
        assert not np.allclose(s.query, q_before / np.linalg.norm(q_before))

    def test_query_unit_norm_after_feedback(self):
        s = _session()
        s.observe(0, True, np.array([0]), np.array([1]))
        assert np.linalg.norm(s.query) == pytest.approx(1.0, abs=1e-9)

    def test_require_positive_holds_q0(self):
        s = _session(require_positive=True)
        q0 = s.query.copy()
        s.observe(0, False, np.empty(0, int), np.array([1, 2, 3]))
        np.testing.assert_array_equal(s.query, q0)
        s.observe(1, True, np.array([7]), np.empty(0, int))
        assert not np.array_equal(s.query, q0)

    def test_reset_clears_feedback(self):
        s = _session()
        s.observe(0, True, np.array([0]), np.array([1]))
        s.reset(DS, DS.query_vecs[1].astype(np.float64))
        assert s.n_feedback == 0

    def test_positive_feedback_raises_positive_scores(self):
        """After labeling a vector positive, its score should not drop
        relative to the median score."""
        s = _session(params=AlignerParams(lam=30, lam_c=3, lam_d=0))
        target_vec = 8
        before = s.vector_scores(60)
        rank_before = (before >= before[target_vec]).sum()
        s.observe(0, True, np.array([target_vec]), np.empty(0, int))
        after = s.vector_scores(60)
        rank_after = (after >= after[target_vec]).sum()
        assert rank_after <= rank_before


class TestFewShot:
    def test_fewshot_is_session_with_flags(self):
        f = FewShotRanker()
        assert isinstance(f, SeeSawSession)
        assert f.require_positive
        assert f.aligner.params.lam_c == 0.0
        assert f.aligner.params.lam_d == 0.0

    def test_fewshot_tracks_positive_example(self):
        f = FewShotRanker()
        f.reset(DS, DS.query_vecs[0].astype(np.float64))
        f.observe(0, True, np.array([3]), np.array([4, 5]))
        s = f.vector_scores(60)
        # the labeled positive should now rank in the top half
        assert (s >= s[3]).sum() <= DS.n_vectors // 2

    def test_query_matches_a_solve_on_stacked_feedback(self):
        """Feedback kept in growing buffers solves exactly as the feedback
        stacked afresh each round, across several buffer growths."""
        s = _session(M=np.eye(DS.vectors.shape[1]) * 0.01)
        g = np.random.default_rng(0)
        rows, labels = [], []
        for r in range(30):
            vids = g.choice(DS.n_vectors, size=int(g.integers(1, 12)), replace=False)
            n_pos = int(g.integers(0, 3))
            pos, neg = vids[:n_pos], vids[n_pos:]
            s.observe(r, n_pos > 0, pos, neg)
            rows += [DS.vectors[v].astype(np.float64) for v in np.concatenate([pos, neg])]
            labels += [1.0] * len(pos) + [0.0] * len(neg)
            expect = s.aligner.align(s._q0, np.vstack(rows), np.asarray(labels))
            assert np.array_equal(s.query, expect), f"round {r}"
        assert s.n_feedback == len(labels) > 128
