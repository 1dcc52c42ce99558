"""Tests for the interactive-search simulation loop."""
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import ZeroShotRanker
from repro.bench.loop import best_unseen, image_feedback, run_search
from repro.embed.clipsim import WorldSpec, generate_world
from repro.embed.datasets import build_dataset

DS = generate_world(WorldSpec(n_images=150, n_categories=6, d=16, grid=(2, 2), seed=3))
DSC = DS.coarse_only()


class TestRunSearch:
    @pytest.mark.parametrize("cat", range(6))
    def test_no_repeats(self, cat):
        out = run_search(DS, cat, ZeroShotRanker())
        assert len(set(out.shown_images)) == len(out.shown_images)

    @pytest.mark.parametrize("cat", range(6))
    def test_stops_at_target_or_budget(self, cat):
        out = run_search(DS, cat, ZeroShotRanker(), target=5, budget=20)
        if out.n_found >= min(5, out.n_relevant_in_dataset):
            assert out.n_shown <= 20
        else:
            assert out.n_shown == 20

    def test_found_counts_match_relevance(self):
        out = run_search(DS, 0, ZeroShotRanker())
        assert out.n_found == sum(out.shown_relevance)

    def test_ap_in_range(self):
        for cat in range(DS.n_categories):
            out = run_search(DS, cat, ZeroShotRanker())
            assert 0.0 <= out.ap <= 1.0

    def test_zero_shot_order_matches_argmax(self):
        """Zero-shot must show images in descending max-patch score order."""
        cat = 1
        q0 = DS.query_vecs[cat].astype(np.float64)
        vs = DS.vectors @ q0.astype(np.float32)
        img_scores = np.full(DS.n_images, -np.inf)
        np.maximum.at(img_scores, DS.image_of, vs)
        expect = list(np.argsort(-img_scores, kind="stable"))
        out = run_search(DS, cat, ZeroShotRanker(), target=10**9, budget=8)
        # ties broken by argmax order: verify scores are non-increasing
        shown_scores = img_scores[out.shown_images]
        assert (np.diff(shown_scores) <= 1e-9).all()
        assert out.shown_images[0] == expect[0]

    def test_budget_exhausts_small_dataset(self):
        tiny = generate_world(
            WorldSpec(n_images=5, n_categories=2, d=8, grid=(0, 0), seed=1)
        )
        out = run_search(tiny, 0, ZeroShotRanker(), target=100, budget=60)
        assert out.n_shown <= 5

    @pytest.mark.parametrize("target, budget", [(0, 60), (-1, 60), (10, 0), (10, -3)])
    def test_bad_task_raises(self, target, budget):
        ranker = ZeroShotRanker()
        with pytest.raises(ValueError, match="target and budget"):
            run_search(DS, 0, ranker, target=target, budget=budget)


class TestBestUnseen:
    # DS has 5 vectors per image: image i owns vectors 5i..5i+4.
    def test_image_scores_max_over_its_vectors(self):
        vs = np.zeros(DS.n_vectors)
        vs[5 * 7 + 3] = 0.9  # one patch of image 7
        vs[5 * 2 : 5 * 3] = 0.5  # every vector of image 2, each below 0.9
        seen = np.zeros(DS.n_images, dtype=bool)
        assert best_unseen(DS, vs, seen) == 7
        seen[7] = True
        assert best_unseen(DS, vs, seen) == 2

    def test_ties_go_to_lowest_image_id(self):
        vs = np.zeros(DS.n_vectors)
        vs[[5 * 40 + 1, 5 * 9 + 4, 5 * 90]] = 1.0
        seen = np.zeros(DS.n_images, dtype=bool)
        assert best_unseen(DS, vs, seen) == 9
        seen[9] = True
        assert best_unseen(DS, vs, seen) == 40

    def test_none_once_every_image_is_seen(self):
        vs = np.arange(DS.n_vectors, dtype=np.float64)
        seen = np.ones(DS.n_images, dtype=bool)
        seen[3] = False
        assert best_unseen(DS, vs, seen) == 3
        seen[3] = True
        assert best_unseen(DS, vs, seen) is None


class TestImageFeedback:
    def test_irrelevant_image_all_negative(self):
        cat = 0
        img = int(np.flatnonzero(~DS.rel_image[cat])[0])
        rel, pos, neg = image_feedback(DS, cat, img)
        assert not rel
        assert pos.size == 0
        assert neg.size == (DS.image_of == img).sum()

    def test_relevant_image_has_positives(self):
        cat = 0
        img = int(np.flatnonzero(DS.rel_image[cat])[0])
        rel, pos, neg = image_feedback(DS, cat, img)
        assert rel
        assert pos.size >= 1
        assert set(pos.tolist()).isdisjoint(neg.tolist())

    def test_feedback_vectors_belong_to_image(self):
        cat = 2
        img = int(np.flatnonzero(DS.rel_image[cat])[0])
        _, pos, neg = image_feedback(DS, cat, img)
        for v in np.concatenate([pos, neg]):
            assert DS.image_of[v] == img

    def test_small_object_coarse_excluded(self):
        """If the coarse vector is not positive (small object), it must not
        appear among the negatives of a relevant image either."""
        for cat in range(DS.n_categories):
            for img in np.flatnonzero(DS.rel_image[cat]):
                _, pos, neg = image_feedback(DS, cat, int(img))
                mine = np.flatnonzero(DS.image_of == img)
                coarse = mine[DS.is_coarse[mine]][0]
                if coarse not in pos:
                    assert coarse not in neg

    def test_coarse_only_relevant_coarse_is_positive(self):
        cat = 1
        img = int(np.flatnonzero(DSC.rel_image[cat])[0])
        rel, pos, neg = image_feedback(DSC, cat, img)
        assert rel and pos.size == 1 and neg.size == 0


class TestBitPin:
    """The sort-free feedback and pick return exactly what the set
    operations and ``np.maximum.at`` return."""

    @staticmethod
    def _ref_feedback(ds, cat, image_id):
        mine = np.flatnonzero(ds.image_of == image_id)
        if not ds.rel_image[cat, image_id]:
            return False, np.empty(0, dtype=np.int64), mine
        pos = np.intersect1d(mine, ds.rel_vec[cat])
        neg = np.setdiff1d(np.setdiff1d(mine, pos), mine[ds.is_coarse[mine]])
        return True, pos, neg

    @pytest.mark.parametrize("name", ["lvis", "objectnet", "coco", "bdd"])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_image_feedback_every_pair(self, name, coarse):
        ds = build_dataset(name, "test")
        ds = ds.coarse_only() if coarse else ds
        for cat in range(ds.n_categories):
            for img in range(ds.n_images):
                got = image_feedback(ds, cat, img)
                ref = self._ref_feedback(ds, cat, img)
                assert got[0] == ref[0]
                for a, b in zip(got[1:], ref[1:]):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (cat, img)

    @staticmethod
    def _ref_pick(ds, vscores, seen):
        img_scores = np.full(ds.n_images, -np.inf)
        np.maximum.at(img_scores, ds.image_of, vscores)
        img_scores[seen] = -np.inf
        best = int(np.argmax(img_scores))
        return best if np.isfinite(img_scores[best]) else None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identity_pick_matches_maximum_at(self, dtype):
        assert DSC.one_vector_per_image and not DS.one_vector_per_image
        g = np.random.default_rng(0)
        for _ in range(200):
            # Few distinct values, so that the best score ties often.
            vs = g.integers(-3, 4, DSC.n_vectors).astype(dtype) / 4
            vs[g.random(DSC.n_vectors) < 0.05] = -np.inf
            seen = g.random(DSC.n_images) < g.random()
            assert best_unseen(DSC, vs, seen) == self._ref_pick(DSC, vs, seen)


@pytest.mark.filterwarnings("ignore:invalid value encountered in maximum")
class TestBadInputs:
    def test_nan_score_raises_naming_the_image(self):
        vs = np.zeros(DS.n_vectors)
        vs[5 * 12 + 2] = np.nan
        seen = np.zeros(DS.n_images, dtype=bool)
        with pytest.raises(ValueError, match="image 12 has a NaN score"):
            best_unseen(DS, vs, seen)
        seen[12] = True  # a shown image's NaN does not matter
        assert best_unseen(DS, vs, seen) == 0

    @pytest.mark.parametrize("coarse", [False, True])
    def test_nan_vector_fails_the_search(self, coarse):
        ds = build_dataset("lvis", "test")
        ds = ds.coarse_only() if coarse else ds
        vectors = ds.vectors.copy()
        vectors[40] = np.nan
        bad = replace(ds, vectors=vectors)
        with pytest.raises(ValueError, match=f"image {ds.image_of[40]} has a NaN score"):
            run_search(bad, 0, ZeroShotRanker())

    def test_all_minus_inf_is_none(self):
        vs = np.full(DSC.n_vectors, -np.inf)
        assert best_unseen(DSC, vs, np.zeros(DSC.n_images, dtype=bool)) is None

    def test_category_without_relevant_image_fails_before_reset(self):
        rel_image = DS.rel_image.copy()
        rel_image[2] = False
        rel_vec = list(DS.rel_vec)
        rel_vec[2] = np.empty(0, dtype=np.int32)
        ds = replace(DS, rel_image=rel_image, rel_vec=rel_vec)
        ranker = ZeroShotRanker()
        with pytest.raises(ValueError, match="category 2 has no relevant image"):
            run_search(ds, 2, ranker)
        assert not hasattr(ranker, "_q0")  # reset never ran
