"""Tests for the interactive-search simulation loop."""
import numpy as np
import pytest

from repro.baselines import ZeroShotRanker
from repro.bench.loop import best_unseen, image_feedback, run_search
from repro.embed.clipsim import WorldSpec, generate_world

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
