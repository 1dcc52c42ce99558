"""Tests for the synthetic embedding-world generator."""
from dataclasses import replace

import numpy as np
import pytest

from repro.embed.clipsim import WorldSpec, generate_world

SPEC = WorldSpec(n_images=120, n_categories=8, d=16, grid=(2, 2), seed=7)
FLAT = WorldSpec(n_images=100, n_categories=6, d=16, grid=(0, 0), seed=9)


@pytest.fixture(scope="module")
def world():
    return generate_world(SPEC)


@pytest.fixture(scope="module")
def flat_world():
    return generate_world(FLAT)


class TestShapes:
    def test_vector_count(self, world):
        stride = 1 + 2 * 2
        assert world.n_vectors == SPEC.n_images * stride

    def test_flat_vector_count(self, flat_world):
        assert flat_world.n_vectors == FLAT.n_images

    def test_unit_norm_vectors(self, world):
        norms = np.linalg.norm(world.vectors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_unit_norm_queries(self, world):
        norms = np.linalg.norm(world.query_vecs, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)

    def test_one_coarse_per_image(self, world):
        for img in range(SPEC.n_images):
            mine = world.image_of == img
            assert world.is_coarse[mine].sum() == 1

    def test_image_of_covers_all_images(self, world):
        assert set(world.image_of.tolist()) == set(range(SPEC.n_images))


class TestDeterminism:
    def test_same_seed_identical(self):
        a, b = generate_world(SPEC), generate_world(SPEC)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.query_vecs, b.query_vecs)
        np.testing.assert_array_equal(a.rel_image, b.rel_image)

    def test_different_seed_differs(self):
        from dataclasses import replace

        a = generate_world(SPEC)
        b = generate_world(replace(SPEC, seed=SPEC.seed + 1))
        assert not np.array_equal(a.vectors, b.vectors)


class TestGroundTruth:
    def test_min_positives(self, world):
        counts = world.rel_image.sum(axis=1)
        assert (counts >= SPEC.min_positives).all()

    def test_rel_vec_belong_to_relevant_images(self, world):
        for c in range(world.n_categories):
            imgs = world.image_of[world.rel_vec[c]]
            assert set(imgs.tolist()) <= set(np.flatnonzero(world.rel_image[c]).tolist())

    def test_every_relevant_image_has_positive_patch(self, world):
        """With a patch grid every relevant image has >= 1 positive vector
        (the object's own patch is always included)."""
        for c in range(world.n_categories):
            imgs_with_pos = set(world.image_of[world.rel_vec[c]].tolist())
            rel_imgs = set(np.flatnonzero(world.rel_image[c]).tolist())
            assert rel_imgs == imgs_with_pos

    def test_flat_world_positives_are_coarse(self, flat_world):
        for c in range(flat_world.n_categories):
            assert flat_world.is_coarse[flat_world.rel_vec[c]].all()


class TestLayout:
    def test_rel_vec_sorted_and_unique(self, world):
        for rel in world.rel_vec + world.coarse_only().rel_vec:
            assert np.all(np.diff(rel) > 0)

    @pytest.mark.parametrize("bad", [[5, 3], [4, 4]])
    def test_unsorted_rel_vec_rejected(self, world, bad):
        rel_vec = list(world.rel_vec)
        rel_vec[1] = np.array(bad, dtype=np.int32)
        with pytest.raises(ValueError, match=r"rel_vec\[1\] is not sorted"):
            replace(world, rel_vec=rel_vec)

    def test_one_vector_per_image(self, world, flat_world):
        assert world.coarse_only().one_vector_per_image
        assert flat_world.one_vector_per_image
        assert not world.one_vector_per_image
        shuffled = replace(flat_world, image_of=flat_world.image_of[::-1].copy())
        assert not shuffled.one_vector_per_image


class TestCoarseOnly:
    def test_sizes(self, world):
        co = world.coarse_only()
        assert co.n_vectors == SPEC.n_images
        assert co.is_coarse.all()
        assert co.n_images == world.n_images

    def test_rel_image_preserved(self, world):
        co = world.coarse_only()
        np.testing.assert_array_equal(co.rel_image, world.rel_image)

    def test_rel_vec_matches_rel_image(self, world):
        co = world.coarse_only()
        for c in range(co.n_categories):
            np.testing.assert_array_equal(
                np.sort(co.image_of[co.rel_vec[c]]),
                np.flatnonzero(co.rel_image[c]),
            )

    def test_vectors_are_the_coarse_subset(self, world):
        co = world.coarse_only()
        np.testing.assert_array_equal(co.vectors, world.vectors[world.is_coarse])


class TestKnobs:
    def test_tail_on_rarest_targets_rare_categories(self):
        from dataclasses import replace

        spec = replace(SPEC, tail_on_rarest=True, align_tail_frac=0.25,
                       align_tail_noise=3.0, cat_freq_alpha=2.0, seed=11)
        ds = generate_world(spec)
        counts = ds.rel_image.sum(axis=1)
        # Tail categories get huge query noise -> their query-to-ideal cos is
        # low; those categories should be among the rarest.
        cos = np.einsum("ij,ij->i", ds.query_vecs.astype(float), ds.ideal_vecs.astype(float))
        n_tail = max(1, round(0.25 * spec.n_categories))
        worst = np.argsort(cos)[:n_tail]
        assert counts[worst].mean() <= np.median(counts) + 1e-9

    def test_family_mix_correlates_categories(self):
        from dataclasses import replace

        no_fam = generate_world(replace(SPEC, n_families=0, family_mix=0.0))
        fam = generate_world(replace(SPEC, n_families=2, family_mix=0.7))
        def mean_cross_cos(ds):
            u = ds.ideal_vecs.astype(float)
            cc = u @ u.T
            return (cc.sum() - np.trace(cc)) / (cc.size - len(cc))
        assert abs(mean_cross_cos(fam)) > abs(mean_cross_cos(no_fam))

    def test_align_noise_zero_gives_ideal_queries(self):
        from dataclasses import replace

        ds = generate_world(replace(SPEC, align_noise=0.0, align_tail_frac=0.0))
        cos = np.einsum(
            "ij,ij->i", ds.query_vecs.astype(float), ds.ideal_vecs.astype(float)
        )
        np.testing.assert_allclose(cos, 1.0, atol=1e-5)

    def test_to_vector_pdf_roundtrip(self, world):
        pdf = world.to_vector_pdf()
        assert len(pdf) == world.n_vectors
        assert list(pdf.columns) == ["vec_id", "image_id", "is_coarse", "vector"]
        np.testing.assert_array_equal(pdf["image_id"].to_numpy(), world.image_of)
