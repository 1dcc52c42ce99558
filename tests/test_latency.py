"""Tests for the Table 6 latency harness (tiny scales — shape only)."""
import numpy as np
import pytest

from repro.bench import latency


@pytest.fixture(scope="module")
def coarse_fix(spark):
    return latency.build_fixture(spark, "tiny-", 800, False)


@pytest.fixture(scope="module")
def multi_fix(spark):
    return latency.build_fixture(spark, "tiny", 1600, True)


class TestFixture:
    def test_vector_count(self, coarse_fix):
        assert coarse_fix.vec_df.count() == 800

    def test_multiscale_images(self, multi_fix):
        n_imgs = multi_fix.vec_df.select("image_id").distinct().count()
        assert n_imgs == 160  # 10 vectors per image

    def test_graph_shape(self, coarse_fix):
        assert coarse_fix.bundle.graph_idx.shape == (800, 20)


class TestMeasurement:
    @pytest.mark.parametrize("method", ["CLIP", "Rocchio", "SeeSaw", "ENS", "prop."])
    def test_coarse_methods_measurable(self, coarse_fix, method):
        t = latency.measure_iteration(coarse_fix, method, reps=1)
        assert t is not None and t > 0

    def test_ens_na_for_multiscale(self, multi_fix):
        assert latency.measure_iteration(multi_fix, "ENS", reps=1) is None

    def test_unknown_method_raises(self, coarse_fix):
        with pytest.raises(KeyError):
            latency.measure_iteration(coarse_fix, "bogus")

    def test_table6_quick(self, spark):
        df = latency.table6(
            spark, reps=1, scales=[("tiny-", 500, False), ("tiny", 1000, True)]
        )
        assert list(df["dataset"]) == ["tiny-", "tiny"]
        assert df.loc[1, "ENS"] is None or np.isnan(df.loc[1, "ENS"])
        for m in ("CLIP", "Rocchio", "SeeSaw", "prop."):
            assert (df[m].astype(float) > 0).all()
