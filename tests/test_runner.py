"""Integration tests: the Spark sweep runner vs direct serial execution."""
import numpy as np
import pytest

from repro.baselines import RocchioRanker, ZeroShotRanker
from repro.bench.loop import run_search
from repro.bench.runner import DatasetBundle, build_bundle, make_ranker, run_sweep
from repro.embed.clipsim import WorldSpec, generate_world

DS = generate_world(WorldSpec(n_images=120, n_categories=6, d=16, grid=(1, 2), seed=12))


@pytest.fixture(scope="module")
def bundles():
    return {
        "toy:multi": build_bundle(DS, with_graph=True),
        "toy:coarse": build_bundle(DS.coarse_only(), with_graph=True),
    }


class TestMakeRanker:
    def test_all_methods_constructible(self, bundles):
        b = bundles["toy:coarse"]
        for m in ("zeroshot", "fewshot", "rocchio", "seesaw", "ens"):
            assert make_ranker(m, {}, b) is not None

    def test_unknown_method_raises(self, bundles):
        with pytest.raises(KeyError):
            make_ranker("nope", {}, bundles["toy:coarse"])

    def test_seesaw_without_m_raises(self):
        bare = DatasetBundle(DS)
        with pytest.raises(ValueError):
            make_ranker("seesaw", {}, bare)

    def test_ens_without_graph_raises(self):
        bare = build_bundle(DS.coarse_only(), with_graph=False)
        with pytest.raises(ValueError):
            make_ranker("ens", {}, bare)

    def test_calibrated_ens_without_gamma_raises(self, bundles):
        """A calibrated Table 4 row must not silently run with the raw prior."""
        with pytest.raises(ValueError, match="calibrated"):
            make_ranker("ens", {"calibrated": True, "cat": 0}, bundles["toy:coarse"])

    @pytest.mark.parametrize("method", ["zeroshot", "fewshot", "rocchio", "seesaw", "ens"])
    @pytest.mark.parametrize("bad", ["zero", "nan", "inf"])
    def test_degenerate_q0_raises(self, bundles, method, bad):
        """A zero or non-finite query would score every vector alike."""
        b = bundles["toy:coarse"]
        q0 = DS.query_vecs[0].astype(np.float64)
        if bad == "zero":
            q0[:] = 0.0
        else:
            q0[3] = float(bad)
        with pytest.raises(ValueError, match="q0"):
            make_ranker(method, {}, b).reset(b.ds, q0)


class TestSweep:
    def test_sweep_is_one_stage_of_one_task_per_core(self, spark, bundles):
        """Tasks are dealt into one slice per core and run in one map stage,
        with no shuffle that could merge them into fewer tasks."""
        sc = spark.sparkContext
        n = sc.defaultParallelism
        tasks = [
            {"bundle": "toy:coarse", "method": "zeroshot", "cat": i % DS.n_categories}
            for i in range(2 * n + 1)
        ]
        sc.setJobGroup("test-sweep-stages", "one sweep")
        try:
            run_sweep(spark, bundles, tasks)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        st = sc.statusTracker()
        jobs = st.getJobIdsForGroup("test-sweep-stages")
        assert len(jobs) == 1
        stages = st.getJobInfo(jobs[0]).stageIds
        assert len(stages) == 1
        assert st.getStageInfo(stages[0]).numCompletedTasks == n

    def test_rows_come_back_in_task_order(self, spark, bundles):
        tasks = [
            {"bundle": b, "method": m, "cat": c}
            for c in range(DS.n_categories)
            for m in ("rocchio", "zeroshot")
            for b in ("toy:multi", "toy:coarse")
        ]
        res = run_sweep(spark, bundles, tasks)
        assert list(zip(res["bundle"], res["method"], res["cat"])) == [
            (t["bundle"], t["method"], t["cat"]) for t in tasks
        ]

    def test_sweep_matches_serial(self, spark, bundles):
        """The distributed sweep must reproduce serial run_search exactly."""
        tasks = [
            {"bundle": "toy:multi", "method": m, "cat": c}
            for m in ("zeroshot", "rocchio")
            for c in range(DS.n_categories)
        ]
        res = run_sweep(spark, bundles, tasks)
        assert len(res) == len(tasks)
        for r in res.itertuples(index=False):
            ranker = ZeroShotRanker() if r.method == "zeroshot" else RocchioRanker()
            serial = run_search(DS, r.cat, ranker)
            assert serial.ap == pytest.approx(r.ap, abs=1e-12), (r.method, r.cat)
            assert serial.n_found == r.n_found
            assert serial.n_shown == r.n_shown

    def test_sweep_seesaw_deterministic(self, spark, bundles):
        tasks = [
            {"bundle": "toy:multi", "method": "seesaw", "cat": c}
            for c in range(3)
        ]
        r1 = run_sweep(spark, bundles, tasks).sort_values("cat")["ap"].to_numpy()
        r2 = run_sweep(spark, bundles, tasks).sort_values("cat")["ap"].to_numpy()
        np.testing.assert_array_equal(r1, r2)

    def test_empty_sweep_gives_empty_frame(self, spark, bundles):
        res = run_sweep(spark, bundles, [])
        assert res.empty
        assert list(res.columns) == [
            "bundle", "method", "config", "cat", "ap", "n_found", "n_shown", "n_relevant"
        ]

    def test_sweep_custom_params_flow_through(self, spark, bundles):
        tasks = [
            {
                "bundle": "toy:coarse",
                "method": "ens",
                "config": "ens t=1",
                "params": {"horizon": 1},
                "cat": 0,
            }
        ]
        res = run_sweep(spark, bundles, tasks)
        assert res["config"].iloc[0] == "ens t=1"
        assert 0.0 <= res["ap"].iloc[0] <= 1.0

    def test_result_columns(self, spark, bundles):
        res = run_sweep(
            spark,
            bundles,
            [{"bundle": "toy:coarse", "method": "zeroshot", "cat": 0}],
        )
        assert set(res.columns) == {
            "bundle",
            "method",
            "config",
            "cat",
            "ap",
            "n_found",
            "n_shown",
            "n_relevant",
        }
