"""Tests for the DataFrame vector store — oracle-checked against DuckDB."""
from dataclasses import replace

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.bench.loop import run_search
from repro.bench.runner import build_bundle, make_ranker
from repro.embed.clipsim import WorldSpec, generate_world
from repro.embed.datasets import build_dataset
from repro.oracle import assert_equivalent
from repro.store.scan import topk_images

DS = generate_world(WorldSpec(n_images=80, n_categories=4, d=8, grid=(1, 2), seed=5))


@pytest.fixture(scope="module")
def vec_df(spark):
    df = DS.to_vector_df(spark).cache()
    df.count()
    return df


def _q(cat=0):
    return DS.query_vecs[cat].astype(np.float64)


def _image_scores(vec_df, q):
    """Every image's store score in ``image_id`` order: the lookup at
    ``k`` = all images."""
    got = topk_images(vec_df, q, DS.n_images).toPandas()
    assert len(got) == DS.n_images
    return got.sort_values("image_id")["score"].to_numpy()


class TestScore:
    def test_scores_match_numpy(self, spark, vec_df):
        q = _q()
        expect = np.full(DS.n_images, -np.inf)
        np.maximum.at(expect, DS.image_of, DS.vectors.astype(np.float64) @ q)
        np.testing.assert_allclose(_image_scores(vec_df, q), expect, rtol=1e-6, atol=1e-9)

    def test_image_max_matches_duckdb_oracle(self, spark, vec_df):
        """Multiscale max-per-image aggregation vs DuckDB GROUP BY."""
        q = _q(2)
        qlit = "[" + ",".join(repr(float(v)) for v in q) + "]"
        assert_equivalent(
            topk_images(vec_df, q, DS.n_images),
            "SELECT image_id, max(list_inner_product(vector, "
            f"{qlit}::DOUBLE[])) AS score FROM vectors GROUP BY image_id",
            vectors=DS.to_vector_pdf(),
        )


class TestTopK:
    def test_topk_images_max_patch_semantics(self, spark, vec_df):
        q = _q(3)
        k = 5
        got = topk_images(vec_df, q, k).toPandas()
        scores = DS.vectors.astype(np.float64) @ q
        img_scores = np.full(DS.n_images, -np.inf)
        np.maximum.at(img_scores, DS.image_of, scores)
        expect = np.sort(img_scores)[-k:][::-1]
        np.testing.assert_allclose(
            got["score"].to_numpy(), expect, atol=1e-9
        )

    def test_exclude_images(self, spark, vec_df):
        q = _q()
        all_top = topk_images(vec_df, q, 1).toPandas()
        banned = int(all_top["image_id"].iloc[0])
        nxt = topk_images(vec_df, q, 1, exclude_images=[banned]).toPandas()
        assert int(nxt["image_id"].iloc[0]) != banned

    def test_descending_order(self, spark, vec_df):
        got = topk_images(vec_df, _q(), 10).toPandas()
        assert (np.diff(got["score"].to_numpy()) <= 1e-12).all()


class TestBuild:
    def test_table_builds_with_arrow_off(self, spark, vec_df):
        """Spark's non-Arrow conversion (its default) builds the same table."""
        key = "spark.sql.execution.arrow.pyspark.enabled"
        old = spark.conf.get(key)
        spark.conf.set(key, "false")
        try:
            df = DS.to_vector_df(spark).cache()
        finally:
            spark.conf.set(key, old)
        try:
            for cat in range(DS.n_categories):
                got = topk_images(df, _q(cat), 10).collect()
                assert got == topk_images(vec_df, _q(cat), 10).collect()
        finally:
            df.unpersist()


class TestTopKOracle:
    def test_topk_images_with_exclusions_match_duckdb(self, spark, vec_df):
        """The whole lookup (exclusion, per-image max, order, limit) against
        the same query in DuckDB, row by row."""
        q = _q(1)
        scores = DS.vectors.astype(np.float64) @ q
        best = np.full(DS.n_images, -np.inf)
        np.maximum.at(best, DS.image_of, scores)
        # The current top 5, so the exclusion changes the answer, plus
        # images from the middle and the bottom of the ranking.
        order = np.argsort(-best, kind="stable")
        banned = sorted(int(i) for i in np.r_[order[:5], order[30:33], order[-2:]])
        got = topk_images(vec_df, q, 10, exclude_images=banned)
        qlit = "[" + ",".join(repr(float(v)) for v in q) + "]"
        assert_equivalent(
            got,
            f"SELECT image_id, max(list_inner_product(vector, {qlit}::DOUBLE[])) AS score "
            f"FROM vectors WHERE image_id NOT IN ({', '.join(map(str, banned))}) "
            "GROUP BY image_id ORDER BY score DESC, image_id LIMIT 10",
            ordered=True,
            vectors=DS.to_vector_pdf(),
        )
        ids = [r["image_id"] for r in got.collect()]
        assert len(ids) == 10 and not set(ids) & set(banned)


class TestLookupPlan:
    """A lookup on the cached store is one stage: no shuffle, no Python."""

    def test_no_exchange_or_python_above_cached_scan(self, spark, vec_df):
        got = topk_images(vec_df, _q(), 3, exclude_images=[0, 5, 7])
        got.collect()
        plan = got._jdf.queryExecution().executedPlan().toString()
        assert "InMemoryTableScan" in plan
        # The cached table's own build (its repartition) prints below it.
        assert "Exchange" not in plan[: plan.index("InMemoryTableScan")], plan
        assert "EvalPython" not in plan, plan  # Arrow- or BatchEvalPython

    def test_one_job_one_stage(self, spark, vec_df):
        sc = spark.sparkContext
        sc.setJobGroup("store-lookup-plan", "one lookup")
        try:
            topk_images(vec_df, _q(2), 1, exclude_images=[3]).collect()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        st = sc.statusTracker()
        jobs = st.getJobIdsForGroup("store-lookup-plan")
        ran = [
            sid
            for j in jobs
            for sid in st.getJobInfo(j).stageIds
            if st.getStageInfo(sid) and st.getStageInfo(sid).numCompletedTasks
        ]
        assert len(jobs) == 1 and len(ran) == 1

    def test_scores_are_the_in_order_float64_sum(self, spark, vec_df):
        """q reaches the plan bit for bit: each image's score equals the max
        over its vectors of the sequential float64 sum of ``vector[i] *
        q[i]`` exactly (a max does not round)."""
        q = _q(3)
        expect = np.full(DS.n_images, -np.inf)
        np.maximum.at(
            expect, DS.image_of, np.cumsum(DS.vectors.astype(np.float64) * q, axis=1)[:, -1]
        )
        np.testing.assert_array_equal(_image_scores(vec_df, q), expect)


class TestBadInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_q_raises(self, spark, vec_df, bad):
        q = _q().copy()
        q[2] = bad
        with pytest.raises(ValueError, match="finite"):
            topk_images(vec_df, q, 3, exclude_images=[1])

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_raises(self, spark, vec_df, k):
        with pytest.raises(ValueError, match="k must be"):
            topk_images(vec_df, _q(), k)

    @pytest.mark.parametrize("d", [DS.spec.d - 1, DS.spec.d + 1])
    def test_q_length_mismatch_raises(self, spark, vec_df, d):
        q = np.resize(_q(), d)
        msg = f"q has {d} dims but stored vector has {DS.spec.d}"
        with pytest.raises(Exception, match=msg):
            topk_images(vec_df, q, 1).collect()


class TestOracle:
    def test_oracle_catches_wrong_result(self, spark, vec_df):
        wrong = vec_df.groupBy("image_id").agg(
            (F.count("*") + 1).alias("cnt")  # deliberately off by one
        )
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong,
                "SELECT image_id, count(*) AS cnt FROM vectors GROUP BY image_id",
                vectors=DS.to_vector_pdf(),
            )


def _replay_on_store(spark, bundle, cat):
    """Run one SeeSaw search with ``run_search`` and check that every round's
    pick is the store's top unseen image for the query that round scored
    with. Returns the shown image ids."""
    ranker = make_ranker("seesaw", {}, bundle)
    queries = []
    scores = ranker.vector_scores

    def recording(remaining):
        queries.append(ranker.query.copy())
        return scores(remaining)

    ranker.vector_scores = recording
    shown = run_search(bundle.ds, cat, ranker).shown_images
    vec_df = bundle.ds.to_vector_df(spark).cache()
    try:
        for r, (q, img) in enumerate(zip(queries, shown)):
            top = topk_images(vec_df, q, 1, exclude_images=shown[:r]).collect()
            assert top[0]["image_id"] == img, f"cat {cat} round {r}"
    finally:
        vec_df.unpersist()
    return shown


class TestLoopMatchesStore:
    """The search loop's numpy pick and the Spark store's lookup agree."""

    @pytest.mark.parametrize("cat", [0, 1, 2])
    def test_multiscale_seesaw_rounds(self, spark, cat):
        _replay_on_store(spark, build_bundle(build_dataset("lvis", "test")), cat)

    def test_ties_pick_lowest_image_id(self, spark):
        """Images n/2..n-1 duplicate images 0..n/2-1 vector for vector, so
        every pick ties with its twin: both paths must show the lower id."""
        half = DS.n_images // 2
        vecs = DS.vectors.copy()
        for b in range(half, DS.n_images):
            vecs[DS.image_of == b] = vecs[DS.image_of == b - half]
        twin = replace(DS, vectors=vecs)
        shown = _replay_on_store(spark, build_bundle(twin), 0)
        late = [b for b in shown if b >= half]
        assert late, "no tie was resolved"
        assert all(b - half in shown[: shown.index(b)] for b in late)
