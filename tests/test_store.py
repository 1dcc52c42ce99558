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
from repro.store.scan import score_vectors, topk_images, topk_vectors

DS = generate_world(WorldSpec(n_images=80, n_categories=4, d=8, grid=(1, 2), seed=5))


@pytest.fixture(scope="module")
def vec_df(spark):
    df = DS.to_vector_df(spark).cache()
    df.count()
    return df


def _q(cat=0):
    return DS.query_vecs[cat].astype(np.float64)


class TestScore:
    def test_scores_match_numpy(self, spark, vec_df):
        q = _q()
        got = (
            score_vectors(vec_df, q)
            .select("vec_id", "score")
            .toPandas()
            .sort_values("vec_id")["score"]
            .to_numpy()
        )
        expect = DS.vectors.astype(np.float64) @ q
        np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-9)

    def test_scores_match_duckdb_oracle(self, spark, vec_df):
        """Full score table equality via the DuckDB list_inner_product oracle."""
        q = _q(1)
        spark_scores = score_vectors(vec_df, q).select("vec_id", "score")
        qlit = "[" + ",".join(repr(float(v)) for v in q) + "]"
        assert_equivalent(
            spark_scores,
            f"SELECT vec_id, list_inner_product(vector, {qlit}::DOUBLE[]) AS score "
            "FROM vectors",
            vectors=DS.to_vector_pdf(),
        )

    def test_image_max_matches_duckdb_oracle(self, spark, vec_df):
        """Multiscale max-per-image aggregation vs DuckDB GROUP BY."""
        q = _q(2)
        spark_img = (
            score_vectors(vec_df, q)
            .groupBy("image_id")
            .agg(F.max("score").alias("score"))
        )
        qlit = "[" + ",".join(repr(float(v)) for v in q) + "]"
        assert_equivalent(
            spark_img,
            "SELECT image_id, max(list_inner_product(vector, "
            f"{qlit}::DOUBLE[])) AS score FROM vectors GROUP BY image_id",
            vectors=DS.to_vector_pdf(),
        )


class TestTopK:
    def test_topk_vectors_are_the_k_largest(self, spark, vec_df):
        q = _q()
        k = 7
        got = topk_vectors(vec_df, q, k).toPandas()
        assert len(got) == k
        scores = DS.vectors.astype(np.float64) @ q
        expect = np.sort(scores)[-k:][::-1]
        np.testing.assert_allclose(np.sort(got["score"]), np.sort(expect), atol=1e-9)

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
