"""Exact maximum-inner-product search as a Spark DataFrame computation.

The vector database is a DataFrame ``(vec_id, image_id, is_coarse, vector)``
laid out by :func:`vector_table`: hash-partitioned by ``image_id``, so every
image's patch vectors share one partition. Scoring is one native SQL
expression, ``aggregate(zip_with(vector, q, (x, y) -> x * y), 0D, (a, x) ->
a + x)``, with ``q`` inlined as one array literal (the optimizer folds it
to a single constant; the SQL text carries it in one Py4J call, where a
``Column`` built element by element would cost a round trip per element).
On the cached table a lookup is then one stage with no shuffle and no
Python worker: scan → filter → score → per-image ``max`` →
``TakeOrderedAndProject``.
Correctness is oracle-checked against DuckDB's ``list_inner_product`` in
``tests/test_store.py``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F, types as T

VECTOR_SCHEMA = T.StructType(
    [
        T.StructField("vec_id", T.LongType()),
        T.StructField("image_id", T.LongType()),
        T.StructField("is_coarse", T.BooleanType()),
        T.StructField("vector", T.ArrayType(T.DoubleType())),
    ]
)


def vector_table(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """The store's table from a pandas frame of ``VECTOR_SCHEMA`` rows,
    hash-partitioned by ``image_id`` into ``defaultParallelism`` partitions
    (cache it once; every lookup then plans its per-image ``max`` in place)."""
    return spark.createDataFrame(pdf, schema=VECTOR_SCHEMA).repartition(
        spark.sparkContext.defaultParallelism, "image_id"
    )


def _score_sql(q: np.ndarray) -> str:
    """SQL for ``vector . q``, summed in index order. A stored vector whose
    length differs from ``q`` fails the query instead of scoring null."""
    qb = np.asarray(q, dtype=np.float64)
    if qb.ndim != 1 or not np.isfinite(qb).all():
        raise ValueError("q must be a finite 1-d vector")
    # repr is the shortest decimal that parses back to the same double.
    arr = ", ".join(f"{v!r}D" for v in qb.tolist())
    return (
        f"CASE WHEN size(vector) = {qb.size} "
        f"THEN aggregate(zip_with(vector, array({arr}), (x, y) -> x * y), 0D, (a, x) -> a + x) "
        f"ELSE raise_error(format_string("
        f"'q has {qb.size} dims but stored vector has %d', size(vector))) END"
    )


def topk_images(
    vec_df: DataFrame, q: np.ndarray, k: int, *, exclude_images: list[int] | None = None
) -> DataFrame:
    """Top-k *images*, scored as the max over their patch vectors (§4.3),
    ties broken by the lower ``image_id``.

    ``exclude_images`` drops already-shown images (the interactive loop's
    "unseen" constraint) before ranking.
    """
    score = _score_sql(q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if exclude_images:
        vec_df = vec_df.where(
            "image_id NOT IN (" + ", ".join(str(int(i)) for i in exclude_images) + ")"
        )
    return (
        vec_df.groupBy("image_id")
        .agg(F.expr(f"max({score}) AS score"))
        .orderBy(F.desc("score"), F.asc("image_id"))
        .limit(k)
    )
