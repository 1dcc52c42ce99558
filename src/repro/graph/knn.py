"""k-nearest-neighbor graph construction.

The paper uses NN-descent (approximate) because CLIP databases are large; at
our scales an exact blocked brute-force build is affordable and removes one
source of noise, so both builds are exact and share one row-block kernel:
``knn_graph_np`` runs it over blocks of rows in this process, and
``knn_graph_spark`` broadcasts the vector matrix and runs it on each
partition of query rows (mapInPandas).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T


def _points(X: np.ndarray, k: int) -> np.ndarray:
    """``X`` as float32 rows; rejects ``k >= N`` and non-finite values
    (which would yield NaN distances)."""
    X = np.asarray(X, dtype=np.float32)
    n = X.shape[0]
    if k >= n:
        raise ValueError(f"k={k} must be < n={n}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite vector(s), first at row {bad[0]}")
    return X


def _knn_rows(
    X: np.ndarray, sq: np.ndarray, rows: slice | np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The row-block kernel: the ``k`` nearest other rows of ``X`` to each
    row in ``rows``, as ``(indices, dists)`` sorted by ascending distance.
    ``sq`` holds the squared norms of ``X``'s rows. Pass a slice where
    possible: it keeps ``X[rows]`` a view, so a block spanning all of ``X``
    takes numpy's symmetric ``X @ X.T`` routine, whose rounding (pinned by
    the golden searches) differs from the general product's."""
    ids = np.arange(X.shape[0])[rows]
    d2 = sq[rows, None] - 2.0 * (X[rows] @ X.T) + sq[None, :]
    d2[np.arange(ids.size), ids] = np.inf  # no self-loop
    part = np.argpartition(d2, k, axis=1)[:, :k]
    pd2 = np.take_along_axis(d2, part, axis=1)
    order = np.argsort(pd2, axis=1)
    nbr = np.take_along_axis(part, order, axis=1)
    dist = np.sqrt(np.maximum(np.take_along_axis(pd2, order, axis=1), 0.0))
    return nbr, dist


def knn_graph_np(
    X: np.ndarray, k: int, *, block: int = 2048
) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN by squared Euclidean distance, excluding self.

    Returns ``(indices, dists)`` of shapes (N, k): ``indices[i]`` are the k
    nearest rows to row i (ascending distance), ``dists[i]`` the Euclidean
    distances.
    """
    X = _points(X, k)
    n = X.shape[0]
    sq = (X * X).sum(axis=1)
    idx_out = np.empty((n, k), dtype=np.int32)
    d_out = np.empty((n, k), dtype=np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        idx_out[lo:hi], d_out[lo:hi] = _knn_rows(X, sq, slice(lo, hi), k)
    return idx_out, d_out


def knn_graph_spark(
    spark: SparkSession, X: np.ndarray, k: int, *, n_partitions: int | None = None
) -> DataFrame:
    """Exact kNN graph as a Spark edge DataFrame ``(src, dst, dist, rank)``.

    The full (N, d) float32 matrix is broadcast (tens of MB at our scales);
    each partition runs the row-block kernel on its slice of query ids.
    """
    X = _points(X, k)
    n = X.shape[0]
    bX = spark.sparkContext.broadcast(X)
    n_partitions = n_partitions or spark.sparkContext.defaultParallelism
    ids = spark.range(0, n, 1, n_partitions)

    schema = T.StructType(
        [
            T.StructField("src", T.LongType()),
            T.StructField("dst", T.LongType()),
            T.StructField("dist", T.DoubleType()),
            T.StructField("rank", T.IntegerType()),
        ]
    )

    def score(batches):
        Xl = bX.value
        sq = (Xl * Xl).sum(axis=1)
        for pdf in batches:
            q = pdf["id"].to_numpy()
            if q.size == 0:
                continue
            nbr, dist = _knn_rows(Xl, sq, q, k)
            yield pd.DataFrame(
                {
                    "src": np.repeat(q, k),
                    "dst": nbr.ravel().astype(np.int64),
                    "dist": dist.ravel().astype(np.float64),
                    "rank": np.tile(np.arange(k, dtype=np.int32), q.size),
                }
            )

    return ids.mapInPandas(score, schema=schema)


def edges_to_arrays(edges_pdf: pd.DataFrame, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Convert a collected Spark edge frame back to (N, k) index/dist arrays."""
    e = edges_pdf.sort_values(["src", "rank"])
    idx = e["dst"].to_numpy().reshape(n, k).astype(np.int32)
    dist = e["dist"].to_numpy().reshape(n, k).astype(np.float32)
    return idx, dist
