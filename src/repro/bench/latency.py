"""Table 6 — per-iteration system latency vs database size.

One iteration of the interactive loop = (update the ranking model from the
feedback so far) + (one lookup into the vector store). Per method:

- ``CLIP``    — zero-shot: lookup only (the Spark scan store).
- ``Rocchio`` — O(feedback) numpy query update + lookup.
- ``SeeSaw``  — the L-BFGS solve of Eq. 5 (O(feedback), never O(N)) + lookup.
- ``ENS``     — kNN-posterior + non-myopic lookahead over the *whole*
  database (O(N*k) numpy) each step; marked NA at multiscale scale, as in
  the paper.
- ``prop.``   — label propagation over the kNN edge list as Spark joins
  (O(E) shuffle per iteration) + lookup: the linear-in-N cost SeeSaw's
  ``M_D`` approximation removes.

Scales are 1/10 the paper's vector counts (DESIGN.md §2); the claim under
test is the *scaling shape*, not the absolute numbers. The kNN graph used
by ENS/prop is a cheap synthetic graph (random k neighbors): graph topology
affects result quality, not per-iteration cost, which is all this table
measures.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.baselines.ens import EnsRanker
from repro.core.aligner import AlignerParams, QueryAligner
from repro.graph.labelprop import label_propagation_spark
from repro.store.scan import topk_images, vector_table

# (row label, #vectors, multiscale?) — 1/10 of the paper's Table 6 scales.
SCALES = [
    ("ObjNet-", 5_000, False),
    ("BDD-", 8_000, False),
    ("COCO-", 12_000, False),
    ("BDD", 160_000, True),
    ("COCO", 160_000, True),
]
METHODS = ["CLIP", "ENS", "Rocchio", "SeeSaw", "prop."]


@dataclass
class LatencyFixture:
    """One database scale: vectors on Spark + driver-side feedback state."""

    label: str
    n_vectors: int
    multiscale: bool
    vec_df: DataFrame
    edges_df: DataFrame | None
    graph_idx: np.ndarray
    graph_w: np.ndarray
    q0: np.ndarray
    X_fb: np.ndarray
    y_fb: np.ndarray
    M: np.ndarray


def _random_unit(g: np.random.Generator, n: int, d: int) -> np.ndarray:
    v = g.standard_normal((n, d)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def build_fixture(
    spark: SparkSession,
    label: str,
    n_vectors: int,
    multiscale: bool,
    *,
    d: int = 64,
    k: int = 20,
    n_feedback: int = 30,
    seed: int = 0,
) -> LatencyFixture:
    """Random vector DB of the requested size + synthetic kNN graph."""
    g = np.random.default_rng(seed)
    vecs = _random_unit(g, n_vectors, d)
    per_img = 10 if multiscale else 1
    pdf = pd.DataFrame(
        {
            "vec_id": np.arange(n_vectors, dtype=np.int64),
            "image_id": (np.arange(n_vectors) // per_img).astype(np.int64),
            "is_coarse": (np.arange(n_vectors) % per_img == 0),
            "vector": list(vecs.astype(np.float64)),
        }
    )
    vec_df = vector_table(spark, pdf).cache()
    vec_df.count()  # materialize so measurements exclude the build

    # Cheap synthetic kNN graph: random distinct-ish neighbors. Topology is
    # irrelevant to per-iteration cost (see module docstring).
    idx = g.integers(0, n_vectors, size=(n_vectors, k)).astype(np.int64)
    w = g.random((n_vectors, k)) * 0.5 + 0.25
    src = np.repeat(np.arange(n_vectors, dtype=np.int64), k)
    edges = pd.DataFrame(
        {"src": src, "dst": idx.ravel(), "weight": w.ravel().astype(np.float64)}
    )
    edges_df = spark.createDataFrame(edges).cache()
    edges_df.count()

    q0 = _random_unit(g, 1, d)[0].astype(np.float64)
    X_fb = _random_unit(g, n_feedback, d).astype(np.float64)
    y_fb = (g.random(n_feedback) < 0.3).astype(np.float64)
    M = np.eye(d) * 0.03  # magnitude-realistic stand-in; (d,d) like M_D
    return LatencyFixture(
        label, n_vectors, multiscale, vec_df, edges_df, idx, w, q0, X_fb, y_fb, M
    )


def _time(fn, *, reps: int = 3) -> float:
    fn()  # untimed warmup: JIT/codegen/caching effects excluded
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def measure_iteration(fix: LatencyFixture, method: str, *, reps: int = 3) -> float | None:
    """Median seconds for one loop iteration of ``method`` on this DB."""
    def lookup(q: np.ndarray) -> None:
        topk_images(fix.vec_df, q, 10).collect()

    if method == "CLIP":
        return _time(lambda: lookup(fix.q0), reps=reps)

    if method == "Rocchio":
        def step() -> None:
            pos = fix.X_fb[fix.y_fb > 0.5]
            neg = fix.X_fb[fix.y_fb <= 0.5]
            q = fix.q0 + 0.5 * pos.mean(axis=0) - 0.25 * neg.mean(axis=0)
            lookup(q / np.linalg.norm(q))

        return _time(step, reps=reps)

    if method == "SeeSaw":
        aligner = QueryAligner(AlignerParams(), M=fix.M)

        def step() -> None:
            q = aligner.align(fix.q0, fix.X_fb, fix.y_fb)
            lookup(q)

        return _time(step, reps=reps)

    if method == "ENS":
        if fix.multiscale:
            return None  # NA in the paper: ENS is coarse-only
        ranker = EnsRanker(fix.graph_idx, fix.graph_w, horizon=60)
        ranker.reset_scores(np.random.default_rng(1).random(fix.n_vectors) - 0.5)
        for v in range(20):  # some labeled state, as mid-search
            pos = [v] if v % 3 == 0 else []
            neg = [] if v % 3 == 0 else [v]
            ranker.observe(v, v % 3 == 0, np.array(pos), np.array(neg))

        def step() -> None:
            s = ranker.vector_scores(40)
            int(np.argmax(s))

        return _time(step, reps=reps)

    if method == "prop.":
        labeled = np.arange(20)
        labels = (labeled % 3 == 0).astype(np.float64)

        def step() -> None:
            scores = label_propagation_spark(
                fix.vec_df.sparkSession,
                fix.edges_df,
                labeled,
                labels,
                fix.n_vectors,
                n_iter=3,
            )
            scores.orderBy(F.desc("score")).limit(10).collect()

        return _time(step, reps=reps)

    raise KeyError(method)


def table6(spark: SparkSession, *, reps: int = 3, scales=None) -> pd.DataFrame:
    """Latency table: rows = database scales, columns = methods."""
    rows = []
    for i, (label, n, multi) in enumerate(scales or SCALES):
        fix = build_fixture(spark, label, n, multi)
        if i == 0:
            # One discarded pass warms the JVM (codegen, JIT), which the
            # per-cell warm-up call in _time does not do for the first row.
            measure_iteration(fix, "CLIP", reps=reps)
        row: dict[str, object] = {"dataset": label, "vectors": n}
        for m in METHODS:
            row[m] = measure_iteration(fix, m, reps=reps)
        rows.append(row)
        fix.vec_df.unpersist()
        if fix.edges_df is not None:
            fix.edges_df.unpersist()
    return pd.DataFrame(rows)
