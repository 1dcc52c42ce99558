"""Table 6 — per-iteration system latency vs database size.

A greedy or ENS cell is one round of the search the accuracy tables run,
with the same rankers (``make_ranker``), feedback and pick: choose the next
unseen image, reveal its ground-truth feedback, update the ranker. The
search starts with category 0's first 5 relevant and 15 irrelevant images
shown. Per method:

- ``CLIP``    — a top-1 Spark store lookup excluding shown images.
- ``Rocchio`` — that lookup + the O(feedback) numpy query update.
- ``SeeSaw``  — that lookup + the L-BFGS solve of Eq. 5 (O(feedback),
  never O(N)).
- ``ENS``     — kNN-posterior + non-myopic lookahead over the *whole*
  database (O(N*k) numpy), the loop's pick (``best_unseen``) and the
  posterior update; marked NA at multiscale scale, as in the paper.
- ``prop.``   — label propagation over the kNN edge list as Spark joins
  (O(E) shuffle per iteration) + a top-10: the linear-in-N cost SeeSaw's
  ``M_D`` approximation removes.

Scales are 1/10 the paper's vector counts (DESIGN.md §2); the claim under
test is the *scaling shape*, not the absolute numbers. The databases are
``generate_world`` worlds; the kNN graph used by ENS/prop is random (k
neighbors per vector) and ``M_D`` a scaled identity: they affect result
quality, not per-iteration cost, which is all this table measures.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.bench.loop import best_unseen, image_feedback
from repro.bench.runner import DatasetBundle, make_ranker
from repro.core.linear import LinearRanker
from repro.embed.clipsim import WorldSpec, generate_world
from repro.graph.labelprop import label_propagation_spark
from repro.store.scan import topk_images

# (row label, #vectors, multiscale?) — 1/10 of the paper's Table 6 scales.
SCALES = [
    ("ObjNet-", 5_000, False),
    ("BDD-", 8_000, False),
    ("COCO-", 12_000, False),
    ("BDD", 160_000, True),
    ("COCO", 160_000, True),
]
METHODS = ["CLIP", "ENS", "Rocchio", "SeeSaw", "prop."]
# make_ranker's name for each method a search round times.
RANKERS = {"CLIP": "zeroshot", "ENS": "ens", "Rocchio": "rocchio", "SeeSaw": "seesaw"}
BUDGET = 60  # images per search (the paper's find-10-in-60 task)


@dataclass
class LatencyFixture:
    """One database scale: the dataset bundle and its tables on Spark."""

    multiscale: bool
    bundle: DatasetBundle
    vec_df: DataFrame
    edges_df: DataFrame


def build_fixture(
    spark: SparkSession, label: str, n_vectors: int, multiscale: bool
) -> LatencyFixture:
    """A synthetic world of ``n_vectors`` vectors (10 per image when
    multiscale), its store table and a random kNN graph."""
    per_img = 10 if multiscale else 1
    grid = (3, 3) if multiscale else (0, 0)
    ds = generate_world(
        WorldSpec(name=label, n_images=n_vectors // per_img, n_categories=20, d=64,
                  grid=grid, seed=0)
    )
    vec_df = ds.to_vector_df(spark).cache()
    vec_df.count()  # materialize so measurements exclude the build

    # Cheap synthetic kNN graph: random distinct-ish neighbors. Topology is
    # irrelevant to per-iteration cost (see module docstring).
    g = np.random.default_rng(0)
    k = 20
    idx = g.integers(0, ds.n_vectors, size=(ds.n_vectors, k)).astype(np.int64)
    w = g.random((ds.n_vectors, k)) * 0.5 + 0.25
    src = np.repeat(np.arange(ds.n_vectors, dtype=np.int64), k)
    edges = pd.DataFrame(
        {"src": src, "dst": idx.ravel(), "weight": w.ravel().astype(np.float64)}
    )
    edges_df = spark.createDataFrame(edges).cache()
    edges_df.count()

    M = np.eye(ds.spec.d) * 0.03  # magnitude-realistic stand-in; (d,d) like M_D
    bundle = DatasetBundle(ds, M=M, graph_idx=idx, graph_w=w)
    return LatencyFixture(multiscale, bundle, vec_df, edges_df)


def _time(fn, *, reps: int = 3) -> float:
    fn()  # untimed warmup: JIT/codegen/caching effects excluded
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


def measure_iteration(fix: LatencyFixture, method: str, *, reps: int = 3) -> float | None:
    """Median seconds for one round of ``method``'s search on this DB."""
    if method == "prop.":
        labeled = np.arange(20)
        labels = (labeled % 3 == 0).astype(np.float64)

        def step() -> None:
            scores = label_propagation_spark(
                fix.vec_df.sparkSession,
                fix.edges_df,
                labeled,
                labels,
                fix.bundle.ds.n_vectors,
                n_iter=3,
            )
            scores.orderBy(F.desc("score")).limit(10).collect()

        return _time(step, reps=reps)

    name = RANKERS[method]
    if method == "ENS" and fix.multiscale:
        return None  # NA in the paper: ENS is coarse-only
    ds = fix.bundle.ds
    ranker = make_ranker(name, {}, fix.bundle)
    ranker.reset(ds, ds.query_vecs[0].astype(np.float64))
    # Mid-search state: category 0's first relevant and irrelevant images.
    rel = ds.rel_image[0]
    shown = [*np.flatnonzero(rel)[:5].tolist(), *np.flatnonzero(~rel)[:15].tolist()]
    seen = np.zeros(ds.n_images, dtype=bool)
    for img in shown:
        ranker.observe(img, *image_feedback(ds, 0, img))
        seen[img] = True

    def step() -> None:
        if isinstance(ranker, LinearRanker):
            top = topk_images(fix.vec_df, ranker.query, 1, exclude_images=shown).collect()
            best = int(top[0]["image_id"])
        else:
            vscores = np.asarray(ranker.vector_scores(BUDGET - len(shown)), dtype=np.float64)
            best = best_unseen(ds, vscores, seen)
        seen[best] = True
        shown.append(best)
        ranker.observe(best, *image_feedback(ds, 0, best))

    return _time(step, reps=reps)


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
        fix.edges_df.unpersist()
    return pd.DataFrame(rows)
