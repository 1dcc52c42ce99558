"""Spark-parallel benchmark sweeps.

The accuracy benchmarks run thousands of independent interactive-search
loops: (dataset, representation, method, category) combinations. This module
runs a sweep as one Spark map: the tasks are dealt into one slice per core,
and each slice replays its searches' full 60-step feedback loops against a
broadcast bundle of the dataset's vectors, ground truth and precomputed
``M_D`` matrices. That keeps the per-round aligner solve O(feedback) (the
paper's interactivity property) while Spark provides the across-query
parallelism of the evaluation harness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines import EnsRanker, FewShotRanker, RocchioRanker, ZeroShotRanker
from repro.bench.loop import run_search
from repro.core.aligner import AlignerParams
from repro.core.seesaw import SeeSawSession
from repro.embed.clipsim import EmbeddedDataset
from repro.graph.knn import knn_graph_np
from repro.graph.laplacian import build_db_alignment, edge_weights


@dataclass
class DatasetBundle:
    """Everything one executor task needs for one dataset representation."""

    ds: EmbeddedDataset
    M: np.ndarray | None = None
    graph_idx: np.ndarray | None = None
    graph_w: np.ndarray | None = None
    calibrated_gamma: dict[int, np.ndarray] | None = None


def build_bundle(ds: EmbeddedDataset, *, with_graph: bool = False) -> DatasetBundle:
    """Preprocess a dataset: ``M_D`` (k = 10) and, optionally, the ENS kNN
    graph (k = 20)."""
    gi = gw = None
    if with_graph:
        gi, gd = knn_graph_np(ds.vectors, 20)
        gw, _ = edge_weights(gd)
    return DatasetBundle(
        ds=ds, M=build_db_alignment(ds.vectors, k=10), graph_idx=gi, graph_w=gw
    )


def make_ranker(method: str, params: dict[str, Any], bundle: DatasetBundle):
    """Instantiate a ranker by name. ``params`` are method-specific knobs;
    one that is absent takes the ranker's own default."""
    if method == "zeroshot":
        return ZeroShotRanker()
    if method == "fewshot":
        return FewShotRanker()
    if method == "rocchio":
        return RocchioRanker()
    if method == "seesaw":
        lams = {k: params[k] for k in ("lam", "lam_c", "lam_d") if k in params}
        ap = AlignerParams(**lams)
        M = bundle.M if ap.lam_d != 0 else None
        if ap.lam_d != 0 and M is None:
            raise ValueError("seesaw with lam_d != 0 requires a bundle with M")
        return SeeSawSession(ap, M=M)
    if method == "ens":
        if bundle.graph_idx is None:
            raise ValueError("ens requires a bundle with a kNN graph")
        gamma = None
        if params.get("calibrated"):
            if bundle.calibrated_gamma is None:
                raise ValueError("calibrated ens requires a bundle with calibrated_gamma")
            gamma = bundle.calibrated_gamma[int(params["cat"])]
        horizon = {"horizon": params["horizon"]} if "horizon" in params else {}
        return EnsRanker(bundle.graph_idx, bundle.graph_w, gamma=gamma, **horizon)
    raise KeyError(f"unknown method {method!r}")


def run_sweep(
    spark: SparkSession,
    bundles: dict[str, DatasetBundle],
    tasks: list[dict[str, Any]],
    *,
    target: int = 10,
    budget: int = 60,
) -> pd.DataFrame:
    """Execute benchmark tasks in parallel on Spark; returns a pandas frame
    with one row per task, in task order.

    Each task dict: ``{"bundle": name, "method": ..., "config": label,
    "params": {...}, "cat": int}``. ``bundles`` is broadcast once. Tasks go
    round-robin by position into ``min(len(tasks), defaultParallelism)``
    slices, and one Spark stage runs one task per slice, replaying its
    searches with numpy.
    """
    sc = spark.sparkContext
    n = min(len(tasks), sc.defaultParallelism) or 1
    numbered = list(enumerate(tasks))
    b_bundles = sc.broadcast(bundles)

    def run_slice(slice_):
        local = b_bundles.value
        for i, t in slice_:
            bundle, cat = local[t["bundle"]], int(t["cat"])
            ranker = make_ranker(t["method"], dict(t.get("params", {}), cat=cat), bundle)
            res = run_search(bundle.ds, cat, ranker, target=target, budget=budget)
            yield i, (
                t["bundle"],
                t["method"],
                t.get("config", t["method"]),
                cat,
                res.ap,
                res.n_found,
                res.n_shown,
                res.n_relevant_in_dataset,
            )

    try:
        slices = [numbered[s::n] for s in range(n)]
        rows = sc.parallelize(slices, n).flatMap(run_slice).collect()
    finally:
        b_bundles.unpersist()
    columns = ["bundle", "method", "config", "cat", "ap", "n_found", "n_shown", "n_relevant"]
    return pd.DataFrame([row for _, row in sorted(rows)], columns=columns)
