"""Spark-parallel benchmark sweeps (the "feedback-driven re-ranking UDF").

The accuracy benchmarks run thousands of independent interactive-search
loops: (dataset, representation, method, category) combinations. This module
expresses the sweep as one Spark job: a DataFrame of task rows processed
with ``applyInPandas``; each task replays its full 60-step feedback loop
against a broadcast bundle of the dataset's vectors, ground truth and
precomputed ``M_D`` matrices. That keeps the per-round aligner solve
O(feedback) (the paper's interactivity property) while Spark provides the
across-query parallelism of the evaluation harness.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

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


def build_bundle(
    ds: EmbeddedDataset,
    *,
    with_m: bool = True,
    with_graph: bool = False,
    graph_k: int = 20,
    m_k: int = 10,
) -> DatasetBundle:
    """Preprocess a dataset: ``M_D`` and (optionally) the ENS kNN graph."""
    M = build_db_alignment(ds.vectors, k=m_k) if with_m else None
    gi = gw = None
    if with_graph:
        gi, gd = knn_graph_np(ds.vectors, graph_k)
        gw, _ = edge_weights(gd)
    return DatasetBundle(ds=ds, M=M, graph_idx=gi, graph_w=gw)


def make_ranker(method: str, params: dict[str, Any], bundle: DatasetBundle):
    """Instantiate a ranker by name. ``params`` are method-specific knobs."""
    if method == "zeroshot":
        return ZeroShotRanker()
    if method == "fewshot":
        return FewShotRanker(lam=params.get("lam", 100.0))
    if method == "rocchio":
        return RocchioRanker(
            alpha=params.get("alpha", 1.0),
            beta=params.get("beta", 0.5),
            gamma=params.get("gamma", 0.25),
        )
    if method == "seesaw":
        ap = AlignerParams(
            lam=params.get("lam", 100.0),
            lam_c=params.get("lam_c", 10.0),
            lam_d=params.get("lam_d", 1000.0),
        )
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
        return EnsRanker(
            bundle.graph_idx,
            bundle.graph_w,
            horizon=params.get("horizon", 60),
            gamma=gamma,
        )
    raise KeyError(f"unknown method {method!r}")


_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("bundle", T.StringType()),
        T.StructField("method", T.StringType()),
        T.StructField("config", T.StringType()),
        T.StructField("cat", T.IntegerType()),
        T.StructField("ap", T.DoubleType()),
        T.StructField("n_found", T.IntegerType()),
        T.StructField("n_shown", T.IntegerType()),
        T.StructField("n_relevant", T.IntegerType()),
    ]
)


def run_sweep(
    spark: SparkSession,
    bundles: dict[str, DatasetBundle],
    tasks: list[dict[str, Any]],
    *,
    target: int = 10,
    budget: int = 60,
) -> pd.DataFrame:
    """Execute benchmark tasks in parallel on Spark; returns a pandas frame.

    Each task dict: ``{"bundle": name, "method": ..., "config": label,
    "params": {...}, "cat": int}``. ``bundles`` is broadcast once; each
    ``applyInPandas`` group replays its searches with numpy and returns AP
    rows. Tasks go round-robin by position into ``4 * defaultParallelism``
    groups; adaptive query execution may coalesce the groups into fewer
    Spark tasks.
    """
    sc = spark.sparkContext
    b_bundles = sc.broadcast(bundles)
    rows = pd.DataFrame(
        {
            "task_id": range(len(tasks)),
            "bundle": [t["bundle"] for t in tasks],
            "method": [t["method"] for t in tasks],
            "config": [t.get("config", t["method"]) for t in tasks],
            "cat": [int(t["cat"]) for t in tasks],
            "params": [json.dumps(t.get("params", {})) for t in tasks],
            "group": [i % (sc.defaultParallelism * 4) for i in range(len(tasks))],
        }
    )
    tasks_df = spark.createDataFrame(rows)

    def run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        local = b_bundles.value
        out = []
        for r in pdf.itertuples(index=False):
            bundle = local[r.bundle]
            params = json.loads(r.params)
            params = dict(params, cat=int(r.cat))
            ranker = make_ranker(r.method, params, bundle)
            res = run_search(
                bundle.ds, int(r.cat), ranker, target=target, budget=budget
            )
            out.append(
                (
                    r.bundle,
                    r.method,
                    r.config,
                    int(r.cat),
                    res.ap,
                    res.n_found,
                    res.n_shown,
                    res.n_relevant_in_dataset,
                )
            )
        return pd.DataFrame(out, columns=[f.name for f in _RESULT_SCHEMA.fields])

    result = (
        tasks_df.groupBy("group")
        .applyInPandas(run_group, schema=_RESULT_SCHEMA)
        .toPandas()
    )
    b_bundles.unpersist()
    return result
