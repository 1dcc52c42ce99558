"""Experiment drivers that regenerate the paper's evaluation tables.

Each ``tableN`` function builds the dataset bundles, enumerates the search
tasks, runs them through the Spark sweep runner, and returns a tidy pandas
frame shaped like the paper's table (plus a ``hard`` variant where the
paper reports one). The hard subset of a dataset is defined exactly as in
§5.1: categories whose *coarse zero-shot* AP is below .5.

Paper reference numbers are stored alongside in :data:`PAPER` so jobs can
print paper-vs-measured tables into EXPERIMENTS.md fragments.
"""
from __future__ import annotations

from typing import Any

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.ens import platt_scale
from repro.bench.runner import DatasetBundle, build_bundle, run_sweep
from repro.core.loss import sigmoid
from repro.embed.datasets import DATASET_NAMES, build_dataset

# Paper-reported mAP numbers (Tables 2, 3, 4) for side-by-side printing.
PAPER: dict[str, Any] = {
    "table2_all": {
        "zero-shot CLIP": [0.63, 0.64, 0.90, 0.74, 0.72],
        "+multiscale": [0.70, 0.64, 0.95, 0.76, 0.76],
        "+few-shot CLIP": [0.67, 0.59, 0.87, 0.68, 0.70],
        "+Query align": [0.75, 0.69, 0.96, 0.77, 0.79],
        "+DB align": [0.76, 0.70, 0.96, 0.79, 0.80],
    },
    "table2_hard": {
        "zero-shot CLIP": [0.19, 0.28, 0.27, 0.02, 0.19],
        "+multiscale": [0.32, 0.28, 0.58, 0.10, 0.32],
        "+few-shot CLIP": [0.34, 0.28, 0.57, 0.07, 0.31],
        "+Query align": [0.42, 0.39, 0.74, 0.20, 0.44],
        "+DB align": [0.44, 0.40, 0.75, 0.24, 0.46],
    },
    "table3_all": {
        "zero-shot CLIP": [0.63, 0.64, 0.90, 0.74, 0.72],
        "few-shot CLIP": [0.65, 0.58, 0.88, 0.73, 0.71],
        "ENS": [0.50, 0.43, 0.86, 0.70, 0.62],
        "Rocchio": [0.68, 0.70, 0.93, 0.75, 0.76],
        "this work": [0.69, 0.70, 0.92, 0.76, 0.77],
    },
    "table3_hard": {
        "zero-shot CLIP": [0.19, 0.28, 0.27, 0.02, 0.19],
        "few-shot CLIP": [0.25, 0.28, 0.32, 0.06, 0.23],
        "ENS": [0.16, 0.24, 0.37, 0.03, 0.20],
        "Rocchio": [0.28, 0.38, 0.49, 0.05, 0.30],
        "this work": [0.30, 0.40, 0.55, 0.07, 0.33],
    },
    # Table 4 in the paper prints only the t=2 column legibly (0.62 raw /
    # 0.65 calibrated, averaged over datasets); the text adds that mAP
    # "degrades sharply" with t for raw gamma and less sharply calibrated.
    "table4": {"raw t=2": 0.62, "calibrated t=2": 0.65},
    # Table 5 annotation seconds per image (means +/- 95% CI).
    "table5": {
        ("baseline", "not marked"): (1.98, 0.10),
        ("baseline", "marked relevant"): (3.00, 0.28),
        ("seesaw", "not marked"): (2.40, 0.19),
        ("seesaw", "marked relevant"): (4.40, 0.45),
    },
    # Table 6 latency seconds/iteration at paper vector counts.
    "table6": {
        "ObjNet-": {"vectors": "50K", "CLIP": 0.11, "ENS": 0.10, "Rocchio": 0.14, "SeeSaw": 0.27, "prop.": 0.83},
        "BDD-": {"vectors": "80K", "CLIP": 0.09, "ENS": 0.11, "Rocchio": 0.10, "SeeSaw": 0.23, "prop.": 0.90},
        "COCO-": {"vectors": "120K", "CLIP": 0.10, "ENS": 0.22, "Rocchio": 0.16, "SeeSaw": 0.34, "prop.": 1.11},
        "BDD": {"vectors": "1.6M", "CLIP": 0.13, "ENS": None, "Rocchio": 0.16, "SeeSaw": 0.34, "prop.": 2.95},
        "COCO": {"vectors": "1.6M", "CLIP": 0.14, "ENS": None, "Rocchio": 0.23, "SeeSaw": 0.47, "prop.": 2.88},
    },
    # Table 7 hyperparameter grid: (lam_c, lam_D, lam) -> per-dataset AP.
    "table7": [
        (3, 300, 100, [0.78, 0.96, 0.76, 0.68, 0.80]),
        (3, 1000, 100, [0.77, 0.97, 0.77, 0.68, 0.80]),
        (3, 3000, 100, [0.77, 0.96, 0.76, 0.63, 0.78]),
        (10, 300, 100, [0.78, 0.96, 0.75, 0.69, 0.80]),
        (10, 1000, 30, [0.79, 0.96, 0.76, 0.70, 0.80]),
        (10, 1000, 100, [0.79, 0.96, 0.76, 0.70, 0.80]),
        (10, 1000, 300, [0.79, 0.96, 0.76, 0.70, 0.80]),
        (10, 3000, 100, [0.79, 0.97, 0.77, 0.69, 0.80]),
        (30, 300, 100, [0.77, 0.96, 0.73, 0.68, 0.79]),
        (30, 1000, 100, [0.77, 0.96, 0.74, 0.69, 0.79]),
        (30, 3000, 100, [0.77, 0.96, 0.74, 0.69, 0.79]),
    ],
}

DATASET_ORDER = ["lvis", "objectnet", "coco", "bdd"]


def _bundles_for(
    names: tuple[str, ...],
    scale: str,
    *,
    coarse: bool,
    multiscale: bool,
    with_graph: bool = False,
) -> dict[str, DatasetBundle]:
    out: dict[str, DatasetBundle] = {}
    for name in names:
        ds = build_dataset(name, scale)
        if coarse:
            out[f"{name}:coarse"] = build_bundle(
                ds.coarse_only(), with_graph=with_graph
            )
        if multiscale:
            out[f"{name}:multi"] = build_bundle(ds)
    return out


def _agg(
    res: pd.DataFrame, hard_sets: dict[str, np.ndarray]
) -> pd.DataFrame:
    """Aggregate per-search APs into all/hard mAP per (dataset, config)."""
    rows = []
    for (bundle, config), grp in res.groupby(["bundle", "config"], sort=False):
        name = bundle.split(":")[0]
        hard = hard_sets[name]
        aps = grp.set_index("cat")["ap"]
        hard_aps = aps[aps.index.map(lambda c: bool(hard[c]))]
        rows.append(
            {
                "dataset": name,
                "config": config,
                "map_all": float(aps.mean()),
                "map_hard": float(hard_aps.mean()) if len(hard_aps) else np.nan,
                "n_queries": len(aps),
                "n_hard": int(hard.sum()),
            }
        )
    return pd.DataFrame(rows)


def hard_subsets(res_zero_coarse: pd.DataFrame) -> dict[str, np.ndarray]:
    """Hard subset per dataset from the coarse zero-shot rows (AP < .5)."""
    out: dict[str, np.ndarray] = {}
    for bundle, grp in res_zero_coarse.groupby("bundle"):
        name = bundle.split(":")[0]
        n_cat = int(grp["cat"].max()) + 1
        hard = np.zeros(n_cat, dtype=bool)
        for r in grp.itertuples(index=False):
            hard[r.cat] = r.ap < 0.5
        out[name] = hard
    return out


def _tasks(
    bundles: dict[str, DatasetBundle],
    configs: list[tuple[str, str, dict[str, Any], str]],
) -> list[dict[str, Any]]:
    """Cross every (bundle-suffix, method, params, label) with categories."""
    tasks = []
    for bname, method, params, label in configs:
        n_cat = bundles[bname].ds.n_categories
        for c in range(n_cat):
            tasks.append(
                {
                    "bundle": bname,
                    "method": method,
                    "config": label,
                    "params": params,
                    "cat": c,
                }
            )
    return tasks


def _sweep_and_agg(
    spark: SparkSession,
    bundles: dict[str, DatasetBundle],
    configs: list[tuple[str, str, dict[str, Any], str]],
) -> pd.DataFrame:
    """Run every search of ``configs`` and aggregate all/hard mAP; the hard
    subsets come from the sweep's coarse zero-shot rows."""
    res = run_sweep(spark, bundles, _tasks(bundles, configs))
    return _agg(res, hard_subsets(res[res["config"] == "zero-shot CLIP"]))


def table2(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """Table 2: the optimization-ablation stack, all + hard mAP."""
    bundles = _bundles_for(DATASET_NAMES, scale, coarse=True, multiscale=True)
    configs: list[tuple[str, str, dict[str, Any], str]] = []
    for name in DATASET_NAMES:
        c, m = f"{name}:coarse", f"{name}:multi"
        configs += [
            (c, "zeroshot", {}, "zero-shot CLIP"),
            (m, "zeroshot", {}, "+multiscale"),
            (m, "fewshot", {}, "+few-shot CLIP"),
            (m, "seesaw", {"lam_d": 0}, "+Query align"),
            (m, "seesaw", {}, "+DB align"),
        ]
    return _sweep_and_agg(spark, bundles, configs)


def table3(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """Table 3: baseline comparison, coarse representation only."""
    bundles = _bundles_for(
        DATASET_NAMES, scale, coarse=True, multiscale=False, with_graph=True
    )
    configs: list[tuple[str, str, dict[str, Any], str]] = []
    for name in DATASET_NAMES:
        c = f"{name}:coarse"
        configs += [
            (c, "zeroshot", {}, "zero-shot CLIP"),
            (c, "fewshot", {}, "few-shot CLIP"),
            (c, "ens", {"horizon": 60}, "ENS"),
            (c, "rocchio", {}, "Rocchio"),
            (c, "seesaw", {}, "this work"),
        ]
    return _sweep_and_agg(spark, bundles, configs)


def _attach_calibrated_gamma(bundle: DatasetBundle) -> None:
    """Oracle Platt calibration of zero-shot scores per category (§5.4)."""
    ds = bundle.ds
    gam: dict[int, np.ndarray] = {}
    for c in range(ds.n_categories):
        s0 = (ds.vectors @ ds.query_vecs[c]).astype(np.float64)
        y = ds.rel_image[c][ds.image_of]
        a, b = platt_scale(s0, y)
        gam[c] = np.clip(sigmoid(a * s0 + b), 1e-6, 1 - 1e-6)
    bundle.calibrated_gamma = gam


def table4(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """Table 4: ENS horizon x gamma-calibration sensitivity (dataset avg)."""
    bundles = _bundles_for(
        DATASET_NAMES, scale, coarse=True, multiscale=False, with_graph=True
    )
    for b in bundles.values():
        _attach_calibrated_gamma(b)
    configs: list[tuple[str, str, dict[str, Any], str]] = []
    for name in DATASET_NAMES:
        c = f"{name}:coarse"
        configs.append((c, "zeroshot", {}, "zero-shot CLIP"))
        for t in (1, 2, 10, 60):
            configs.append((c, "ens", {"horizon": t}, f"raw t={t}"))
            configs.append(
                (c, "ens", {"horizon": t, "calibrated": True}, f"calibrated t={t}")
            )
    return _sweep_and_agg(spark, bundles, configs)


def table7(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """Table 7: SeeSaw AP over the paper's (lam_c, lam_D, lam) grid."""
    bundles = _bundles_for(DATASET_NAMES, scale, coarse=True, multiscale=True)
    configs: list[tuple[str, str, dict[str, Any], str]] = []
    for name in DATASET_NAMES:
        c, m = f"{name}:coarse", f"{name}:multi"
        configs.append((c, "zeroshot", {}, "zero-shot CLIP"))
        for lam_c, lam_d, lam, _paper in PAPER["table7"]:
            configs.append(
                (
                    m,
                    "seesaw",
                    {"lam": lam, "lam_c": lam_c, "lam_d": lam_d},
                    f"lc={lam_c} ld={lam_d} l={lam}",
                )
            )
    return _sweep_and_agg(spark, bundles, configs)


def pivot(
    agg: pd.DataFrame, value: str = "map_all", order: list[str] | None = None
) -> pd.DataFrame:
    """Paper-shaped pivot: configs as rows, datasets as columns, + avg.

    ``order`` fixes the row order (defaults to the paper's Table 2/3 stack
    order for configs that match, first-seen order otherwise).
    """
    wide = agg.pivot_table(
        index="config", columns="dataset", values=value, sort=False
    )
    default_order = [
        "zero-shot CLIP",
        "+multiscale",
        "+few-shot CLIP",
        "+Query align",
        "+DB align",
        "few-shot CLIP",
        "ENS",
        "Rocchio",
        "this work",
    ]
    order = order or [c for c in default_order if c in wide.index] + [
        c for c in wide.index if c not in default_order
    ]
    wide = wide.reindex(order)
    wide = wide[[d for d in DATASET_ORDER if d in wide.columns]]
    wide["avg"] = wide.mean(axis=1)
    return wide.round(3)
