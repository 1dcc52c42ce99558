"""The four evaluation-dataset analogs (paper §5.1).

Each spec mirrors the *structural* properties of its namesake that drive the
paper's results (DESIGN.md §2):

- **lvis**: many categories, many small/secondary objects per image →
  lowest zero-shot mAP, multiscale helps, long hard tail.
- **objectnet**: single centred object per fixed-size (224²) image → no
  patches, multiscale is a no-op; hardness comes purely from query-alignment
  deficit across many categories.
- **coco**: same image style as LVIS but queries are the prominent objects
  → high zero-shot mAP, thin hard tail.
- **bdd**: few classes from driving scenes; frequent classes are easy,
  rare classes ("wheelchair") are tiny objects in large images → near-zero
  zero-shot AP on the hard subset, biggest multiscale payoff.

``scale`` selects sizes: ``test`` (tiny, for unit tests) or ``bench``
(~1/10 of paper category counts; see DESIGN.md §6).
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

from repro.embed.clipsim import EmbeddedDataset, WorldSpec, generate_world

DATASET_NAMES = ("lvis", "objectnet", "coco", "bdd")

DATASET_SPECS: dict[str, WorldSpec] = {
    "lvis": WorldSpec(
        name="lvis",
        n_images=2000,
        n_categories=100,
        grid=(2, 3),
        seed=101,
        objects_per_image=3.5,
        cat_freq_alpha=1.05,
        align_noise=0.34,
        align_tail_noise=1.8,
        align_tail_frac=0.35,
        locality_noise=0.35,
        bg_weight=0.6,
        size_lo=0.04,
        size_hi=0.60,
        n_families=20,
        family_mix=0.5,
        query_family_drift=1.0,
        patch_gain=1.5,
        patch_noise=0.35,
    ),
    "objectnet": WorldSpec(
        name="objectnet",
        n_images=1500,
        n_categories=60,
        grid=(0, 0),
        seed=202,
        objects_per_image=1.0,
        cat_freq_alpha=0.4,
        align_noise=0.45,
        align_tail_noise=3.2,
        align_tail_frac=0.55,
        locality_noise=0.50,
        bg_weight=0.75,
        size_lo=0.55,
        size_hi=0.95,
        n_families=8,
        family_mix=0.45,
        query_family_drift=1.2,
    ),
    "coco": WorldSpec(
        name="coco",
        n_images=2000,
        n_categories=40,
        grid=(2, 3),
        seed=303,
        objects_per_image=2.5,
        cat_freq_alpha=0.8,
        align_noise=0.25,
        align_tail_noise=2.2,
        align_tail_frac=0.15,
        locality_noise=0.30,
        bg_weight=0.55,
        size_lo=0.20,
        size_hi=0.90,
        n_families=10,
        family_mix=0.55,
        query_family_drift=1.0,
        patch_gain=1.6,
        patch_noise=0.35,
    ),
    "bdd": WorldSpec(
        name="bdd",
        n_images=2000,
        n_categories=12,
        grid=(3, 5),
        seed=404,
        objects_per_image=2.5,
        cat_freq_alpha=1.9,
        align_noise=0.22,
        align_tail_noise=1.8,
        align_tail_frac=0.30,
        locality_noise=0.35,
        bg_weight=0.80,
        size_lo=0.02,
        size_hi=0.50,
        min_positives=4,
        n_families=4,
        family_mix=0.5,
        query_family_drift=1.0,
        patch_gain=5.0,
        patch_noise=0.35,
        tail_on_rarest=True,
        tail_size_factor=0.3,
    ),
}

_TEST_OVERRIDES = dict(n_images=220, d=32)
_TEST_CATEGORIES = {"lvis": 16, "objectnet": 12, "coco": 10, "bdd": 6}


@lru_cache(maxsize=None)
def build_dataset(name: str, scale: str = "bench") -> EmbeddedDataset:
    """Build (and memoize) one of the four datasets at ``test``/``bench`` scale."""
    if name not in DATASET_SPECS:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(DATASET_SPECS)}")
    spec = DATASET_SPECS[name]
    if scale == "test":
        spec = replace(
            spec,
            n_categories=_TEST_CATEGORIES[name],
            **_TEST_OVERRIDES,
        )
    elif scale != "bench":
        raise ValueError(f"scale must be 'test' or 'bench', got {scale!r}")
    return generate_world(spec)
