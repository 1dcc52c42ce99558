"""Generative model of a CLIP-like visual-semantic embedding space.

The real SeeSaw embeds images (and image patches) and query strings with
CLIP. Here we *generate* the vectors directly from a latent world model so
that the two failure modes the paper studies are explicit, controllable
knobs:

- **query-alignment deficit** (§1, Fig. 2a): the text embedding of category
  ``c`` is its true direction ``u_c`` perturbed by a per-category noise
  angle drawn from a dataset-specific distribution (small for most
  categories, large for a tail — producing Figure-1-shaped zero-shot AP
  distributions).
- **concept-locality** (§1, Fig. 2b): patch vectors of category ``c`` are
  ``u_c`` plus isotropic noise of scale ``spec.locality_noise`` mixed with a
  per-image background direction — categories stay linearly separable
  (Fig. 4's premise) but are not a single point.
- **multiscale dilution** (§4.3): an image's *coarse* vector is the
  size-weighted sum of its object vectors plus a background term,
  normalized. A small object is drowned out in the coarse vector but shows
  up cleanly in the vector of the grid patch that contains it — exactly the
  mechanism that makes the paper's multiscale representation help.

Everything is deterministic in ``spec.seed``.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class WorldSpec:
    """Knobs of one synthetic dataset (one per LVIS/ObjNet/COCO/BDD analog).

    ``grid`` is the (rows, cols) patch tiling of each image *in addition to*
    the coarse full-image vector; ``(0, 0)`` means single-vector images
    (ObjectNet-like 224x224 inputs, where multiscale is a no-op).
    ``cat_freq_alpha`` is the Zipf exponent of category frequency — larger
    means rarer tail categories. ``align_noise`` / ``align_tail_noise`` are
    the alignment-deficit scales for head vs tail-of-deficit categories, and
    ``align_tail_frac`` the fraction of categories in that deficit tail.
    ``size_lo/size_hi`` bound object sizes (fraction of image area the
    object covers — drives coarse-vector dilution).
    """

    name: str = "synthetic"
    n_images: int = 500
    n_categories: int = 20
    d: int = 64
    grid: tuple[int, int] = (2, 3)
    seed: int = 0
    objects_per_image: float = 2.0  # Poisson mean (min 1)
    cat_freq_alpha: float = 1.1
    align_noise: float = 0.35
    align_tail_noise: float = 1.6
    align_tail_frac: float = 0.25
    locality_noise: float = 0.30
    bg_weight: float = 0.55
    size_lo: float = 0.05
    size_hi: float = 0.9
    n_background: int = 12
    min_positives: int = 3
    # Category-similarity structure: categories are grouped into families
    # sharing a base direction (wheelchair ~ bicycle ~ motorcycle). A
    # misaligned query then retrieves *sibling* content first — the realistic
    # CLIP failure mode — instead of drifting into empty space.
    n_families: int = 0  # 0 -> independent categories
    family_mix: float = 0.0  # weight of the family base inside u_c
    query_family_drift: float = 0.0  # how much query noise points at the family base
    # Patch quality: how strongly an object of size s fills its own patch
    # (relative to coarse dilution), and patch-level clutter noise. These
    # bound how much the multiscale representation can recover.
    patch_gain: float = 2.0
    patch_noise: float = 0.30
    # If True, the alignment-deficit tail hits the *rarest* categories (the
    # BDD situation: wheelchairs are both rare and poorly aligned); if False
    # the tail is a random subset of categories.
    tail_on_rarest: bool = False
    # Object-size multiplier for tail categories (<1 -> the poorly-aligned
    # categories are also *tiny*, the BDD wheelchair situation: invisible in
    # the coarse vector but still filling their own patch).
    tail_size_factor: float = 1.0
    # The coarse (full-image) vector counts as *positive* region feedback
    # only if the object covers at least this fraction of the image; below
    # it the coarse vector is excluded from feedback for relevant images
    # (it is visually all background). Fine patches containing the object
    # are always positive; patches without it always negative.
    coarse_pos_min_size: float = 0.15


@dataclass
class EmbeddedDataset:
    """An embedded image dataset, ready for search.

    Arrays (all numpy, float32 vectors are unit-norm rows):

    - ``vectors``: (V, d) — all indexed vectors (coarse + patches).
    - ``image_of``: (V,) int32 — owning image of each vector.
    - ``is_coarse``: (V,) bool — True for the full-image vector.
    - ``query_vecs``: (C, d) — the "CLIP text embedding" of each category.
    - ``rel_image``: (C, n_images) bool — ground-truth image relevance.
    - ``rel_vec``: list of C sorted int arrays — vector indices that count
      as positive region feedback for the category (object-containing
      patches plus the coarse vector, which the full-image box always
      overlaps).
    - ``ideal_vecs``: (C, d) — the true latent category directions ``u_c``
      (used only for analysis tests, never by search methods).
    """

    spec: WorldSpec
    vectors: np.ndarray
    image_of: np.ndarray
    is_coarse: np.ndarray
    query_vecs: np.ndarray
    rel_image: np.ndarray
    rel_vec: list[np.ndarray]
    ideal_vecs: np.ndarray
    cat_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for c, rel in enumerate(self.rel_vec):
            if np.any(np.diff(rel) <= 0):
                raise ValueError(f"rel_vec[{c}] is not sorted and unique")

    @cached_property
    def one_vector_per_image(self) -> bool:
        """True when vector ``i`` is image ``i``'s only vector (``image_of``
        is the identity), as in every coarse dataset."""
        return self.n_vectors == self.n_images and bool(
            np.array_equal(self.image_of, np.arange(self.n_images))
        )

    @property
    def n_images(self) -> int:
        return self.spec.n_images

    @property
    def n_categories(self) -> int:
        return self.query_vecs.shape[0]

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    def coarse_only(self) -> "EmbeddedDataset":
        """A view of the dataset with only the coarse (full-image) vectors.

        This is the representation the paper calls "coarse indexing" (the
        ``-`` rows of Table 6, and all of Table 3).
        """
        keep = np.flatnonzero(self.is_coarse)
        # In coarse indexing the whole image is the region example, so the
        # coarse vector of every relevant image is positive feedback
        # (rebuilt from image-level ground truth, not remapped from the
        # multiscale rule, which may have excluded small-object coarse vecs).
        img_to_new = {int(self.image_of[v]): i for i, v in enumerate(keep)}
        rel_vec = [
            np.fromiter(
                sorted(img_to_new[int(im)] for im in np.flatnonzero(self.rel_image[c])),
                dtype=np.int32,
            )
            for c in range(self.n_categories)
        ]
        return EmbeddedDataset(
            spec=replace(self.spec, grid=(0, 0)),
            vectors=self.vectors[keep],
            image_of=self.image_of[keep],
            is_coarse=self.is_coarse[keep],
            query_vecs=self.query_vecs,
            rel_image=self.rel_image,
            rel_vec=rel_vec,
            ideal_vecs=self.ideal_vecs,
            cat_names=list(self.cat_names),
        )

    def to_vector_pdf(self) -> pd.DataFrame:
        """The vector database as a pandas frame (for Spark/DuckDB)."""
        return pd.DataFrame(
            {
                "vec_id": np.arange(self.n_vectors, dtype=np.int64),
                "image_id": self.image_of.astype(np.int64),
                "is_coarse": self.is_coarse.astype(bool),
                # Python lists: Spark's non-Arrow conversion rejects numpy rows.
                "vector": self.vectors.astype(np.float64).tolist(),
            }
        )

    def to_vector_df(self, spark):
        """The vector database as the store's Spark table, hash-partitioned
        by ``image_id`` (see :func:`repro.store.scan.vector_table`)."""
        from repro.store.scan import vector_table

        return vector_table(spark, self.to_vector_pdf())


def _unit_rows(a: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(a, axis=-1, keepdims=True)
    n[n == 0] = 1.0
    return a / n


def _unit_noise(g: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Random unit-norm direction(s) — noise scales in the spec are therefore
    tangents of perturbation angles, independent of the dimension ``d``."""
    return _unit_rows(g.standard_normal(shape))


def generate_world(spec: WorldSpec) -> EmbeddedDataset:
    """Generate an :class:`EmbeddedDataset` from a :class:`WorldSpec`.

    Deterministic in ``spec.seed``; every category is guaranteed at least
    ``spec.min_positives`` relevant images (injected if the Zipf draw left a
    category empty — mirrors each benchmark category having >=1 labeled
    example).
    """
    g = np.random.default_rng(spec.seed)
    C, d, N = spec.n_categories, spec.d, spec.n_images
    u_unique = _unit_rows(g.standard_normal((C, d)))
    if spec.n_families > 0 and spec.family_mix > 0.0:
        fam_of = g.integers(0, spec.n_families, C)
        fam_base = _unit_rows(g.standard_normal((spec.n_families, d)))
        u = _unit_rows(
            (1.0 - spec.family_mix) * u_unique + spec.family_mix * fam_base[fam_of]
        )
    else:
        fam_of = np.zeros(C, dtype=np.int64)
        fam_base = np.zeros((1, d))
        u = u_unique
    bg_dirs = _unit_rows(g.standard_normal((spec.n_background, d)))

    # Category frequency: Zipf over a random category order so "hard" and
    # "frequent" are independent draws.
    ranks = np.arange(1, C + 1, dtype=np.float64)
    freq = 1.0 / ranks**spec.cat_freq_alpha
    freq /= freq.sum()
    freq = g.permutation(freq)

    # Alignment-deficit tail membership (needed below for tail_size_factor).
    if spec.tail_on_rarest:
        n_tail = max(1, int(round(spec.align_tail_frac * C)))
        tail = np.zeros(C, dtype=bool)
        tail[np.argsort(freq)[:n_tail]] = True
    else:
        tail = g.random(C) < spec.align_tail_frac

    # --- Draw objects for each image -------------------------------------
    n_obj = np.maximum(1, g.poisson(spec.objects_per_image, N))
    total_objs = int(n_obj.sum())
    obj_img = np.repeat(np.arange(N, dtype=np.int32), n_obj)
    obj_cat = g.choice(C, size=total_objs, p=freq).astype(np.int32)
    # Guarantee min_positives images per category.
    counts = np.bincount(obj_cat, minlength=C)
    for c in np.flatnonzero(counts < spec.min_positives):
        need = spec.min_positives - counts[c]
        take = g.choice(total_objs, size=need, replace=False)
        obj_cat[take] = c
    obj_size = g.uniform(spec.size_lo, spec.size_hi, total_objs)
    if spec.tail_size_factor != 1.0:
        obj_size = np.where(
            tail[obj_cat], obj_size * spec.tail_size_factor, obj_size
        )
    rows, cols = spec.grid
    n_cells = rows * cols
    obj_cell = (
        g.integers(0, n_cells, total_objs) if n_cells > 0 else np.zeros(total_objs, int)
    )
    # Per-object noisy appearance vector (locality noise).
    obj_vec = u[obj_cat] + spec.locality_noise * _unit_noise(g, (total_objs, d))

    # Per-image background direction.
    bg_pick = g.integers(0, spec.n_background, N)
    img_bg = _unit_rows(bg_dirs[bg_pick] + 0.3 * _unit_noise(g, (N, d)))

    # --- Assemble vectors -------------------------------------------------
    V = N * (1 + n_cells)
    vectors = np.zeros((V, d), dtype=np.float64)
    image_of = np.zeros(V, dtype=np.int32)
    is_coarse = np.zeros(V, dtype=bool)

    # Layout: vector index = image * (1 + n_cells) + slot; slot 0 = coarse.
    stride = 1 + n_cells
    image_of[:] = np.repeat(np.arange(N, dtype=np.int32), stride)
    is_coarse[::stride] = True

    # Coarse vectors: size-weighted object mix + background.
    coarse = spec.bg_weight * img_bg.copy()
    np.add.at(coarse, obj_img, obj_size[:, None] * obj_vec)
    vectors[::stride] = _unit_rows(coarse)

    if n_cells > 0:
        # Patch vectors: background base; objects add (strongly) to the cell
        # that contains them. Patch sees the object at full strength — this
        # is the multiscale payoff: a small object fills its own patch.
        patch = np.repeat(img_bg * spec.bg_weight, n_cells, axis=0).reshape(
            N, n_cells, d
        )
        patch += spec.patch_noise * _unit_noise(g, (N, n_cells, d))
        obj_strength = np.minimum(1.0, spec.patch_gain * obj_size)  # patch-local coverage
        np.add.at(
            patch, (obj_img, obj_cell), obj_strength[:, None] * obj_vec
        )
        flat = _unit_rows(patch.reshape(N * n_cells, d))
        mask = ~is_coarse
        vectors[mask] = flat

    # --- Ground truth -----------------------------------------------------
    rel_image = np.zeros((C, N), dtype=bool)
    rel_image[obj_cat, obj_img] = True
    rel_vec: list[np.ndarray] = []
    for c in range(C):
        sel = obj_cat == c
        imgs = obj_img[sel]
        pos: set[int] = set()
        if n_cells > 0:
            cells = obj_cell[sel]
            pos.update((imgs * stride + 1 + cells).tolist())
            # Coarse vector positive only when the object visibly fills the
            # image (see coarse_pos_min_size in WorldSpec).
            big = imgs[obj_size[sel] >= spec.coarse_pos_min_size]
            pos.update((big * stride).tolist())
        else:
            # Single-vector images: the coarse vector is the only possible
            # region example.
            pos.update((imgs * stride).tolist())
        rel_vec.append(np.fromiter(sorted(pos), dtype=np.int32))

    # --- Text queries with alignment deficit ------------------------------
    noise_scale = np.where(tail, spec.align_tail_noise, spec.align_noise)
    qnoise = _unit_noise(g, (C, d))
    if spec.query_family_drift > 0.0:
        # Misaligned queries drift toward the family base -> sibling images
        # outrank the relevant ones (the "wheelchair finds bicycles" failure).
        qnoise = _unit_rows(
            qnoise + spec.query_family_drift * fam_base[fam_of]
        )
    query_vecs = _unit_rows(u + noise_scale[:, None] * qnoise)

    return EmbeddedDataset(
        spec=spec,
        vectors=vectors.astype(np.float32),
        image_of=image_of,
        is_coarse=is_coarse,
        query_vecs=query_vecs.astype(np.float32),
        rel_image=rel_image,
        rel_vec=rel_vec,
        ideal_vecs=u.astype(np.float32),
        cat_names=[f"{spec.name}_cat{c:04d}" for c in range(C)],
    )
