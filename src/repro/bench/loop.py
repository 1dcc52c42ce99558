"""Single-query interactive-search simulation (paper §5.1 benchmark task).

The loop replays Listing 1 with ground truth standing in for the user: show
the top-scoring unseen image, reveal its relevance, convert the ground-truth
region boxes into patch-level feedback (overlapping patches positive — the
coarse full-image vector always overlaps the user's box — non-overlapping
patches negative), hand the feedback to the ranker, repeat. Stops after
``target`` relevant images are found or ``budget`` images are shown.

Rankers implement the :class:`Ranker` protocol; they see only vectors and
feedback, never ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.bench.ap import average_precision
from repro.embed.clipsim import EmbeddedDataset


class Ranker(Protocol):
    """Search-method interface consumed by :func:`run_search`."""

    def reset(self, ds: EmbeddedDataset, q0: np.ndarray) -> None:
        """Start a fresh search with text-query vector ``q0``."""

    def vector_scores(self, remaining: int) -> np.ndarray:
        """Score every vector in the database; ``remaining`` is the number of
        images the loop may still show (ENS's shrinking reward horizon)."""

    def observe(
        self,
        image_id: int,
        relevant: bool,
        pos_vecs: np.ndarray,
        neg_vecs: np.ndarray,
    ) -> None:
        """Feedback for the image just shown: region-overlap positive vector
        ids and negative vector ids within that image."""


@dataclass
class SearchOutcome:
    """Result of one simulated search."""

    shown_images: list[int]
    shown_relevance: list[bool]
    n_relevant_in_dataset: int
    ap: float
    n_found: int

    @property
    def n_shown(self) -> int:
        return len(self.shown_images)


def image_feedback(
    ds: EmbeddedDataset, cat: int, image_id: int
) -> tuple[bool, np.ndarray, np.ndarray]:
    """Ground-truth region feedback for one displayed image.

    Returns ``(relevant, positive_vec_ids, negative_vec_ids)``. For a
    relevant image, positives are the category's object patches plus the
    coarse vector (the full-image patch overlaps any user box); the image's
    remaining patches are negatives. For an irrelevant image every vector is
    negative.
    """
    mine = np.flatnonzero(ds.image_of == image_id)
    relevant = bool(ds.rel_image[cat, image_id])
    if not relevant:
        return False, np.empty(0, dtype=np.int64), mine
    # ``rel_vec[cat]`` is sorted, so a vector of ``mine`` is positive when
    # it has a match there.
    rel = ds.rel_vec[cat]
    is_pos = np.searchsorted(rel, mine, side="right") > np.searchsorted(rel, mine)
    # The coarse vector of a relevant image whose object is too small to
    # make it positive is *excluded* (neither label): the full-image box
    # does overlap the user's box, so it is never a clean negative either.
    return True, mine[is_pos], mine[~is_pos & ~ds.is_coarse[mine]]


def best_unseen(ds: EmbeddedDataset, vscores: np.ndarray, seen: np.ndarray) -> int | None:
    """The unseen image with the highest score, an image scoring the max over
    its vectors (§4.3); ties go to the lowest image id. ``None`` once every
    unseen image scores -inf, i.e. every image has been shown. Raises
    ``ValueError`` naming an unseen image whose score is NaN."""
    if ds.one_vector_per_image:
        img_scores = np.array(vscores, dtype=np.float64)
    else:
        img_scores = np.full(ds.n_images, -np.inf)
        np.maximum.at(img_scores, ds.image_of, vscores)
    img_scores[seen] = -np.inf
    best = int(np.argmax(img_scores))
    if np.isnan(img_scores[best]):
        raise ValueError(f"image {best} has a NaN score")
    return None if img_scores[best] == -np.inf else best


def run_search(
    ds: EmbeddedDataset,
    cat: int,
    ranker: Ranker,
    *,
    target: int = 10,
    budget: int = 60,
) -> SearchOutcome:
    """Run the find-``target``-in-``budget`` benchmark task for one category."""
    if target < 1 or budget < 1:
        raise ValueError(f"target and budget must be >= 1, got {target} and {budget}")
    n_rel = int(ds.rel_image[cat].sum())
    if n_rel == 0:
        raise ValueError(f"category {cat} has no relevant image")
    q0 = ds.query_vecs[cat].astype(np.float64)
    ranker.reset(ds, q0)
    seen = np.zeros(ds.n_images, dtype=bool)
    shown: list[int] = []
    rels: list[bool] = []
    found = 0
    for _ in range(budget):
        vscores = np.asarray(ranker.vector_scores(budget - len(shown)), dtype=np.float64)
        best = best_unseen(ds, vscores, seen)
        if best is None:
            break
        seen[best] = True
        relevant, pos, neg = image_feedback(ds, cat, best)
        shown.append(best)
        rels.append(relevant)
        if relevant:
            found += 1
        if found >= min(target, n_rel):
            break
        ranker.observe(best, relevant, pos, neg)
    ap = average_precision(rels, n_rel, target=target, budget=budget)
    return SearchOutcome(
        shown_images=shown,
        shown_relevance=rels,
        n_relevant_in_dataset=n_rel,
        ap=ap,
        n_found=found,
    )
