"""Zero-shot CLIP baseline: rank by the text query alone, ignore feedback."""
from __future__ import annotations

from repro.core.linear import LinearRanker


class ZeroShotRanker(LinearRanker):
    """Scores every vector by inner product with the fixed text query ``q0``."""

    def observe(self, image_id, relevant, pos_vecs, neg_vecs) -> None:
        """Zero-shot ignores feedback (paper §5.1)."""
