"""DataFrame-based vector store: exact MIP scan."""
from repro.store.scan import score_vectors, topk_images, topk_vectors  # noqa: F401
