"""DataFrame-based vector store: exact MIP scan."""
from repro.store.scan import (  # noqa: F401
    score_vectors,
    topk_images,
    topk_vectors,
    vector_table,
)
