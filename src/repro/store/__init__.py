"""DataFrame-based vector store: exact MIP scan."""
from repro.store.scan import topk_images, vector_table  # noqa: F401
