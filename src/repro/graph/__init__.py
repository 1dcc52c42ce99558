"""kNN-graph substrate: graph build, Laplacian / ``M_D``, label propagation."""
from repro.graph.knn import knn_graph_np  # noqa: F401
from repro.graph.laplacian import edge_weights, m_matrix_np  # noqa: F401
from repro.graph.labelprop import label_propagation_np, label_propagation_spark  # noqa: F401
