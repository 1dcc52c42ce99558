"""The program attributes that ``perfbench --trace 1`` patches by name.

A traced benchmark run wraps these seven attributes to time the layers
beneath its end-to-end metrics; renaming one would break only such a run.
"""
from perfbench.spans import Tracer
from perfbench.workloads import _patch_search_layers, _patch_setup_layers
from repro.bench import loop, runner
from repro.core import lbfgs, loss
from repro.core.aligner import QueryAligner
from repro.graph import laplacian

TARGETS = [
    (laplacian, "knn_graph_np"),
    (runner, "knn_graph_np"),
    (laplacian, "m_matrix_np"),
    (QueryAligner, "align"),
    (lbfgs, "minimize"),
    (loss, "l3_loss_grad"),
    (loop, "image_feedback"),
]


def test_traced_run_patches_and_restores_every_target():
    originals = [getattr(owner, attr) for owner, attr in TARGETS]
    tr = Tracer(True)
    _patch_setup_layers(tr)
    _patch_search_layers(tr)
    try:
        for (owner, attr), orig in zip(TARGETS, originals):
            assert getattr(owner, attr) is not orig, f"{attr} was not patched"
    finally:
        tr.unpatch()
    for (owner, attr), orig in zip(TARGETS, originals):
        assert getattr(owner, attr) is orig, f"{attr} was not restored"
