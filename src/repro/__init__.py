"""Reproduction of SeeSaw (SIGMOD 2023) on a synthetic CLIP-like substrate.

Subpackages:

- ``core``      — the paper's contribution: CLIP/DB-aligned query solver.
- ``embed``     — synthetic visual-semantic embedding + dataset generators.
- ``store``     — DataFrame-based vector store (exact scan).
- ``graph``     — kNN graph, graph Laplacian / ``M_D``, label propagation.
- ``baselines`` — zero-shot, few-shot, Rocchio, ENS.
- ``bench``     — AP metric, interactive-loop simulator, table harnesses.
"""
