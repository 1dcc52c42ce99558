"""Efficient Non-myopic Active Search (ENS, Jiang et al. 2017) baseline.

The paper's modified ENS (§5.4): a weighted-kNN posterior over the coarse
vector database, with the zero-shot CLIP score of each vertex used as its
individual prior ``gamma_i``, and search deferred to zero-shot CLIP until
the first positive is found. At each step ENS picks the candidate maximizing
the expected number of positives found within the remaining reward horizon
``t``:

    score(i) = p_i * (1 + f(D + (i,1))) + (1 - p_i) * f(D + (i,0))

where ``f(D')`` is the sum of the top-(t-1) posterior probabilities among
the remaining unlabeled vertices under the updated posterior. Conditioning
on ``y_i`` only changes the posterior of vertices that have ``i`` among
their k nearest neighbors (the reverse neighbors of ``i``), which makes the
per-step cost O(E) — this is the "efficient" part of ENS. Vertices outside
the current top set contribute ``max(0, p' - tau)`` with ``tau`` the top-set
cutoff, the standard pruning approximation.

Calibration: the raw prior maps cosine scores to probabilities as
``(s+1)/2`` — monotone but badly calibrated, exactly the failure mode §5.4
analyzes. :func:`platt_scale` fits the oracle Platt calibration used in
Table 4 (explicitly unattainable in practice, as the paper notes).
"""
from __future__ import annotations

import numpy as np

from repro.core import lbfgs
from repro.core.linear import check_query
from repro.core.loss import log1pexp, sigmoid
from repro.embed.clipsim import EmbeddedDataset


def platt_scale(s: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit Platt scaling ``p = sigmoid(a*s + b)`` by max-likelihood.

    Requires ground-truth labels — only usable in the oracle-calibrated
    rows of Table 4.
    """
    s = np.asarray(s, dtype=np.float64)
    sign = np.where(np.asarray(y, dtype=np.float64) > 0.5, 1.0, -1.0)

    def fg(ab: np.ndarray) -> tuple[float, np.ndarray]:
        z = ab[0] * s + ab[1]
        f = float(log1pexp(-sign * z).sum())
        coef = -sign * sigmoid(-sign * z)
        return f, np.array([float(coef @ s), float(coef.sum())])

    res = lbfgs.minimize(fg, np.array([1.0, 0.0]), max_iter=200)
    return float(res.x[0]), float(res.x[1])


class EnsGraph:
    """A kNN graph in the layouts :class:`EnsRanker` reads. Nothing here
    depends on a search, and the reverse adjacency sorts every edge, so
    searches on one graph share one ``EnsGraph``
    (``repro.bench.runner.DatasetBundle.ens_graph``).

    ``idx``, ``w``: the (N, k) neighbor indices and non-negative edge
    weights. ``rev_pos[rev_ptr[i]:rev_ptr[i + 1]]``: the flat positions in
    the (N, k) layout of the edges (j, i), in ascending j. ``self_edge``:
    where ``idx[j, c] == j``.
    """

    def __init__(self, graph_idx: np.ndarray, graph_w: np.ndarray):
        self.idx = np.asarray(graph_idx, dtype=np.int64)
        self.w = np.asarray(graph_w, dtype=np.float64)
        if (self.w < 0).any():
            raise ValueError("kNN edge weights must be non-negative")
        n = self.idx.shape[0]
        # Sorting the unique keys (i, position) is a stable argsort of i,
        # several times faster.
        dst = self.idx.ravel()
        self.rev_pos = np.sort(dst * dst.size + np.arange(dst.size)) % dst.size
        self.rev_ptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
        self.self_edge = self.idx == np.arange(n)[:, None]


class EnsRanker:
    """ENS over a coarse (one-vector-per-image) database.

    Parameters
    ----------
    graph:
        The kNN graph of the coarse vectors, which rankers of many searches
        may share.
    horizon:
        Initial reward horizon ``t`` (paper: 60). Each step shrinks it to
        ``min(horizon, remaining)`` via the loop's ``remaining`` argument.
    gamma:
        Optional per-vertex prior probabilities (the calibrated-``gamma_i``
        rows of Table 4). ``None`` -> raw ``(s+1)/2`` mapping of the
        zero-shot scores.

    The lookahead works on the forward (N, k) layout: entry ``(j, c)`` is
    the edge from ``j`` to its neighbor ``i = idx[j, c]``, and labeling
    ``i`` changes ``p_j`` through it. Per edge the ranker caches
    ``1 + sum_w_j + w`` and the posterior ``p_j`` would take if ``i`` were
    labeled positive. A label changes the sums of its reverse neighbors
    only, so ``observe`` refreshes just their rows.

    Ties: a top-set candidate with no live edge scores ``base_sum +
    next_val`` to the last bit, as does the next-best candidate, so such
    candidates tie exactly and the loop shows the lowest image id among
    them (:func:`repro.bench.loop.best_unseen`), whatever the BLAS kernel.
    """

    def __init__(self, graph: EnsGraph, *, horizon: int = 60, gamma: np.ndarray | None = None):
        self.idx, self.w = graph.idx, graph.w
        self.rev_pos, self.rev_ptr = graph.rev_pos, graph.rev_ptr
        self._self_edge = graph.self_edge
        self._n = graph.idx.shape[0]
        self.horizon = horizon
        self.gamma_override = gamma

    # -- Ranker protocol ---------------------------------------------------
    def reset(self, ds: EmbeddedDataset, q0: np.ndarray) -> None:
        if not bool(np.all(ds.is_coarse)):
            raise ValueError(
                "ENS is implemented for coarse indexing only (as in the paper)"
            )
        if ds.n_vectors != self._n:
            raise ValueError(
                f"dataset has {ds.n_vectors} vectors but the kNN graph has {self._n} rows"
            )
        self.s0 = (ds.vectors @ check_query(q0).astype(np.float32)).astype(np.float64)
        if self.gamma_override is not None:
            self.gamma = np.clip(self.gamma_override, 1e-6, 1 - 1e-6)
        else:
            self.gamma = np.clip((self.s0 + 1.0) / 2.0, 1e-6, 1 - 1e-6)
        self.sum_wy = np.zeros(self._n)  # sum of w_jl * y_l over labeled l in N(j)
        self.sum_w = np.zeros(self._n)  # sum of w_jl over labeled l in N(j)
        self.labeled = np.zeros(self._n, dtype=bool)
        self.n_pos = 0
        # Edges that add nothing to a lookahead: i or j labeled, or i == j.
        self._dead = self._self_edge.copy()
        self._den = np.empty(self.w.shape)
        self._p1 = np.empty(self.w.shape)
        self._refresh(slice(None))

    def observe(self, image_id, relevant, pos_vecs, neg_vecs) -> None:
        touched = []
        for vid, yv in [(v, 1.0) for v in np.asarray(pos_vecs, dtype=np.int64)] + [
            (v, 0.0) for v in np.asarray(neg_vecs, dtype=np.int64)
        ]:
            if self.labeled[vid]:
                continue
            self.labeled[vid] = True
            self.n_pos += int(yv)
            pos = self.rev_pos[self.rev_ptr[vid] : self.rev_ptr[vid + 1]]
            j = pos // self.idx.shape[1]
            wj = self.w.ravel()[pos]
            self.sum_wy[j] += wj * yv
            self.sum_w[j] += wj
            self._dead[vid] = True
            self._dead.ravel()[pos] = True
            touched += [j, [vid]]
        if touched:
            self._refresh(np.unique(np.concatenate(touched)))

    def posterior(self) -> np.ndarray:
        """Current kNN posterior p(y=1 | D) for every vertex."""
        return (self.gamma + self.sum_wy) / (1.0 + self.sum_w)

    def vector_scores(self, remaining: int) -> np.ndarray:
        if self.n_pos == 0:
            # Paper modification: let zero-shot CLIP find the first positive.
            return self.s0.copy()
        t = min(self.horizon, remaining)
        p = self.posterior()
        # Labeled vertices sort below every unlabeled probability (>= 0)
        # during the lookahead, and are masked out of the final scores.
        p_work = np.where(self.labeled, -1.0, p)
        m = t - 1
        if m <= 0:
            scores = p_work.copy()
        else:
            scores = self._nonmyopic_scores(p_work, m)
        scores[self.labeled] = -np.inf
        return scores

    # -- internals ---------------------------------------------------------
    def _refresh(self, rows) -> None:
        """Recompute the cached per-edge values of ``rows`` from the current
        sums; a dead edge's ``p_new1`` is -inf, so it adds nothing below."""
        w = self.w[rows]
        den = (1.0 + self.sum_w[rows])[:, None] + w
        p1 = ((self.gamma[rows] + self.sum_wy[rows])[:, None] + w) / den
        p1[self._dead[rows]] = -np.inf
        self._den[rows] = den
        self._p1[rows] = p1

    def _nonmyopic_scores(self, p: np.ndarray, m: int) -> np.ndarray:
        n = self._n
        unl = ~self.labeled
        n_unl = int(unl.sum())
        m_eff = min(m, max(n_unl - 1, 0))
        if m_eff == 0:
            return p.copy()
        # Top-(m_eff+1) unlabeled posteriors (the +1 covers a candidate that
        # is itself in the top set and must be excluded from its own future).
        kth = np.argpartition(-p, m_eff)[: m_eff + 1]
        kth = kth[np.argsort(-p[kth])]
        top_m = kth[:m_eff]
        next_val = p[kth[m_eff]] if kth.size > m_eff else 0.0
        tau = p[top_m[-1]]
        base_sum = float(p[top_m].sum())

        # score = p (1 + f1) + (1 - p) f0 with f_y = base + g_y, where the
        # future-reward base drops i from the top set if it is a member (its
        # label is then known) and admits the next best. Rearranged as
        # lead + g0 + p (g1 - g0), lead = p + base is base_sum + next_val for
        # every top-set member, so members with no live edge score the same
        # bits and tie.
        lead = base_sum + p
        lead[top_m] = base_sum + next_val

        # Per-edge gain in f when candidate i = idx[j, c] is labeled y: the
        # change of p_j inside the top set, its excess over tau outside it,
        # and 0 on dead edges. bincount visits a candidate's edges in
        # ascending j, the order of a dst-sorted reverse edge list.
        c1 = np.maximum(0.0, self._p1 - tau)
        rows = np.sort(top_m)
        live = ~self._dead[rows]
        c1[rows] = np.where(live, self._p1[rows] - p[rows, None], 0.0)
        # y = 0 cannot raise p_j (w >= 0), so max(0, p_new0 - tau) is 0 for
        # every j outside the top set: only the top rows add to the y = 0
        # sums.
        num = (self.gamma[rows] + self.sum_wy[rows])[:, None]
        c0 = np.where(live, num / self._den[rows] - p[rows, None], 0.0)
        g1 = np.bincount(self.idx.ravel(), weights=c1.ravel(), minlength=n)
        g0 = np.bincount(self.idx[rows].ravel(), weights=c0.ravel(), minlength=n)
        return lead + g0 + p * (g1 - g0)
