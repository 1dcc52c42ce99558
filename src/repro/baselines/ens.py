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


class EnsRanker:
    """ENS over a coarse (one-vector-per-image) database.

    Parameters
    ----------
    graph_idx, graph_w:
        (N, k) kNN neighbor indices and edge weights of the coarse vectors.
    horizon:
        Initial reward horizon ``t`` (paper: 60). Each step shrinks it to
        ``min(horizon, remaining)`` via the loop's ``remaining`` argument.
    gamma:
        Optional per-vertex prior probabilities (the calibrated-``gamma_i``
        rows of Table 4). ``None`` -> raw ``(s+1)/2`` mapping of the
        zero-shot scores.
    """

    def __init__(
        self,
        graph_idx: np.ndarray,
        graph_w: np.ndarray,
        *,
        horizon: int = 60,
        gamma: np.ndarray | None = None,
    ):
        self.idx = np.asarray(graph_idx, dtype=np.int64)
        self.w = np.asarray(graph_w, dtype=np.float64)
        self.horizon = horizon
        self.gamma_override = gamma
        n, k = self.idx.shape
        # Reverse adjacency: labeling i updates the posterior of every j
        # with i in N(j). Flattened CSR-style arrays keyed by dst.
        src = np.repeat(np.arange(n, dtype=np.int64), k)
        dst = self.idx.ravel()
        order = np.argsort(dst, kind="stable")
        self.rev_src = src[order]  # the j affected ...
        self.rev_dst = dst[order]  # ... when this i gets labeled
        self.rev_w = self.w.ravel()[order]
        self.rev_ptr = np.searchsorted(self.rev_dst, np.arange(n + 1))
        self._n = n

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

    def observe(self, image_id, relevant, pos_vecs, neg_vecs) -> None:
        for vid, yv in [(v, 1.0) for v in np.asarray(pos_vecs, dtype=np.int64)] + [
            (v, 0.0) for v in np.asarray(neg_vecs, dtype=np.int64)
        ]:
            if self.labeled[vid]:
                continue
            self.labeled[vid] = True
            self.n_pos += int(yv)
            lo, hi = self.rev_ptr[vid], self.rev_ptr[vid + 1]
            j = self.rev_src[lo:hi]
            wj = self.rev_w[lo:hi]
            self.sum_wy[j] += wj * yv
            self.sum_w[j] += wj

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
        in_top = np.zeros(n, dtype=bool)
        in_top[top_m] = True

        # Future-reward base per candidate i: drop i from the top set if it
        # is a member (its label is then known) and admit the next best.
        base = np.where(in_top, base_sum - p + next_val, base_sum)

        # Per-edge posterior deltas: labeling i as y changes p_j for each
        # reverse neighbor j of i.
        i_e = self.rev_dst  # the candidate being hypothetically labeled
        j_e = self.rev_src  # its affected reverse neighbor
        w_e = self.rev_w
        valid = unl[i_e] & unl[j_e] & (i_e != j_e)
        num = self.gamma[j_e] + self.sum_wy[j_e]
        den = 1.0 + self.sum_w[j_e]
        p_new1 = (num + w_e) / (den + w_e)
        p_new0 = num / (den + w_e)
        pj = p[j_e]
        c1 = np.where(in_top[j_e], p_new1 - pj, np.maximum(0.0, p_new1 - tau))
        c0 = np.where(in_top[j_e], p_new0 - pj, np.maximum(0.0, p_new0 - tau))
        c1[~valid] = 0.0
        c0[~valid] = 0.0
        f1 = base + np.bincount(i_e, weights=c1, minlength=n)
        f0 = base + np.bincount(i_e, weights=c0, minlength=n)
        return p * (1.0 + f1) + (1.0 - p) * f0
