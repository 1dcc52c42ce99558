"""Loss functions L1/L2/L3 from the paper (Equations 1-3) with gradients.

All losses are functions of the query-vector parameter ``w`` (shape (d,)):

- ``L1`` (Eq. 1, *few-shot CLIP*): logistic loss over user feedback plus an
  L2 ridge penalty ``lam * |w|^2``. Per §3.2 the bias term is dropped (the
  paper found fitting ``b`` hurts the learned query), so the logit is just
  ``w.x``.
- ``L2`` (Eq. 2, *CLIP alignment*): L1 plus ``lam_c * (1 - w.q0/|w|)`` — a
  cosine pull toward the original CLIP text query ``q0``.
- ``L3`` (Eq. 3, *DB alignment*): L2 plus ``lam_d * (w^T M_D w)/|w|^2`` — a
  quadratic-over-norm penalty derived from the database kNN-graph Laplacian,
  pointing ``w`` toward the center of dense regions.

The two scale-invariant terms (the cosine of Eq. 2 and the ratio of Eq. 3)
are undefined at ``w = 0`` and are guarded only at ``|w| < 1e-12``; above
that they take their exact value at any scale, so a solve cannot switch the
DB-alignment term off by shrinking ``w``.

Gradients are analytic; ``tests/test_loss.py`` checks them against finite
differences (including via hypothesis-generated inputs).
"""
from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12

# Products use ``ndarray.dot``: the same BLAS call as ``@`` (so the same
# bits) at about half the call overhead, which matters at a solve's size.


def label_signs(y: np.ndarray) -> np.ndarray:
    """The ±1 signs of {0,1} labels (a label above 0.5 is positive)."""
    return np.where(np.asarray(y, dtype=np.float64) > 0.5, 1.0, -1.0)


def log1pexp(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(z))``."""
    z = np.asarray(z)
    return _log1pexp(z, np.exp(-np.abs(z))).astype(np.float64, copy=False)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z)
    return _sigmoid(z, np.exp(-np.abs(z))).astype(np.float64, copy=False)


def _log1pexp(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``log(1 + exp(z))`` given ``e = exp(-|z|)``: ``z + log1p(exp(-z))``
    above 0 and ``log1p(exp(z))`` elsewhere."""
    return np.maximum(z, 0.0) + np.log1p(e)


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` given ``e = exp(-|z|)``: ``1 / (1 + e)`` from 0
    up and ``e / (1 + e)`` below."""
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def logistic_loss_grad(
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    sample_weight: np.ndarray | None = None,
    *,
    signs: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Sum of logistic losses ``log(1+exp(-s_i w.x_i))`` with s_i = ±1.

    ``y`` holds {0,1} labels; ``signs`` may pass ``label_signs(y)`` when the
    caller evaluates many ``w`` on one feedback set. ``sample_weight``
    optionally re-weights each example (used to balance scarce positives
    against many negatives). Returns ``(loss, grad)``.
    """
    if X.shape[0] == 0:
        return 0.0, np.zeros_like(w)
    s = label_signs(y) if signs is None else signs
    u = -s * X.dot(w)
    e = np.exp(-np.abs(u))
    per = _log1pexp(u, e)
    # d/dw log(1+exp(-s z)) = -s * sigmoid(-s z) * x
    coef = -s * _sigmoid(u, e)
    if sample_weight is not None:
        per = per * sample_weight
        coef = coef * sample_weight
    return float(per.sum()), X.T.dot(coef)


def l1_loss_grad(
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
    sample_weight: np.ndarray | None = None,
    *,
    signs: np.ndarray | None = None,
    n2: float | None = None,
) -> tuple[float, np.ndarray]:
    """Equation 1: logistic loss + ridge penalty (no bias term). ``n2`` may
    pass ``w @ w``."""
    f, g = logistic_loss_grad(w, X, y, sample_weight, signs=signs)
    n2 = float(w.dot(w)) if n2 is None else n2
    return f + lam * n2, g + 2.0 * lam * w


def cos_penalty_grad(
    w: np.ndarray, q0: np.ndarray, n2: float | None = None
) -> tuple[float, np.ndarray]:
    """CLIP-alignment term ``1 - w.q0/|w|`` and its gradient; ``n2`` may
    pass ``w @ w``.

    ``q0`` is assumed unit-norm (the CLIP text embedding is normalized).
    """
    nw = math.sqrt(float(w.dot(w)) if n2 is None else n2)
    if nw < _EPS:
        # At w=0 the cosine is undefined; treat penalty as its max (1) with
        # a pull along -q0 so the optimizer escapes the origin toward q0.
        return 1.0, -q0.copy()
    dot = float(w.dot(q0))
    f = 1.0 - dot / nw
    g = -(q0 / nw) + dot * w / nw**3
    return f, g


def quad_over_norm_grad(
    w: np.ndarray, M: np.ndarray, n2: float | None = None
) -> tuple[float, np.ndarray]:
    """DB-alignment term ``(w^T M w)/|w|^2`` and its gradient (M symmetric);
    ``n2`` may pass ``w @ w``."""
    n2 = float(w.dot(w)) if n2 is None else n2
    if n2 < _EPS * _EPS:
        # |w| < 1e-12, the cosine term's guard: the ratio is undefined at 0.
        return 0.0, np.zeros_like(w)
    Mw = M.dot(w)
    q = float(w.dot(Mw))
    f = q / n2
    g = 2.0 * Mw / n2 - 2.0 * q * w / n2**2
    return f, g


def l3_loss_grad(
    w: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    q0: np.ndarray,
    M: np.ndarray | None,
    lam: float,
    lam_c: float,
    lam_d: float,
    sample_weight: np.ndarray | None = None,
    *,
    signs: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Equation 3 (the full SeeSaw loss). ``M=None`` or ``lam_d=0`` reduces to
    Eq. 2; additionally ``lam_c=0`` reduces to Eq. 1. ``signs`` may pass
    ``label_signs(y)``. The terms share one ``w @ w``."""
    n2 = float(w.dot(w))
    f, g = l1_loss_grad(w, X, y, lam, sample_weight, signs=signs, n2=n2)
    if lam_c != 0.0:
        fc, gc = cos_penalty_grad(w, q0, n2)
        f += lam_c * fc
        g = g + lam_c * gc
    if lam_d != 0.0 and M is not None:
        fd, gd = quad_over_norm_grad(w, M, n2)
        f += lam_d * fd
        g = g + lam_d * gd
    return f, g
