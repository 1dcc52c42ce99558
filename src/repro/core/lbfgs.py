"""Minimal L-BFGS optimizer (numpy).

The paper solves Eq. 5 with PyTorch's L-BFGS; PyTorch is unavailable here so
this is a from-scratch implementation: two-loop-recursion direction with an
Armijo backtracking line search. On the d<=512, n<=60 problems SeeSaw poses
it converges in a few tens of iterations in well under a millisecond, which
is the property the paper relies on for interactivity (§4.4).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

LossGrad = Callable[[np.ndarray], tuple[float, np.ndarray]]

# Vector products below use ``ndarray.dot``: the same BLAS call as ``@``
# (so the same bits) at about half the call overhead, which matters on the
# d <= 512 vectors of a solve.


@dataclass
class LbfgsResult:
    """Outcome of an :func:`minimize` call."""

    x: np.ndarray
    fun: float
    n_iter: int
    converged: bool


def minimize(
    fg: LossGrad,
    x0: np.ndarray,
    *,
    max_iter: int = 100,
    history: int = 10,
    gtol: float = 1e-6,
    ftol: float = 1e-10,
) -> LbfgsResult:
    """Minimize ``fg`` (returning ``(loss, grad)``) starting from ``x0``.

    Stops when the gradient inf-norm falls below ``gtol``, the relative loss
    decrease falls below ``ftol``, or ``max_iter`` iterations elapse.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fg(x)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        if np.abs(g).max() < gtol:
            converged = True
            break
        d = _two_loop(g, s_hist, y_hist, rho_hist)
        gd = float(g.dot(d))
        if gd >= 0:  # not a descent direction — reset to steepest descent
            d = -g
            gd = float(g.dot(d))
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
        # Armijo backtracking; on failure retry once along steepest descent
        # (a stale curvature history can produce a poorly scaled direction).
        ok, step, f_new, g_new, x_new = _armijo(fg, x, f, d, gd)
        if not ok and d is not None and not np.array_equal(d, -g):
            s_hist.clear()
            y_hist.clear()
            rho_hist.clear()
            d = -g
            gd = float(g.dot(d))
            ok, step, f_new, g_new, x_new = _armijo(fg, x, f, d, gd)
        if not ok:
            break  # line search failed; local flatness — accept current x
        s = x_new - x
        yv = g_new - g
        sy = float(s.dot(yv))
        if sy > 1e-12:  # curvature condition; skip update otherwise
            s_hist.append(s)
            y_hist.append(yv)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > history:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        rel = abs(f - f_new) / max(1.0, abs(f))
        x, f, g = x_new, f_new, g_new
        if rel < ftol:
            converged = True
            break
    return LbfgsResult(x=x, fun=f, n_iter=it, converged=converged)


def _armijo(
    fg: LossGrad, x: np.ndarray, f: float, d: np.ndarray, gd: float
) -> tuple[bool, float, float, np.ndarray, np.ndarray]:
    """Weak-Wolfe line search; returns (ok, step, f_new, g_new, x_new).

    Backtracks until the Armijo condition holds, then expands the step while
    the curvature condition ``g_new.d >= c2 * gd`` is still violated (and
    Armijo keeps holding). The expansion guarantees ``s.y > 0`` in the
    common case, keeping the L-BFGS history fresh on non-convex objectives
    (without it, Rosenbrock-style valleys stall on microscopic steps).
    """
    step = 1.0
    ok = False
    f_new, g_new, x_new = f, np.asarray(d), x
    for _ in range(50):
        x_new = x + step * d
        f_new, g_new = fg(x_new)
        if f_new <= f + 1e-4 * step * gd:
            ok = True
            break
        step *= 0.5
    if not ok:
        return False, step, f, np.asarray(d), x
    for _ in range(20):
        if float(g_new.dot(d)) >= 0.9 * gd:  # curvature satisfied
            break
        cand = step * 2.0
        x_c = x + cand * d
        f_c, g_c = fg(x_c)
        if f_c > f + 1e-4 * cand * gd:  # Armijo would break — stop expanding
            break
        step, f_new, g_new, x_new = cand, f_c, g_c, x_c
    return True, step, f_new, g_new, x_new


def _two_loop(
    g: np.ndarray,
    s_hist: list[np.ndarray],
    y_hist: list[np.ndarray],
    rho_hist: list[float],
) -> np.ndarray:
    """Standard L-BFGS two-loop recursion producing the search direction."""
    q = g.copy()
    alphas: list[float] = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * y
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        gamma = float(s.dot(y)) / max(float(y.dot(y)), 1e-12)
        q *= gamma
    for (s, y, rho), a in zip(
        zip(s_hist, y_hist, rho_hist), reversed(alphas)
    ):
        b = rho * float(y.dot(q))
        q += (a - b) * s
    return -q
