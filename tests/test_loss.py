"""Unit tests for the loss terms and their analytic gradients (Eqs. 1-3)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import loss


def fd_grad(f, x, eps=1e-6):
    """Central finite-difference gradient."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def _rand_problem(seed, n=7, d=5):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, d))
    y = (g.random(n) > 0.5).astype(float)
    w = g.standard_normal(d)
    q0 = g.standard_normal(d)
    q0 /= np.linalg.norm(q0)
    A = g.standard_normal((d, d))
    M = A @ A.T / d
    return X, y, w, q0, M


class TestStableFunctions:
    @pytest.mark.parametrize("z", [-800.0, -50.0, -1.0, 0.0, 1.0, 50.0, 800.0])
    def test_log1pexp_finite(self, z):
        v = loss.log1pexp(np.array([z]))[0]
        assert np.isfinite(v)
        assert v >= 0

    @pytest.mark.parametrize("z", [-30.0, -2.0, 0.0, 2.0, 30.0])
    def test_log1pexp_matches_naive(self, z):
        assert loss.log1pexp(np.array([z]))[0] == pytest.approx(np.log1p(np.exp(z)))

    @pytest.mark.parametrize("z", [-800.0, -5.0, 0.0, 5.0, 800.0])
    def test_sigmoid_bounds(self, z):
        v = loss.sigmoid(np.array([z]))[0]
        assert 0.0 <= v <= 1.0

    def test_sigmoid_symmetry(self):
        z = np.linspace(-10, 10, 21)
        np.testing.assert_allclose(loss.sigmoid(z) + loss.sigmoid(-z), 1.0, atol=1e-12)


class TestLogisticLoss:
    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_matches_fd(self, seed):
        X, y, w, _, _ = _rand_problem(seed)
        f, g = loss.logistic_loss_grad(w, X, y)
        gfd = fd_grad(lambda v: loss.logistic_loss_grad(v, X, y)[0], w)
        np.testing.assert_allclose(g, gfd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_gradient_matches_fd(self, seed):
        X, y, w, _, _ = _rand_problem(seed)
        sw = np.random.default_rng(seed).random(X.shape[0]) * 3
        f, g = loss.logistic_loss_grad(w, X, y, sw)
        gfd = fd_grad(lambda v: loss.logistic_loss_grad(v, X, y, sw)[0], w)
        np.testing.assert_allclose(g, gfd, rtol=1e-5, atol=1e-7)

    def test_empty_feedback_is_zero(self):
        w = np.ones(4)
        f, g = loss.logistic_loss_grad(w, np.zeros((0, 4)), np.zeros(0))
        assert f == 0.0
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_perfect_separation_low_loss(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, 0.0])
        w = np.array([50.0, 0.0])
        f, _ = loss.logistic_loss_grad(w, X, y)
        assert f < 1e-10

    def test_loss_positive(self):
        X, y, w, _, _ = _rand_problem(3)
        f, _ = loss.logistic_loss_grad(w, X, y)
        assert f > 0


class TestRidge:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [0.0, 0.5, 100.0])
    def test_l1_gradient(self, seed, lam):
        X, y, w, _, _ = _rand_problem(seed)
        _, g = loss.l1_loss_grad(w, X, y, lam)
        gfd = fd_grad(lambda v: loss.l1_loss_grad(v, X, y, lam)[0], w)
        np.testing.assert_allclose(g, gfd, rtol=1e-4, atol=1e-6)

    def test_ridge_adds_lam_w_sq(self):
        X, y, w, _, _ = _rand_problem(0)
        f0, _ = loss.l1_loss_grad(w, X, y, 0.0)
        f1, _ = loss.l1_loss_grad(w, X, y, 2.0)
        assert f1 == pytest.approx(f0 + 2.0 * w @ w)


class TestCosPenalty:
    @pytest.mark.parametrize("seed", range(8))
    def test_gradient(self, seed):
        _, _, w, q0, _ = _rand_problem(seed)
        _, g = loss.cos_penalty_grad(w, q0)
        gfd = fd_grad(lambda v: loss.cos_penalty_grad(v, q0)[0], w)
        np.testing.assert_allclose(g, gfd, rtol=1e-5, atol=1e-7)

    def test_zero_at_alignment(self):
        q0 = np.array([1.0, 0.0, 0.0])
        f, _ = loss.cos_penalty_grad(3.0 * q0, q0)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_max_at_anti_alignment(self):
        q0 = np.array([1.0, 0.0])
        f, _ = loss.cos_penalty_grad(-2.0 * q0, q0)
        assert f == pytest.approx(2.0)

    def test_scale_invariant(self):
        _, _, w, q0, _ = _rand_problem(1)
        f1, _ = loss.cos_penalty_grad(w, q0)
        f2, _ = loss.cos_penalty_grad(7.5 * w, q0)
        assert f1 == pytest.approx(f2)

    def test_origin_pulls_toward_q0(self):
        q0 = np.array([0.0, 1.0])
        f, g = loss.cos_penalty_grad(np.zeros(2), q0)
        assert f == 1.0
        # descent direction -g must point along +q0
        assert -g @ q0 > 0


class TestQuadOverNorm:
    @pytest.mark.parametrize("seed", range(8))
    def test_gradient(self, seed):
        _, _, w, _, M = _rand_problem(seed)
        _, g = loss.quad_over_norm_grad(w, M)
        gfd = fd_grad(lambda v: loss.quad_over_norm_grad(v, M)[0], w)
        np.testing.assert_allclose(g, gfd, rtol=1e-5, atol=1e-7)

    def test_scale_invariant(self):
        _, _, w, _, M = _rand_problem(2)
        f1, _ = loss.quad_over_norm_grad(w, M)
        f2, _ = loss.quad_over_norm_grad(0.01 * w, M)
        assert f1 == pytest.approx(f2)

    @pytest.mark.parametrize("c", [1e-7, 1e-3])
    def test_scale_invariant_at_small_norms(self, c):
        """The ratio and |w| times its gradient do not depend on |w|, down to
        the |w| < 1e-12 guard."""
        _, _, w, _, M = _rand_problem(2)
        f1, g1 = loss.quad_over_norm_grad(w, M)
        fc, gc = loss.quad_over_norm_grad(c * w, M)
        assert fc == pytest.approx(f1, rel=1e-12)
        np.testing.assert_allclose(c * gc, g1, rtol=1e-12, atol=1e-12 * np.linalg.norm(g1))

    def test_eigenvector_value(self):
        M = np.diag([1.0, 4.0, 9.0])
        f, _ = loss.quad_over_norm_grad(np.array([0.0, 1.0, 0.0]), M)
        assert f == pytest.approx(4.0)

    def test_bounded_by_eigenvalues(self):
        _, _, w, _, M = _rand_problem(5)
        lo, hi = np.linalg.eigvalsh(M)[[0, -1]]
        f, _ = loss.quad_over_norm_grad(w, M)
        assert lo - 1e-9 <= f <= hi + 1e-9

    def test_zero_w_safe(self):
        M = np.eye(3)
        f, g = loss.quad_over_norm_grad(np.zeros(3), M)
        assert f == 0.0
        np.testing.assert_array_equal(g, np.zeros(3))


class TestFullLoss:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("lam_c,lam_d", [(0, 0), (1, 0), (0, 2), (0.7, 3.0)])
    def test_l3_gradient(self, seed, lam_c, lam_d):
        X, y, w, q0, M = _rand_problem(seed)
        _, g = loss.l3_loss_grad(w, X, y, q0, M, 0.5, lam_c, lam_d)
        gfd = fd_grad(
            lambda v: loss.l3_loss_grad(v, X, y, q0, M, 0.5, lam_c, lam_d)[0], w
        )
        np.testing.assert_allclose(g, gfd, rtol=1e-4, atol=1e-6)

    def test_reduces_to_l1(self):
        X, y, w, q0, M = _rand_problem(0)
        f3, g3 = loss.l3_loss_grad(w, X, y, q0, M, 0.5, 0.0, 0.0)
        f1, g1 = loss.l1_loss_grad(w, X, y, 0.5)
        assert f3 == pytest.approx(f1)
        np.testing.assert_allclose(g3, g1)

    def test_none_m_disables_db_term(self):
        X, y, w, q0, M = _rand_problem(0)
        f_none, _ = loss.l3_loss_grad(w, X, y, q0, None, 0.5, 1.0, 99.0)
        f_zero, _ = loss.l3_loss_grad(w, X, y, q0, M, 0.5, 1.0, 0.0)
        assert f_none == pytest.approx(f_zero)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 10), st.integers(1, 12))
    def test_l3_gradient_hypothesis(self, seed, d, n):
        g = np.random.default_rng(seed)
        X = g.standard_normal((n, d))
        y = (g.random(n) > 0.5).astype(float)
        w = g.standard_normal(d) * (10 ** g.uniform(-2, 1))
        q0 = g.standard_normal(d)
        q0 /= np.linalg.norm(q0)
        A = g.standard_normal((d, d))
        M = A @ A.T / d
        _, grad = loss.l3_loss_grad(w, X, y, q0, M, 1.0, 0.5, 2.0)
        gfd = fd_grad(lambda v: loss.l3_loss_grad(v, X, y, q0, M, 1.0, 0.5, 2.0)[0], w)
        np.testing.assert_allclose(grad, gfd, rtol=1e-3, atol=1e-5)


# -- bit pins ------------------------------------------------------------------
# The loss terms as separate functions, each with its own |w|, label signs
# and exponentials: the composition that the shared-piece evaluation must
# reproduce exactly.
def _ref_log1pexp(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z > 0
    out[pos] = z[pos] + np.log1p(np.exp(-z[pos]))
    out[~pos] = np.log1p(np.exp(z[~pos]))
    return out


def _ref_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _ref_l3(w, X, y, q0, M, lam, lam_c, lam_d, sw=None):
    if X.shape[0] == 0:
        f, g = 0.0, np.zeros_like(w)
    else:
        s = np.where(np.asarray(y, dtype=np.float64) > 0.5, 1.0, -1.0)
        z = X @ w
        per = _ref_log1pexp(-s * z)
        coef = -s * _ref_sigmoid(-s * z)
        if sw is not None:
            per, coef = per * sw, coef * sw
        f, g = float(per.sum()), X.T @ coef
    f += lam * float(w @ w)
    g = g + 2.0 * lam * w
    if lam_c != 0.0:
        nw = float(np.linalg.norm(w))
        if nw < 1e-12:
            fc, gc = 1.0, -q0.copy()
        else:
            dot = float(w @ q0)
            fc, gc = 1.0 - dot / nw, -(q0 / nw) + dot * w / nw**3
        f += lam_c * fc
        g = g + lam_c * gc
    if lam_d != 0.0 and M is not None:
        n2 = float(w @ w)
        if n2 < 1e-24:
            fd, gd = 0.0, np.zeros_like(w)
        else:
            Mw = M @ w
            q = float(w @ Mw)
            fd, gd = q / n2, 2.0 * Mw / n2 - 2.0 * q * w / n2**2
        f += lam_d * fd
        g = g + lam_d * gd
    return f, g


class TestBitPin:
    Z = np.array(
        [-np.inf, -800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 0.5, 37.0, 800.0, np.inf]
    )

    def test_log1pexp_and_sigmoid(self):
        z = np.concatenate([self.Z, np.random.default_rng(0).standard_normal(500) * 20])
        assert np.array_equal(loss.log1pexp(z), _ref_log1pexp(z))
        assert np.array_equal(loss.sigmoid(z), _ref_sigmoid(z))

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3, 1e-7, 1e-13, 0.0])
    @pytest.mark.parametrize("lams", [(0.5, 0.0, 0.0), (0.5, 0.6, 0.0), (1.0, 0.6, 2.0), (0.0, 0.0, 2.0)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_l3_matches_term_composition(self, scale, lams, weighted):
        """Every branch: ``w = 0``, a norm below the 1e-12 that guards both
        scale-invariant terms (scale 1e-13) and normal norms; with and
        without precomputed signs."""
        g = np.random.default_rng(7)
        for n, d in [(1, 4), (9, 16), (300, 64)]:
            X = g.standard_normal((n, d))
            y = (g.random(n) < 0.3).astype(float)
            w = g.standard_normal(d) * scale
            q0 = g.standard_normal(d)
            q0 /= np.linalg.norm(q0)
            A = g.standard_normal((d, d))
            M = A @ A.T / d
            sw = g.random(n) * 3 if weighted else None
            f_ref, g_ref = _ref_l3(w, X, y, q0, M, *lams, sw)
            for kw in ({}, {"signs": loss.label_signs(y)}):
                f, grad = loss.l3_loss_grad(w, X, y, q0, M, *lams, sw, **kw)
                assert f == f_ref
                assert np.array_equal(grad, g_ref)

    def test_l3_without_feedback_or_m(self):
        g = np.random.default_rng(4)
        w, q0 = g.standard_normal(8), np.eye(8)[0]
        X, y = np.zeros((0, 8)), np.zeros(0)
        f, grad = loss.l3_loss_grad(w, X, y, q0, None, 0.5, 0.6, 2.0)
        f_ref, g_ref = _ref_l3(w, X, y, q0, None, 0.5, 0.6, 2.0)
        assert f == f_ref and np.array_equal(grad, g_ref)
