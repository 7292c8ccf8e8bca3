import numpy as np
import pytest
import scipy.optimize

from envelofit.core import BoxConstraint, InputError
from envelofit.prox import ProxParams, reflect_g

from oracles import prox_r, prox_scalar_q, prox_thresholds, reflect_g_select


def penalty_q(x, a, b):
    """Scalar piecewise penalty: quadratic inside [a, b], slope-matched linear
    outside (oracle definition, independent of the closed forms)."""
    if np.isfinite(a) and x < a:
        return a * x - 0.5 * a * a
    if np.isfinite(b) and x > b:
        return b * x - 0.5 * b * b
    return 0.5 * x * x


def _monotone_root(g, center):
    """Root of an increasing scalar function, bracket grown geometrically."""
    width = 1.0
    lo, hi = center - width, center + width
    while g(lo) > 0.0:
        width *= 2.0
        lo = center - width
    width = 1.0
    while g(hi) < 0.0:
        width *= 2.0
        hi = center + width
    return scipy.optimize.brentq(g, lo, hi, xtol=1e-13)


def brute_prox_q(s, a, b, alpha):
    """1-D numeric minimizer of 0.5(s - x)^2 + alpha q(x).

    The objective is strictly convex with monotone derivative
    x - s + alpha clip(x, a, b); the minimizer is its unique root.
    """
    return _monotone_root(lambda x: x - s + alpha * np.clip(x, a, b), s)


def brute_prox_r(t, y, a, b, alpha, lam):
    """Numeric minimizer of 0.5(t - s)^2 + alpha lam q(y - s/lam)."""
    return _monotone_root(
        lambda s: s - t - alpha * np.clip(y - s / lam, a, b), t
    )


def random_bounds(rng):
    a = float(rng.normal(scale=2.0))
    b = a + float(rng.exponential(2.0))
    which = rng.integers(4)
    if which == 1:
        a = -np.inf
    elif which == 2:
        b = np.inf
    elif which == 3:
        a, b = -np.inf, np.inf
    return a, b


class TestProxScalarQ:
    def test_interior_shrinkage(self):
        # s between the scaled bounds: pure quadratic, divide by 1 + alpha
        assert prox_scalar_q(0.5, -1.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_below_lower(self):
        # s < (1 + alpha) a: linear branch
        assert prox_scalar_q(-10.0, -1.0, 1.0, 1.0) == pytest.approx(-9.0)

    def test_above_upper(self):
        assert prox_scalar_q(10.0, -1.0, 1.0, 1.0) == pytest.approx(9.0)

    def test_unbounded_is_pure_shrinkage(self):
        for s in (-50.0, 0.0, 3.0, 1e6):
            assert prox_scalar_q(s, -np.inf, np.inf, 3.0) == pytest.approx(s / 4.0)

    def test_crossed_bounds_rejected(self):
        with pytest.raises(InputError):
            prox_scalar_q(0.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            a, b = random_bounds(rng)
            alpha = float(rng.uniform(0.05, 5.0))
            s = float(rng.normal(scale=5.0))
            want = brute_prox_q(s, a, b, alpha)
            assert prox_scalar_q(s, a, b, alpha) == pytest.approx(want, abs=1e-8)

    def test_firmly_nonexpansive(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b = random_bounds(rng)
            alpha = float(rng.uniform(0.05, 5.0))
            s1, s2 = rng.normal(scale=5.0, size=2)
            j1 = prox_scalar_q(s1, a, b, alpha)
            j2 = prox_scalar_q(s2, a, b, alpha)
            # prox of a convex function: (J s1 - J s2)^2 <= (J s1 - J s2)(s1 - s2)
            assert (j1 - j2) ** 2 <= (j1 - j2) * (s1 - s2) + 1e-12

    def test_continuous_at_thresholds(self):
        a, b, alpha = -0.7, 1.3, 2.0
        for edge in ((1 + alpha) * a, (1 + alpha) * b):
            lo = prox_scalar_q(edge - 1e-9, a, b, alpha)
            hi = prox_scalar_q(edge + 1e-9, a, b, alpha)
            assert abs(hi - lo) < 1e-7


class TestProxParams:
    def test_thresholds(self):
        y = np.array([1.0, -2.0])
        box = BoxConstraint([-1.0, -3.0], [2.0, 0.0])
        p = ProxParams(lam=2.0, alpha=1.0, y=y, box=box)
        scale = 1.0 + 1.0 / 2.0
        c, d = prox_thresholds(p)
        np.testing.assert_allclose(c, 2.0 * (y - scale * box.lower))
        np.testing.assert_allclose(d, 2.0 * (y - scale * box.upper))

    def test_infinite_bounds_disable_branches(self):
        box = BoxConstraint([-np.inf], [np.inf])
        p = ProxParams(lam=1.0, alpha=1.0, y=np.zeros(1), box=box)
        c, d = prox_thresholds(p)
        assert c[0] == np.inf and d[0] == -np.inf
        assert p.lo is None and p.hi is None

    def test_ordering_d_le_c(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            y = rng.normal(size=8)
            a = y - rng.exponential(1.0, 8)
            b = y + rng.exponential(1.0, 8)
            p = ProxParams(lam=rng.uniform(0.1, 10), alpha=rng.uniform(0.1, 10),
                           y=y, box=BoxConstraint(a, b))
            c, d = prox_thresholds(p)
            assert np.all(d <= c)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            ProxParams(lam=1.0, alpha=1.0, y=np.zeros(3),
                       box=BoxConstraint([0.0], [1.0]))


class TestProxR:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed + 20)
        n = 16
        y = rng.normal(scale=2.0, size=n)
        bounds = [random_bounds(rng) for _ in range(n)]
        a = np.array([ab[0] for ab in bounds])
        b = np.array([ab[1] for ab in bounds])
        lam = float(rng.uniform(0.2, 5.0))
        alpha = float(rng.uniform(0.2, 5.0))
        p = ProxParams(lam=lam, alpha=alpha, y=y, box=BoxConstraint(a, b))
        t = rng.normal(scale=5.0, size=n)
        got = prox_r(t, p)
        for i in range(n):
            want = brute_prox_r(t[i], y[i], a[i], b[i], alpha, lam)
            assert got[i] == pytest.approx(want, abs=1e-7)

    def test_length_mismatch(self):
        p = ProxParams(lam=1.0, alpha=1.0, y=np.zeros(2),
                       box=BoxConstraint([-1.0, -1.0], [1.0, 1.0]))
        with pytest.raises(InputError):
            prox_r(np.zeros(3), p)


class TestReflectG:
    def test_is_two_prox_minus_identity(self):
        rng = np.random.default_rng(42)
        n = 32
        y = rng.normal(size=n)
        a = y - rng.exponential(1.0, n)
        b = y + rng.exponential(1.0, n)
        p = ProxParams(lam=1.5, alpha=0.8, y=y, box=BoxConstraint(a, b))
        t = rng.normal(scale=3.0, size=n)
        v = reflect_g(t, p)
        np.testing.assert_allclose(v, 2.0 * prox_r(t, p) - t, atol=1e-12)

    def test_nonexpansive(self):
        # reflections of proximal maps are 1-Lipschitz
        rng = np.random.default_rng(3)
        n = 16
        y = rng.normal(size=n)
        a = y - rng.exponential(1.0, n)
        b = y + rng.exponential(1.0, n)
        p = ProxParams(lam=2.0, alpha=1.5, y=y, box=BoxConstraint(a, b))
        for _ in range(50):
            t1 = rng.normal(scale=4.0, size=n)
            t2 = rng.normal(scale=4.0, size=n)
            v1 = reflect_g(t1, p)
            v2 = reflect_g(t2, p)
            assert np.linalg.norm(v1 - v2) <= np.linalg.norm(t1 - t2) * (1 + 1e-10)


    def test_output_overlapping_t_or_not_float64_rejected(self):
        """With ``out = t``, ``k*t`` would overwrite ``t`` before ``v += t``
        reads it; a float32 ``out`` would compute in float32, and numpy
        raises its own ``ValueError`` for a misshapen one."""
        rng = np.random.default_rng(5)
        n = 200
        y = rng.normal(size=n)
        p = ProxParams(lam=2.0, alpha=0.7, y=y, box=BoxConstraint(y - 0.5, y + 0.5))
        buf = rng.normal(scale=3.0, size=n + 1)
        t = buf[:n]
        want = reflect_g(t.copy(), p)
        for out in (t, buf[1:], t[::-1], np.empty(n, np.float32), np.empty(n - 1)):
            with pytest.raises(InputError):
                reflect_g(t, p, out)
        out = np.empty(n)
        assert reflect_g(t, p, out) is out
        assert np.array_equal(out, want)


class TestReflectGMatchesSelect:
    """The in-place clipped prox against the ``np.select`` case table, bit for bit."""

    @staticmethod
    def bounds(rng, n, kind):
        y = rng.normal(size=n)
        a = y - rng.exponential(1.0, n)
        b = y + rng.exponential(1.0, n)
        if kind in ("lower_inf", "both_inf"):
            a[:] = -np.inf
        if kind in ("upper_inf", "both_inf"):
            b[:] = np.inf
        if kind == "mixed":
            a[rng.random(n) < 0.4] = -np.inf
            b[rng.random(n) < 0.4] = np.inf
        return y, BoxConstraint(a, b)

    @pytest.mark.parametrize("kind", ["finite", "lower_inf", "upper_inf", "both_inf", "mixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal(self, kind, seed):
        rng = np.random.default_rng(seed + 60)
        n = 64
        y, box = self.bounds(rng, n, kind)
        p = ProxParams(lam=float(rng.uniform(0.2, 5.0)),
                       alpha=float(rng.uniform(0.2, 8.0)), y=y, box=box)
        assert (p.lo is None) == (kind in ("lower_inf", "both_inf"))
        assert (p.hi is None) == (kind in ("upper_inf", "both_inf"))
        t = rng.normal(scale=6.0, size=n)
        t[:3] = [np.nan, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):  # inf - inf where t = +-inf meets no bound
            want, _ = reflect_g_select(t, np.zeros(0), p)
            got = reflect_g(t, p)
            buf = np.full(n, 7.0)
            got_out = reflect_g(t, p, out=buf)
        assert np.isnan(want[0])
        assert np.array_equal(got, want, equal_nan=True)
        assert got_out is buf
        assert np.array_equal(buf, want, equal_nan=True)


class TestReflectGClampTies:
    """At and within an ulp of a threshold the clip returns one of the two lines."""

    @pytest.mark.parametrize("seed", range(6))
    def test_thresholds(self, seed):
        rng = np.random.default_rng(seed + 120)
        n = 400
        mag = 10.0 ** rng.uniform(-3.0, 3.0, n)
        y = rng.normal(size=n) * mag
        a = y - rng.exponential(1.0, n) * mag
        b = y + rng.exponential(1.0, n) * mag
        lam, alpha = float(rng.uniform(0.2, 50.0)), float(rng.uniform(0.2, 40.0))
        p = ProxParams(lam=lam, alpha=alpha, y=y, box=BoxConstraint(a, b))
        c, d = prox_thresholds(p)
        eps = np.finfo(float).eps
        for thr, bound, two_alpha_bound in ((c, a, p.lo), (d, b, p.hi)):
            # magnitude of the terms both lines and the threshold round
            size = np.abs(thr) + (lam + 2 * alpha) * np.abs(y) + (lam + 3 * alpha) * np.abs(bound)
            for t in (np.nextafter(thr, -np.inf), thr, np.nextafter(thr, np.inf)):
                got = reflect_g(t, p)
                interior = t + (p.off - p.k * t)
                outer = t + two_alpha_bound
                assert np.all((got == interior) | (got == outer))
                assert np.all(np.abs(interior - outer) <= 4 * eps * size)
            for t in (thr - 1e-9 * size, thr + 1e-9 * size):  # off the threshold
                want, _ = reflect_g_select(t, np.zeros(0), p)
                assert np.array_equal(reflect_g(t, p), want)
