import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
from scipy.fft import next_fast_len

import envelofit
import envelofit.pipeline
import envelofit.solver
from envelofit.core import BoxConstraint, InputError, NumericalError, Signal
from envelofit.kernel import (
    KernelSpec,
    apply_resolvent,
    apply_toeplitz,
    build_band,
    embed_circulant,
    toeplitz_from_resolvent,
)
from envelofit.solver import SolveParams, SolverSettings, residual, solve_constrained_filter

from oracles import (
    inject_truncated_band,
    residual_reference,
    solve_reference_dense,
    solve_reference_loop,
)


def pd_instance(rng, n_range=(8, 64)):
    """Random small instance with a narrow kernel; the band is positive
    definite by construction, as the dense oracle requires."""
    n = int(rng.integers(*n_range))
    spec = KernelSpec(sigma=float(rng.uniform(0.8, 3.0)))
    y = Signal(rng.normal(scale=2.0, size=n), 10.0)
    which = rng.integers(3)
    if which == 0:
        lo, hi = y.samples - rng.exponential(1.0, n), y.samples + rng.exponential(1.0, n)
    elif which == 1:
        lo, hi = np.full(n, -np.inf), y.samples  # lower-envelope shape
    else:
        lo, hi = y.samples, np.full(n, np.inf)  # upper-envelope shape
    return SolveParams(
        y=y,
        lam=float(rng.uniform(0.5, 20.0)),
        kernel=spec,
        box=BoxConstraint(lo, hi),
        max_iters=20000,
    )


class TestParamValidation:
    @pytest.mark.parametrize("caps", [{"max_iters": -5}, {"trace_every": -3}])
    def test_negative_caps_rejected(self, caps):
        y = Signal([1.0, 2.0], 1.0)
        box = BoxConstraint([-1.0, -1.0], [3.0, 3.0])
        with pytest.raises(InputError, match="must be >= 1"):
            SolveParams(y=y, lam=1.0, kernel=KernelSpec(1.0), box=box, **caps)

    @pytest.mark.parametrize("kw", [
        pytest.param({name: v}, id=f"{name}={v}")
        for name, values in [("alpha", (0.0, -1.0, np.inf, np.nan)),
                             ("tol", (0.0, np.inf, np.nan)),
                             ("max_iters", (-1, 0)), ("trace_every", (-1, 0))]
        for v in values
    ])
    def test_settings_rejected_when_built(self, kw):
        # the step size is derived, not a setting: no value of it is taken
        with pytest.raises(TypeError if "alpha" in kw else InputError,
                           match=next(iter(kw))):
            SolverSettings(**kw)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_lam_positive_and_finite(self, lam):
        y = Signal([1.0, 2.0], 1.0)
        box = BoxConstraint([-1.0, -1.0], [3.0, 3.0])
        with pytest.raises(InputError, match="lam"):
            SolveParams(y=y, lam=lam, kernel=KernelSpec(1.0), box=box)

    def test_one_declaration_of_the_settings(self):
        assert issubclass(SolveParams, SolverSettings)
        assert envelofit.SolverSettings is envelofit.pipeline.SolverSettings is SolverSettings

    def test_step_size_is_not_a_setting(self):
        y = Signal([1.0, 2.0], 1.0)
        box = BoxConstraint([-1.0, -1.0], [3.0, 3.0])
        with pytest.raises(TypeError, match="alpha"):
            SolveParams(y=y, lam=1.0, kernel=KernelSpec(1.0), box=box, alpha=1.0)

    def test_unset_alpha_stores_the_stage_rule(self):
        for n, sigma, tau in [(30, 2.0, 1e-3), (2000, 50.0, 1e-5), (1, 1.0, 0.5)]:
            y = Signal(np.linspace(-1.0, 2.0, n), 1.0)
            box = BoxConstraint(np.full(n, -1.0), np.full(n, 3.0))
            p = SolveParams(y=y, lam=5.0, kernel=KernelSpec(sigma, tau=tau), box=box)
            assert p.alpha == rule_alpha(p.kernel, n)
        assert p.max_iters == SolverSettings().max_iters

    def test_rule_does_not_depend_on_lam(self):
        p = loop_instance("two_sided")
        assert dataclasses.replace(p, lam=40.0).alpha == p.alpha

    @pytest.mark.parametrize("change", ["kernel", "length"])
    def test_replace_derives_the_rule_again(self, change):
        p = loop_instance("two_sided")
        if change == "kernel":
            q = dataclasses.replace(p, kernel=KernelSpec(50.0, tau=1e-5))
        else:
            q = dataclasses.replace(p, y=Signal(p.y.samples[:150], 10.0),
                                    box=BoxConstraint(p.box.lower[:150], p.box.upper[:150]))
        assert q.alpha != p.alpha
        assert q.alpha == rule_alpha(q.kernel, len(q.y))

    def test_rule_rejects_a_spectrum_that_is_not_positive(self, monkeypatch):
        inject_truncated_band(monkeypatch)
        with pytest.raises(NumericalError, match="eig_min -"):
            loop_instance("two_sided")

    def test_tol_abs_relative_to_signal(self):
        box = BoxConstraint([-9.0, -9.0], [9.0, 9.0])
        for peak in (4.0, 0.25):  # relative below 1 too: no floor at 1
            y = Signal([0.0, peak], 1.0)
            p = SolveParams(y=y, lam=1.0, kernel=KernelSpec(1.0, tau=0.5), box=box, tol=1e-6)
            assert p.tol_abs == pytest.approx(peak * 1e-6)

    def test_tol_abs_zero_signal_falls_back_to_one(self):
        y = Signal([0.0, 0.0], 1.0)
        box = BoxConstraint([-1.0, -1.0], [1.0, 1.0])
        p = SolveParams(y=y, lam=1.0, kernel=KernelSpec(1.0, tau=0.5), box=box, tol=1e-6)
        assert p.tol_abs == pytest.approx(1e-6)


class TestClosedFormN1:
    # N = 1: C = [c], minimize lam/2 (y-x)^2 + x^2/(2c), then clip
    CASES = pytest.mark.parametrize("lam,y0,a,b", [
        (2.0, 3.0, -10.0, 10.0),   # interior: x = lam y / (lam + 1)
        (2.0, 3.0, -10.0, 1.0),    # clipped at upper bound
        (2.0, -3.0, -1.0, 10.0),   # clipped at lower bound
        (0.5, 1.0, -np.inf, np.inf),
    ])

    @staticmethod
    def params(lam, y0, a, b):
        return SolveParams(y=Signal([y0], 10.0), lam=lam, kernel=KernelSpec(1.0, tau=0.5),
                           box=BoxConstraint([a], [b]), max_iters=5000)

    @CASES
    def test_matches_formula(self, lam, y0, a, b):
        p = self.params(lam, y0, a, b)
        got = solve_constrained_filter(p).x_hat.samples[0]
        c = build_band(p.kernel, 1).first_row[0]
        want = np.clip(lam * c * y0 / (lam * c + 1.0), a, b)
        assert got == pytest.approx(want, abs=1e-6)

    @CASES
    def test_singular_gram_takes_the_plain_step(self, lam, y0, a, b, monkeypatch):
        """Once the iterate sits at the fixed point every difference is zero,
        so the Gram solve is singular: LAPACK flags it, the solve raises
        ``FloatingPointError``, and the loop takes the plain step, whose
        next resolvent's input is the reflection just made.  The solve
        matches the unfused loop, which catches ``LinAlgError``, bit for bit."""
        p = self.params(lam, y0, a, b)
        reflected, singular, plain = [], [], []
        prox, resolvent = envelofit.solver.reflect_g, envelofit.solver.apply_resolvent
        solve1 = envelofit.solver._umath_linalg.solve1

        def recorded_prox(t, params, out, work):
            reflected.append(prox(t, params, out, work).copy())
            return out

        def recorded_solve(*args, **kw):
            try:
                return solve1(*args, **kw)
            except FloatingPointError:
                singular.append(len(reflected))
                raise

        def checked_resolvent(op, alpha, u, *args):
            if singular and singular[-1] == len(reflected):
                plain.append(np.array_equal(u[:1], reflected[-1]))
            return resolvent(op, alpha, u, *args)

        monkeypatch.setattr(envelofit.solver, "reflect_g", recorded_prox)
        monkeypatch.setattr(envelofit.solver, "apply_resolvent", checked_resolvent)
        monkeypatch.setattr(envelofit.solver, "_umath_linalg",
                            types.SimpleNamespace(solve1=recorded_solve))
        TestFusedLoopMatchesReference.assert_identical(p)
        assert len(singular) >= 1
        assert plain == [True] * len(singular)


class TestPinnedBounds:
    def test_a_equals_b_returns_bounds(self):
        rng = np.random.default_rng(0)
        y = Signal(rng.normal(size=24), 10.0)
        pin = rng.normal(size=24)
        p = SolveParams(y=y, lam=1.0, kernel=KernelSpec(2.0),
                        box=BoxConstraint(pin, pin))
        res = solve_constrained_filter(p)
        np.testing.assert_array_equal(res.x_hat.samples, pin)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        p = pd_instance(rng)
        fast = solve_constrained_filter(p)
        ref = solve_reference_dense(p)
        gap = np.max(np.abs(fast.x_hat.samples - ref.x_hat.samples))
        assert gap < 1e-5

    @pytest.mark.parametrize("box_kind", ["two_sided", "lower"])
    @pytest.mark.parametrize("sigma,lam", [(5.0, 50.0), (20.0, 0.5), (50.0, 1.0)])
    def test_matches_dense_reference_at_production_sigma(self, sigma, lam, box_kind):
        """The pipeline's kernel widths, weights and truncation at n = 1000."""
        p = loop_instance(box_kind, n=1000, sigma=sigma, lam=lam,
                          tol=1e-9, max_iters=20000)
        fast = solve_constrained_filter(p)
        ref = solve_reference_dense(p)
        assert fast.converged
        assert np.max(np.abs(fast.x_hat.samples - ref.x_hat.samples)) < 1e-8


class TestResidual:
    def test_zero_dual_vector(self):
        y = Signal([2.0, -1.0, 0.5], 10.0)
        box = BoxConstraint([-1.0] * 3, [1.0] * 3)
        p = SolveParams(y=y, lam=2.0, kernel=KernelSpec(1.0, tau=0.5), box=box)
        # z = 0: residual is ||P_B(y)||_inf
        assert residual(np.zeros(3), p) == pytest.approx(1.0)

    @pytest.mark.parametrize("box_kind", ["two_sided", "lower", "upper", "mixed"])
    def test_buffered_gap_matches_and_allocates_nothing(self, box_kind):
        """The gap equals the out-of-place oracle bit for bit, with or
        without ``out``, and with it leaves no n-long temporary behind."""
        n = 2**15
        p = loop_instance(box_kind, n=n)
        rng = np.random.default_rng(4)
        z, cz = rng.normal(size=n), rng.normal(size=n)
        out = np.empty(n)
        want = residual_reference(z, p, cz)
        assert residual(z, p, cz) == want
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = residual(z, p, cz, out)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 8 * n // 4

    def test_buffer_of_wrong_length_rejected(self):
        p = loop_instance("two_sided", n=64, sigma=5.0)
        with pytest.raises(InputError):
            residual(np.zeros(64), p, np.zeros(64), np.empty(63))

    def test_converged_below_tolerance(self):
        rng = np.random.default_rng(1)
        p = pd_instance(rng)
        res = solve_constrained_filter(p)
        if res.converged:
            assert res.residual_inf < p.tol_abs

    def test_trace_endpoints(self):
        rng = np.random.default_rng(2)
        p = pd_instance(rng)
        res = solve_constrained_filter(p)
        iters, last = res.residual_trace[-1]
        assert iters == res.iters
        assert last == res.residual_inf
        # eventual decrease: endpoint no worse than the first checkpoint
        assert res.residual_trace[-1][1] <= res.residual_trace[0][1]

    def test_trace_every_past_the_cap_checks_at_the_cap(self):
        rng = np.random.default_rng(3)
        q = dataclasses.replace(pd_instance(rng), trace_every=100, max_iters=50)
        res = solve_constrained_filter(q)
        assert res.iters == 50
        assert res.residual_trace == ((50, res.residual_inf),)


class TestFeasibility:
    @pytest.mark.parametrize("seed", range(5))
    def test_solution_respects_box_exactly(self, seed):
        rng = np.random.default_rng(seed + 30)
        p = pd_instance(rng)
        res = solve_constrained_filter(p)
        assert np.all(res.x_hat.samples >= p.box.lower)
        assert np.all(res.x_hat.samples <= p.box.upper)


def rule_alpha(kernel, n):
    """``1 / sqrt(eig_min * eig_max)`` of a length-``n`` solve's circulant."""
    band = build_band(kernel, n)
    eig = embed_circulant(band, next_fast_len(n + band.half_width)).eigenvalues
    return 1.0 / math.sqrt(eig.min() * eig.max())


def loop_instance(box_kind, n=200, sigma=20.0, tau=1e-5, seed=0, lam=0.5, **kw):
    """Pipeline-shaped instance: wide truncated kernel."""
    rng = np.random.default_rng(seed)
    y = Signal(np.cumsum(rng.normal(size=n)) * 0.2, 10.0)
    s = y.samples
    if box_kind == "two_sided":
        lo, hi = s - rng.exponential(0.5, n), s + rng.exponential(0.5, n)
    elif box_kind == "lower":
        lo, hi = np.full(n, -np.inf), s
    elif box_kind == "upper":
        lo, hi = s, np.full(n, np.inf)
    else:  # "mixed": a lower bound with finite and -inf entries
        lo, hi = s - rng.exponential(0.5, n), s + rng.exponential(0.5, n)
        lo[rng.random(n) < 0.5] = -np.inf
    return SolveParams(y=y, lam=lam, kernel=KernelSpec(sigma, tau=tau),
                       box=BoxConstraint(lo, hi), **kw)


class TestFusedLoopMatchesReference:
    """The in-place loop reproduces the unfused loop of ``tests/oracles.py`` bit for bit."""

    @staticmethod
    def assert_identical(p):
        got, want = solve_constrained_filter(p), solve_reference_loop(p)
        assert np.array_equal(got.x_hat.samples, want.x_hat.samples)
        assert np.array_equal(got.z, want.z)
        assert got.iters == want.iters
        assert got.residual_trace == want.residual_trace
        assert got.residual_inf == want.residual_inf
        assert got.converged == want.converged
        return got

    @pytest.mark.parametrize("box_kind", ["two_sided", "lower", "upper", "mixed"])
    def test_box_shapes(self, box_kind):
        self.assert_identical(loop_instance(box_kind, max_iters=300))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_two_sided(self, seed):
        rng = np.random.default_rng(seed + 90)
        self.assert_identical(loop_instance(
            "two_sided", n=int(rng.integers(300, 600)), sigma=float(rng.uniform(1.0, 30.0)),
            lam=float(rng.uniform(0.2, 20.0)), seed=seed, max_iters=400))

    def test_production_scale(self):
        self.assert_identical(loop_instance("two_sided", n=2000, max_iters=150))

    @pytest.mark.parametrize("box_kind", ["two_sided", "lower", "upper"])
    def test_long_signal_scale(self, box_kind):
        self.assert_identical(loop_instance(box_kind, n=2**15, max_iters=50))

    def test_trace_every_at_the_cap(self):
        res = self.assert_identical(loop_instance("mixed", max_iters=40, trace_every=40))
        assert [k for k, _ in res.residual_trace] == [40]

    def test_one_iteration_cap(self):
        res = self.assert_identical(loop_instance("two_sided", max_iters=1))
        assert res.iters == 1 and [k for k, _ in res.residual_trace] == [1]

    def test_cap_not_multiple_of_trace_every(self):
        res = self.assert_identical(loop_instance("lower", max_iters=107, trace_every=25))
        assert [k for k, _ in res.residual_trace] == [25, 50, 75, 100, 107]

    def test_converges_early(self):
        p = loop_instance("two_sided", sigma=2.0, tau=1e-3, lam=5.0, max_iters=20000)
        res = self.assert_identical(p)
        assert res.converged and res.iters < p.max_iters

    def test_one_resolvent_per_iteration(self, monkeypatch):
        calls = []
        original = envelofit.solver.apply_resolvent
        monkeypatch.setattr(envelofit.solver, "apply_resolvent",
                            lambda *a: calls.append(1) or original(*a))
        res = solve_constrained_filter(loop_instance("upper", max_iters=60, trace_every=7))
        assert len(calls) == res.iters + 1

    def test_resolvent_reuses_its_buffers(self, monkeypatch):
        buffers = set()
        original = envelofit.solver.apply_resolvent
        monkeypatch.setattr(envelofit.solver, "apply_resolvent",
                            lambda *a: buffers.add((id(a[3]), id(a[4]))) or original(*a))
        res = solve_constrained_filter(loop_instance("lower", max_iters=30))
        assert len(buffers) == 1
        assert res.z.base is None  # z holds no view of the solve's work block


class TestAndersonSafeguard:
    def test_plain_steps_keep_the_fixed_point(self, monkeypatch):
        """Where the fixed-point residual grows, the loop forgets its history
        and takes the plain step ``u <- g``: the next resolvent's input is
        the reflection just made.  This solve takes such steps after the
        first iteration, and matches the unfused loop bit for bit and the
        dense oracle within 1e-8."""
        p = loop_instance("lower", n=1000, sigma=50.0, lam=1.0,
                          tol=1e-9, max_iters=20000)
        n = len(p.y)
        reflected, plain = [], []
        prox, resolvent = envelofit.solver.reflect_g, envelofit.solver.apply_resolvent

        def recorded_prox(t, params, out, work):
            reflected.append(prox(t, params, out, work).copy())
            return out

        def checked_resolvent(op, alpha, u, *a):
            if reflected:
                plain.append(np.array_equal(u[:n], reflected[-1]))
            return resolvent(op, alpha, u, *a)

        monkeypatch.setattr(envelofit.solver, "reflect_g", recorded_prox)
        monkeypatch.setattr(envelofit.solver, "apply_resolvent", checked_resolvent)
        res = TestFusedLoopMatchesReference.assert_identical(p)
        assert plain[0] and sum(plain[1:]) >= 1
        assert res.converged
        ref = solve_reference_dense(p)
        assert np.max(np.abs(res.x_hat.samples - ref.x_hat.samples)) < 1e-8


class TestCheckpointProduct:
    """The checkpoint's ``C z``, read off the resolvent, against the
    convolution at the loop's own states: at the loop's step and, from the
    same ``u``, at the step ``alpha``, whose resolvent is taken afresh.  Only
    the loop's own gap is held within ``1e-6 * tol_abs``: at a far smaller
    step the resolvent's rounding, about ``eps * ||u|| / alpha``, is not."""

    CASES = [
        *[dict(box_kind=kind, n=n, max_iters=100 if n == 2000 else 30)
          for kind in ("two_sided", "lower", "upper") for n in (2000, 2**15)],
        dict(box_kind="two_sided", sigma=1.0, tau=0.5, max_iters=60),  # K = 0
        dict(box_kind="lower", n=20, sigma=5.0, tau=1e-3, max_iters=60),  # n < 2K
    ]

    @pytest.mark.parametrize("alpha", [1e-3, 0.1, 14.1, 50.0])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_convolution_at_checkpoints(self, case, alpha, monkeypatch):
        p = loop_instance(trace_every=10, **case)
        _, op = envelofit.solver._operator(p.kernel, len(p.y))
        eps = np.finfo(float).eps
        seen = []

        def gap_error(band, alpha_, u, r, cz):
            z = r[: band.n]
            direct = apply_toeplitz(band, z)
            gap = np.max(np.abs(cz - direct))
            row_sum = band.first_row[0] + 2.0 * band.first_row[1:].sum()
            assert gap <= 16 * eps * (np.max(np.abs(u)) / alpha_
                                      + row_sum * np.max(np.abs(z)))
            # both gaps are sup-norms against the same projection
            res_gap = abs(residual(z, p, cz) - residual(z, p))
            assert res_gap <= gap * (1 + 1e-12) + 4 * eps * np.max(np.abs(direct))
            return res_gap

        def checked(band, alpha_, u, r, out):
            cz = toeplitz_from_resolvent(band, alpha_, u, r, out)
            assert gap_error(band, alpha_, u, r, cz) <= 1e-6 * p.tol_abs
            r_at = apply_resolvent(op, alpha, u)
            gap_error(band, alpha, u, r_at,
                      toeplitz_from_resolvent(band, alpha, u, r_at, np.empty(band.n)))
            seen.append(alpha_)
            return cz

        monkeypatch.setattr(envelofit.solver, "toeplitz_from_resolvent", checked)
        res = solve_constrained_filter(p)
        assert seen == [p.alpha] * len(res.residual_trace)


class TestLoopAllocation:
    @pytest.mark.parametrize("box_kind", ["two_sided", "lower", "upper"])
    def test_iterations_allocate_less_than_a_vector(self, box_kind, monkeypatch):
        """From the first prox to the last resolvent the solve's traced peak
        exceeds its fixed buffers by less than one float64 n-vector."""
        n = 2**15
        p = loop_instance(box_kind, n=n, max_iters=20, trace_every=20)
        solve_constrained_filter(p)  # FFT plans and caches warm
        held, peak, sizes = [], [], []
        prox, resolvent = envelofit.solver.reflect_g, envelofit.solver.apply_resolvent

        def first_prox(*a):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            return prox(*a)

        def record_sizes(*a):
            if not sizes:
                sizes.append((a[0].size, a[4].size, len(a[0].eigenvalues)))
            return resolvent(*a)

        monkeypatch.setattr(envelofit.solver, "reflect_g", first_prox)
        monkeypatch.setattr(envelofit.solver, "apply_resolvent", record_sizes)
        monkeypatch.setattr(envelofit.solver, "residual",  # runs once, at the cap
                            lambda *a: peak.append(tracemalloc.get_traced_memory()[1]) or 1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_constrained_filter(p)
        finally:
            tracemalloc.stop()
        m, h, k = sizes[0]
        # work block (the two blocks of three Anderson differences of f and g,
        # then u, r, g and the last f and g: eleven rows, the memory budget),
        # spectrum (complex), eigenvalues, reciprocal (complex), 2*alpha*(y, a, b)
        fixed = 8 * (11 * m + 2 * h + k + 2 * h + 3 * n)
        assert fixed <= held[0] - start < fixed + 64 * 1024
        assert peak[0] - held[0] < 8 * n


def inject_nonfinite_reflection(monkeypatch, at):
    """Make the ``at``-th reflection from here on write ``inf`` into its
    output, as an overflow would."""
    prox, calls = envelofit.solver.reflect_g, []

    def faulty(t, params, out, work):
        prox(t, params, out, work)
        calls.append(1)
        if len(calls) == at:
            out[0] = np.inf
        return out

    monkeypatch.setattr(envelofit.solver, "reflect_g", faulty)


class TestSpectrumGuard:
    """The floor and divergence checks.  The positive definite band and the
    derived step trip neither, so each solve here has a fault injected."""

    def test_raises_before_first_iteration(self, monkeypatch):
        """The negated band, built by the solve after the step was derived
        from the true one, has a spectrum that no positive step clears."""
        p = loop_instance("two_sided", sigma=20.0, tau=1e-3)

        def negated_band(spec, n):
            band = build_band(spec, n)
            return dataclasses.replace(band, first_row=-band.first_row)

        monkeypatch.setattr(envelofit.solver, "build_band", negated_band)
        called = []
        for name in ("reflect_g", "residual"):
            monkeypatch.setattr(envelofit.solver, name,
                                lambda *a, _n=name, **k: called.append(_n))
        with pytest.raises(NumericalError, match="resolvent denominator"):
            solve_constrained_filter(p)
        assert called == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("trace_every", [25, 100])
    def test_divergence_raises_at_first_nonfinite_gap(self, trace_every, monkeypatch):
        """A non-finite reflection at iteration 30 makes every later iterate
        NaN; the next checkpoint (mid-run at 50, or at the cap, 60) says
        so, without numpy warnings, instead of returning NaNs."""
        inject_nonfinite_reflection(monkeypatch, at=30)
        p = loop_instance("lower", n=2000, max_iters=60, trace_every=trace_every)
        gaps = []

        def recorded(*args):
            gaps.append(residual(*args))
            return gaps[-1]

        monkeypatch.setattr(envelofit.solver, "residual", recorded)
        with pytest.raises(NumericalError) as exc:
            solve_constrained_filter(p)
        iters, checks = (50, 2) if trace_every == 25 else (60, 1)
        assert len(gaps) == checks
        assert np.all(np.isfinite(gaps[:-1])) and not np.isfinite(gaps[-1])
        assert f"at iteration {iters} with alpha={p.alpha}" in str(exc.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_the_stage(self, monkeypatch):
        inject_nonfinite_reflection(monkeypatch, at=30)
        p = loop_instance("two_sided", n=2000)
        with pytest.raises(NumericalError, match=r"at iteration 50 with alpha=\S+ "
                                                 r"\(stage tight_lower\)$"):
            envelofit.pipeline.decompose_basic(p.y, envelofit.pipeline.PipelineParams())


def test_direct_solve_has_no_stage():
    assert solve_constrained_filter(loop_instance("two_sided")).stage == ""
