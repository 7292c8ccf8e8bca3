import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from envelofit import synth
from envelofit.core import InputError, NumericalError
from envelofit.synth import (
    GpParams,
    TrialSpec,
    generate_trial,
    make_smooth,
    nonlinearity_q,
    sample_gp,
)
from oracles import gp_factor_dense, sample_gp_dense


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


SMALL_GP_CASES = [
    (GpParams(1.0, 4.0, 1e-6), 64, 10.0, 5),
    (GpParams(2.0, 0.3, 0.0), 17, 3.0, 9),
    (GpParams(1.0, 1.0, 0.5), 1, 1.0, 0),
    (GpParams(0.7, 12.5, 1e-4), 333, 7.5, 123),
    (GpParams(3.0, 2.0, 1e-3), 1024, 20.0, 2**40 + 1),
]


class TestGpParams:
    def test_validation(self):
        with pytest.raises(InputError):
            GpParams(0.0, 1.0)
        with pytest.raises(InputError):
            GpParams(1.0, -1.0)
        with pytest.raises(InputError):
            GpParams(1.0, 1.0, -1e-9)

    @pytest.mark.parametrize("coeffs", [(np.inf, 1.0), (1.0, np.inf), (1.0, 1.0, np.inf)])
    def test_coefficients_finite(self, coeffs):
        with pytest.raises(InputError, match="finite"):
            GpParams(*coeffs)

    def test_printed_defaults(self):
        spec = TrialSpec()
        assert (spec.warp.c0, spec.warp.c1, spec.warp.c2) == (25.0, 500.0, 1e-3)
        assert (spec.mag.c0, spec.mag.c1, spec.mag.c2) == (25.0, 2500.0, 5e-4)
        assert (spec.transient.c0, spec.transient.c1, spec.transient.c2) == (
            0.1, 10.0, 1e-5)
        assert spec.fs_hz == 10.0 and spec.duration_s == 200.0
        assert spec.n == 2000

    @pytest.mark.parametrize("field", ["fs_hz", "duration_s"])
    @pytest.mark.parametrize("value", [0.0, np.inf, np.nan])
    def test_rate_and_duration_positive_and_finite(self, field, value):
        with pytest.raises(InputError, match="positive and finite"):
            TrialSpec(**{field: value})


class TestSampleGp:
    def test_determinism(self):
        p = GpParams(1.0, 4.0, 1e-6)
        a = sample_gp(p, 64, 10.0, rng=5)
        b = sample_gp(p, 64, 10.0, rng=5)
        np.testing.assert_array_equal(a, b)

    def test_size_guard(self):
        with pytest.raises(InputError):
            sample_gp(GpParams(1.0, 1.0, 1e-6), 5000, 10.0)
        with pytest.raises(InputError):
            sample_gp(GpParams(1.0, 1.0, 1e-6), 0, 10.0)

    def test_moments_match_covariance(self):
        # Monte-Carlo check of variance and lag-1 covariance
        p = GpParams(2.0, 1.0, 1e-9)
        fs = 10.0
        rng = np.random.default_rng(0)
        draws = np.array([sample_gp(p, 128, fs, rng) for _ in range(400)])
        var = draws.var(axis=0).mean()
        assert var == pytest.approx(p.c0, rel=0.15)
        lag1 = (draws[:, :-1] * draws[:, 1:]).mean()
        want = p.c0 * np.exp(-(1.0 / fs) ** 2 / p.c1)
        assert lag1 == pytest.approx(want, rel=0.15)

    def test_jitter_adds_variance(self):
        p = GpParams(1.0, 1.0, 0.5)
        rng = np.random.default_rng(1)
        draws = np.array([sample_gp(p, 64, 10.0, rng) for _ in range(600)])
        assert draws.var(axis=0).mean() == pytest.approx(1.5, rel=0.15)


class TestCachedFactorMatchesDense:
    @pytest.mark.parametrize("p,n,fs,seed", SMALL_GP_CASES)
    def test_small_cases(self, p, n, fs, seed):
        synth._gp_factor.cache_clear()
        assert_bits_equal(sample_gp(p, n, fs, seed), sample_gp_dense(p, n, fs, seed))
        # a warm cache gives the same bits again
        assert_bits_equal(sample_gp(p, n, fs, seed), sample_gp_dense(p, n, fs, seed))

    def test_trial_spec_defaults_at_n_2000(self):
        spec = TrialSpec(seed=17)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        for p in (spec.warp, spec.mag, spec.transient):
            assert_bits_equal(sample_gp(p, spec.n, spec.fs_hz, rng_a),
                              sample_gp_dense(p, spec.n, spec.fs_hz, rng_b))

    @pytest.mark.parametrize("spec", [TrialSpec(seed=1), TrialSpec(seed=20),
                                      TrialSpec(seed=5, duration_s=31.7, fs_hz=3.0)])
    def test_generate_trial(self, spec):
        rng = np.random.default_rng(spec.seed)
        s, m, f = (sample_gp_dense(p, spec.n, spec.fs_hz, rng)
                   for p in (spec.warp, spec.mag, spec.transient))
        smooth = make_smooth(s, m, spec.fs_hz)
        transient = nonlinearity_q(f)
        tr = generate_trial(spec)
        assert_bits_equal(tr.smooth.samples, smooth)
        assert_bits_equal(tr.transient.samples, transient)
        assert_bits_equal(tr.observation.samples, smooth + transient)

    def test_cache_holds_three_read_only_factors(self):
        synth._gp_factor.cache_clear()
        for i in range(4):
            generate_trial(TrialSpec(seed=i, duration_s=5.0 + i))
        info = synth._gp_factor.cache_info()
        assert info.currsize == 3 and info.maxsize == 3
        spec = TrialSpec(duration_s=8.0)  # the last spec's three factors
        for p in (spec.warp, spec.mag, spec.transient):
            factor = synth._gp_factor(p, spec.n, spec.fs_hz)
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 1.0
        assert synth._gp_factor.cache_info().misses == 12

    def test_cold_threads_give_same_draws(self):
        p, n, fs = GpParams(1.5, 6.0, 1e-5), 400, 10.0
        want = [sample_gp_dense(p, n, fs, seed) for seed in range(4)]
        synth._gp_factor.cache_clear()
        start = threading.Barrier(4, timeout=60)
        got = [None] * 4

        def draw(seed):
            start.wait()
            got[seed] = sample_gp(p, n, fs, seed)

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for a, b in zip(got, want):
            assert_bits_equal(a, b)

    def test_factorization_failure_raises_and_is_not_cached(self):
        p = GpParams(1.0, 1e4, 0.0)  # numerically singular without jitter
        with pytest.raises(NumericalError):
            sample_gp_dense(p, 200, 10.0)
        synth._gp_factor.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalError):
                sample_gp(p, 200, 10.0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert synth._gp_factor.cache_info().currsize == 0


class TestInPlaceFactor:
    def test_build_holds_one_matrix(self):
        """The covariance is factored in its own buffer: one build's traced
        peak is one n x n array, not the two that ``np.linalg.cholesky``
        returns into (LAPACK's working copy is not numpy's, so untraced)."""
        p, n = TrialSpec().warp, 1000
        synth._gp_factor.cache_clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            synth._gp_factor(p, n, 10.0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
            synth._gp_factor.cache_clear()
        assert peak <= 1.25 * n * n * 8

    def test_matches_linalg_cholesky_at_n_2000(self):
        spec = TrialSpec()
        synth._gp_factor.cache_clear()
        for p in (spec.warp, spec.mag, spec.transient):
            assert_bits_equal(synth._gp_factor(p, spec.n, spec.fs_hz),
                              gp_factor_dense(p, spec.n, spec.fs_hz))


class TestMakeSmooth:
    def test_no_warp_unit_magnitude(self):
        fs = 10.0
        n = 40
        out = make_smooth(np.zeros(n), np.zeros(n), fs)
        t = np.arange(n) / fs
        np.testing.assert_allclose(out, np.cos(0.5 * np.pi * t))

    def test_constant_warp_shifts_phase(self):
        fs = 10.0
        n = 40
        out = make_smooth(np.full(n, 1.0), np.zeros(n), fs)
        t = np.arange(n) / fs
        np.testing.assert_allclose(out, np.cos(0.5 * np.pi * (t + 1.0)))

    def test_magnitude_scales(self):
        out = make_smooth(np.zeros(4), np.full(4, 20.0), 10.0)
        base = make_smooth(np.zeros(4), np.zeros(4), 10.0)
        np.testing.assert_allclose(out, 2.0 * base)

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            make_smooth(np.zeros(4), np.zeros(5), 10.0)


class TestNonlinearityQ:
    def test_identity_outside_unit(self):
        assert nonlinearity_q(2.0) == 2.0
        assert nonlinearity_q(-3.5) == -3.5

    def test_signed_square_inside(self):
        assert nonlinearity_q(0.5) == pytest.approx(0.25)
        assert nonlinearity_q(-0.5) == pytest.approx(-0.25)
        assert nonlinearity_q(0.0) == 0.0

    def test_odd_and_continuous(self):
        u = np.linspace(-3, 3, 1001)
        out = nonlinearity_q(u)
        np.testing.assert_allclose(nonlinearity_q(-u), -out, atol=1e-15)
        assert np.max(np.abs(np.diff(out))) < 2.5 * (u[1] - u[0])

    def test_monotone(self):
        u = np.linspace(-5, 5, 2001)
        assert np.all(np.diff(nonlinearity_q(u)) >= 0)


class TestGenerateTrial:
    def test_bitwise_determinism(self):
        a = generate_trial(TrialSpec(seed=9, duration_s=30.0))
        b = generate_trial(TrialSpec(seed=9, duration_s=30.0))
        np.testing.assert_array_equal(a.observation.samples, b.observation.samples)
        np.testing.assert_array_equal(a.smooth.samples, b.smooth.samples)

    def test_seeds_differ(self):
        a = generate_trial(TrialSpec(seed=1, duration_s=30.0))
        b = generate_trial(TrialSpec(seed=2, duration_s=30.0))
        assert np.any(a.observation.samples != b.observation.samples)

    def test_observation_is_sum(self):
        tr = generate_trial(TrialSpec(seed=4, duration_s=30.0))
        np.testing.assert_array_equal(
            tr.observation.samples, tr.smooth.samples + tr.transient.samples
        )

    def test_component_scales(self):
        # transient magnitude is much smaller than the smooth carrier
        tr = generate_trial(TrialSpec(seed=0))
        assert np.std(tr.transient.samples) < 0.5 * np.std(tr.smooth.samples)
        assert 0.3 < np.std(tr.smooth.samples) < 2.0
