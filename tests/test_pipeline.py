import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import envelofit.solver
from envelofit.core import InputError, Signal
from envelofit.pipeline import (
    CoarseParams,
    PipelineParams,
    SolverSettings,
    decompose_basic,
    decompose_debiased,
    detect_peaks,
)
from envelofit.synth import TrialSpec, generate_trial

# small, fast settings for invariant checks
FAST = SolverSettings(max_iters=4000)


def small_params(coarse=False):
    return PipelineParams(
        lambda0=50.0, lambda1=0.5, sigma0=5.0, sigma1=20.0,
        coarse=CoarseParams(1.0, 50.0) if coarse else None,
        solver=FAST,
    )


@pytest.fixture(scope="module")
def short_trial():
    return generate_trial(TrialSpec(seed=3, duration_s=60.0))


class TestParamValidation:
    def test_lambda_ordering(self):
        with pytest.raises(InputError):
            PipelineParams(lambda0=1.0, lambda1=2.0)

    def test_sigma_ordering(self):
        with pytest.raises(InputError):
            PipelineParams(sigma0=30.0, sigma1=20.0)

    def test_coarse_sigma_ordering(self):
        with pytest.raises(InputError):
            PipelineParams(sigma1=20.0, coarse=CoarseParams(1.0, 10.0))

    @pytest.mark.parametrize("kw", [
        dict(lambda0=np.inf), dict(sigma1=np.inf), dict(coarse=CoarseParams(sigma=np.inf)),
        dict(tau=0.0), dict(tau=1.5), dict(tau=np.nan),
    ])
    def test_out_of_range_rejected_when_built(self, kw):
        with pytest.raises(InputError):
            PipelineParams(**kw)

    def test_tau_reaches_every_stage_kernel(self, short_trial, monkeypatch):
        kernels = []
        build_band = envelofit.solver.build_band
        monkeypatch.setattr(envelofit.solver, "build_band",
                            lambda spec, n: kernels.append(spec) or build_band(spec, n))
        p = PipelineParams(tau=1e-4, coarse=CoarseParams(), solver=SolverSettings(max_iters=50))
        dec = decompose_debiased(short_trial.observation, p)
        assert [(r.stage, k.sigma, k.tau) for r, k in zip(dec.diagnostics, kernels)] == [
            ("coarse_lower", 50.0, 1e-4), ("coarse_upper", 50.0, 1e-4),
            ("tight_lower", 5.0, 1e-4), ("tight_upper", 5.0, 1e-4), ("smooth", 20.0, 1e-4),
        ]
        assert len(kernels) == 5

    def test_debias_requires_coarse(self):
        y = Signal(np.zeros(50) + 1.0, 10.0)
        with pytest.raises(InputError):
            decompose_debiased(y, small_params(coarse=False))


class TestConstantSignal:
    def test_basic_collapses(self):
        c = 2.5
        y = Signal(np.full(200, c), 10.0)
        dec = decompose_basic(y, small_params())
        # outer bounds are [min y, y] = [c, c]: every stage is pinned
        np.testing.assert_array_equal(dec.lower_env.samples, y.samples)
        np.testing.assert_array_equal(dec.upper_env.samples, y.samples)
        np.testing.assert_array_equal(dec.smooth.samples, y.samples)
        np.testing.assert_array_equal(dec.transient.samples, np.zeros(200))

    def test_debiased_trend_and_transient(self):
        c = -1.5
        y = Signal(np.full(200, c), 10.0)
        dec = decompose_debiased(y, small_params(coarse=True))
        assert np.max(np.abs(dec.transient.samples)) < 1e-3
        # the quadratic penalty shrinks the coarse envelopes slightly toward
        # zero, so the trend tracks c only to a few percent
        assert np.max(np.abs(dec.trend.samples - c)) < 0.1 * abs(c)


class TestSandwichInvariants:
    @pytest.mark.parametrize("debias", [False, True])
    def test_envelopes_and_smooth(self, short_trial, debias):
        y = short_trial.observation
        p = small_params(coarse=debias)
        dec = (decompose_debiased if debias else decompose_basic)(y, p)
        slack = 10.0 * FAST.tol * np.max(np.abs(y.samples))
        lo, hi = dec.lower_env.samples, dec.upper_env.samples
        assert np.max(lo - y.samples) <= slack
        assert np.max(y.samples - hi) <= slack
        assert np.max(lo - dec.smooth.samples) <= slack
        assert np.max(dec.smooth.samples - hi) <= slack
        assert np.max(lo - hi) <= slack

    def test_coarse_envelopes_bracket_observation(self, short_trial):
        y = short_trial.observation
        dec = decompose_debiased(y, small_params(coarse=True))
        slack = 10.0 * FAST.tol * np.max(np.abs(y.samples))
        assert np.max(dec.coarse_lower.samples - y.samples) <= slack
        assert np.max(y.samples - dec.coarse_upper.samples) <= slack

    @pytest.mark.parametrize("debias", [False, True])
    def test_additivity_bitwise(self, short_trial, debias):
        y = short_trial.observation
        p = small_params(coarse=debias)
        dec = (decompose_debiased if debias else decompose_basic)(y, p)
        # transient is defined by subtraction; the identity must be bitwise
        np.testing.assert_array_equal(
            dec.transient.samples, y.samples - dec.smooth.samples
        )

    def test_diagnostics_per_stage(self, short_trial):
        dec_b = decompose_basic(short_trial.observation, small_params())
        assert len(dec_b.diagnostics) == 3
        dec_d = decompose_debiased(short_trial.observation, small_params(coarse=True))
        assert len(dec_d.diagnostics) == 5


class TestShiftEquivariance:
    def test_debiased_dc_shift(self, short_trial):
        y = short_trial.observation
        p = small_params(coarse=True)
        base = decompose_debiased(y, p)
        shifted = decompose_debiased(y.with_samples(y.samples + 5.0), p)
        # equivariance is only approximate: the quadratic penalty also acts
        # on the DC of the coarse envelopes, leaving a residual of a few
        # tenths of a percent of the shift
        assert np.max(np.abs(
            shifted.smooth.samples - base.smooth.samples - 5.0
        )) <= 0.005 * 5.0


class TestTrendRecovery:
    def test_added_ramp_correlates(self, short_trial):
        y = short_trial.observation
        ramp = np.linspace(0.0, 3.0, len(y))
        p = small_params(coarse=True)
        dec = decompose_debiased(y.with_samples(y.samples + ramp), p)
        trend = dec.trend.samples
        corr = np.corrcoef(trend, ramp)[0, 1]
        assert corr > 0.9


class TestDetectPeaks:
    def test_sine_peak_spacing(self):
        fs = 10.0
        t = np.arange(100) / fs
        sig = Signal(np.sin(2.0 * np.pi * t), fs)
        stats = detect_peaks(sig, min_separation_s=0.5, min_prominence=0.1)
        # 1 Hz over 10 s: about ten peaks, spaced 1 s apart
        assert 9 <= stats.peak_indices.size <= 10
        assert stats.mean_interval_s == pytest.approx(1.0, abs=1.0 / fs)

    def test_constant_has_no_peaks(self):
        sig = Signal(np.ones(50), 10.0)
        stats = detect_peaks(sig, min_separation_s=0.5, min_prominence=0.1)
        assert stats.peak_indices.size == 0
        assert np.isnan(stats.mean_interval_s)

    def test_close_pair_thinned(self):
        fs = 10.0
        x = np.zeros(50)
        x[10] = 1.0
        x[13] = 1.0  # 0.3 s later
        stats = detect_peaks(Signal(x, fs), min_separation_s=0.5, min_prominence=0.1)
        assert stats.peak_indices.size == 1

    def test_invalid_separation(self):
        with pytest.raises(InputError):
            detect_peaks(Signal(np.ones(10), 1.0), min_separation_s=0.0)

    def test_indices_strictly_increasing(self):
        rng = np.random.default_rng(0)
        sig = Signal(rng.normal(size=300), 10.0)
        stats = detect_peaks(sig, min_separation_s=0.33)
        assert np.all(np.diff(stats.peak_indices) > 0)
        np.testing.assert_allclose(
            stats.intervals_s, np.diff(stats.peak_indices) / 10.0
        )


def test_benchmark_stage_names_match_pipeline(short_trial, monkeypatch):
    """``perfbench/workloads.py`` keeps its own copy of the stage names; it
    must list them in the order the pipelines run and name their results."""
    bench_dir = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench_dir))  # for its ``import longgen``
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", bench_dir / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    p = PipelineParams(coarse=CoarseParams(), solver=SolverSettings(max_iters=50))
    for decompose, stages in ((decompose_debiased, workloads.DEBIASED_STAGES),
                              (decompose_basic, workloads.BASIC_STAGES)):
        dec = decompose(short_trial.observation, p)
        assert tuple(r.stage for r in dec.diagnostics) == stages
