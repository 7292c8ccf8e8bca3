import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import envelofit.pipeline
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

from oracles import solve_reference_loop

# small, fast settings for invariant checks
FAST = SolverSettings(max_iters=4000)


def small_params():
    return PipelineParams(
        lambda0=50.0, lambda1=0.5, sigma0=5.0, sigma1=20.0, solver=FAST,
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

    def test_coarse_sigma_ordering(self, short_trial, monkeypatch):
        # the relation binds only the coarse stage: it is checked when
        # decompose_debiased is called, before its first solve
        p = PipelineParams(sigma1=20.0, coarse=CoarseParams(1.0, 10.0),
                           solver=SolverSettings(max_iters=50))
        decompose_basic(short_trial.observation, p)
        calls = []
        solve = envelofit.pipeline.solve_constrained_filter
        monkeypatch.setattr(envelofit.pipeline, "solve_constrained_filter",
                            lambda q: calls.append(q) or solve(q))
        with pytest.raises(InputError, match=r"need sigma1 <= coarse sigma, got 20\.0, 10\.0"):
            decompose_debiased(short_trial.observation, p)
        assert calls == []

    def test_default_coarse(self, short_trial):
        assert PipelineParams().coarse == CoarseParams()
        y = short_trial.observation
        implicit = decompose_debiased(y, PipelineParams(solver=SolverSettings(max_iters=50)))
        explicit = decompose_debiased(y, PipelineParams(
            coarse=CoarseParams(), solver=SolverSettings(max_iters=50)))
        for a, b in zip(implicit.diagnostics, explicit.diagnostics, strict=True):
            np.testing.assert_array_equal(a.x_hat.samples, b.x_hat.samples)
        np.testing.assert_array_equal(implicit.smooth.samples, explicit.smooth.samples)
        np.testing.assert_array_equal(implicit.trend.samples, explicit.trend.samples)

    @pytest.mark.parametrize("kw", [
        dict(lambda0=np.inf), dict(sigma1=np.inf), dict(coarse=dict(sigma=np.inf)),
        dict(tau=0.0), dict(tau=1.5), dict(tau=np.nan),
        dict(coarse=dict(lam=-1.0)), dict(coarse=dict(lam=np.nan)),
    ])
    def test_out_of_range_rejected_when_built(self, kw):
        # a bad coarse value is rejected when its CoarseParams is built
        with pytest.raises(InputError):
            PipelineParams(**{k: CoarseParams(**v) if k == "coarse" else v
                              for k, v in kw.items()})

    def test_tau_reaches_every_stage_kernel(self, short_trial, monkeypatch):
        kernels = []
        solve = envelofit.pipeline.solve_constrained_filter
        monkeypatch.setattr(envelofit.pipeline, "solve_constrained_filter",
                            lambda q: kernels.append(q.kernel) or solve(q))
        p = PipelineParams(tau=1e-4, solver=SolverSettings(max_iters=50))
        dec = decompose_debiased(short_trial.observation, p)
        assert [(r.stage, k.sigma, k.tau) for r, k in zip(dec.diagnostics, kernels)] == [
            ("coarse_lower", 50.0, 1e-4), ("coarse_upper", 50.0, 1e-4),
            ("tight_lower", 5.0, 1e-4), ("tight_upper", 5.0, 1e-4), ("smooth", 20.0, 1e-4),
        ]
        assert len(kernels) == 5


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
        dec = decompose_debiased(y, small_params())
        assert np.max(np.abs(dec.transient.samples)) < 1e-3
        # the quadratic penalty shrinks the coarse envelopes slightly toward
        # zero, so the trend tracks c only to a few percent
        assert np.max(np.abs(dec.trend.samples - c)) < 0.1 * abs(c)


class TestSandwichInvariants:
    @pytest.mark.parametrize("debias", [False, True])
    def test_envelopes_and_smooth(self, short_trial, debias):
        y = short_trial.observation
        p = small_params()
        dec = (decompose_debiased if debias else decompose_basic)(y, p)
        slack = 10.0 * FAST.tol * np.max(np.abs(y.samples))
        lo, hi = dec.lower_env.samples, dec.upper_env.samples
        assert np.max(lo - y.samples) <= slack
        assert np.max(y.samples - hi) <= slack
        assert np.max(lo - dec.smooth.samples) <= slack
        assert np.max(dec.smooth.samples - hi) <= slack
        assert np.max(lo - hi) <= slack

    @pytest.mark.parametrize("seed", [1001, 1002, 1003])
    def test_envelopes_cross_only_by_rounding(self, seed):
        """Each stage's ``x_hat`` lies in its box exactly, so basic envelopes
        bracket ``y`` with no slack; the debiased ones, ``u0 + x_hat`` and
        ``l0 + x_hat``, cross before the repair only by the rounding of
        ``u0 + (ys - u0)`` and ``l0 + (ys - l0)``."""
        y = generate_trial(TrialSpec(seed=seed)).observation
        ys = y.samples
        dec = decompose_basic(y, PipelineParams())
        assert np.all(dec.lower_env.samples <= ys)
        assert np.all(ys <= dec.upper_env.samples)
        c_low, c_up, low, up, _ = decompose_debiased(y, PipelineParams()).diagnostics
        lo = c_up.x_hat.samples + low.x_hat.samples
        hi = c_low.x_hat.samples + up.x_hat.samples
        assert np.all(lo - hi <= 4 * np.spacing(np.abs(ys)))

    def test_coarse_envelopes_bracket_observation(self, short_trial):
        y = short_trial.observation
        dec = decompose_debiased(y, small_params())
        slack = 10.0 * FAST.tol * np.max(np.abs(y.samples))
        assert np.max(dec.coarse_lower.samples - y.samples) <= slack
        assert np.max(y.samples - dec.coarse_upper.samples) <= slack

    @pytest.mark.parametrize("debias", [False, True])
    def test_additivity_bitwise(self, short_trial, debias):
        y = short_trial.observation
        p = small_params()
        dec = (decompose_debiased if debias else decompose_basic)(y, p)
        # transient is defined by subtraction; the identity must be bitwise
        np.testing.assert_array_equal(
            dec.transient.samples, y.samples - dec.smooth.samples
        )

    def test_diagnostics_per_stage(self, short_trial):
        dec_b = decompose_basic(short_trial.observation, small_params())
        assert len(dec_b.diagnostics) == 3
        dec_d = decompose_debiased(short_trial.observation, small_params())
        assert len(dec_d.diagnostics) == 5


class TestShiftEquivariance:
    def test_debiased_dc_shift(self, short_trial):
        y = short_trial.observation
        p = small_params()
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
        p = small_params()
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

    @pytest.mark.parametrize("kw", [
        pytest.param({"min_separation_s": v}, id=f"min_separation_s={v}")
        for v in (np.inf, np.nan)
    ] + [
        pytest.param({"min_prominence": v}, id=f"min_prominence={v}")
        for v in (np.nan, np.inf, -1.0)
    ])
    def test_nonfinite_options_rejected(self, kw):
        with pytest.raises(InputError, match=next(iter(kw))):
            detect_peaks(Signal(np.sin(np.arange(50.0)), 10.0), **kw)

    def test_indices_strictly_increasing(self):
        rng = np.random.default_rng(0)
        sig = Signal(rng.normal(size=300), 10.0)
        stats = detect_peaks(sig, min_separation_s=0.33)
        assert np.all(np.diff(stats.peak_indices) > 0)
        np.testing.assert_allclose(
            stats.intervals_s, np.diff(stats.peak_indices) / 10.0
        )


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_default_stages_converge_within_an_eighth_of_the_cap(seed):
    """With default settings every stage of both pipelines reaches its
    tolerance in at most an eighth of the iteration cap, at desk scale: the
    undamped iteration's rate, which averaging with the last iterate halves."""
    trial = generate_trial(TrialSpec(seed=seed))
    p = PipelineParams()
    for decompose in (decompose_debiased, decompose_basic):
        for r in decompose(trial.observation, p).diagnostics:
            assert r.converged and r.iters <= p.solver.max_iters // 8, (r.stage, r.iters)


@pytest.mark.parametrize("seed", [1001, 1002, 1003])
def test_default_debiased_call_takes_at_most_1000_iterations(seed):
    """Anderson acceleration: a default ``decompose_debiased`` call at desk
    scale takes at most 1 000 iterations over its five stages (about 2 300
    with the plain undamped iteration)."""
    trial = generate_trial(TrialSpec(seed=seed))
    dec = decompose_debiased(trial.observation, PipelineParams())
    iters = [r.iters for r in dec.diagnostics]
    assert sum(iters) <= 1000, iters


@pytest.fixture(scope="module")
def five_seed_stages():
    """Each stage's params and result, by pipeline, of default
    ``decompose_basic`` and ``decompose_debiased`` on seeds 1001-1005."""
    solve = envelofit.pipeline.solve_constrained_filter
    stages = {decompose_basic: [], decompose_debiased: []}
    for seed in range(1001, 1006):
        obs = generate_trial(TrialSpec(seed=seed)).observation
        for decompose, out in stages.items():
            seen = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(envelofit.pipeline, "solve_constrained_filter",
                           lambda q: seen.append(q) or solve(q))
                out += zip(seen, decompose(obs, PipelineParams()).diagnostics)
    return stages


def test_default_debiased_iterations_over_five_seeds(five_seed_stages):
    """Anderson's memory of four and the gap checked where ``||f||``
    predicts it may meet the tolerance: default ``decompose_debiased`` takes
    2 898 iterations over seeds 1001-1005 (3 200 with the gap checked only
    every 25 iterations, 3 750 with a memory of three as well)."""
    iters = [r.iters for _, r in five_seed_stages[decompose_debiased]]
    assert sum(iters) <= 3000, iters


def test_default_basic_iterations_over_five_seeds(five_seed_stages):
    """Default ``decompose_basic`` takes 936 iterations over seeds
    1001-1005 (1 125 with the gap checked only every 25 iterations)."""
    iters = [r.iters for _, r in five_seed_stages[decompose_basic]]
    assert sum(iters) <= 1000, iters


def test_stages_stop_near_the_first_iteration_that_meets_tol(five_seed_stages):
    """Checked after every iteration, the unfused loop stops at the first
    iteration whose gap meets the tolerance; the package's 40 stages stop
    a median of 3 iterations past it (15 with the gap checked only every 25
    iterations)."""
    over = []
    for stages in five_seed_stages.values():
        for p, r in stages:
            first = solve_reference_loop(p, every_iteration=True)
            assert r.converged and first.converged
            over.append(r.iters - first.iters)
    assert min(over) >= 0 and np.median(over) <= 5, sorted(over)


@pytest.mark.parametrize("decompose,stages", [(decompose_debiased, 5), (decompose_basic, 3)])
def test_one_band_and_one_circulant_per_stage(decompose, stages, short_trial, monkeypatch):
    """Each stage builds its band and circulant once, on the solve's first
    use of its params; the step rule reads that circulant."""
    calls = []
    for name in ("build_band", "embed_circulant"):
        f = getattr(envelofit.solver, name)
        monkeypatch.setattr(envelofit.solver, name,
                            lambda *a, _n=name, _f=f: calls.append(_n) or _f(*a))
    p = PipelineParams(solver=SolverSettings(max_iters=50))
    decompose(short_trial.observation, p)
    assert calls == ["build_band", "embed_circulant"] * stages


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded as the benchmark loads it."""
    bench_dir = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench_dir))  # for its ``import longgen``
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", bench_dir / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_warmup_is_one_gap_check(workloads):
    """Each workload warms up with a cap of one gap-check cadence, read off
    ``SolverSettings``, so a renamed constant fails here and not only when a
    benchmark run exits non-zero."""
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        assert w.warmup_params().solver.max_iters == SolverSettings.trace_every


def test_benchmark_stage_names_match_pipeline(short_trial, workloads):
    """``perfbench/workloads.py`` keeps its own copy of the stage names; it
    must list them in the order the pipelines run and name their results."""
    p = PipelineParams(solver=SolverSettings(max_iters=50))
    for decompose, stages in ((decompose_debiased, workloads.DEBIASED_STAGES),
                              (decompose_basic, workloads.BASIC_STAGES)):
        dec = decompose(short_trial.observation, p)
        assert tuple(r.stage for r in dec.diagnostics) == stages


def test_readme_parameter_defaults_match_pipeline_params():
    """README's Parameters table gives the default of each pipeline setting;
    each must be the default ``PipelineParams()`` holds."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Parameters\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for names, cell in re.findall(r"^\| (`.*?) \| (.*?) \|", section, re.M):
        coarse = re.fullmatch(r"`CoarseParams\((.*)\)`", cell)
        values = ([CoarseParams(*map(float, coarse[1].split(", ")))] if coarse
                  else [float(v) for v in cell.split(", ")])
        documented.update(zip(re.findall(r"`(\w+)`", names), values, strict=True))
    defaults = PipelineParams()
    assert set(documented) == {"lambda0", "sigma0", "lambda1", "sigma1", "tau", "coarse"}
    for name, value in documented.items():
        assert getattr(defaults, name) == value, name
