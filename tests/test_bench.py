import dataclasses

import numpy as np
import pytest

from envelofit.bench import (
    IDENTITY,
    PROPOSED,
    BenchReport,
    run_mse_experiment,
    run_scaling,
)
from envelofit.baseline import design_fir
from envelofit.core import InputError
from envelofit.pipeline import PipelineParams, SolverSettings
from envelofit.synth import TrialSpec

FAST_PIPELINE = PipelineParams(solver=SolverSettings(max_iters=2000))
SHORT = TrialSpec(duration_s=40.0)


def identity_filter():
    return design_fir("lowpass", (0.45,), 10.0, 1)


class TestRunMseExperiment:
    def test_shape_contract(self):
        rep = run_mse_experiment(1, 0, FAST_PIPELINE, [identity_filter()], SHORT)
        assert [f.name for f in dataclasses.fields(BenchReport)] == [
            "mses", "diagnostics", "wall_s"]
        assert list(rep.mses) == [PROPOSED, "hamming_lp_1", IDENTITY]
        assert all(v.shape == (1,) for v in rep.mses.values())
        assert len(rep.diagnostics) == 1 and len(rep.diagnostics[0]) == 5
        assert rep.wall_s.shape == (1,)

    def test_identity_baseline_mse_is_transient_power(self):
        # identity filter passes y through, so its smooth error is the
        # transient's power, and so is the identity reference row's
        from envelofit.synth import generate_trial
        rep = run_mse_experiment(1, 3, FAST_PIPELINE, [identity_filter()], SHORT)
        trial = generate_trial(TrialSpec(seed=3, duration_s=40.0))
        want = np.mean(trial.transient.samples ** 2)
        assert rep.mses["hamming_lp_1"][0] == pytest.approx(want, rel=1e-12)
        assert rep.mses[IDENTITY][0] == pytest.approx(want, rel=1e-12)

    def test_bitwise_determinism(self):
        a = run_mse_experiment(2, 5, FAST_PIPELINE, [identity_filter()], SHORT)
        b = run_mse_experiment(2, 5, FAST_PIPELINE, [identity_filter()], SHORT)
        assert list(a.mses) == list(b.mses)
        for method in a.mses:
            assert np.array_equal(a.mses[method], b.mses[method])

    def test_invalid_count(self):
        with pytest.raises(InputError):
            run_mse_experiment(0, 0, FAST_PIPELINE, [identity_filter()], SHORT)

    @pytest.mark.parametrize("n_trials, base_seed, name", [
        (2.5, 0, "n_trials"), (np.nan, 0, "n_trials"),
        (1, 2.5, "seed"), (1, np.nan, "seed"),
    ])
    def test_counts_and_seeds_must_be_integers(self, n_trials, base_seed, name, monkeypatch):
        # rejected before any trial runs
        monkeypatch.setattr("envelofit.bench.decompose_debiased",
                            lambda *a: pytest.fail("a trial ran"))
        with pytest.raises(InputError, match=f"{name} must be an integer"):
            run_mse_experiment(n_trials, base_seed, FAST_PIPELINE, [identity_filter()], SHORT)

    def test_trace_final_residual_consistency(self):
        # trial 0's trace and iteration count are those of a direct call
        from envelofit.pipeline import decompose_debiased
        from envelofit.synth import generate_trial
        rep = run_mse_experiment(1, 4, FAST_PIPELINE, [identity_filter()], SHORT)
        trial = generate_trial(TrialSpec(seed=4, duration_s=40.0))
        dec = decompose_debiased(trial.observation, FAST_PIPELINE)
        assert rep.diagnostics[0][-1].residual_trace == dec.diagnostics[-1].residual_trace
        assert sum(r.iters for r in rep.diagnostics[0]) == sum(r.iters for r in dec.diagnostics)
        assert rep.wall_s[0] > 0


class TestRunScaling:
    def test_row_count_and_positive_times(self):
        times = run_scaling([256, 512], iters=10, repeats=3)
        assert times.shape == (3, 2)  # one row per repeat, one column per size
        assert np.all(times > 0)

    def test_too_small_n_rejected(self):
        # sigma=20, tau=1e-5: band half-width 67 exceeds n
        with pytest.raises(InputError, match="half-width 67 does not fit signal length 16"):
            run_scaling([16], iters=5, repeats=1)

