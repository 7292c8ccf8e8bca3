import numpy as np
import pytest

from envelofit.bench import (
    IDENTITY,
    PROPOSED,
    BenchReport,
    run_mse_experiment,
    run_scaling,
    write_report_csv,
)
from envelofit.baseline import design_fir
from envelofit.core import InputError
from envelofit.pipeline import CoarseParams, PipelineParams, SolverSettings
from envelofit.synth import TrialSpec

FAST_PIPELINE = PipelineParams(
    coarse=CoarseParams(1.0, 50.0), solver=SolverSettings(max_iters=2000)
)
SHORT = TrialSpec(duration_s=40.0)


def identity_filter():
    return design_fir("lowpass", (0.45,), 10.0, 1)


class TestRunMseExperiment:
    def test_shape_contract(self):
        rep = run_mse_experiment(1, 0, FAST_PIPELINE, [identity_filter()], SHORT)
        assert len(rep.trial_mses) == 3
        assert rep.method_names() == [PROPOSED, "hamming_lp_1", IDENTITY]
        assert rep.ordering == (0,)
        assert len(rep.timing) == 1
        assert 0 in rep.convergence_traces

    def test_identity_baseline_mse_is_transient_power(self):
        # identity filter passes y through, so its smooth error is the
        # transient's power, and so is the identity reference row's
        from envelofit.synth import generate_trial
        rep = run_mse_experiment(1, 3, FAST_PIPELINE, [identity_filter()], SHORT)
        trial = generate_trial(TrialSpec(seed=3, duration_s=40.0))
        want = np.mean(trial.transient.samples ** 2)
        assert rep.mses_for("hamming_lp_1")[0] == pytest.approx(want, rel=1e-12)
        assert rep.mses_for(IDENTITY)[0] == pytest.approx(want, rel=1e-12)

    def test_ordering_sorts_proposed(self):
        rep = run_mse_experiment(3, 0, FAST_PIPELINE, [identity_filter()], SHORT)
        prop = rep.mses_for(PROPOSED)
        assert list(prop[list(rep.ordering)]) == sorted(prop)

    def test_bitwise_determinism(self):
        a = run_mse_experiment(2, 5, FAST_PIPELINE, [identity_filter()], SHORT)
        b = run_mse_experiment(2, 5, FAST_PIPELINE, [identity_filter()], SHORT)
        assert a.trial_mses == b.trial_mses
        assert a.ordering == b.ordering

    def test_invalid_count(self):
        with pytest.raises(InputError):
            run_mse_experiment(0, 0, FAST_PIPELINE, [identity_filter()], SHORT)

    def test_trace_final_residual_consistency(self):
        # trial 0's trace and iteration count are those of a direct call
        from envelofit.pipeline import decompose_debiased
        from envelofit.synth import generate_trial
        rep = run_mse_experiment(1, 4, FAST_PIPELINE, [identity_filter()], SHORT)
        trial = generate_trial(TrialSpec(seed=4, duration_s=40.0))
        dec = decompose_debiased(trial.observation, FAST_PIPELINE)
        assert rep.convergence_traces[0] == dec.diagnostics[-1].residual_trace
        assert rep.timing[0][2] == sum(r.iters for r in dec.diagnostics)
        assert rep.timing[0][0] == 0 and rep.timing[0][1] > 0


class TestRunScaling:
    def test_row_count_and_positive_times(self):
        table = run_scaling([256, 512], iters=10, repeats=2)
        assert [n for n, _ in table] == [256, 512]
        assert all(t > 0 for _, t in table)

    def test_too_small_n_rejected(self):
        # sigma=20, tau=1e-3: band half-width ~52 exceeds n
        with pytest.raises(InputError, match="half-width 52 does not fit signal length 16"):
            run_scaling([16], iters=5, repeats=1)


class TestWriteReportCsv:
    def test_round_trip_values(self, tmp_path):
        rep = run_mse_experiment(2, 1, FAST_PIPELINE, [identity_filter()], SHORT)
        path = tmp_path / "mse.csv"
        write_report_csv(path, rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_id,method,mse"
        assert len(lines) == 1 + len(rep.trial_mses)
        # repr-precision floats survive the round trip exactly
        got = float(lines[1].split(",")[2])
        assert got == rep.trial_mses[0][2]
