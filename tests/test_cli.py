import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import envelofit.pipeline
from envelofit.baseline import default_baselines
from envelofit.bench import PROPOSED, run_mse_experiment
from envelofit.cli import build_parser, main
from envelofit.core import Signal
from envelofit.io import read_signal_csv, write_signal_csv
from envelofit.pipeline import (
    PipelineParams,
    SolverSettings,
    decompose_debiased,
)
from envelofit.solver import SolveResult
from envelofit.synth import TrialSpec

FAST = ["--max-iters", "2000"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sine_csv(tmp_path):
    fs = 10.0
    t = np.arange(300) / fs
    path = tmp_path / "sine.csv"
    write_signal_csv(path, Signal(np.sin(2.0 * np.pi * 1.0 * t), fs))
    return path


# argv (an input CSV of `rows` samples goes after the subcommand; rows None:
# no input), exit code, message on stderr.  InputError exits 2, NumericalError 1.
EXIT_CODES = {
    "lambda1": (["decompose", "--lambda1", 60], 300, 2,
                "need 0 < lambda1 < lambda0, got 60.0, 50.0"),
    "sigma0": (["decompose", "--sigma0", 30], 300, 2,
               "need 0 < sigma0 <= sigma1, got 30.0, 20.0"),
    "tau": (["decompose", "--tau", 2], 300, 2, "tau must be in (0, 1], got 2.0"),
    "coarse_sigma": (["decompose", "--debias", "--coarse-sigma", 10], 300, 2,
                     "need sigma1 <= coarse sigma, got 20.0, 10.0"),
    "band_fit": (["decompose", "--sigma1", 40], 50, 2,
                 "kernel band half-width 135 does not fit signal length 50"),
    "cutoff": (["filter", "--cutoff", 9], 300, 2, "cutoffs must lie in (0, fs/2)"),
    "even_length": (["filter", "--length", 100], 300, 2,
                    "length must be a positive odd integer, got 100"),
    "group_delay": (["filter", "--length", 1001], 300, 2,
                    "signal length 300 must exceed filter group delay 500"),
    "dense_gp_limit": (["synth", "--duration", 1000], None, 2,
                       "dense GP sampling limited to n <= 4096, got 10000"),
    "gp_factor": (["synth", "--warp-c2", 0, "--duration", 100], None, 1,
                  "GP covariance factorization failed (c0=25.0, c1=500.0, c2=0.0)"),
    "synth_seed": (["synth", "--seed", -1], None, 2, "seed must be >= 0, got -1"),
    "bench_seed": (["bench", "--seed", -1], None, 2, "seed must be >= 0, got -1"),
    "bench_lengths": (["bench", "--baseline-lengths", 101, 101], None, 2,
                      "baseline lengths must be distinct, got [101, 101]"),
    "sigma_underflow": (["decompose", "--sigma0", 1e-200], 300, 2,
                        "sigma and sigma**2 must be positive and finite, got 1e-200"),
    "sigma_overflow": (["decompose", "--sigma0", 1e160, "--sigma1", 1e160], 300, 2,
                       "sigma and sigma**2 must be positive and finite, got 1e+160"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", EXIT_CODES)
def test_exit_code_follows_error_class(case, tmp_path, capsys):
    argv, rows, code, message = EXIT_CODES[case]
    if rows is not None:
        path = tmp_path / "in.csv"
        write_signal_csv(path, Signal(np.sin(2.0 * np.pi * np.arange(rows) / 10.0), 10.0))
        argv = [argv[0], path, *argv[1:]]
    assert run([*argv, "--output-dir", tmp_path / "out", "--quiet"]) == code
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert err.count("\n") == 1


def test_band_past_2_53_is_input_error(tmp_path):
    # in a subprocess: a band half-width search that does not end fails here
    path = tmp_path / "in.csv"
    write_signal_csv(path, Signal(np.sin(np.arange(300) / 10.0), 10.0))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "envelofit.cli", "decompose", str(path),
         "--sigma0", "1e100", "--sigma1", "1e100", "--tau", "0.5",
         "--output-dir", str(tmp_path / "out"), "--quiet"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == ("error: kernel band half-width 8.326e+99 exceeds 2**53; "
                           "reduce sigma or increase tau (stage tight_lower)\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["decompose", "IN", "--lambda1", "60"],
    ["decompose", "IN", "--tau", "2"],
    ["synth", "--warp-c2", "inf"],
])
def test_setting_rejected_before_any_stage(argv, sine_csv, tmp_path, capsys):
    argv = [sine_csv if a == "IN" else a for a in argv]
    assert run([*argv, "--output-dir", tmp_path / "out", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert argv[-2].rsplit("-", 1)[1] in err
    assert "(stage" not in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--sigma0", "1e-200"],
                                  ["--debias", "--coarse-sigma", "1e200"]])
def test_kernel_width_rejected_before_any_stage(argv, sine_csv, tmp_path, capsys,
                                                monkeypatch):
    # sigma**2 underflows or overflows: PipelineParams builds each stage's
    # KernelSpec, so the error names no stage and no solve runs first
    monkeypatch.setattr(envelofit.pipeline, "solve_constrained_filter",
                        lambda p: pytest.fail("a stage ran"))
    assert run(["decompose", sine_csv, *argv, "--output-dir", tmp_path / "out",
                "--quiet"]) == 2
    assert capsys.readouterr().err == ("error: sigma and sigma**2 must be positive "
                                       f"and finite, got {float(argv[-1])}\n")


@pytest.mark.parametrize("gp", ["warp", "mag", "transient"])
def test_gp_error_names_its_flags(gp, tmp_path, capsys):
    assert run(["synth", f"--{gp}-c2", "inf", "--output-dir", tmp_path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{gp}-c0/c1/c2: ") and err.count("\n") == 1


INF_MESSAGES = {
    "--coarse-sigma": "coarse lambda and sigma must be positive and finite, got 1.0, inf",
    "--sigma1": "need 0 < sigma0 <= sigma1, got 5.0, inf",
    "--lambda0": "need 0 < lambda1 < lambda0, got 0.5, inf",
    "--duration": "fs_hz and duration_s must be positive and finite, got 10.0, inf",
}


@pytest.mark.parametrize("argv", [
    ["decompose", "IN", "--debias", "--coarse-sigma", "inf"],
    ["decompose", "IN", "--sigma1", "inf"],
    ["decompose", "IN", "--lambda0", "inf"],
    ["synth", "--duration", "inf"],
])
def test_infinite_value_is_usage_error(argv, sine_csv, tmp_path, capsys):
    # the flag parses as a float; the class that owns the value rejects it
    argv = [sine_csv if a == "IN" else a for a in argv]
    assert run([*argv, "--output-dir", tmp_path / "out", "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {INF_MESSAGES[argv[-2]]}\n"


F, I = "float", "int"
SOLVER_FLAGS = {
    "--lambda0": (50.0, F), "--lambda1": (0.5, F), "--sigma0": (5.0, F),
    "--sigma1": (20.0, F), "--coarse-lambda": (1.0, F), "--coarse-sigma": (50.0, F),
    "--tol": (1e-6, F),
    "--max-iters": (10000, I), "--tau": (1e-5, F),
}
COMMON_FLAGS = {"--output-dir": (".", None), "--quiet": (False, None)}
# flag -> (default, name of the parse function) of each command; the
# decompose, bench and synth flags are derived from the parameter
# dataclasses, and a change that adds, drops, renames or retypes a flag, or
# moves a default, fails here
SURFACE = {
    "decompose": {**SOLVER_FLAGS, **COMMON_FLAGS, "--debias": (False, None),
                  "--fs": (None, F), "--prefix": (None, None)},
    "bench": {**SOLVER_FLAGS, **COMMON_FLAGS, "--trials": (20, I),
              "--seed": (1, I), "--fs": (10.0, F), "--duration": (200.0, F),
              "--baseline-lengths": ([101, 501, 1001, 2001], I)},
    "synth": {**COMMON_FLAGS, "--seed": (0, I), "--fs": (10.0, F),
              "--duration": (200.0, F),
              "--warp-c0": (25.0, F), "--warp-c1": (500.0, F), "--warp-c2": (1e-3, F),
              "--mag-c0": (25.0, F), "--mag-c1": (2500.0, F), "--mag-c2": (5e-4, F),
              "--transient-c0": (0.1, F), "--transient-c1": (10.0, F),
              "--transient-c2": (1e-5, F)},
    "peaks": {**COMMON_FLAGS, "--fs": (None, F), "--min-separation": (0.33, F),
              "--min-prominence": (None, F)},
    "filter": {**COMMON_FLAGS, "--kind": ("lowpass", None), "--cutoff": ([0.45], F),
               "--length": (1001, I), "--window": ("hamming", None), "--fs": (None, F),
               "--prefix": (None, None)},
}


@pytest.mark.parametrize("command", SURFACE)
def test_flags_defaults_and_parsers_are_pinned(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {a.option_strings[0]: (a.default, getattr(a.type, "__name__", None))
           for a in sub.choices[command]._actions
           if a.option_strings and a.dest != "help"}
    assert got == SURFACE[command]


def _bad_values(flag, kind):
    """Values the owner of ``flag`` rejects.  A seed, a GP's white jitter
    ``c2`` and ``--min-prominence`` may be 0."""
    zero_ok = flag == "--seed" or flag.endswith("-c2") or flag == "--min-prominence"
    return [v for v in ("0", "-1", "inf", "nan")[: 2 if kind == I else 4]
            if not (zero_ok and v == "0")]


# every numeric flag of every command, given each value its owner rejects,
# and that value as the owner's message prints it
BAD_VALUES = [
    pytest.param(cmd, flag, value, str((int if kind == I else float)(value)),
                 id=" ".join([*cmd, flag, value]))
    for cmd in (["decompose"], ["decompose", "--debias"], ["bench"], ["synth"],
                ["peaks"], ["filter"])
    for flag, (_, kind) in SURFACE[cmd[0]].items() if kind in (F, I)
    for value in _bad_values(flag, kind)
]


@pytest.mark.parametrize("cmd, flag, value, shown", BAD_VALUES)
def test_bad_value_is_one_error_line(cmd, flag, value, shown, sine_csv, tmp_path,
                                     capsys, monkeypatch):
    # no argparse check: the flag parses, its owner raises InputError before
    # any stage runs or any output directory exists, and main prints one line
    monkeypatch.setattr(envelofit.pipeline, "solve_constrained_filter",
                        lambda p: pytest.fail("a stage ran"))
    inputs = [sine_csv] if cmd[0] in ("decompose", "peaks", "filter") else []
    out = tmp_path / "out"
    assert run([cmd[0], *inputs, *cmd[1:], flag, value, "--output-dir", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert shown in err and "(stage" not in err
    assert not out.exists()


def test_zero_min_prominence_runs(sine_csv, tmp_path):
    assert run(["peaks", sine_csv, "--min-prominence", 0, "--output-dir", tmp_path,
                "--quiet"]) == 0
    assert json.loads((tmp_path / "stats.json").read_text())["min_prominence"] == 0.0


def _csv_rows(path):
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return header, rows


def test_every_csv_cell_is_a_plain_number(tmp_path):
    def ok(argv):
        assert run([*argv, "--quiet", "--output-dir", tmp_path / argv[0]]) == 0

    obs = tmp_path / "synth" / "observation.csv"
    transient = tmp_path / "decompose" / "observation_transient.csv"
    ok(["synth", "--duration", 60])
    ok(["decompose", obs, "--debias", *FAST])
    ok(["peaks", transient])
    ok(["filter", obs, "--length", 101])
    ok(["bench", "--trials", 1, "--duration", 120, "--baseline-lengths", 101, *FAST])
    paths = sorted(tmp_path.rglob("*.csv"))
    assert len(paths) == 3 + 3 + 1 + 1 + 2
    for path in paths:
        header, rows = _csv_rows(path)
        assert rows
        for row in rows:
            for name, cell in zip(header, row, strict=True):
                if name not in ("method", "stage"):
                    (int if name in ("index", "trial_id", "iter") else float)(cell)

    sig = read_signal_csv(obs)
    dec = decompose_debiased(sig, PipelineParams(
        solver=SolverSettings(max_iters=2000)))
    header, rows = _csv_rows(tmp_path / "decompose" / "observation_envelopes.csv")
    assert header == ["t", "lower", "upper"]
    np.testing.assert_array_equal([float(r[1]) for r in rows], dec.lower_env.samples)
    np.testing.assert_array_equal([float(r[2]) for r in rows], dec.upper_env.samples)

    header, rows = _csv_rows(tmp_path / "peaks" / "peaks.csv")
    idx = [int(i) for i, _ in rows]
    np.testing.assert_array_equal([float(t) for _, t in rows],
                                  read_signal_csv(transient).times[idx])


@pytest.mark.parametrize("command", ["decompose", "bench"])
def test_unconverged_stages_named(command, sine_csv, tmp_path, capsys):
    # one iteration per stage: the run exits 0 and names on stderr, per
    # decomposition, every stage short of tolerance
    out = tmp_path / "out"
    if command == "decompose":
        argv = ["decompose", sine_csv, "--debias"]
    else:
        argv = ["bench", "--trials", 2, "--duration", 40, "--baseline-lengths", 101]
    assert run([*argv, "--max-iters", 1, "--output-dir", out, "--quiet"]) == 0
    if command == "decompose":
        stages = json.loads((out / "sine_diagnostics.json").read_text())["stages"]
        runs = {"": [(s["stage"], s["converged"]) for s in stages]}
    else:
        report = run_mse_experiment(2, 1, PipelineParams(
            solver=SolverSettings(max_iters=1)),
            default_baselines(10.0, (101,)), TrialSpec(duration_s=40.0))
        runs = {f"trial {i}: ": [(r.stage, r.converged) for r in stages]
                for i, stages in enumerate(report.diagnostics)}
    warnings = []
    for where, stages in runs.items():
        assert [name for name, _ in stages] == ["coarse_lower", "coarse_upper",
                                                "tight_lower", "tight_upper", "smooth"]
        failed = [name for name, converged in stages if not converged]
        assert failed
        warnings.append(f"warning: {where}stage(s) did not reach tolerance: "
                        + ", ".join(failed))
    assert capsys.readouterr().err.splitlines() == warnings


class TestSynth:
    def test_bytewise_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["synth", "--seed", 7, "--duration", 20,
                        "--output-dir", d, "--quiet"]) == 0
        for name in ("observation.csv", "smooth_truth.csv",
                     "transient_truth.csv", "spec.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_row_count(self, tmp_path):
        assert run(["synth", "--fs", 10, "--duration", 30,
                    "--output-dir", tmp_path, "--quiet"]) == 0
        lines = (tmp_path / "observation.csv").read_text().splitlines()
        assert len(lines) == 1 + 300

    def test_spec_json_echoes_defaults(self, tmp_path):
        assert run(["synth", "--duration", 20, "--output-dir", tmp_path,
                    "--quiet"]) == 0
        meta = json.loads((tmp_path / "spec.json").read_text())
        assert meta["warp"] == {"c0": 25.0, "c1": 500.0, "c2": 1e-3}
        assert meta["mag"] == {"c0": 25.0, "c1": 2500.0, "c2": 5e-4}
        assert meta["transient"] == {"c0": 0.1, "c1": 10.0, "c2": 1e-5}


class TestDecompose:
    def test_constant_signal(self, tmp_path):
        path = tmp_path / "const.csv"
        write_signal_csv(path, Signal(np.full(200, 3.0), 10.0))
        assert run(["decompose", path, "--output-dir", tmp_path, "--quiet",
                    *FAST]) == 0
        vals = np.genfromtxt(tmp_path / "const_transient.csv",
                             delimiter=",", skip_header=1)[:, 1]
        assert np.max(np.abs(vals)) < 1e-6

    def test_missing_file(self, tmp_path, capsys):
        code = run(["decompose", tmp_path / "absent.csv",
                    "--output-dir", tmp_path])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_outputs_and_diagnostics(self, sine_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["decompose", sine_csv, "--debias",
                    "--output-dir", out, "--quiet", *FAST]) == 0
        for suffix in ("smooth", "transient"):
            assert (out / f"sine_{suffix}.csv").exists()
        env = (out / "sine_envelopes.csv").read_text().splitlines()
        assert env[0] == "t,lower,upper"
        diag = json.loads((out / "sine_diagnostics.json").read_text())
        assert diag["debias"] is True
        assert len(diag["stages"]) == 5
        assert all({"iters", "residual_inf", "converged", "tol_abs"} <= set(s)
                   for s in diag["stages"])
        # the coarse pair and the smooth stage solve on y itself: the coarse
        # pair to the coarse rule's 1e-3 at the default --tol, smooth to --tol
        scale = np.max(np.abs(read_signal_csv(sine_csv).samples))
        tols = [s["tol_abs"] for s in diag["stages"]]
        assert tols[:2] == pytest.approx([1e-3 * scale] * 2, rel=1e-12)
        assert tols[4] == pytest.approx(1e-6 * scale, rel=1e-12)

    def test_stages_hold_every_record_field(self, sine_csv, tmp_path):
        """Each ``stages[i]`` is its stage's ``SolveResult`` but ``x_hat`` and
        ``z``; every field but the wall time repeats in a fresh solve."""
        out = tmp_path / "out"
        assert run(["decompose", sine_csv, "--debias", "--output-dir", out, "--quiet",
                    *FAST]) == 0
        stages = json.loads((out / "sine_diagnostics.json").read_text())["stages"]
        dec = decompose_debiased(read_signal_csv(sine_csv), PipelineParams(
            solver=SolverSettings(max_iters=2000)))
        names = {f.name for f in dataclasses.fields(SolveResult)} - {"x_hat", "z"}
        for s, r in zip(stages, dec.diagnostics, strict=True):
            assert set(s) == names
            assert isinstance(s.pop("wall_s"), float)
            want = json.loads(json.dumps({name: getattr(r, name) for name in names}))
            del want["wall_s"]
            assert s == want
            assert s["alpha"] == 1.0 / np.sqrt(s["eig_min"] * s["eig_max"]) > 0
            assert s["m"] >= len(r.x_hat) + s["k"]

    @pytest.mark.parametrize("debias", [False, True])
    def test_metadata_round_trip(self, sine_csv, tmp_path, debias):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        mode = ["--debias"] if debias else []
        assert run(["decompose", sine_csv, *mode, "--sigma1", 25, "--tol", 1e-5,
                    "--output-dir", d1, "--quiet", *FAST]) == 0
        p = json.loads((d1 / "sine_diagnostics.json").read_text())["parameters"]
        assert set(p) == {"lambda0", "lambda1", "sigma0", "sigma1", "coarse_lambda",
                          "coarse_sigma", "tol", "max_iters", "tau"}
        assert None not in p.values()
        flags = [x for k, v in p.items() for x in (f"--{k.replace('_', '-')}", v)]
        assert run(["decompose", sine_csv, *mode, *flags,
                    "--output-dir", d2, "--quiet"]) == 0
        for suffix in ("smooth.csv", "transient.csv", "envelopes.csv"):
            name = f"sine_{suffix}"
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        # the diagnostics repeat but for each stage's wall time
        diags = [json.loads((d / "sine_diagnostics.json").read_text()) for d in (d1, d2)]
        for s in diags[0]["stages"] + diags[1]["stages"]:
            del s["wall_s"]
        assert diags[0] == diags[1]

    def test_additivity_of_written_files(self, sine_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["decompose", sine_csv, "--output-dir", out, "--quiet",
                    *FAST]) == 0
        sm = np.genfromtxt(out / "sine_smooth.csv", delimiter=",",
                           skip_header=1)[:, 1]
        tr = np.genfromtxt(out / "sine_transient.csv", delimiter=",",
                           skip_header=1)[:, 1]
        y = np.genfromtxt(sine_csv, delimiter=",", skip_header=1)[:, 1]
        np.testing.assert_array_equal(tr, y - sm)


class TestPeaks:
    def test_sine_intervals(self, sine_csv, tmp_path):
        out = tmp_path / "p"
        assert run(["peaks", sine_csv, "--output-dir", out, "--quiet"]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["mean_interval_s"] == pytest.approx(1.0, abs=0.1)
        lines = (out / "peaks.csv").read_text().splitlines()
        assert lines[0] == "index,time_s"
        assert len(lines) == 1 + stats["n_peaks"]

    def test_constant_null_stats(self, tmp_path):
        path = tmp_path / "c.csv"
        write_signal_csv(path, Signal(np.ones(100), 10.0))
        out = tmp_path / "p"
        assert run(["peaks", path, "--output-dir", out, "--quiet"]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_peaks"] == 0
        assert stats["mean_interval_s"] is None

    def test_zero_separation_usage_error(self, sine_csv, tmp_path, capsys):
        assert run(["peaks", sine_csv, "--min-separation", 0,
                    "--output-dir", tmp_path / "p"]) == 2
        assert capsys.readouterr().err == ("error: min_separation_s must be "
                                           "positive and finite, got 0.0\n")


class TestFilter:
    def test_lowpass_writes_output(self, sine_csv, tmp_path):
        out = tmp_path / "f"
        assert run(["filter", sine_csv, "--length", 51,
                    "--output-dir", out, "--quiet"]) == 0
        assert (out / "sine_filtered.csv").exists()
        meta = json.loads((out / "sine_filter.json").read_text())
        assert meta["filter"]["length"] == 51


class TestBench:
    def test_outputs_and_shape(self, tmp_path):
        out = tmp_path / "b"
        assert run(["bench", "--trials", 2, "--duration", 120,
                    "--output-dir", out, "--quiet", *FAST]) == 0
        mse_lines = (out / "mse.csv").read_text().splitlines()
        # per trial: the pipeline, four FIR baselines and the identity reference
        assert len(mse_lines) == 1 + 2 * (1 + 4 + 1)
        assert (out / "traces.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["trials"] == 2 and len(meta["ordering"]) == 2

    def test_invalid_trials_usage_error(self, tmp_path, capsys):
        assert run(["bench", "--trials", 0, "--output-dir", tmp_path / "b"]) == 2
        assert capsys.readouterr().err == "error: n_trials must be >= 1, got 0\n"

    def test_bytewise_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["bench", "--trials", 2, "--duration", 120, "--seed", 4,
                        "--output-dir", d, "--quiet", *FAST]) == 0
        assert (d1 / "mse.csv").read_bytes() == (d2 / "mse.csv").read_bytes()
        assert (d1 / "traces.csv").read_bytes() == (d2 / "traces.csv").read_bytes()

    @staticmethod
    def bench_and_report(out):
        """Two short trials through the CLI into ``out``, and the same two
        through ``run_mse_experiment``."""
        assert run(["bench", "--trials", 2, "--duration", 40, "--baseline-lengths", 101,
                    "--output-dir", out, "--quiet", *FAST]) == 0
        return run_mse_experiment(2, 1, PipelineParams(
            solver=SolverSettings(max_iters=2000)),
            default_baselines(10.0, (101,)), TrialSpec(duration_s=40.0))

    def test_mse_csv_round_trips_report(self, tmp_path):
        # trial-major rows, methods in the report's order, floats read back exactly
        report = self.bench_and_report(tmp_path)
        header, rows = _csv_rows(tmp_path / "mse.csv")
        assert header == ["trial_id", "method", "mse"]
        assert [(int(i), m) for i, m, _ in rows] == [
            (i, m) for i in range(2) for m in report.mses]
        for i, m, v in rows:
            assert float(v) == report.mses[m][int(i)]

    def test_traces_csv_round_trips_report(self, tmp_path):
        # every stage of every trial, in diagnostics order, floats read back exactly
        report = self.bench_and_report(tmp_path)
        header, rows = _csv_rows(tmp_path / "traces.csv")
        assert header == ["trial_id", "stage", "iter", "residual"]
        assert [(int(i), stage, int(it), float(v)) for i, stage, it, v in rows] == [
            (i, r.stage, it, v) for i, stages in enumerate(report.diagnostics)
            for r in stages for it, v in r.residual_trace]

    def test_ordering_is_stable_argsort_of_proposed(self, tmp_path):
        assert run(["bench", "--trials", 3, "--duration", 40, "--baseline-lengths", 101,
                    "--seed", 0, "--output-dir", tmp_path, "--quiet", *FAST]) == 0
        _, rows = _csv_rows(tmp_path / "mse.csv")
        proposed = [float(v) for _, m, v in rows if m == PROPOSED]
        ordering = json.loads((tmp_path / "meta.json").read_text())["ordering"]
        assert ordering == np.argsort(proposed, kind="stable").tolist()
        assert [proposed[j] for j in ordering] == sorted(proposed)

    def test_metadata_round_trip(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["bench", "--trials", 2, "--duration", 120, "--seed", 9,
                    "--output-dir", d1, "--quiet", *FAST]) == 0
        meta = json.loads((d1 / "meta.json").read_text())
        p = meta["parameters"]
        assert set(p) == {"lambda0", "lambda1", "sigma0", "sigma1", "coarse_lambda",
                          "coarse_sigma", "tol", "max_iters", "tau"}
        argv = ["bench", "--trials", meta["trials"], "--seed", meta["seed"],
                "--fs", meta["fs_hz"], "--duration", meta["duration_s"],
                "--baseline-lengths", *meta["baseline_lengths"],
                "--lambda0", p["lambda0"], "--lambda1", p["lambda1"],
                "--sigma0", p["sigma0"], "--sigma1", p["sigma1"],
                "--coarse-lambda", p["coarse_lambda"],
                "--coarse-sigma", p["coarse_sigma"],
                "--tol", p["tol"],
                "--max-iters", p["max_iters"], "--tau", p["tau"],
                "--output-dir", d2, "--quiet"]
        assert run(argv) == 0
        assert (d1 / "mse.csv").read_bytes() == (d2 / "mse.csv").read_bytes()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
