import argparse
import json

import numpy as np
import pytest

from envelofit.cli import build_parser, main
from envelofit.core import Signal
from envelofit.io import read_signal_csv, write_signal_csv
from envelofit.pipeline import (
    CoarseParams,
    PipelineParams,
    SolverSettings,
    decompose_debiased,
)

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


@pytest.mark.parametrize("gp", ["warp", "mag", "transient"])
def test_gp_error_names_its_flags(gp, tmp_path, capsys):
    assert run(["synth", f"--{gp}-c2", "inf", "--output-dir", tmp_path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{gp}-c0/c1/c2: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["decompose", "IN", "--debias", "--coarse-sigma", "inf"],
    ["decompose", "IN", "--sigma1", "inf"],
    ["decompose", "IN", "--lambda0", "inf"],
    ["synth", "--duration", "inf"],
])
def test_infinite_value_is_usage_error(argv, sine_csv, tmp_path, capsys):
    argv = [sine_csv if a == "IN" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--output-dir", tmp_path / "out", "--quiet"])
    assert exc.value.code == 2
    assert f"{argv[-2]}: must be positive and finite, got inf" in capsys.readouterr().err


P, F, I = "_positive", "float", "_positive_int"
SOLVER_FLAGS = {
    "--lambda0": (50.0, P), "--lambda1": (0.5, P), "--sigma0": (5.0, P),
    "--sigma1": (20.0, P), "--coarse-lambda": (1.0, P), "--coarse-sigma": (50.0, P),
    "--tol": (1e-6, P),
    "--max-iters": (10000, I), "--tau": (1e-5, P),
}
COMMON_FLAGS = {"--output-dir": (".", None), "--quiet": (False, None)}
# flag -> (default, name of the parse function) of the commands whose flags
# are derived from the parameter dataclasses; a derivation that adds, drops,
# renames or retypes a flag, or moves a default, fails here
SURFACE = {
    "decompose": {**SOLVER_FLAGS, **COMMON_FLAGS, "--debias": (False, None),
                  "--fs": (None, P), "--prefix": (None, None)},
    "bench": {**SOLVER_FLAGS, **COMMON_FLAGS, "--trials": (20, I),
              "--seed": (1, "int"), "--fs": (10.0, P), "--duration": (200.0, P),
              "--baseline-lengths": ([101, 501, 1001, 2001], I)},
    "synth": {**COMMON_FLAGS, "--seed": (0, "int"), "--fs": (10.0, P),
              "--duration": (200.0, P),
              "--warp-c0": (25.0, P), "--warp-c1": (500.0, P), "--warp-c2": (1e-3, F),
              "--mag-c0": (25.0, P), "--mag-c1": (2500.0, P), "--mag-c2": (5e-4, F),
              "--transient-c0": (0.1, P), "--transient-c1": (10.0, P),
              "--transient-c2": (1e-5, F)},
}


@pytest.mark.parametrize("command", SURFACE)
def test_flags_defaults_and_parsers_are_pinned(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {a.option_strings[0]: (a.default, getattr(a.type, "__name__", None))
           for a in sub.choices[command]._actions
           if a.option_strings and a.dest != "help"}
    assert got == SURFACE[command]


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
                if name != "method":
                    (int if name in ("index", "trial_id", "iter") else float)(cell)

    sig = read_signal_csv(obs)
    dec = decompose_debiased(sig, PipelineParams(
        coarse=CoarseParams(), solver=SolverSettings(max_iters=2000)))
    header, rows = _csv_rows(tmp_path / "decompose" / "observation_envelopes.csv")
    assert header == ["t", "lower", "upper"]
    np.testing.assert_array_equal([float(r[1]) for r in rows], dec.lower_env.samples)
    np.testing.assert_array_equal([float(r[2]) for r in rows], dec.upper_env.samples)

    header, rows = _csv_rows(tmp_path / "peaks" / "peaks.csv")
    idx = [int(i) for i, _ in rows]
    np.testing.assert_array_equal([float(t) for _, t in rows],
                                  read_signal_csv(transient).times[idx])


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
        assert all({"iters", "residual_inf", "converged"} <= set(s)
                   for s in diag["stages"])

    def test_unconverged_stages_named(self, sine_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["decompose", sine_csv, "--debias", "--max-iters", 1,
                    "--output-dir", out, "--quiet"]) == 0
        diag = json.loads((out / "sine_diagnostics.json").read_text())
        names = ["coarse_lower", "coarse_upper", "tight_lower", "tight_upper",
                 "smooth"]
        assert [s["stage"] for s in diag["stages"]] == names
        failed = [s["stage"] for s in diag["stages"] if not s["converged"]]
        assert failed
        err = capsys.readouterr().err
        assert "did not reach tolerance: " + ", ".join(failed) in err

    @pytest.mark.parametrize("debias", [False, True])
    def test_metadata_round_trip(self, sine_csv, tmp_path, debias):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        mode = ["--debias"] if debias else []
        assert run(["decompose", sine_csv, *mode, "--sigma1", 25, "--tol", 1e-5,
                    "--output-dir", d1, "--quiet", *FAST]) == 0
        p = json.loads((d1 / "sine_diagnostics.json").read_text())["parameters"]
        keys = {"lambda0", "lambda1", "sigma0", "sigma1", "tol", "max_iters", "tau"}
        assert set(p) == (keys | {"coarse_lambda", "coarse_sigma"} if debias else keys)
        assert None not in p.values()
        flags = [x for k, v in p.items() for x in (f"--{k.replace('_', '-')}", v)]
        assert run(["decompose", sine_csv, *mode, *flags,
                    "--output-dir", d2, "--quiet"]) == 0
        for suffix in ("smooth.csv", "transient.csv", "envelopes.csv",
                       "diagnostics.json"):
            name = f"sine_{suffix}"
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

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

    def test_zero_separation_usage_error(self, sine_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["peaks", sine_csv, "--min-separation", 0])
        assert exc.value.code == 2


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

    def test_invalid_trials_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--trials", 0, "--output-dir", tmp_path])
        assert exc.value.code == 2

    def test_bytewise_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run(["bench", "--trials", 2, "--duration", 120, "--seed", 4,
                        "--output-dir", d, "--quiet", *FAST]) == 0
        assert (d1 / "mse.csv").read_bytes() == (d2 / "mse.csv").read_bytes()
        assert (d1 / "traces.csv").read_bytes() == (d2 / "traces.csv").read_bytes()

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
