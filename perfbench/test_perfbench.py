"""Self-tests of the benchmark: tracing changes nothing, the long generator
has the stated covariance, and the output checks catch broken outputs.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from envelofit import pipeline, synth  # noqa: E402
from envelofit.pipeline import CoarseParams, PipelineParams, SolverSettings  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import longgen  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = PipelineParams(coarse=CoarseParams(), solver=SolverSettings(max_iters=200))


@pytest.fixture(scope="module")
def trial():
    return synth.generate_trial(synth.TrialSpec(seed=workloads.trial_seed(0, 0),
                                                duration_s=40.0))


def _attrs(tracer):
    out = {}
    for dotted in tracer.targets:
        mod, attr = dotted.rsplit(".", 1)
        out[dotted] = getattr(importlib.import_module(mod), attr)
    return out


@pytest.mark.parametrize("decompose,stages", [
    (pipeline.decompose_debiased, workloads.DEBIASED_STAGES),
    (pipeline.decompose_basic, workloads.BASIC_STAGES),
])
def test_traced_outputs_bitwise_equal_untraced(trial, decompose, stages):
    w = workloads.Workload("t", decompose, SMALL, stages, None, min_calls=1)
    plain = decompose(trial.observation, SMALL)
    tr = layers.new_tracer()
    with tr.installed(), tr.span(layers.DECOMPOSE) as root:
        traced = decompose(trial.observation, SMALL)
    assert workloads.outputs_digest(traced) == workloads.outputs_digest(plain)
    assert workloads.check_outputs(trial.observation, traced, w) == []

    values = layers.layer_metrics(tr, [root], stages, 1, extra={})
    for st in stages:
        assert values[f"solver.{st}.iters"] == traced.diagnostics[stages.index(st)].iters
    measured = [n for n, _, _ in layers.PER_LAYER + layers.REPORT_ONLY
                if not n.startswith(("synth.", "baseline.", "trace.", "pipeline.smooth_mse"))
                and not any(n.startswith(f"solver.{st}.")
                            for st in workloads.DEBIASED_STAGES if st not in stages)]
    assert all(values[n] is not None for n in measured)


def test_wrappers_restore_module_attributes():
    tr = layers.new_tracer()
    before = _attrs(tr)
    with tr.installed():
        during = _attrs(tr)
    assert all(during[k] is not before[k] for k in before)
    assert all(v is before[k] for k, v in _attrs(tr).items())

    with pytest.raises(RuntimeError):
        with tr.installed():
            raise RuntimeError("boom")
    assert all(v is before[k] for k, v in _attrs(tr).items())


def test_vanished_or_uncalled_name_is_missing_not_zero(trial):
    targets = dict(layers.new_tracer().targets)
    del targets[layers.REFLECT]  # as if a fused loop had inlined reflect_g
    tr = Tracer({**targets, "envelofit.solver.no_such_function": None})
    with tr.installed(), tr.span(layers.DECOMPOSE) as root:
        pipeline.decompose_basic(trial.observation, SMALL)
    assert tr.missing_names == {"envelofit.solver.no_such_function"}
    assert not hasattr(importlib.import_module("envelofit.solver"), "no_such_function")
    values = layers.layer_metrics(tr, [root], workloads.BASIC_STAGES, 1, extra={})
    assert values["prox.reflect_g_us"] is None
    assert values["prox.reflect_g_calls"] is None
    assert values["synth.generate_trial_s"] is None
    assert values["synth.input_s"] is None
    assert values["kernel.apply_resolvent_calls"] > 0


def test_filter_taps_give_squared_exponential_covariance():
    # exact autocorrelation of the unit-energy taps against exp(-dt^2 / c1)
    fs = 10.0
    for p in (synth.TrialSpec().warp, synth.TrialSpec().mag, synth.TrialSpec().transient):
        size = 2**16
        taps = longgen.gaussian_filter_taps(p.c1, fs, size)
        acf = np.fft.irfft(np.abs(np.fft.rfft(taps)) ** 2, n=size)
        lags = np.arange(int(3 * np.sqrt(p.c1) * fs))
        np.testing.assert_allclose(acf[lags], np.exp(-(lags / fs) ** 2 / p.c1),
                                   rtol=0, atol=1e-9)


def test_long_generator_empirical_autocovariance():
    # Averaged over 8 draws of 2^17 samples, the sample autocovariance has a
    # standard error of at most about 0.04 c0 (mag, the longest length
    # scale); the stated tolerance is 0.12 c0 at lags up to 2 sqrt(c1).
    fs, n, draws = 10.0, 2**17, 8
    spec = synth.TrialSpec()
    for p in (spec.warp, spec.mag, spec.transient):
        lags = np.arange(0, int(2 * np.sqrt(p.c1) * fs) + 1, max(1, int(np.sqrt(p.c1))))
        acov = np.zeros(lags.size)
        for seed in range(draws):
            x = longgen.filtered_gp(p, n, fs, np.random.default_rng(seed))
            x = x - x.mean()
            acov += [np.dot(x[: n - k], x[k:]) / (n - k) for k in lags]
        acov /= draws
        want = p.c0 * np.exp(-(lags / fs) ** 2 / p.c1) + p.c2 * (lags == 0)
        assert np.max(np.abs(acov - want)) < 0.12 * p.c0, (p, acov, want)


def test_long_trial_is_seeded_and_additive():
    a = longgen.long_trial(7, 5000)
    b = longgen.long_trial(7, 5000)
    assert np.array_equal(a.observation.samples, b.observation.samples)
    assert np.array_equal(a.observation.samples, a.smooth.samples + a.transient.samples)
    assert not np.array_equal(a.smooth.samples, longgen.long_trial(8, 5000).smooth.samples)


def test_output_checks_catch_broken_outputs(trial):
    w = workloads.WORKLOADS["desk_basic"]
    dec = pipeline.decompose_basic(trial.observation, SMALL)
    assert workloads.check_outputs(trial.observation, dec, w) == []

    t = dec.transient.samples.copy()
    t[3] = np.nextafter(t[3], np.inf)
    bad = dataclasses.replace(dec, transient=dec.transient.with_samples(t))
    assert any("bitwise" in f for f in workloads.check_outputs(trial.observation, bad, w))

    lo = dec.lower_env.samples.copy()
    lo[5] = dec.smooth.samples[5] + 1e-3
    bad = dataclasses.replace(dec, lower_env=dec.lower_env.with_samples(lo))
    assert any("lower_env" in f for f in workloads.check_outputs(trial.observation, bad, w))

    bad = dataclasses.replace(dec, diagnostics=dec.diagnostics[:2])
    assert workloads.check_outputs(trial.observation, bad, w)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_basic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_metrics_exist_on_every_workload():
    # the result line must carry a number for each per_layer metric, so no
    # stage that only some workloads run may be among them
    per_layer = [n for n, _, _ in layers.PER_LAYER]
    assert len(set(per_layer)) == len(per_layer)
    assert not set(per_layer) & {n for n, _, _ in layers.REPORT_ONLY}
    for w in workloads.WORKLOADS.values():
        for n in per_layer:
            if n.startswith("solver.") and n.count(".") == 2:
                assert n.split(".")[1] in w.stages, (w.name, n)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == [
        (n, u) for n, u, _ in layers.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == harness.END_TO_END
