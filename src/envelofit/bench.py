"""Benchmark harness: multi-trial MSE comparison and solver scaling runs.

Each trial draws a synthetic observation, decomposes it with the envelope
pipeline and with each FIR baseline, and records the smooth-component MSE.
Trials are seeded ``base_seed + i`` so the whole report is reproducible
bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .baseline import FirFilter, lti_smooth_estimate
from .core import BoxConstraint, InputError, Signal, check_int, mse
from .kernel import KernelSpec
from .pipeline import PipelineParams, decompose_debiased
from .solver import SolveParams, SolveResult, solve_constrained_filter
from .synth import TrialSpec, generate_trial

__all__ = ["BenchReport", "run_mse_experiment", "run_scaling"]

PROPOSED = "proposed"
IDENTITY = "identity"  # the reference estimate smooth = y


@dataclass(frozen=True)
class BenchReport:
    """What the trials of ``run_mse_experiment`` produced, in seed order.

    ``diagnostics`` keeps every stage's record, its ``x_hat`` and ``z``
    included: about 10·n floats per trial, 3.2 MB for 20 trials at n = 2000.
    """

    #: method -> its smooth-component MSE per trial; methods in the order
    #: proposed, each ``hamming_lp_<length>`` baseline, identity.
    mses: dict[str, np.ndarray]
    #: each trial's ``Decomposition.diagnostics``: one ``SolveResult`` per stage.
    diagnostics: tuple[tuple[SolveResult, ...], ...]
    #: each trial's ``decompose_debiased`` wall time, seconds.
    wall_s: np.ndarray


def run_mse_experiment(
    n_trials: int,
    base_seed: int,
    pipeline: PipelineParams,
    baselines: list[FirFilter],
    trial_spec: TrialSpec = TrialSpec(),
) -> BenchReport:
    """Smooth-component MSE of the pipeline, each baseline and the identity,
    over trials of ``trial_spec`` (its seed replaced by ``base_seed + i``)."""
    check_int(n_trials, "n_trials", 1)  # base_seed is checked as each trial's seed
    lengths = [f.length for f in baselines]
    if len(set(lengths)) < len(lengths):
        raise InputError(f"baseline lengths must be distinct, got {lengths}")

    names = [f"hamming_lp_{n}" for n in lengths]
    mses = {name: np.empty(n_trials) for name in (PROPOSED, *names, IDENTITY)}
    diagnostics = []
    wall_s = np.empty(n_trials)
    for i in range(n_trials):
        trial = generate_trial(replace(trial_spec, seed=base_seed + i))
        t_start = time.perf_counter()
        dec = decompose_debiased(trial.observation, pipeline)
        wall_s[i] = time.perf_counter() - t_start
        mses[PROPOSED][i] = mse(trial.smooth, dec.smooth)
        for name, f in zip(names, baselines):
            smooth, _ = lti_smooth_estimate(trial.observation, f)
            mses[name][i] = mse(trial.smooth, smooth)
        mses[IDENTITY][i] = mse(trial.smooth, trial.observation)
        diagnostics.append(dec.diagnostics)
    return BenchReport(mses=mses, diagnostics=tuple(diagnostics), wall_s=wall_s)


def run_scaling(n_list: list[int], iters: int = 20, repeats: int = 5) -> np.ndarray:
    """Per-iteration solver wall time, one row per repeat and one column per
    signal length.

    Every size solves one seeded problem: a noisy sine at 10 Hz in a box of
    half-width 1, with ``lam = 1``, ``sigma = 20`` and ``tau = 1e-5`` (``K = 67``);
    ``iters`` up to the gap-check cadence, 25, check the gap once, at the
    cap.  Each repeat times every size once, in turn, within a fraction of
    a second, so ratios taken within a row compare sizes in one phase of
    the host.
    """
    rng = np.random.default_rng(0)
    problems = []
    for n in n_list:
        t = np.arange(n) / 10.0
        y = Signal(np.sin(0.5 * t) + 0.1 * rng.standard_normal(n), 10.0)
        problems.append(SolveParams(  # its first solve raises if the band does not fit n
            y=y,
            lam=1.0,
            kernel=KernelSpec(sigma=20.0),
            box=BoxConstraint(y.samples - 1.0, y.samples + 1.0),
            max_iters=iters,
        ))
    times = np.empty((repeats, len(problems)))
    for rep in range(repeats):
        for j, params in enumerate(problems):
            t0 = time.perf_counter()
            solve_constrained_filter(params)
            times[rep, j] = (time.perf_counter() - t0) / iters
    return times
