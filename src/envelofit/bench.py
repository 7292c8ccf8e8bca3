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
from .core import BoxConstraint, InputError, Signal, mse
from .kernel import KernelSpec
from .pipeline import PipelineParams, decompose_debiased
from .solver import SolveParams, solve_constrained_filter
from .synth import TrialSpec, generate_trial

__all__ = ["BenchReport", "run_mse_experiment", "run_scaling", "write_report_csv"]

PROPOSED = "proposed"
IDENTITY = "identity"  # the reference estimate smooth = y


@dataclass(frozen=True)
class BenchReport:
    #: (trial_id, method_name, mse) rows, trials in seed order.
    trial_mses: tuple[tuple[int, str, float], ...]
    #: permutation sorting trials by the proposed method's MSE.
    ordering: tuple[int, ...]
    #: per-trial final-stage residual traces: trial_id -> ((iter, residual), ...)
    convergence_traces: dict[int, tuple[tuple[int, float], ...]]
    #: per-trial (trial_id, wall_s, iters) of the proposed method, iters summed
    #: over its stages.
    timing: tuple[tuple[int, float, int], ...]

    def mses_for(self, method: str) -> np.ndarray:
        return np.array(
            [m for _, name, m in self.trial_mses if name == method], dtype=float
        )

    def method_names(self) -> list[str]:
        seen: list[str] = []
        for _, name, _ in self.trial_mses:
            if name not in seen:
                seen.append(name)
        return seen


def run_mse_experiment(
    n_trials: int,
    base_seed: int,
    pipeline: PipelineParams,
    baselines: list[FirFilter],
    trial_spec: TrialSpec | None = None,
) -> BenchReport:
    """Smooth-component MSE of the pipeline, each baseline and the identity."""
    if n_trials < 1:
        raise InputError(f"n_trials must be >= 1, got {n_trials}")
    template = trial_spec if trial_spec is not None else TrialSpec()

    all_rows: list[tuple[int, str, float]] = []
    traces: dict[int, tuple[tuple[int, float], ...]] = {}
    timing: list[tuple[int, float, int]] = []
    for i in range(n_trials):
        trial = generate_trial(replace(template, seed=base_seed + i))
        t_start = time.perf_counter()
        dec = decompose_debiased(trial.observation, pipeline)
        wall = time.perf_counter() - t_start
        all_rows.append((i, PROPOSED, mse(trial.smooth, dec.smooth)))
        for f in baselines:
            smooth, _ = lti_smooth_estimate(trial.observation, f)
            all_rows.append((i, f"hamming_lp_{f.length}", mse(trial.smooth, smooth)))
        all_rows.append((i, IDENTITY, mse(trial.smooth, trial.observation)))
        traces[i] = dec.diagnostics[-1].residual_trace
        timing.append((i, wall, sum(r.iters for r in dec.diagnostics)))

    proposed = [m for _, name, m in all_rows if name == PROPOSED]
    ordering = tuple(int(j) for j in np.argsort(proposed, kind="stable"))
    return BenchReport(
        trial_mses=tuple(all_rows),
        ordering=ordering,
        convergence_traces=traces,
        timing=tuple(timing),
    )


def run_scaling(
    n_list: list[int],
    sigma: float = 20.0,
    lam: float = 1.0,
    iters: int = 30,
    repeats: int = 5,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Median per-iteration solver wall time for each signal length.

    Each repeat times every size once, in turn, so a slow phase of the host
    spreads over the sizes instead of landing on one of them.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for n in n_list:
        t = np.arange(n) / 10.0
        y = Signal(np.sin(0.5 * t) + 0.1 * rng.standard_normal(n), 10.0)
        box_lo = y.samples - 1.0
        box_hi = y.samples + 1.0
        problems.append(SolveParams(  # its first solve raises if the band does not fit n
            y=y,
            lam=lam,
            kernel=KernelSpec(sigma=sigma),
            box=BoxConstraint(box_lo, box_hi),
            max_iters=iters,
            trace_every=iters,  # one gap, at the cap
        ))
    times = np.empty((repeats, len(problems)))
    for rep in range(repeats):
        for j, params in enumerate(problems):
            t0 = time.perf_counter()
            solve_constrained_filter(params)
            times[rep, j] = (time.perf_counter() - t0) / iters
    return [(n, float(m)) for n, m in zip(n_list, np.median(times, axis=0))]


def write_report_csv(path, report: BenchReport) -> None:
    """One row per trial x method; plot-ready."""
    from .io import write_csv  # keeps json off ``import envelofit``

    write_csv(path, ["trial_id", "method", "mse"], report.trial_mses)
