"""Workload definitions, inputs and the output checks run on every call."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from envelofit import pipeline, synth
from envelofit.core import Signal
from envelofit.pipeline import CoarseParams, Decomposition, PipelineParams, SolverSettings

import longgen

#: Stage names in the order of ``Decomposition.diagnostics``.
DEBIASED_STAGES = ("coarse_lower", "coarse_upper", "tight_lower", "tight_upper", "smooth")
BASIC_STAGES = ("tight_lower", "tight_upper", "smooth")

#: Long-signal length: about 1 MB per float64 vector, past a typical L2.
LONG_N = 2**17


def trial_seed(seed: int, i: int) -> int:
    """Seed of the ``i``-th input of a run; never one of the gate seeds 1-20."""
    if seed < 0 or not 0 <= i < 1000:
        raise ValueError(f"need seed >= 0 and 0 <= i < 1000, got {seed}, {i}")
    return 1_000_000 + 1000 * seed + i


def _desk_input(ts: int) -> synth.Trial:
    # through the module attribute, so a traced run sees the call
    return synth.generate_trial(synth.TrialSpec(seed=ts))


def _long_input(ts: int) -> synth.Trial:
    return longgen.long_trial(ts, LONG_N)


@dataclass(frozen=True)
class Workload:
    name: str
    decompose: Callable[[Signal, PipelineParams], Decomposition]
    params: PipelineParams
    stages: tuple[str, ...]
    make_input: Callable[[int], synth.Trial]
    #: Calls made whatever the time budget; quality and count metrics are
    #: taken over exactly these, so they repeat bit for bit for one seed.
    min_calls: int

    def warmup_params(self) -> PipelineParams:
        s = self.params.solver
        return replace(self.params, solver=replace(s, max_iters=s.trace_every))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_debiased", pipeline.decompose_debiased,
                 PipelineParams(coarse=CoarseParams()), DEBIASED_STAGES,
                 _desk_input, min_calls=5),
        Workload("desk_basic", pipeline.decompose_basic,
                 PipelineParams(coarse=CoarseParams()), BASIC_STAGES,
                 _desk_input, min_calls=7),
        Workload("long_signal", pipeline.decompose_debiased,
                 PipelineParams(coarse=CoarseParams(),
                                solver=SolverSettings(max_iters=200)),
                 DEBIASED_STAGES, _long_input, min_calls=3),
    )
}


def _arrays(dec: Decomposition) -> list[np.ndarray]:
    out = [dec.smooth.samples, dec.transient.samples,
           dec.lower_env.samples, dec.upper_env.samples]
    for sig in (dec.coarse_lower, dec.coarse_upper, dec.trend):
        if sig is not None:
            out.append(sig.samples)
    for r in dec.diagnostics:
        out += [r.x_hat.samples, np.asarray(r.z), np.array([r.iters])]
    return out


def smooth_digest(dec: Decomposition) -> str:
    """SHA-256 of the smooth component's bytes."""
    return hashlib.sha256(dec.smooth.samples.tobytes()).hexdigest()


def outputs_digest(dec: Decomposition) -> str:
    """SHA-256 over every output array and every stage's dual iterate."""
    h = hashlib.sha256()
    for a in _arrays(dec):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def check_outputs(y: Signal, dec: Decomposition, w: Workload) -> list[str]:
    """Failed checks of one call's outputs; empty when all hold."""
    fails = []
    ys = y.samples
    if len(dec.diagnostics) != len(w.stages):
        fails.append(f"{len(dec.diagnostics)} stage results, expected {len(w.stages)}")
    arrays = _arrays(dec)
    if any(a.shape != ys.shape for a in arrays[:4]):
        fails.append("output length differs from the input")
        return fails
    if not all(np.all(np.isfinite(a)) for a in arrays):
        fails.append("non-finite output")
    if not np.array_equal(dec.transient.samples, ys - dec.smooth.samples):
        fails.append("transient != y - smooth bitwise")
    # the smooth stage solves on y itself; SolveParams.tol_abs scales the same way
    scale = float(np.max(np.abs(ys)))
    tol = w.params.solver.tol * (scale if scale > 0 else 1.0)
    sm = dec.smooth.samples
    if np.any(dec.lower_env.samples - tol > sm) or np.any(sm > dec.upper_env.samples + tol):
        fails.append("smooth leaves [lower_env, upper_env] by more than the stage tolerance")
    return fails
