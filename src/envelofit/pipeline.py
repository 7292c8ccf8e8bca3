"""Envelope-sandwich decomposition into smooth and transient components.

The observation is sandwiched between a tight upper and lower envelope
(heavy data-fit weight, narrow kernel), and the smooth component is the
smoothest signal between those envelopes (light data-fit weight, wider
kernel).  The transient component is the remainder.  A debiased variant
first fits coarse one-sided envelopes so each tight-envelope stage sees a
single-signed input, which tightens the envelopes and yields a trend
estimate as a side product.  The coarse pair only has to give each tight
stage that sign, so it is solved to a looser tolerance derived from the
shared ``tol`` (``_coarse_tol``); every other stage solves to ``tol``.
Every parameter is checked when its object is built, and the one relation
of the coarse stage, ``sigma1 <= coarse.sigma``, when ``decompose_debiased``
is called, so a bad value fails before any stage runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import BoxConstraint, EnvelofitError, InputError, Signal, knob
from .kernel import DEFAULT_TAU, KernelSpec
from .solver import SolveParams, SolveResult, SolverSettings, solve_constrained_filter

__all__ = [
    "SolverSettings",
    "PipelineParams",
    "Decomposition",
    "BeatStats",
    "decompose_basic",
    "decompose_debiased",
    "detect_peaks",
]

@dataclass(frozen=True)
class CoarseParams:
    """Weight and (very wide) kernel width for the coarse envelope stage."""

    lam: float = knob(1.0, "coarse envelope weight for --debias",
                      name="coarse_lambda")
    sigma: float = knob(50.0, "coarse envelope kernel width for --debias",
                        name="coarse_sigma")

    def __post_init__(self):
        if not (0 < self.lam < np.inf and 0 < self.sigma < np.inf):
            raise InputError(f"coarse lambda and sigma must be positive and finite, "
                             f"got {self.lam}, {self.sigma}")


@dataclass(frozen=True)
class PipelineParams:
    """Stage weights and kernel widths.

    ``lambda0``/``sigma0`` drive the tight envelopes (heavy fit, narrow
    kernel), ``lambda1``/``sigma1`` the final smoothing (light fit, wide
    kernel).  Widths are in samples.  ``tau``, every stage's kernel
    truncation, defaults to ``kernel.DEFAULT_TAU``.  It sets the band
    half-width ``K``, and ``K`` the diagonal floor ``1/(2(K + 1))``, which
    trades quality for iterations.  ``kernels`` holds each stage's
    ``KernelSpec`` (``tight``, ``smooth`` and ``coarse``), built with the
    other checks; ``decompose_basic`` leaves ``coarse`` unused.  The
    splitting settings are declared and checked in ``solver.SolverSettings``.
    """

    lambda0: float = knob(50.0, "envelope data-fit weight")
    lambda1: float = knob(0.5, "smoothing data-fit weight")
    sigma0: float = knob(5.0, "envelope kernel width, samples")
    sigma1: float = knob(20.0, "smoothing kernel width, samples")
    tau: float = knob(DEFAULT_TAU, "kernel truncation threshold of every stage")
    coarse: CoarseParams = field(default_factory=CoarseParams)
    solver: SolverSettings = field(default_factory=SolverSettings)
    kernels: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.lambda1 < self.lambda0 < np.inf):
            raise InputError(
                f"need 0 < lambda1 < lambda0, got {self.lambda1}, {self.lambda0}"
            )
        if not (0 < self.sigma0 <= self.sigma1 < np.inf):
            raise InputError(
                f"need 0 < sigma0 <= sigma1, got {self.sigma0}, {self.sigma1}"
            )
        object.__setattr__(self, "kernels", {
            "tight": KernelSpec(self.sigma0, self.tau),
            "smooth": KernelSpec(self.sigma1, self.tau),
            "coarse": KernelSpec(self.coarse.sigma, self.tau),
        })


@dataclass(frozen=True)
class Decomposition:
    """A decomposition and its stage records, in run order.  The debiased
    variant also sets the coarse envelopes and ``trend``, their midpoint,
    which are solved only to the coarse pair's tolerance (``_coarse_tol``),
    not to ``tol``; the basic variant leaves them ``None``."""

    smooth: Signal
    transient: Signal
    lower_env: Signal
    upper_env: Signal
    coarse_lower: Signal | None = None
    coarse_upper: Signal | None = None
    trend: Signal | None = None
    diagnostics: tuple[SolveResult, ...] = ()


@dataclass(frozen=True)
class BeatStats:
    peak_indices: np.ndarray
    intervals_s: np.ndarray
    mean_interval_s: float
    std_interval_s: float


def _coarse_tol(tol: float) -> float:
    """The coarse pair's relative tolerance: ``max(tol, min(1e3 * tol, 1e-3))``.

    A coarse ``x_hat`` lies in its box exactly, so ``y - u0`` keeps its sign
    at any tolerance, and the tight stage, which follows a smooth shift of its
    input, cancels most of the coarse error in ``u0 + tight(y - u0)``.  The
    rule is 1000 times ``tol`` up to tol = 1e-6 (1e-3 at the default) and
    never looser than 1e-3 unless ``tol`` is: at 1e-2 the smooth estimate
    moved over ten times as far as at 1e-3.
    """
    return max(tol, min(1e3 * tol, 1e-3))


def _stage(name: str, y: Signal, lam: float, kernel: KernelSpec, lower, upper,
           settings: SolverSettings) -> SolveResult:
    """One named solve; its result, and any error it raises, carry ``name``."""
    n = len(y)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    try:
        params = SolveParams(y=y, lam=lam, kernel=kernel, box=BoxConstraint(lower, upper),
                             **vars(settings))
        return replace(solve_constrained_filter(params), stage=name)
    except EnvelofitError as exc:
        raise type(exc)(f"{exc} (stage {name})") from exc


def _sandwich(y: Signal, p: PipelineParams, lo: np.ndarray, hi: np.ndarray,
              stages: tuple[SolveResult, ...], **extra) -> Decomposition:
    # each x_hat lies in its box exactly, so basic envelopes never cross;
    # debiased ones cross only by the rounding of u0 + (ys - u0), a few ulp
    # of |y|; restore elementwise ordering, then fit the smooth component
    # in between
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    sm = _stage("smooth", y, p.lambda1, p.kernels["smooth"], lo, hi, p.solver)
    return Decomposition(
        smooth=sm.x_hat,
        transient=y.with_samples(y.samples - sm.x_hat.samples),
        lower_env=y.with_samples(lo),
        upper_env=y.with_samples(hi),
        diagnostics=(*stages, sm),
        **extra,
    )


def decompose_basic(y: Signal, p: PipelineParams) -> Decomposition:
    """Tight envelopes from the raw observation, then smooth in between."""
    ys = y.samples
    low = _stage("tight_lower", y, p.lambda0, p.kernels["tight"], np.min(ys), ys, p.solver)
    up = _stage("tight_upper", y, p.lambda0, p.kernels["tight"], ys, np.max(ys), p.solver)
    return _sandwich(y, p, low.x_hat.samples, up.x_hat.samples, (low, up))


def decompose_debiased(y: Signal, p: PipelineParams) -> Decomposition:
    """Coarse one-sided envelopes first, so the tight stages see a
    single-signed input; also yields a trend estimate.  The coarse pair is
    solved to ``_coarse_tol(p.solver.tol)``, the other stages to
    ``p.solver.tol``.  Checks ``sigma1 <= coarse.sigma`` before its first
    stage."""
    if not p.sigma1 <= p.coarse.sigma:
        raise InputError(f"need sigma1 <= coarse sigma, got {p.sigma1}, {p.coarse.sigma}")
    ys = y.samples
    coarse = replace(p.solver, tol=_coarse_tol(p.solver.tol))
    c_low = _stage("coarse_lower", y, p.coarse.lam, p.kernels["coarse"], -np.inf, ys, coarse)
    c_up = _stage("coarse_upper", y, p.coarse.lam, p.kernels["coarse"], ys, np.inf, coarse)
    l0 = c_low.x_hat.samples
    u0 = c_up.x_hat.samples

    # each coarse x_hat lies in its box, so these are single-signed at any tolerance
    w_low = y.with_samples(ys - u0)  # <= 0
    w_up = y.with_samples(ys - l0)  # >= 0
    tight = p.kernels["tight"]
    low = _stage("tight_lower", w_low, p.lambda0, tight, -np.inf, w_low.samples, p.solver)
    up = _stage("tight_upper", w_up, p.lambda0, tight, w_up.samples, np.inf, p.solver)
    return _sandwich(
        y, p, u0 + low.x_hat.samples, l0 + up.x_hat.samples,
        (c_low, c_up, low, up),
        coarse_lower=c_low.x_hat,
        coarse_upper=c_up.x_hat,
        trend=y.with_samples(0.5 * (l0 + u0)),
    )


def detect_peaks(t: Signal, min_separation_s: float = 0.33,
                 min_prominence: float | None = None) -> BeatStats:
    """Prominent local maxima thinned to a minimum separation (highest kept).

    ``min_prominence=None`` uses a quarter of the 95th percentile of the
    absolute signal.  ``scipy.signal`` is imported on first use, so importing
    the package does not pay for it.
    """
    import scipy.signal

    if not (0 < min_separation_s < np.inf):
        raise InputError(
            f"min_separation_s must be positive and finite, got {min_separation_s}"
        )
    if min_prominence is not None and not (0 <= min_prominence < np.inf):
        raise InputError(f"min_prominence must be >= 0 and finite, got {min_prominence}")
    x = t.samples
    if min_prominence is None:
        min_prominence = 0.25 * float(np.percentile(np.abs(x), 95))
    distance = max(1, int(round(min_separation_s * t.sample_rate_hz)))
    peaks, _ = scipy.signal.find_peaks(
        x, distance=distance, prominence=max(min_prominence, np.finfo(float).tiny)
    )
    intervals = np.diff(peaks) / t.sample_rate_hz
    return BeatStats(
        peak_indices=peaks,
        intervals_s=intervals,
        mean_interval_s=float(np.mean(intervals)) if intervals.size else float("nan"),
        std_interval_s=float(np.std(intervals)) if intervals.size else float("nan"),
    )
