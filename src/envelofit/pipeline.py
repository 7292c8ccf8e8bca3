"""Envelope-sandwich decomposition into smooth and transient components.

The observation is sandwiched between a tight upper and lower envelope
(heavy data-fit weight, narrow kernel), and the smooth component is the
smoothest signal between those envelopes (light data-fit weight, wider
kernel).  The transient component is the remainder.  A debiased variant
first fits coarse one-sided envelopes so each tight-envelope stage sees a
single-signed input, which tightens the envelopes and yields a trend
estimate as a side product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoxConstraint, InputError, Signal
from .kernel import KernelSpec
from .solver import SolveParams, SolveResult, solve_constrained_filter

__all__ = [
    "BASIC_STAGES",
    "DEBIASED_STAGES",
    "SolverSettings",
    "PipelineParams",
    "Decomposition",
    "BeatStats",
    "decompose_basic",
    "decompose_debiased",
    "detect_peaks",
]

#: Stage names of each pipeline, in ``Decomposition.diagnostics`` order.
BASIC_STAGES = ("tight_lower", "tight_upper", "smooth")
DEBIASED_STAGES = ("coarse_lower", "coarse_upper", "tight_lower", "tight_upper", "smooth")


@dataclass(frozen=True)
class SolverSettings:
    """Splitting hyperparameters shared by every stage of the pipeline.

    ``alpha=None`` picks a per-stage step size ``2 * sqrt(lam * sigma)``,
    which balances the splitting between the covariance spectrum and the
    data-fit curvature; a wide-kernel stage and a tight-envelope stage want
    very different steps.  ``tau`` is tighter than the kernel-module default
    because large-``sigma`` stages need the extra spectral headroom.
    """

    gamma: float = 0.5
    alpha: float | None = None
    max_iters: int = 10000
    tol: float = 1e-6
    trace_every: int = 25
    tau: float = 1e-5


@dataclass(frozen=True)
class CoarseParams:
    """Weight and (very wide) kernel width for the coarse envelope stage."""

    lam: float = 1.0
    sigma: float = 50.0


@dataclass(frozen=True)
class PipelineParams:
    """Stage weights and kernel widths.

    ``lambda0``/``sigma0`` drive the tight envelopes (heavy fit, narrow
    kernel), ``lambda1``/``sigma1`` the final smoothing (light fit, wide
    kernel).  Widths are in samples.
    """

    lambda0: float = 50.0
    lambda1: float = 0.5
    sigma0: float = 5.0
    sigma1: float = 20.0
    coarse: CoarseParams | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if not (0 < self.lambda1 < self.lambda0):
            raise InputError(
                f"need 0 < lambda1 < lambda0, got {self.lambda1}, {self.lambda0}"
            )
        if not (0 < self.sigma0 <= self.sigma1):
            raise InputError(
                f"need 0 < sigma0 <= sigma1, got {self.sigma0}, {self.sigma1}"
            )
        if self.coarse is not None and not (self.sigma1 <= self.coarse.sigma):
            raise InputError(
                f"need sigma1 <= coarse sigma, got {self.sigma1}, {self.coarse.sigma}"
            )


@dataclass(frozen=True)
class Decomposition:
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


def _stage(y: Signal, lam: float, sigma: float, lower, upper,
           settings: SolverSettings) -> SolveResult:
    n = len(y)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    alpha = settings.alpha
    if alpha is None:
        alpha = 2.0 * float(np.sqrt(lam * sigma))
    params = SolveParams(
        y=y,
        lam=lam,
        kernel=KernelSpec(sigma=sigma, tau=settings.tau),
        box=BoxConstraint(lower, upper),
        gamma=settings.gamma,
        alpha=alpha,
        max_iters=settings.max_iters,
        tol=settings.tol,
        trace_every=settings.trace_every,
    )
    return solve_constrained_filter(params)


def _sandwich(y: Signal, p: PipelineParams, lo: np.ndarray, hi: np.ndarray,
              stages: tuple[SolveResult, ...], **extra) -> Decomposition:
    # solver tolerance can leave the envelopes crossed by O(tol); restore
    # elementwise ordering without moving either beyond that slack, then fit
    # the smooth component in between
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    sm = _stage(y, p.lambda1, p.sigma1, lo, hi, p.solver)
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
    s = p.solver
    ys = y.samples
    low = _stage(y, p.lambda0, p.sigma0, np.min(ys), ys, s)
    up = _stage(y, p.lambda0, p.sigma0, ys, np.max(ys), s)
    return _sandwich(y, p, low.x_hat.samples, up.x_hat.samples, (low, up))


def decompose_debiased(y: Signal, p: PipelineParams) -> Decomposition:
    """Coarse one-sided envelopes first, so the tight stages see a
    single-signed input; also yields a trend estimate."""
    if p.coarse is None:
        raise InputError("debiased pipeline requires coarse params")
    s = p.solver
    ys = y.samples
    c_low = _stage(y, p.coarse.lam, p.coarse.sigma, -np.inf, ys, s)
    c_up = _stage(y, p.coarse.lam, p.coarse.sigma, ys, np.inf, s)
    l0 = c_low.x_hat.samples
    u0 = c_up.x_hat.samples

    # biased residuals are single-signed up to solver tolerance
    w_low = y.with_samples(ys - u0)  # <= 0
    w_up = y.with_samples(ys - l0)  # >= 0
    low = _stage(w_low, p.lambda0, p.sigma0, -np.inf, w_low.samples, s)
    up = _stage(w_up, p.lambda0, p.sigma0, w_up.samples, np.inf, s)
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

    if not (min_separation_s > 0):
        raise InputError(
            f"min_separation_s must be > 0, got {min_separation_s}"
        )
    x = t.samples
    if x.size == 0:
        raise InputError("cannot detect peaks on an empty signal")
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
