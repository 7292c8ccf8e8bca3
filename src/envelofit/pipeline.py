"""Envelope-sandwich decomposition into smooth and transient components.

The observation is sandwiched between a tight upper and lower envelope
(heavy data-fit weight, narrow kernel), and the smooth component is the
smoothest signal between those envelopes (light data-fit weight, wider
kernel).  The transient component is the remainder.  A debiased variant
first fits coarse one-sided envelopes so each tight-envelope stage sees a
single-signed input, which tightens the envelopes and yields a trend
estimate as a side product.  Every parameter is checked when its object is
built, so a bad value fails before any stage runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import BoxConstraint, EnvelofitError, InputError, Signal, knob
from .kernel import KernelSpec
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


@dataclass(frozen=True)
class PipelineParams:
    """Stage weights and kernel widths.

    ``lambda0``/``sigma0`` drive the tight envelopes (heavy fit, narrow
    kernel), ``lambda1``/``sigma1`` the final smoothing (light fit, wide
    kernel).  Widths are in samples.  ``tau``, every stage's kernel
    truncation, is tighter than the kernel-module default because
    large-``sigma`` stages need the extra spectral headroom.  The splitting
    settings are declared and checked in ``solver.SolverSettings``.
    """

    lambda0: float = knob(50.0, "envelope data-fit weight")
    lambda1: float = knob(0.5, "smoothing data-fit weight")
    sigma0: float = knob(5.0, "envelope kernel width, samples")
    sigma1: float = knob(20.0, "smoothing kernel width, samples")
    tau: float = knob(1e-5, "kernel truncation threshold; wide-kernel stages "
                      "need a tight threshold for spectral headroom")
    coarse: CoarseParams | None = None
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if not (0 < self.lambda1 < self.lambda0 < np.inf):
            raise InputError(
                f"need 0 < lambda1 < lambda0, got {self.lambda1}, {self.lambda0}"
            )
        if not (0 < self.sigma0 <= self.sigma1 < np.inf):
            raise InputError(
                f"need 0 < sigma0 <= sigma1, got {self.sigma0}, {self.sigma1}"
            )
        if self.coarse is not None and not (self.sigma1 <= self.coarse.sigma < np.inf):
            raise InputError(
                f"need sigma1 <= coarse sigma, got {self.sigma1}, {self.coarse.sigma}"
            )
        if not (0 < self.tau <= 1):
            raise InputError(f"tau must be in (0, 1], got {self.tau}")


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


def _stage(name: str, y: Signal, lam: float, sigma: float, lower, upper,
           p: PipelineParams) -> SolveResult:
    """One named solve; its result, and any error it raises, carry ``name``."""
    n = len(y)
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    try:
        params = SolveParams(y=y, lam=lam, kernel=KernelSpec(sigma=sigma, tau=p.tau),
                             box=BoxConstraint(lower, upper), **vars(p.solver))
        return replace(solve_constrained_filter(params), stage=name)
    except EnvelofitError as exc:
        raise type(exc)(f"{exc} (stage {name})") from exc


def _sandwich(y: Signal, p: PipelineParams, lo: np.ndarray, hi: np.ndarray,
              stages: tuple[SolveResult, ...], **extra) -> Decomposition:
    # solver tolerance can leave the envelopes crossed by O(tol); restore
    # elementwise ordering without moving either beyond that slack, then fit
    # the smooth component in between
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    sm = _stage("smooth", y, p.lambda1, p.sigma1, lo, hi, p)
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
    low = _stage("tight_lower", y, p.lambda0, p.sigma0, np.min(ys), ys, p)
    up = _stage("tight_upper", y, p.lambda0, p.sigma0, ys, np.max(ys), p)
    return _sandwich(y, p, low.x_hat.samples, up.x_hat.samples, (low, up))


def decompose_debiased(y: Signal, p: PipelineParams) -> Decomposition:
    """Coarse one-sided envelopes first, so the tight stages see a
    single-signed input; also yields a trend estimate."""
    if p.coarse is None:
        raise InputError("debiased pipeline requires coarse params")
    ys = y.samples
    c_low = _stage("coarse_lower", y, p.coarse.lam, p.coarse.sigma, -np.inf, ys, p)
    c_up = _stage("coarse_upper", y, p.coarse.lam, p.coarse.sigma, ys, np.inf, p)
    l0 = c_low.x_hat.samples
    u0 = c_up.x_hat.samples

    # biased residuals are single-signed up to solver tolerance
    w_low = y.with_samples(ys - u0)  # <= 0
    w_up = y.with_samples(ys - l0)  # >= 0
    low = _stage("tight_lower", w_low, p.lambda0, p.sigma0, -np.inf, w_low.samples, p)
    up = _stage("tight_upper", w_up, p.lambda0, p.sigma0, w_up.samples, np.inf, p)
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
