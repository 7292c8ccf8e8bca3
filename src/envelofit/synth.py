"""Synthetic trial generator: warped-sinusoid smooth part plus GP transient.

The smooth component is a time-warped cosine with a slowly varying amplitude;
warp, magnitude and transient driver are all draws from squared-exponential
Gaussian processes on the sample grid.  Trials are bitwise reproducible from
the seed: the repo-wide RNG is ``numpy.random.default_rng`` (PCG64) and the
draw order is warp, magnitude, transient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .core import InputError, NumericalError, Signal, check_int, knob

__all__ = [
    "GpParams",
    "TrialSpec",
    "SHORT_TRANSIENT",
    "Trial",
    "sample_gp",
    "make_smooth",
    "nonlinearity_q",
    "generate_trial",
]

DENSE_GP_LIMIT = 4096


@dataclass(frozen=True)
class GpParams:
    """Squared-exponential covariance ``c0 * exp(-dt^2 / c1) + c2 * I``.

    ``c1`` is a squared length-scale in seconds^2; ``c2`` is white jitter.
    """

    c0: float
    c1: float
    c2: float = 0.0

    def __post_init__(self):
        if not (0 < self.c0 < np.inf and 0 < self.c1 < np.inf and 0 <= self.c2 < np.inf):
            raise InputError(f"need finite c0 > 0, c1 > 0, c2 >= 0; "
                             f"got {self.c0}, {self.c1}, {self.c2}")


@dataclass(frozen=True)
class TrialSpec:
    seed: int = 0
    fs_hz: float = knob(10.0, "sample rate, Hz", name="fs")
    duration_s: float = knob(200.0, "trial length, seconds", name="duration")
    warp: GpParams = field(default_factory=lambda: GpParams(25.0, 500.0, 1e-3))
    mag: GpParams = field(default_factory=lambda: GpParams(25.0, 2500.0, 5e-4))
    transient: GpParams = field(default_factory=lambda: GpParams(0.1, 10.0, 1e-5))

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        if not (0 < self.fs_hz < np.inf and 0 < self.duration_s < np.inf):
            raise InputError(f"fs_hz and duration_s must be positive and finite, "
                             f"got {self.fs_hz}, {self.duration_s}")

    @property
    def n(self) -> int:
        return int(round(self.duration_s * self.fs_hz))


#: The default spec with a short transient (``c1 = 0.1 s^2``, about 0.3 s, where
#: the default's 3.2 s is close to the smooth cosine's 4 s period).
SHORT_TRANSIENT = TrialSpec(transient=GpParams(0.1, 0.1, 1e-5))


@dataclass(frozen=True)
class Trial:
    smooth: Signal
    transient: Signal
    observation: Signal


def sample_gp(p: GpParams, n: int, fs: float,
              rng: int | np.random.Generator = 0) -> np.ndarray:
    """One draw from the zero-mean GP on the uniform grid ``t_i = i / fs``.

    ``rng`` is a seed or an existing generator.  Dense Cholesky; the ``c2``
    jitter keeps the factorization well posed at desk scale.  Building a
    factor needs one n x n buffer, factored in place, plus LAPACK's own
    working copy.  The read-only factor is cached per ``(p, n, fs)`` for the
    three GPs of the last spec (``3 * n * n * 8`` bytes), so repeated trials
    of one spec skip it.  The cache lives as long as the process;
    ``_gp_factor.cache_clear()`` frees it.
    """
    rng = np.random.default_rng(rng)
    check_int(n, "n", 1)
    if n > DENSE_GP_LIMIT:
        raise InputError(
            f"dense GP sampling limited to n <= {DENSE_GP_LIMIT}, got {n}"
        )
    return _gp_factor(p, n, fs) @ rng.standard_normal(n)


@functools.lru_cache(maxsize=3)
def _gp_factor(p: GpParams, n: int, fs: float) -> np.ndarray:
    """Lower Cholesky factor of ``c0 * exp(-dt^2 / c1) + c2 * I``, built in
    one n x n buffer with the same rounding as the out-of-place expression
    and factored in that buffer by the gufunc (and under the errstate) that
    ``np.linalg.cholesky`` uses, which gives its bits."""
    t = np.arange(n) / fs
    cov = np.subtract.outer(t, t)
    np.square(cov, out=cov)
    np.negative(cov, out=cov)
    cov /= p.c1
    np.exp(cov, out=cov)
    cov *= p.c0
    cov.flat[:: n + 1] += p.c2
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            _umath_linalg.cholesky_lo(cov, signature="d->d", out=cov)
    except FloatingPointError as exc:
        raise NumericalError(
            f"GP covariance factorization failed (c0={p.c0}, c1={p.c1}, c2={p.c2})"
        ) from exc
    cov.flags.writeable = False
    return cov


def make_smooth(s, m, fs: float) -> np.ndarray:
    """Warped cosine with modulated amplitude: ``cos(0.5*pi*(t + s)) * (0.05*m + 1)``."""
    s = np.asarray(s, dtype=float)
    m = np.asarray(m, dtype=float)
    if s.shape != m.shape:
        raise InputError(f"warp/magnitude lengths differ: {s.shape} vs {m.shape}")
    t = np.arange(s.size) / fs
    return np.cos(0.5 * np.pi * (t + s)) * (0.05 * m + 1.0)


def nonlinearity_q(u):
    """Odd pointwise squashing: identity outside [-1, 1], signed square inside."""
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) > 1.0, u, np.sign(u) * u * u)
    return out if out.ndim else float(out)


def generate_trial(spec: TrialSpec) -> Trial:
    """Deterministic trial from the seed; observation = smooth + transient exactly."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    s = sample_gp(spec.warp, n, spec.fs_hz, rng)
    m = sample_gp(spec.mag, n, spec.fs_hz, rng)
    f = sample_gp(spec.transient, n, spec.fs_hz, rng)
    smooth = make_smooth(s, m, spec.fs_hz)
    transient = nonlinearity_q(f)
    obs = smooth + transient
    return Trial(
        smooth=Signal(smooth, spec.fs_hz),
        transient=Signal(transient, spec.fs_hz),
        observation=Signal(obs, spec.fs_hz),
    )
