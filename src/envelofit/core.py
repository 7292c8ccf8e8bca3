"""Shared domain types, error taxonomy and elementary metrics.

Everything downstream (kernel construction, the splitting solver, the
envelope pipeline) trades in the two value types defined here: ``Signal``,
a uniformly sampled real sequence with rate metadata, and ``BoxConstraint``,
per-sample lower/upper bounds where ``-inf`` / ``+inf`` mean "unbounded on
that side".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EnvelofitError",
    "InputError",
    "NumericalError",
    "Signal",
    "BoxConstraint",
    "mse",
    "project_box",
    "knob",
]


class EnvelofitError(Exception):
    """Base class of every failure the package raises on purpose."""


class InputError(EnvelofitError):
    """The caller supplied an invalid argument, length, bound, signal or file."""


class NumericalError(EnvelofitError):
    """Valid input hit a failed factorization or spectral solve, or a
    diverging iteration."""


def knob(default, help: str, name: str | None = None, positive: bool = True):
    """A parameter field that the command line exposes as ``--name``.

    ``name`` is the field's own name if unset, and ``_`` in it becomes ``-``
    in the flag.  The flag parses as an integer when the default is one, else
    as a float, and rejects values <= 0 when ``positive``.
    """
    return field(default=default,
                 metadata={"help": help, "name": name, "positive": positive})


def _frozen_array(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {a.shape}")
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real sequence.

    Parameters
    ----------
    samples : array-like
        Finite real values, length >= 1.
    sample_rate_hz : float
        Positive sampling rate.
    t0 : float
        Start time in seconds.
    """

    samples: np.ndarray
    sample_rate_hz: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        a = _frozen_array(self.samples, "samples")
        if a.size < 1:
            raise InputError("signal must contain at least one sample")
        if not np.all(np.isfinite(a)):
            raise InputError("signal samples must all be finite")
        if not (self.sample_rate_hz > 0):
            raise InputError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )
        object.__setattr__(self, "samples", a)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        """Sample instants in seconds."""
        return self.t0 + np.arange(len(self)) / self.sample_rate_hz

    def with_samples(self, samples) -> "Signal":
        """Same rate/origin, new sample values."""
        return Signal(samples, self.sample_rate_hz, self.t0)


@dataclass(frozen=True)
class BoxConstraint:
    """Per-sample interval bounds.

    ``lower[n] = -inf`` (resp. ``upper[n] = +inf``) marks the side as
    unbounded; no finite value can collide with the marker, so downstream
    case logic branches on ``isfinite`` exactly.  A lower bound of ``+inf``
    or an upper bound of ``-inf`` leaves no finite feasible value and is
    rejected.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).copy()
        hi = np.asarray(self.upper, dtype=float).copy()
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError(
                f"bound shapes differ: {lo.shape} vs {hi.shape}"
            )
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise InputError("bounds must not contain NaN")
        if np.any(lo > hi):
            n = int(np.argmax(lo > hi))
            raise InputError(
                f"lower[{n}]={lo[n]} exceeds upper[{n}]={hi[n]}"
            )
        infeasible = (lo == np.inf) | (hi == -np.inf)
        if np.any(infeasible):
            n = int(np.argmax(infeasible))
            raise InputError(
                f"bounds [{lo[n]}, {hi[n]}] at index {n} hold no finite value"
            )
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __len__(self) -> int:
        return self.lower.size


def mse(a: Signal, b: Signal) -> float:
    """Mean of squared sample differences."""
    if len(a) != len(b):
        raise InputError(f"lengths differ: {len(a)} vs {len(b)}")
    d = a.samples - b.samples
    return float(np.mean(d * d))


def project_box(v, box: BoxConstraint) -> np.ndarray:
    """Clamp each entry of ``v`` into its interval; infinite bounds are inert."""
    v = np.asarray(v, dtype=float)
    if v.shape != box.lower.shape:
        raise InputError(
            f"vector length {v.shape} does not match bounds {box.lower.shape}"
        )
    return np.clip(v, box.lower, box.upper)
