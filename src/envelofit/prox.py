"""Closed-form proximity and reflected-proximity maps for the dual splitting.

The dual objective couples a circulant quadratic with a separable piecewise
quadratic; this module implements the proximity operator of that piecewise
term in its change-of-variables form.  The reflected map ``reflect_g`` used
inside the iteration holds the one case table; ``prox_r = (reflect_g + I)/2``
is derived from it.  All maps are pure and elementwise.

A note on case ordering: with thresholds ``c = lam*(y - (1 + alpha/lam)*a)``
and ``d = lam*(y - (1 + alpha/lam)*b)`` and ``a <= b``, we always have
``d <= c``, so the interior branch fires on ``d <= t <= c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoxConstraint, InputError

__all__ = ["ProxParams", "prox_r", "reflect_g"]


@dataclass(frozen=True)
class ProxParams:
    """Precomputed per-sample thresholds and loop constants for the dual prox.

    ``c[n]`` is ``+inf`` where the lower bound is ``-inf``; ``d[n]`` is
    ``-inf`` where the upper bound is ``+inf``, so one-sided boxes simply
    disable the corresponding outer branch.  ``has_lower``/``has_upper`` say
    whether that branch can fire anywhere; ``reflect_g`` skips it if not.
    """

    lam: float
    alpha: float
    y: np.ndarray
    box: BoxConstraint
    c: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)
    two_alpha_y: np.ndarray = field(init=False)
    two_alpha_a: np.ndarray = field(init=False)
    two_alpha_b: np.ndarray = field(init=False)
    shrink: float = field(init=False)
    scale: float = field(init=False)
    has_lower: bool = field(init=False)
    has_upper: bool = field(init=False)

    def __post_init__(self):
        if not (self.lam > 0 and self.alpha > 0):
            raise InputError(
                f"lam and alpha must be positive, got {self.lam}, {self.alpha}"
            )
        y = np.asarray(self.y, dtype=float)
        if y.shape != self.box.lower.shape:
            raise InputError(
                f"y length {y.shape} does not match bounds {self.box.lower.shape}"
            )
        a, b = self.box.lower, self.box.upper
        scale = 1.0 + self.alpha / self.lam
        c = np.where(np.isfinite(a), self.lam * (y - scale * a), np.inf)
        d = np.where(np.isfinite(b), self.lam * (y - scale * b), -np.inf)
        two_alpha = 2.0 * self.alpha
        derived = dict(
            y=y, c=c, d=d, scale=scale, shrink=1.0 - self.alpha / self.lam,
            two_alpha_y=two_alpha * y, two_alpha_a=two_alpha * a,
            two_alpha_b=two_alpha * b, has_lower=bool(np.any(c != np.inf)),
            has_upper=bool(np.any(d != -np.inf)),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def reflect_g(t, p: ProxParams, out=None) -> np.ndarray:
    """Reflected prox ``(2 J - I)`` of the separable dual term.

    Written to ``out`` when given (it must not overlap ``t``).  The tail
    block's prox is the zero map, so its reflection, plain negation, is left
    to the caller.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != p.y.shape:
        raise InputError(f"t length {t.shape} != {p.y.shape}")
    v = np.multiply(p.shrink, t, out=out)
    v += p.two_alpha_y
    v /= p.scale
    if p.has_lower:
        np.add(t, p.two_alpha_a, out=v, where=t > p.c)
    if p.has_upper:
        np.add(t, p.two_alpha_b, out=v, where=t < p.d)
    return v


def prox_r(t, p: ProxParams) -> np.ndarray:
    """Vectorized prox of the dual data/constraint term at ``t``."""
    return 0.5 * (reflect_g(t, p) + np.asarray(t, dtype=float))
