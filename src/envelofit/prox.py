"""Closed-form proximity and reflected-proximity maps for the dual splitting.

The dual objective couples a circulant quadratic with a separable piecewise
quadratic; this module implements the proximity operator of that piecewise
term in its change-of-variables form, as the reflected map ``reflect_g``
(``2 prox - I``) that the iteration uses.  It is pure and elementwise.

By Moreau's decomposition the reflection is one box projection of a line:
``t + 2*alpha*P_B((lam*y - t)/(lam + alpha))``.  Inside the box that is the
interior line ``((lam - alpha)*t + 2*alpha*lam*y) / (lam + alpha)``; where
the projection meets a bound it is the outer line ``t + 2*alpha*a`` or
``t + 2*alpha*b``.  Scaled by ``2*alpha``, the projection is a clip of
``k*(lam*y - t)``, ``k = 2*alpha/(lam + alpha)``, to ``[2*alpha*a, 2*alpha*b]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoxConstraint, InputError

__all__ = ["ProxParams", "reflect_g"]


@dataclass(frozen=True)
class ProxParams:
    """The dual prox's slope ``k``, offset ``off = k*lam*y`` and scaled bounds.

    ``lo = 2*alpha*a`` and ``hi = 2*alpha*b`` are ``None`` where that side
    is unbounded everywhere, so the projection skips that side.
    """

    lam: float
    alpha: float
    y: np.ndarray
    box: BoxConstraint
    k: float = field(init=False)
    off: np.ndarray = field(init=False)
    lo: np.ndarray | None = field(init=False)
    hi: np.ndarray | None = field(init=False)

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
        two_alpha = 2.0 * self.alpha
        k = two_alpha / (self.lam + self.alpha)
        derived = dict(
            y=y, k=k, off=k * (self.lam * y),
            lo=two_alpha * a if np.any(np.isfinite(a)) else None,
            hi=two_alpha * b if np.any(np.isfinite(b)) else None,
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def reflect_g(t, p: ProxParams, out=None) -> np.ndarray:
    """Reflected prox ``(2 J - I)`` of the separable dual term, as
    ``t + clip(off - k*t, lo, hi)``, the clip a ``maximum`` with ``lo`` then
    a ``minimum`` with ``hi`` (the bits of ``np.clip`` without its dispatch).

    Written to ``out`` when given, so a call allocates nothing; ``out`` may
    not overlap ``t``.  NaN in ``t`` passes through.  Where a side is
    unbounded, ``t = +-inf`` gives NaN (``inf - inf``); only an overflowing
    iterate makes one, and its gap reports it.  The tail block's prox is
    the zero map, so its reflection, plain negation, is left to the caller.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != p.y.shape:
        raise InputError(f"t length {t.shape} != {p.y.shape}")
    v = np.multiply(p.k, t, out=out)
    np.subtract(p.off, v, out=v)
    if p.lo is not None:
        np.maximum(v, p.lo, out=v)
    if p.hi is not None:
        np.minimum(v, p.hi, out=v)
    v += t
    return v
