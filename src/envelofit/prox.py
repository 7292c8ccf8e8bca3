"""Closed-form proximity and reflected-proximity maps for the dual splitting.

The dual objective couples a circulant quadratic with a separable piecewise
quadratic; this module implements the proximity operator of that piecewise
term in its change-of-variables form, as the reflected map ``reflect_g``
(``2 prox - I``) that the iteration uses; it holds the one case table and
is pure and elementwise.

The case table is a clamp.  The interior line
``m(t) = ((1 - alpha/lam)*t + 2*alpha*y) / (1 + alpha/lam)`` has slope below
1, and each outer line meets it at its threshold: ``t + 2*alpha*a`` at
``c = lam*(y - (1 + alpha/lam)*a)`` and ``t + 2*alpha*b`` at
``d = lam*(y - (1 + alpha/lam)*b)``.  So the lower-bound line lies above
``m`` exactly where ``t > c`` and the upper-bound line below it exactly where
``t < d``; with ``a <= b`` (so ``d <= c``) the table is
``min(max(m(t), t + 2*alpha*a), t + 2*alpha*b)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BoxConstraint, InputError

__all__ = ["ProxParams", "reflect_g"]


@dataclass(frozen=True)
class ProxParams:
    """Precomputed per-sample lines and loop constants for the dual prox.

    ``has_lower``/``has_upper`` say whether that side is bounded anywhere;
    ``reflect_g`` skips a side that is not.
    """

    lam: float
    alpha: float
    y: np.ndarray
    box: BoxConstraint
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
        two_alpha = 2.0 * self.alpha
        derived = dict(
            y=y, scale=1.0 + self.alpha / self.lam, shrink=1.0 - self.alpha / self.lam,
            two_alpha_y=two_alpha * y, two_alpha_a=two_alpha * a,
            two_alpha_b=two_alpha * b, has_lower=bool(np.any(np.isfinite(a))),
            has_upper=bool(np.any(np.isfinite(b))),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def reflect_g(t, p: ProxParams, out=None, work=None) -> np.ndarray:
    """Reflected prox ``(2 J - I)`` of the separable dual term, as a clamp.

    Written to ``out`` when given; ``work`` (length of ``t``) holds each
    outer line, so with both given a call allocates nothing.  Neither may
    overlap ``t``.  Off the thresholds ``c`` and ``d`` the result has the
    case table's bits.  At a threshold, or within rounding of one, it is one
    of the two lines' computed values, which agree there to the rounding of
    the interior formula.  ``fmax``/``fmin`` pass NaN in ``t`` through and
    ignore the NaN that ``inf - inf`` gives on an unbounded side.  The tail
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
        np.fmax(v, np.add(t, p.two_alpha_a, out=work), out=v)
    if p.has_upper:
        np.fmin(v, np.add(t, p.two_alpha_b, out=work), out=v)
    return v
