"""Peaceman-Rachford splitting solver for the box-constrained filtering problem.

The primal problem

    min_x  lam/2 ||y - x||^2 + 1/2 x^T C^-1 x   s.t.  a <= x <= b

is attacked through a dual in the variable ``z`` (with ``x = P_B(y - z/lam)``
at the optimum), reformulated over the circulant extension of ``C`` so every
iteration costs one FFT pair.  The iteration, ``u <- R_g R_f u``, is undamped
(``SolverSettings`` gives its rate).  ``SolveParams`` extends it with the
problem data; both check their values when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BoxConstraint, InputError, NumericalError, Signal, knob, project_box
from .kernel import (
    CirculantOperator,
    KernelSpec,
    ToeplitzBand,
    apply_resolvent,
    apply_toeplitz,
    build_band,
    embed_circulant,
    next_fast_len,
    toeplitz_from_resolvent,
)
from .prox import ProxParams, reflect_g

__all__ = [
    "SolverSettings",
    "SolveParams",
    "SolveResult",
    "solve_constrained_filter",
    "residual",
]


@dataclass(frozen=True)
class SolverSettings:
    """Splitting hyperparameters of every solve, checked when built.

    ``alpha=None`` makes ``SolveParams`` pick ``1 / sqrt(eig_min * eig_max)``
    of the stage's circulant: the step that balances the covariance
    spectrum's two ends, so the undamped iteration contracts at the rate
    ``(sqrt(kappa) - 1) / (sqrt(kappa) + 1)`` of its condition number ``kappa``
    (Giselsson and Boyd 2017: averaging would slow it).  ``tol`` is relative to
    ``max(||y||_inf, 1)``; ``trace_every = 0`` turns intermediate residual
    checks off (the loop then runs to ``max_iters``).
    """

    alpha: float | None = knob(
        None, "splitting step size; unset, each stage uses "
        "1/sqrt(eig_min*eig_max) of its kernel's circulant")
    max_iters: int = knob(10000, "iteration cap per solve")
    tol: float = knob(1e-6, "relative residual tolerance")
    trace_every: int = 25

    def __post_init__(self):
        if self.alpha is not None and not (0 < self.alpha < math.inf):
            raise InputError(f"alpha must be positive and finite, got {self.alpha}")
        if not (0 < self.tol < math.inf):
            raise InputError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 0 or self.trace_every < 0:
            raise InputError(f"max_iters and trace_every must be >= 0, "
                             f"got {self.max_iters}, {self.trace_every}")


@dataclass(frozen=True, kw_only=True)
class SolveParams(SolverSettings):
    """Problem data plus the inherited splitting settings.

    ``alpha=None`` is resolved, after every other check, to
    ``1 / sqrt(eig_min * eig_max)`` of the circulant the solve uses, and the
    resolved value is stored.  It does not depend on ``lam``, so
    ``dataclasses.replace(p, lam=...)`` keeps the rule's step; changing
    ``kernel`` or the length of ``y`` needs ``alpha=None`` to get it again.
    """

    y: Signal
    lam: float
    kernel: KernelSpec
    box: BoxConstraint

    def __post_init__(self):
        if not (0 < self.lam < math.inf):
            raise InputError(f"lam must be positive and finite, got {self.lam}")
        super().__post_init__()
        if len(self.y) != len(self.box):
            raise InputError(
                f"signal length {len(self.y)} != bounds length {len(self.box)}"
            )
        if self.alpha is None:
            _, op = _operator(self.kernel, len(self.y))
            if op.eig_min <= 0:
                raise NumericalError(f"step-size rule needs a positive kernel spectrum, "
                                     f"got eig_min {op.eig_min:.3e}; set alpha")
            object.__setattr__(self, "alpha", 1.0 / math.sqrt(op.eig_min * op.eig_max))

    @property
    def tol_abs(self) -> float:
        scale = float(np.max(np.abs(self.y.samples)))
        return self.tol * (scale if scale > 0 else 1.0)


@dataclass(frozen=True)
class SolveResult:
    """``stage`` names the pipeline stage that ran the solve; a direct
    ``solve_constrained_filter`` call leaves it empty."""

    x_hat: Signal
    z: np.ndarray
    iters: int
    residual_inf: float
    residual_trace: tuple[tuple[int, float], ...]
    converged: bool
    stage: str = ""


def _operator(kernel: KernelSpec, n: int) -> tuple[ToeplitzBand, CirculantOperator]:
    """The band of a length-``n`` solve and its circulant, enlarged from the
    minimal ``N + K`` to an FFT-friendly size that still embeds it exactly."""
    band = build_band(kernel, n)
    return band, embed_circulant(band, size=next_fast_len(n + band.half_width))


def residual(z, p: SolveParams, cz=None, out=None) -> float:
    """Sup-norm optimality gap ``||C z - P_B(y - z/lam)||_inf``.

    Zero exactly at the dual optimum; drives the convergence check.  ``cz``
    is ``C z`` when the caller has it; without it the band is built and
    convolved.  Every intermediate is written into one n-long buffer:
    ``out`` when given (overlapping neither ``z`` nor ``cz``), so the loop's
    gap allocates nothing, otherwise a fresh one.
    """
    z = np.asarray(z, dtype=float)
    n = len(p.y)
    if z.shape != (n,):
        raise InputError(f"z length {z.shape} != {n}")
    if cz is None:
        cz = apply_toeplitz(build_band(p.kernel, n), z)
    elif np.shape(cz) != z.shape:
        raise InputError(f"C z length {np.shape(cz)} != {n}")
    if out is None:
        out = np.empty(n)
    elif np.shape(out) != z.shape:
        raise InputError(f"buffer length {np.shape(out)} != {n}")
    # SolveParams holds len(box) == len(y), so the bounds match z here
    np.divide(z, p.lam, out=out)
    np.subtract(p.y.samples, out, out=out)
    np.clip(out, p.box.lower, p.box.upper, out=out)
    np.subtract(cz, out, out=out)
    return float(np.max(np.abs(out, out=out)))


def solve_constrained_filter(p: SolveParams) -> SolveResult:
    """Run the undamped splitting iteration on the circulant-extended dual.

    An iteration is one resolvent and one reflected prox, the rest in place;
    a checkpoint reads ``C z`` off the resolvent (``toeplitz_from_resolvent``)
    into the dead ``t`` and takes the gap in ``w``, which holds nothing else.
    A gap that is not finite means the iteration diverged: the first such
    checkpoint (the final gap, with checks off) raises ``NumericalError``.
    """
    n = len(p.y)
    band, op = _operator(p.kernel, n)

    prox_params = ProxParams(lam=p.lam, alpha=p.alpha, y=p.y.samples, box=p.box)
    tol_abs = p.tol_abs
    alpha, cap = p.alpha, p.max_iters

    # the four work vectors share one block: freeing it raises glibc's
    # dynamic mmap threshold past the FFT scratch of this size, so later
    # solves neither map nor trim that scratch on every resolvent
    u, t, w, r = np.zeros((4, op.size))
    u_head, u_tail, t_head, t_tail, r_head, w_head = u[:n], u[n:], t[:n], t[n:], r[:n], w[:n]
    spec = np.empty(op.size // 2 + 1, dtype=complex)
    trace: list[tuple[int, float]] = []
    iters = 0
    check = p.trace_every
    # a diverging iterate passes through inf and NaN silently: its gap reports it
    with np.errstate(over="ignore", invalid="ignore"):
        apply_resolvent(op, alpha, u, r, spec)
        while iters < cap:
            np.multiply(2.0, r, out=t)
            t -= u
            # u is dead once t holds 2r - u, and r's head until the next
            # resolvent: the reflection goes straight into u, r holds the outer lines
            reflect_g(t_head, prox_params, u_head, r_head)
            np.negative(t_tail, out=u_tail)  # the tail's reflection (see reflect_g)
            iters += 1
            apply_resolvent(op, alpha, u, r, spec)
            if check and (iters % check == 0 or iters == cap):
                res = residual(r_head, p,
                               toeplitz_from_resolvent(band, alpha, u, r, t_head), w_head)
                trace.append((iters, res))
                if res < tol_abs or not math.isfinite(res):
                    break

        # a checkpoint always falls on the last iteration, so only with checks
        # off (or a zero cap) is the residual still to compute
        if not trace:
            res = residual(r_head, p,
                           toeplitz_from_resolvent(band, alpha, u, r, t_head), w_head)
            trace.append((iters, res))
    if not math.isfinite(res):
        raise NumericalError(f"iteration diverged: gap {res} at iteration {iters} "
                             f"with alpha={alpha}")
    z = r_head.copy()  # the work block is freed with the solve
    x_hat = project_box(p.y.samples - z / p.lam, p.box)
    return SolveResult(
        x_hat=p.y.with_samples(x_hat),
        z=z,
        iters=iters,
        residual_inf=res,
        residual_trace=tuple(trace),
        converged=res < tol_abs,
    )
