"""Peaceman-Rachford splitting solver for the box-constrained filtering problem.

The primal problem

    min_x  lam/2 ||y - x||^2 + 1/2 x^T C^-1 x   s.t.  a <= x <= b

is attacked through a dual in the variable ``z`` (with ``x = P_B(y - z/lam)``
at the optimum), reformulated over the circulant extension of ``C`` so every
iteration costs one FFT pair.  The iteration, ``u <- R_g R_f u``, is undamped
(``SolverSettings`` gives its rate) and Anderson-accelerated: each new
iterate is extrapolated from the last ``_ANDERSON_MEMORY`` differences of
the map's values, which leaves its fixed point, and so the solution and
the gap that certifies it, as they are.  ``SolveParams`` extends the
settings with the problem data; both check their values when built.
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

#: Differences each Anderson step extrapolates over.  Three cut the desk
#: pipeline's iterations about threefold; five cut a sixth more but hold four
#: more full-length rows per solve, which long signals pay for in memory.
_ANDERSON_MEMORY = 3


@dataclass(frozen=True)
class SolverSettings:
    """Splitting hyperparameters of every solve, checked when built.

    ``alpha=None`` makes ``SolveParams`` pick ``1 / sqrt(eig_min * eig_max)``
    of the stage's circulant: the step that balances the covariance
    spectrum's two ends, so the undamped iteration contracts at the rate
    ``(sqrt(kappa) - 1) / (sqrt(kappa) + 1)`` of its condition number ``kappa``
    (Giselsson and Boyd 2017: averaging would slow it).  Anderson
    extrapolation (type II, over the last ``_ANDERSON_MEMORY`` differences, a
    constant and not a setting) then cuts the iterations about threefold;
    a step whose fixed-point residual grows falls back to the plain one.
    ``tol`` is relative to ``max(||y||_inf, 1)``; ``trace_every = 0`` turns
    intermediate residual checks off (the loop then runs to ``max_iters``).
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
    """Run the undamped splitting iteration on the circulant-extended dual,
    Anderson-accelerated (type II; Walker and Ni 2011).

    An iteration maps ``u`` to ``g = R_g R_f u`` (one resolvent, one
    reflected prox), with residual ``f = g - u``.  The next iterate is
    ``g - dG @ gamma``: ``dF`` and ``dG`` hold the last ``_ANDERSON_MEMORY``
    differences of ``f`` and ``g``, and ``gamma`` solves the normal
    equations of ``min ||f - dF @ gamma||``, whose Gram matrix gains one row
    per iteration, with a ``1e-12 * trace`` Tikhonov term.  The plain step
    ``u <- g``, with the history forgotten, replaces it when ``||f||`` grows
    over the last iteration's and when the Gram solve is singular (every
    difference zero: ``u`` is the fixed point).  ``f`` overwrites the dead
    iterate and the next one takes a free row, so besides ``u``, ``t`` and
    ``r`` the solve holds only the differences and the last ``f`` and ``g``.

    A checkpoint reads ``C z``, ``z = r[:n]`` for the resolvent ``r`` of
    ``u``, off that resolvent (``toeplitz_from_resolvent``) into the dead
    ``t`` and takes the gap in the spectrum buffer, dead between
    resolvents.  A gap that is not finite means the iteration diverged: the
    first such checkpoint (the final gap, with checks off) raises
    ``NumericalError``.
    """
    n = len(p.y)
    band, op = _operator(p.kernel, n)

    prox_params = ProxParams(lam=p.lam, alpha=p.alpha, y=p.y.samples, box=p.box)
    tol_abs = p.tol_abs
    alpha, cap, mem = p.alpha, p.max_iters, _ANDERSON_MEMORY

    # every full-length vector shares one block: freeing it raises glibc's
    # dynamic mmap threshold past the FFT scratch of this size, so later
    # solves neither map nor trim that scratch on every resolvent
    rows = np.zeros((3 + 2 * (mem + 1), op.size))
    u, t, r = rows[:3]
    t_head, t_tail, r_head = t[:n], t[n:], r[:n]
    spare = list(zip(rows[3::2], rows[4::2]))  # free rows, two per iteration
    df, dg = [], []  # differences of f and of g, oldest first
    gram = np.zeros((mem, mem))  # of df, in the same order
    last = None  # the last iteration's (f, g), while not yet a difference
    spec = np.empty(op.size // 2 + 1, dtype=complex)
    gap = spec.view(float)[:n]
    trace: list[tuple[int, float]] = []
    iters = 0
    check = p.trace_every
    # a diverging iterate passes through inf and NaN silently: its gap reports it
    with np.errstate(over="ignore", invalid="ignore"):
        apply_resolvent(op, alpha, u, r, spec)
        while iters < cap:
            np.multiply(2.0, r, out=t)
            t -= u
            if not spare:  # the oldest differences make room
                spare.append((df.pop(0), dg.pop(0)))
                gram[:-1, :-1] = gram[1:, 1:]
            u_next, g = spare.pop()
            # r's head is dead until the next resolvent: it holds the outer lines
            reflect_g(t_head, prox_params, g[:n], r_head)
            np.negative(t_tail, out=g[n:])  # the tail's reflection (see reflect_g)
            # f overwrites u, dead once f is formed, and the next iterate takes
            # the free row: numpy's arithmetic runs about twice as fast in place
            f = np.subtract(g, u, out=u)
            u = u_next
            f_sq = np.dot(f, f)
            gamma = None
            if last and f_sq <= last_sq:
                f_new, g_new = last  # become the newest differences
                np.subtract(f, f_new, out=f_new)
                np.subtract(g, g_new, out=g_new)
                df.append(f_new)
                dg.append(g_new)
                k = len(df)
                for j in range(k):
                    gram[j, k - 1] = gram[k - 1, j] = np.dot(df[j], f_new)
                h = gram[:k, :k]
                try:
                    gamma = np.linalg.solve(h + 1e-12 * np.trace(h) * np.eye(k),
                                            [np.dot(d, f) for d in df])
                except np.linalg.LinAlgError:
                    pass
            elif last:  # ||f|| grew
                spare.append(last)
            if gamma is None:  # the plain step, with the history forgotten
                spare.extend(zip(df, dg))
                df.clear()
                dg.clear()
                np.copyto(u, g)
            else:
                np.multiply(dg[0], gamma[0], out=u)
                np.subtract(g, u, out=u)
                for d, c in zip(dg[1:], gamma[1:]):
                    np.multiply(d, c, out=t)
                    u -= t
            last, last_sq = (f, g), f_sq
            iters += 1
            apply_resolvent(op, alpha, u, r, spec)
            if check and (iters % check == 0 or iters == cap):
                res = residual(r_head, p,
                               toeplitz_from_resolvent(band, alpha, u, r, t_head), gap)
                trace.append((iters, res))
                if res < tol_abs or not math.isfinite(res):
                    break

        # a checkpoint always falls on the last iteration, so only with checks
        # off (or a zero cap) is the residual still to compute
        if not trace:
            res = residual(r_head, p,
                           toeplitz_from_resolvent(band, alpha, u, r, t_head), gap)
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
