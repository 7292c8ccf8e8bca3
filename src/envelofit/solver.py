"""Peaceman-Rachford splitting solver for the box-constrained filtering problem.

The primal problem

    min_x  lam/2 ||y - x||^2 + 1/2 x^T C^-1 x   s.t.  a <= x <= b

is attacked through a dual in the variable ``z`` (with ``x = P_B(y - z/lam)``
at the optimum), reformulated over the circulant extension of ``C`` so every
iteration costs one FFT pair.  The iteration, ``u <- R_g R_f u``, is undamped
(``SolveParams`` derives its step and gives its rate) and
Anderson-accelerated: each new iterate is extrapolated from the last
``_ANDERSON_MEMORY`` differences of the map's values, held in two
contiguous blocks so that the update is three matrix-vector products and
one small LAPACK solve.  That leaves the fixed point, and so the solution
and the gap that certifies it, as they are.  ``SolveParams`` extends the
settings with the problem data; both check their values when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

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

    The step size is not a setting: ``SolveParams`` derives it from the
    problem.  Anderson extrapolation (type II, over the last
    ``_ANDERSON_MEMORY`` differences, a constant and not a setting) cuts the
    iterations about threefold; a step whose fixed-point residual grows
    falls back to the plain one.  ``tol`` is relative to ``||y||_inf``, or
    absolute when ``y`` is zero.  The gap is checked every ``trace_every``
    iterations and at ``max_iters``, so a ``trace_every`` past the cap checks
    it once, at the cap.
    """

    max_iters: int = knob(10000, "iteration cap per solve")
    tol: float = knob(1e-6, "relative residual tolerance")
    trace_every: int = 25

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise InputError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1 or self.trace_every < 1:
            raise InputError(f"max_iters and trace_every must be >= 1, "
                             f"got {self.max_iters}, {self.trace_every}")


@dataclass(frozen=True, kw_only=True)
class SolveParams(SolverSettings):
    """Problem data plus the inherited splitting settings.

    ``alpha``, the step size, is derived after every other check:
    ``1 / sqrt(eig_min * eig_max)`` of the circulant the solve uses, the step
    that balances the spectrum's two ends, so the undamped iteration
    contracts at the rate ``(sqrt(kappa) - 1) / (sqrt(kappa) + 1)`` of its
    condition number ``kappa`` (Giselsson and Boyd 2017: averaging would
    slow it).  It depends on ``kernel`` and the length of ``y`` only, and
    ``dataclasses.replace`` derives it again.
    """

    y: Signal
    lam: float
    kernel: KernelSpec
    box: BoxConstraint
    alpha: float = field(init=False)

    def __post_init__(self):
        if not (0 < self.lam < math.inf):
            raise InputError(f"lam must be positive and finite, got {self.lam}")
        super().__post_init__()
        if len(self.y) != len(self.box):
            raise InputError(
                f"signal length {len(self.y)} != bounds length {len(self.box)}"
            )
        _, op = _operator(self.kernel, len(self.y))
        if op.eig_min <= 0:
            raise NumericalError(f"step-size rule needs a positive kernel spectrum, "
                                 f"got eig_min {op.eig_min:.3e}")
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
    ``g - dG @ gamma``: ``dF`` and ``dG`` are two contiguous
    ``(_ANDERSON_MEMORY, M)`` blocks of the last differences of ``f`` and
    ``g``, filled as a ring (slot ``count % _ANDERSON_MEMORY``, ``count = 0``
    after a restart, so the live ones are always the first ``k`` rows), and
    ``gamma`` solves the normal equations of ``min ||f - dF @ gamma||``, with
    a ``1e-12 * trace`` Tikhonov term.  The Gram matrix, in slot order, gains
    its new difference's column, its right-hand side and the extrapolation
    are one matrix-vector product each, and the solve is LAPACK's, called
    without ``np.linalg.solve``'s wrapper.  The plain step ``u <- g``, with
    the history forgotten, replaces it when ``||f||`` grows over the last
    iteration's and when the Gram solve is singular (every difference zero:
    ``u`` is the fixed point).  Besides the blocks the solve holds five
    rows: ``u`` (which ``f`` overwrites), ``r`` (which ``t = 2r - u``
    overwrites), ``g`` and the last ``f`` and ``g``; the spectrum buffer,
    dead between resolvents, holds the prox's outer lines.

    A checkpoint reads ``C z``, ``z = r[:n]`` for the resolvent ``r`` of
    ``u``, off that resolvent (``toeplitz_from_resolvent``) into the ``g``
    row, dead until the next reflection, and takes the gap in the spectrum
    buffer.  A gap that is not finite means the iteration diverged: the
    first such checkpoint raises ``NumericalError``.
    """
    n = len(p.y)
    band, op = _operator(p.kernel, n)

    prox_params = ProxParams(lam=p.lam, alpha=p.alpha, y=p.y.samples, box=p.box)
    tol_abs = p.tol_abs
    alpha, cap, every, mem = p.alpha, p.max_iters, p.trace_every, _ANDERSON_MEMORY

    # every full-length vector shares one block: freeing it raises glibc's
    # dynamic mmap threshold past the FFT scratch of this size, so later
    # solves neither map nor trim that scratch on every resolvent
    rows = np.zeros((2 * mem + 5, op.size))
    hist_f, hist_g = rows[:mem], rows[mem : 2 * mem]
    u, r, g, f_last, g_last = rows[2 * mem :]
    r_head, r_tail = r[:n], r[n:]
    gram, eye = np.zeros((mem, mem)), np.eye(mem)  # gram of hist_f, in slot order
    count, last_sq = 0, -math.inf  # no last iteration: the first step is plain
    spec = np.empty(op.size // 2 + 1, dtype=complex)
    work = spec.view(float)[:n]
    trace: list[tuple[int, float]] = []
    iters = 0
    # a diverging iterate passes through inf and NaN silently: its gap reports it
    with np.errstate(over="ignore", invalid="ignore"):
        apply_resolvent(op, alpha, u, r, spec)
        while iters < cap:
            r *= 2.0  # t = 2r - u takes r's row, dead until the next resolvent
            r -= u
            reflect_g(r_head, prox_params, g[:n], work)
            np.negative(r_tail, out=g[n:])  # the tail's reflection (see reflect_g)
            f = np.subtract(g, u, out=u)  # u is dead once f is formed
            f_sq = np.dot(f, f)
            gamma = None
            if f_sq <= last_sq:
                s = count % mem
                np.subtract(f, f_last, out=hist_f[s])
                np.subtract(g, g_last, out=hist_g[s])
                count += 1
                k = min(count, mem)
                gram[s, :k] = gram[:k, s] = hist_f[:k].dot(hist_f[s])
                h = gram[:k, :k]
                h, rhs = h + 1e-12 * h.trace() * eye[:k, :k], hist_f[:k].dot(f)
                try:
                    with np.errstate(invalid="raise"):  # LAPACK's flag for a singular h
                        gamma = _umath_linalg.solve1(h, rhs, signature="dd->d")
                except FloatingPointError:
                    pass
            # f and g become the last ones; the next iterate takes the free
            # row, since numpy's arithmetic runs about twice as fast in place
            u, f_last, g, g_last = f_last, f, g_last, g
            if gamma is None:  # the plain step, with the history forgotten
                count = 0
                np.copyto(u, g_last)
            else:
                np.dot(gamma, hist_g[:k], out=u)
                np.subtract(g_last, u, out=u)
            last_sq = f_sq
            iters += 1
            apply_resolvent(op, alpha, u, r, spec)
            if iters % every == 0 or iters == cap:
                res = residual(r_head, p,
                               toeplitz_from_resolvent(band, alpha, u, r, g[:n]), work)
                trace.append((iters, res))
                if res < tol_abs or not math.isfinite(res):
                    break
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
