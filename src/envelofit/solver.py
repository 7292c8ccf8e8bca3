"""Peaceman-Rachford splitting solver for the box-constrained filtering problem.

The primal problem

    min_x  lam/2 ||y - x||^2 + 1/2 x^T C^-1 x   s.t.  a <= x <= b

is attacked through a dual in the variable ``z`` (with ``x = P_B(y - z/lam)``
at the optimum), reformulated over the circulant extension of ``C`` so every
iteration costs one FFT pair.  The iteration, ``u <- R_g R_f u``, is undamped
(the circulant derives its step and gives its rate) and
Anderson-accelerated: each new iterate is extrapolated from the last
``_ANDERSON_MEMORY`` differences of the map's values, held in two
contiguous blocks so that the update is three matrix-vector products and
one small LAPACK solve.  That leaves the fixed point, and so the solution
and the gap that certifies it, as they are.  ``SolveParams`` extends the
settings with the problem data; both check their values when built, and
``SolveParams`` builds the stage's circulant, which carries the band and
derives the step, on first use.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (BoxConstraint, InputError, NumericalError, Signal, check_int, check_out, knob,
                   project_box)
from .kernel import (
    CirculantOperator,
    KernelSpec,
    apply_resolvent,
    apply_toeplitz,
    build_band,
    embed_circulant,
    load_fft,
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

#: Differences each Anderson step extrapolates over.  Four cut the desk
#: pipeline's iterations about 3.5-fold, a seventh fewer than three; five save
#: at most 25 more per desk call but hold two more full-length rows per solve,
#: which long signals pay for in memory.
_ANDERSON_MEMORY = 4


@dataclass(frozen=True)
class SolverSettings:
    """Splitting hyperparameters of every solve, checked when built.

    The step size is not a setting: the stage's circulant derives it from
    its spectrum.  Anderson extrapolation (type II, over the last
    ``_ANDERSON_MEMORY`` differences, a constant and not a setting) cuts the
    iterations about 3.5-fold; a step whose fixed-point residual grows
    falls back to the plain one.  ``tol`` is relative to ``||y||_inf``, or
    absolute when ``y`` is zero.  A solve stops only on a measured gap below
    it.  The pipeline solves every stage to ``tol`` but the debiased
    variant's coarse pair, which takes a looser tolerance derived from it
    (``pipeline._coarse_tol``).  The gap is checked at ``max_iters``, every
    ``trace_every`` iterations (a constant: at most 25 iterations pass
    between checks) and in between where the fixed-point residual predicts
    it may meet ``tol``.
    """

    max_iters: int = knob(10000, "iteration cap per solve")
    tol: float = knob(1e-6, "relative residual tolerance of the tight and smooth stages; "
                            "the coarse --debias stages take max(tol, min(1e3*tol, 1e-3))")
    trace_every: ClassVar[int] = 25

    def __post_init__(self):
        if not (0 < self.tol < math.inf):
            raise InputError(f"tol must be positive and finite, got {self.tol}")
        check_int(self.max_iters, "max_iters", 1)


@dataclass(frozen=True, kw_only=True)
class SolveParams(SolverSettings):
    """Problem data plus the inherited splitting settings.

    The stage's ``circulant``, which sizes itself, keeps the kernel's band
    and derives the step ``alpha``, is built on first use and kept;
    ``dataclasses.replace`` builds it again.
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

    @cached_property
    def circulant(self) -> CirculantOperator:
        return embed_circulant(build_band(self.kernel, len(self.y)))

    @property
    def alpha(self) -> float:
        return self.circulant.alpha

    @property
    def tol_abs(self) -> float:
        scale = float(np.max(np.abs(self.y.samples)))
        return self.tol * (scale if scale > 0 else 1.0)


@dataclass(frozen=True)
class SolveResult:
    """One solve's record: outputs, iterations, gaps, ``converged`` and the
    absolute tolerance ``tol_abs`` it was judged against, the step
    ``alpha``, circulant size ``m``, band half-width ``k``, spectrum extremes
    and ``wall_s`` (band and circulant builds included, the process's
    one-time FFT binding load not).  ``stage`` names the pipeline stage that
    ran it; a direct call leaves it empty."""

    x_hat: Signal
    z: np.ndarray
    iters: int
    residual_inf: float
    residual_trace: tuple[tuple[int, float], ...]
    converged: bool
    tol_abs: float
    alpha: float
    m: int
    k: int
    eig_min: float
    eig_max: float
    wall_s: float
    stage: str = ""


def residual(z, p: SolveParams, cz=None, out=None) -> float:
    """Sup-norm optimality gap ``||C z - P_B(y - z/lam)||_inf``.

    Zero exactly at the dual optimum; drives the convergence check.  ``cz``
    is ``C z`` when the caller has it; without it the band that
    ``p.circulant`` carries is convolved.  Every intermediate is written
    into one n-long buffer: ``out`` when given (float64 and overlapping
    neither ``z`` nor ``cz``, else ``InputError``), so the loop's gap
    allocates nothing, otherwise a fresh one.
    """
    z = np.asarray(z, dtype=float)
    n = len(p.y)
    if z.shape != (n,):
        raise InputError(f"z length {z.shape} != {n}")
    if cz is None:
        cz = apply_toeplitz(p.circulant.band, z)
    elif np.shape(cz) != z.shape:
        raise InputError(f"C z length {np.shape(cz)} != {n}")
    out = check_out(out, z.shape, z, cz)
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
    overwrites), ``g`` and the last ``f`` and ``g``.

    A checkpoint reads ``C z``, ``z = r[:n]`` for the resolvent ``r`` of
    ``u``, off that resolvent (``toeplitz_from_resolvent``) into the ``g``
    row, dead until the next reflection, and takes the gap in one n-vector.
    A gap that is not finite means the iteration diverged: the first such
    checkpoint raises ``NumericalError``.  The loop copies ``z`` into that
    n-vector and frees every other buffer before ``x_hat`` is formed.

    Checkpoints fall every ``trace_every`` iterations and at the cap.  After
    one at iteration ``j`` fails, the gap is predicted to scale with
    ``||f||``: the next one is also taken at the first iteration whose
    ``||f||^2`` is below ``||f_j||^2 (tol_abs / gap_j)^2``.  A checkpoint
    leaves the iterates as they are, so the solve stops at the first
    checked iteration whose measured gap meets the tolerance, on the same
    trajectory whatever the checks.
    """
    load_fft()  # once per process, and not on this stage's clock
    start = time.perf_counter()
    z, iters, res, trace = _iterate(p)
    op = p.circulant
    if not math.isfinite(res):
        raise NumericalError(f"iteration diverged: gap {res} at iteration {iters} "
                             f"with alpha={op.alpha}")
    x_hat = project_box(p.y.samples - z / p.lam, p.box)
    return SolveResult(
        x_hat=p.y.with_samples(x_hat),
        z=z,
        iters=iters,
        residual_inf=res,
        residual_trace=tuple(trace),
        converged=res < p.tol_abs,
        tol_abs=p.tol_abs,
        alpha=op.alpha, m=op.size, k=op.band.half_width, eig_min=op.eig_min,
        eig_max=op.eig_max, wall_s=time.perf_counter() - start,
    )


def _iterate(p: SolveParams) -> tuple[np.ndarray, int, float, list[tuple[int, float]]]:
    """``solve_constrained_filter``'s loop: ``z``, iterations, last gap and trace."""
    n, op, alpha = len(p.y), p.circulant, p.alpha
    tol_abs, cap, every, mem = p.tol_abs, p.max_iters, p.trace_every, _ANDERSON_MEMORY

    # the gap's buffer, returned as z, goes first, so the block and the prox free one
    # hole (after them, long signals peak ~1 MB higher); every full-length vector
    # shares one block: freeing it raises glibc's dynamic mmap threshold past the
    # FFT scratch of this size, so later solves neither map nor trim that scratch
    work = np.empty(n)
    rows = np.zeros((2 * mem + 5, op.size))
    hist_f, hist_g = rows[:mem], rows[mem : 2 * mem]
    u, r, g, f_last, g_last = rows[2 * mem :]
    r_head, r_tail = r[:n], r[n:]
    gram, eye = np.zeros((mem, mem)), np.eye(mem)  # gram of hist_f, in slot order
    count, last_sq = 0, -math.inf  # no last iteration: the first step is plain
    check_sq = 0.0  # no gap yet to predict from: the first check is on the cadence
    # built after the block: built before, long signals peak ~6% higher
    prox_params = ProxParams(lam=p.lam, alpha=alpha, y=p.y.samples, box=p.box)
    trace: list[tuple[int, float]] = []
    iters = 0
    # a diverging iterate passes through inf and NaN silently: its gap reports it
    with np.errstate(over="ignore", invalid="ignore"):
        apply_resolvent(op, u, r)
        while iters < cap:
            r *= 2.0  # t = 2r - u takes r's row, dead until the next resolvent
            r -= u
            reflect_g(r_head, prox_params, g[:n])
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
            apply_resolvent(op, u, r)
            if iters % every == 0 or iters == cap or f_sq < check_sq:
                res = residual(r_head, p, toeplitz_from_resolvent(op, u, r, g[:n]), work)
                trace.append((iters, res))
                if res < tol_abs or not math.isfinite(res):
                    break
                check_sq = f_sq * (tol_abs / res) ** 2
    np.copyto(work, r_head)  # z takes the gap's buffer: the block goes on return
    return work, iters, res, trace
