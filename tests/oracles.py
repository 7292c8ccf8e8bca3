"""Independent oracles the tests check the package against.

None of these run in the pipeline: a scalar prox with its own case table,
the vector prox ``(reflect_g + I) / 2``, which the tests hold to a
brute-force minimiser, the band without its diagonal shift, the first row
of a band's circulant at any size, an operator at a step its spectrum does
not derive, a circulant product and a resolvent at any step straight from
the spectrum, a dense solve of the primal problem with a generic
bound-constrained minimiser, the unfused splitting loop (with its
``np.select`` prox, divided resolvent, Anderson history of fresh vectors
and out-of-place checkpoint product and gap) that the package's in-place
loop must reproduce bit for bit (or, checking the gap after every
iteration, the first iteration that meets the tolerance), and the uncached
out-of-place GP factor and sampler (``np.linalg.cholesky`` on a second
array) that the cached, in-place one must reproduce bit for bit.
"""

import dataclasses
import time

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.optimize

import envelofit.solver
from envelofit.core import InputError, NumericalError, project_box
from envelofit.kernel import (
    CirculantOperator,
    KernelSpec,
    ToeplitzBand,
    build_band,
    embed_circulant,
)
from envelofit.prox import ProxParams, reflect_g
from envelofit.solver import SolveParams, SolveResult
from envelofit.synth import DENSE_GP_LIMIT, GpParams

DENSE_LIMIT = 2048


def prox_scalar_q(s: float, a: float, b: float, alpha: float) -> float:
    """Proximity operator of the scalar piecewise-quadratic penalty.

    Returns ``s - alpha*a`` below the interval, ``s / (1 + alpha)`` inside
    ``[(1+alpha)*a, (1+alpha)*b]``, and ``s - alpha*b`` above; infinite
    bounds drop the corresponding outer branch.
    """
    if a > b:
        raise InputError(f"need a <= b, got a={a}, b={b}")
    if np.isfinite(a) and s < (1.0 + alpha) * a:
        return s - alpha * a
    if np.isfinite(b) and s > (1.0 + alpha) * b:
        return s - alpha * b
    return s / (1.0 + alpha)


def prox_r(t, p: ProxParams) -> np.ndarray:
    """Vectorized prox of the dual data/constraint term at ``t``, read off
    the package's reflected prox."""
    return 0.5 * (reflect_g(t, p) + np.asarray(t, dtype=float))


def truncated_band(spec: KernelSpec, n: int) -> ToeplitzBand:
    """The band without its diagonal shift: the plain truncated Gaussian row,
    which truncation leaves indefinite for wide kernels."""
    band = build_band(spec, n)
    row = band.first_row.copy()
    row[0] = 1.0
    return ToeplitzBand(first_row=row, half_width=band.half_width, n=n)


def inject_truncated_band(monkeypatch) -> None:
    """Make every solve build ``truncated_band``, whose negative eigenvalues
    the step-size rule rejects."""
    monkeypatch.setattr(envelofit.solver, "build_band", truncated_band)


def circulant_row(band: ToeplitzBand, size: int) -> np.ndarray:
    """First row of the band's circulant extension of any ``size >= n + K``,
    built straight from the band (no FFT round trip)."""
    k = band.half_width
    row = np.zeros(size)
    row[: k + 1] = band.first_row
    row[size - k:] = band.first_row[1:][::-1]
    return row


def at_step(op: CirculantOperator, alpha: float) -> CirculantOperator:
    """A copy of ``op`` whose step is ``alpha``, not the one its spectrum
    derives.  The package builds no such operator, but the identity that
    ``toeplitz_from_resolvent`` reads holds at any step, and its rounding,
    about ``eps * ||u|| / alpha``, is checked over a range of them."""
    forced = dataclasses.replace(op)  # a fresh copy builds its own multipliers
    object.__setattr__(forced, "alpha", alpha)
    return forced


def dense_toeplitz(band: ToeplitzBand) -> np.ndarray:
    """Full N x N symmetric Toeplitz matrix of the band."""
    col = np.zeros(band.n)
    col[: band.half_width + 1] = band.first_row
    return scipy.linalg.toeplitz(col)


def apply_circulant(op: CirculantOperator, v) -> np.ndarray:
    """Spectral matrix-vector product ``C~ v``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.size,):
        raise InputError(
            f"vector length {v.shape} does not match circulant size {op.size}"
        )
    return scipy.fft.irfft(scipy.fft.rfft(v) * op.eigenvalues, n=op.size)


def residual_reference(z, p: SolveParams, cz) -> float:
    """Out-of-place optimality gap ``||C z - P_B(y - z/lam)||_inf``."""
    return float(np.max(np.abs(cz - np.clip(p.y.samples - z / p.lam,
                                            p.box.lower, p.box.upper))))


def solve_reference_dense(p: SolveParams) -> SolveResult:
    """Dense bound-constrained solve of the primal.

    Minimizes ``lam/2 ||y - x||^2 + 1/2 x^T C^-1 x`` over the box with
    L-BFGS-B (analytic gradient, explicit ``C^-1``), then polishes with
    projected-gradient steps so the fixed-point gap is tiny.
    """
    start = time.perf_counter()
    n = len(p.y)
    if n > DENSE_LIMIT:
        raise InputError(
            f"dense reference limited to N <= {DENSE_LIMIT}, got {n}"
        )
    band = build_band(p.kernel, n)
    c_dense = dense_toeplitz(band)
    w, vecs = np.linalg.eigh(c_dense)
    if np.min(w) <= 0:
        raise NumericalError(
            f"dense covariance not positive definite (min eig {np.min(w):.3e})"
        )
    c_inv = (vecs / w) @ vecs.T
    c_inv = 0.5 * (c_inv + c_inv.T)
    y = p.y.samples

    def fun(x):
        d = x - y
        return 0.5 * p.lam * d @ d + 0.5 * x @ (c_inv @ x)

    def grad(x):
        return p.lam * (x - y) + c_inv @ x

    x0 = project_box(y, p.box)
    res_opt = scipy.optimize.minimize(
        fun,
        x0,
        jac=grad,
        method="L-BFGS-B",
        bounds=list(zip(p.box.lower, p.box.upper)),
        options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-14},
    )
    x = project_box(res_opt.x, p.box)

    # polish: projected gradient with exact Lipschitz constant
    lip = p.lam + 1.0 / np.min(w)
    for _ in range(2000):
        x_next = project_box(x - grad(x) / lip, p.box)
        if np.max(np.abs(x_next - x)) < 1e-15 * max(1.0, np.max(np.abs(x))):
            x = x_next
            break
        x = x_next

    z = np.linalg.solve(c_dense, x)
    res = residual_reference(z, p, c_dense @ z)
    return SolveResult(
        x_hat=p.y.with_samples(x),
        z=z,
        iters=int(res_opt.nit),
        residual_inf=res,
        residual_trace=((int(res_opt.nit), res),),
        converged=res < max(p.tol_abs, 1e-7),
        tol_abs=max(p.tol_abs, 1e-7),
        alpha=float("nan"),  # no splitting step; m, k and the extremes are the dense matrix's
        m=n,
        k=band.half_width,
        eig_min=float(np.min(w)),
        eig_max=float(np.max(w)),
        wall_s=time.perf_counter() - start,
    )


def apply_resolvent_reference(op: CirculantOperator, alpha: float, v) -> np.ndarray:
    """Spectral solve ``(I + alpha C~)^-1 v`` at any step ``alpha >= 0``,
    dividing by ``1 + alpha * eigenvalues``."""
    v = np.asarray(v, dtype=float)
    if v.shape != (op.size,):
        raise InputError(
            f"vector length {v.shape} does not match circulant size {op.size}"
        )
    return scipy.fft.irfft(scipy.fft.rfft(v) / (1.0 + alpha * op.eigenvalues), n=op.size)


def prox_thresholds(p: ProxParams) -> tuple[np.ndarray, np.ndarray]:
    """Case-table thresholds ``(c, d)`` of the reflected prox.

    ``t > c`` selects the lower-bound line and ``t < d`` the upper-bound one;
    ``c`` is ``+inf`` where the lower bound is ``-inf`` and ``d`` is ``-inf``
    where the upper bound is ``+inf``, which disables that branch.
    """
    a, b = p.box.lower, p.box.upper
    scale = 1.0 + p.alpha / p.lam
    c = np.where(np.isfinite(a), p.lam * (p.y - scale * a), np.inf)
    d = np.where(np.isfinite(b), p.lam * (p.y - scale * b), -np.inf)
    return c, d


def reflect_g_select(t, t_tilde, p: ProxParams) -> tuple[np.ndarray, np.ndarray]:
    """Reflected prox of the separable dual term as one ``np.select`` case table."""
    t = np.asarray(t, dtype=float)
    if t.shape != p.y.shape:
        raise InputError(f"t length {t.shape} != {p.y.shape}")
    mid = t + (p.k * (p.lam * p.y) - p.k * t)  # the package's interior arithmetic
    low = t + 2.0 * p.alpha * p.box.upper
    high = t + 2.0 * p.alpha * p.box.lower
    c, d = prox_thresholds(p)
    v = np.select([t < d, t > c], [low, high], default=mid)
    return v, -np.asarray(t_tilde, dtype=float)


def toeplitz_via_resolvent(band: ToeplitzBand, alpha: float, u, r) -> np.ndarray:
    """``C z`` for ``z = r[:n]`` from ``C~ r = (u - r) / alpha``, out of place.

    Each of the first and last ``K`` rows drops the band's reach into the
    tail of ``r``, summed by the same ``np.convolve`` calls, in the same
    order, as the package's in-place form.
    """
    n, k = band.n, band.half_width
    cz = (u[:n] - r[:n]) / alpha
    if k:
        taps = band.first_row[1:][::-1]
        cz[n - k:] = cz[n - k:] - np.convolve(r[n : n + k], taps)[:k]
        head = np.convolve(r[::-1][:k], taps)[:k]
        cz[:k] = cz[:k] - head[::-1]
    return cz


def solve_reference_loop(p: SolveParams, every_iteration: bool = False) -> SolveResult:
    """The Anderson-accelerated splitting iteration in its unfused form.

    Fresh temporaries every iteration, the ``np.select`` prox, the history
    as a list of fresh difference vectors in ring-slot order, stacked afresh
    for each matrix-vector product, the wrapped ``np.linalg.solve``, and a
    second resolvent at every checkpoint, whose ``C z`` comes from
    ``toeplitz_via_resolvent``; the package's fused loop must match it bit
    for bit, so each floating-point operation is the same numpy call on the
    same operands, in the same order.  A product's bits depend on how many
    rows it takes, so the Gram matrix gains one column per difference, as
    the package's does, and is never rebuilt.

    The gap is taken on the package's schedule: every ``trace_every``
    iterations, at the cap, and after a failed check at the first iteration
    whose ``||f||^2`` falls below the last check's ``||f||^2`` scaled by
    ``(tol_abs / gap)^2``.  With ``every_iteration`` it is taken after
    every iteration instead, so the solve stops at the first iteration
    whose gap meets the tolerance; checks leave the iterates as they are,
    so the trajectory is the same.
    """
    start = time.perf_counter()
    n = len(p.y)
    band = build_band(p.kernel, n)
    op = embed_circulant(band)
    assert op.size == scipy.fft.next_fast_len(n + band.half_width, real=True)
    mem = envelofit.solver._ANDERSON_MEMORY

    prox_params = ProxParams(lam=p.lam, alpha=p.alpha, y=p.y.samples, box=p.box)
    tol_abs = p.tol_abs

    u = np.zeros(op.size)
    df: list[np.ndarray] = [np.zeros(0)] * mem  # differences of f and g by slot
    dg: list[np.ndarray] = [np.zeros(0)] * mem
    gram = np.zeros((mem, mem))
    count = 0  # differences since the last restart
    last = None  # (f, g, ||f||^2) of the last iteration
    check_sq = 0.0  # ||f||^2 below which the gap may meet tol
    trace: list[tuple[int, float]] = []
    iters = 0
    while iters < p.max_iters:
        t_full = 2.0 * apply_resolvent_reference(op, p.alpha, u) - u
        v, v_tilde = reflect_g_select(t_full[:n], t_full[n:], prox_params)
        g = np.concatenate([v, v_tilde])
        f = g - u
        f_sq = np.dot(f, f)
        gamma = None
        if last is not None and f_sq <= last[2]:
            s = count % mem
            df[s], dg[s] = f - last[0], g - last[1]
            count += 1
            k = min(count, mem)
            gram[s, :k] = gram[:k, s] = np.dot(np.array(df[:k]), df[s])
            h = gram[:k, :k]
            try:
                gamma = np.linalg.solve(h + 1e-12 * np.trace(h) * np.eye(k),
                                        np.dot(np.array(df[:k]), f))
            except np.linalg.LinAlgError:
                pass
        if gamma is None:  # the plain step, with the history forgotten
            count = 0
            u = g
        else:
            u = g - np.dot(gamma, np.array(dg[:k]))
        last = (f, g, f_sq)
        iters += 1
        if (every_iteration or iters % p.trace_every == 0 or iters == p.max_iters
                or f_sq < check_sq):
            r = apply_resolvent_reference(op, p.alpha, u)
            z = r[:n]
            res = residual_reference(z, p, toeplitz_via_resolvent(band, p.alpha, u, r))
            trace.append((iters, res))
            if res < tol_abs:
                break
            check_sq = f_sq * (tol_abs / res) ** 2
    x_hat = project_box(p.y.samples - z / p.lam, p.box)
    return SolveResult(
        x_hat=p.y.with_samples(x_hat),
        z=z,
        iters=iters,
        residual_inf=res,
        residual_trace=tuple(trace),
        converged=res < tol_abs,
        tol_abs=tol_abs,
        alpha=p.alpha,
        m=op.size,
        k=band.half_width,
        eig_min=op.eig_min,
        eig_max=op.eig_max,
        wall_s=time.perf_counter() - start,
    )


def gp_factor_dense(p: GpParams, n: int, fs: float) -> np.ndarray:
    """Lower Cholesky factor of the GP covariance, built out of place and
    factored by ``np.linalg.cholesky`` into a second array."""
    t = np.arange(n) / fs
    dt = t[:, None] - t[None, :]
    cov = p.c0 * np.exp(-(dt * dt) / p.c1) + p.c2 * np.eye(n)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"GP covariance factorization failed (c0={p.c0}, c1={p.c1}, c2={p.c2})"
        ) from exc


def sample_gp_dense(p: GpParams, n: int, fs: float,
                    rng: int | np.random.Generator = 0) -> np.ndarray:
    """The GP sampler before its factor was cached: it builds the covariance
    out of place and factors it on every call."""
    rng = np.random.default_rng(rng)
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if n > DENSE_GP_LIMIT:
        raise InputError(
            f"dense GP sampling limited to n <= {DENSE_GP_LIMIT}, got {n}"
        )
    return gp_factor_dense(p, n, fs) @ rng.standard_normal(n)
