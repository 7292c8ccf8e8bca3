"""Anatomy of one constrained-filtering solve.

Sets up a single box-constrained quadratic program by hand, solves it with
the FFT-based splitting solver, and checks the answer with the solver's own
optimality certificate: the sup-norm residual ``||C z - P_B(y - z/lam)||``,
recomputed from the returned dual vector.  Also shows the residual trace.
Run with:

    python3 demos/02_solver_anatomy.py
"""

import numpy as np

from envelofit import (
    BoxConstraint,
    KernelSpec,
    Signal,
    SolveParams,
    residual,
    solve_constrained_filter,
)

rng = np.random.default_rng(0)
n, fs = 400, 10.0
t = np.arange(n) / fs

# Noisy slow oscillation; ask for the smoothest curve that stays below it.
y = Signal(np.sin(2.0 * np.pi * 0.05 * t) + 0.1 * rng.standard_normal(n), fs)
box = BoxConstraint(np.full(n, -np.inf), y.samples)

lam, sigma = 5.0, 2.0
p = SolveParams(
    y=y, box=box,
    kernel=KernelSpec(sigma=sigma),
    lam=lam,  # the step size is derived: 1 / sqrt(eig_min * eig_max)
    tol=1e-8, max_iters=20000, trace_every=200,
)

res = solve_constrained_filter(p)
print(f"converged={res.converged} after {res.iters} iters, "
      f"residual {res.residual_inf:.2e}")
print("residual trace (iter, sup-norm gap):")
trace = res.residual_trace
shown = trace if len(trace) <= 7 else trace[:6] + (("...",),) + trace[-1:]
for entry in shown:
    if entry == ("...",):
        print("  ...")
    else:
        print(f"  {entry[0]:6d}  {entry[1]:.3e}")

# Optimality certificate: zero exactly at the dual optimum, recomputed here
# from the returned dual vector rather than read off the trace.
cert = residual(res.z, p)
print(f"\noptimality residual:        {cert:.2e} (tolerance {p.tol_abs:.1e})")

# The estimate really is an *under*-envelope: feasible to working precision.
viol = float(np.max(res.x_hat.samples - y.samples))
print(f"max constraint violation:   {viol:.2e}")
print(f"mean(y - envelope):         {np.mean(y.samples - res.x_hat.samples):.4f}")
