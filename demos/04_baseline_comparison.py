"""Head-to-head: envelope pipeline vs fixed lowpass filters.

Runs a small Monte-Carlo experiment on synthetic trials and compares the
smooth-component MSE of the proposed decomposition against a bank of
zero-delay FIR lowpass baselines of different lengths, with the identity
estimate (the observation itself) as a reference.  Run with:

    python3 demos/04_baseline_comparison.py
"""

import numpy as np

from envelofit import (
    CoarseParams,
    PipelineParams,
    default_baselines,
    run_mse_experiment,
)

FS = 10.0
N_TRIALS = 6  # small for a quick demo; the acceptance experiment uses 20

pipeline = PipelineParams(coarse=CoarseParams())
baselines = default_baselines(FS)
print("baselines:", ", ".join(
    f"{f.length}-tap @ {f.cutoffs_hz[0]:g} Hz" for f in baselines))

report = run_mse_experiment(N_TRIALS, base_seed=1, pipeline=pipeline,
                            baselines=baselines)

methods = report.method_names()
print(f"\n{'trial':>5s}  " + "  ".join(f"{m:>14s}" for m in methods))
for tid in range(N_TRIALS):
    row = {m: v for t, m, v in report.trial_mses if t == tid}
    best = min(row.values())
    cells = [f"{row[m]:14.5f}" + ("*" if row[m] == best else " ")
             for m in methods]
    print(f"{tid:5d}  " + " ".join(cells))
print("(* = best on that trial)")

prop = report.mses_for(methods[0])
firs = [m for m in methods if m.startswith("hamming_lp_")]
wins = sum(
    prop[t] < min(report.mses_for(m)[t] for m in firs)
    for t in range(N_TRIALS)
)
print(f"\nproposed beats every FIR in {wins}/{N_TRIALS}; "
      f"median MSE {np.median(prop):.5f} "
      f"(identity {np.median(report.mses_for('identity')):.5f})")
for tid, secs, iters in report.timing:
    print(f"  trial {tid}: {secs:.2f} s, {iters} solver iterations")
