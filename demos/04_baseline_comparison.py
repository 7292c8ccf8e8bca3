"""Head-to-head: envelope pipeline vs fixed lowpass filters.

Runs a small Monte-Carlo experiment on synthetic trials and compares the
smooth-component MSE of the proposed decomposition against a bank of
zero-delay FIR lowpass baselines of different lengths, with the identity
estimate (the observation itself) as a reference.  Run with:

    python3 demos/04_baseline_comparison.py
"""

import numpy as np

from envelofit import (
    PipelineParams,
    default_baselines,
    run_mse_experiment,
)

FS = 10.0
N_TRIALS = 6  # small for a quick demo; the acceptance experiment uses 20

pipeline = PipelineParams()
baselines = default_baselines(FS)
print("baselines:", ", ".join(
    f"{f.length}-tap @ {f.cutoffs_hz[0]:g} Hz" for f in baselines))

report = run_mse_experiment(N_TRIALS, base_seed=1, pipeline=pipeline,
                            baselines=baselines)

methods = list(report.mses)
print(f"\n{'trial':>5s}  " + "  ".join(f"{m:>14s}" for m in methods))
for tid in range(N_TRIALS):
    row = {m: v[tid] for m, v in report.mses.items()}
    best = min(row.values())
    cells = [f"{row[m]:14.5f}" + ("*" if row[m] == best else " ")
             for m in methods]
    print(f"{tid:5d}  " + " ".join(cells))
print("(* = best on that trial)")

prop = report.mses["proposed"]
best_fir = np.min([v for m, v in report.mses.items() if m.startswith("hamming_lp_")],
                  axis=0)
wins = int(np.sum(prop < best_fir))
print(f"\nproposed beats every FIR in {wins}/{N_TRIALS}; "
      f"median MSE {np.median(prop):.5f} "
      f"(identity {np.median(report.mses['identity']):.5f})")
for tid, (secs, stages) in enumerate(zip(report.wall_s, report.diagnostics)):
    print(f"  trial {tid}: {secs:.2f} s, {sum(r.iters for r in stages)} solver iterations")
