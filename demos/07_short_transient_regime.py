"""Where a frequency split has something to split: two trial regimes.

On the default trial spec the transient is about as slow as the smooth
component, and the pipeline's smooth estimate sits near the observation
itself.  ``SHORT_TRANSIENT`` keeps every other setting and shortens the
transient's correlation length to about 0.3 s.  For each regime this prints,
over the held-out seeds 1001-1010 with default knobs, the median smooth
nmse (smooth MSE / the identity estimate's, so ``smooth = y`` reads 1) of
the debiased pipeline, of the best FIR of the bank on each trial and of the
identity, and how often the pipeline beats that best FIR.  Run with:

    python3 demos/07_short_transient_regime.py
"""

import numpy as np

from envelofit import (
    PipelineParams,
    TrialSpec,
    default_baselines,
    run_mse_experiment,
)
from envelofit.synth import SHORT_TRANSIENT

SEEDS = range(1001, 1011)  # held out: neither the gate's seeds nor tuned on
REGIMES = {"default (c1 = 10 s^2)": TrialSpec(),
           "short transient (c1 = 0.1 s^2)": SHORT_TRANSIENT}

pipeline = PipelineParams()
print(f"{'regime':32s} {'pipeline':>9s} {'best FIR':>9s} {'identity':>9s}  pipeline wins")
for name, spec in REGIMES.items():
    report = run_mse_experiment(len(SEEDS), SEEDS[0], pipeline,
                                default_baselines(spec.fs_hz), spec)
    identity = report.mses["identity"]
    proposed = report.mses["proposed"] / identity
    best_fir = np.min([v for m, v in report.mses.items() if m.startswith("hamming_lp_")],
                      axis=0) / identity
    print(f"{name:32s} {np.median(proposed):9.3f} {np.median(best_fir):9.3f} "
          f"{1.0:9.3f}  {int(np.sum(proposed < best_fir))}/{len(SEEDS)}")
