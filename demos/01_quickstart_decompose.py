"""Quickstart: split a synthetic recording into smooth + transient parts.

Generates one synthetic trial (smooth ground truth plus small fast
transients), runs both decomposition variants, and reports how well each
recovers the truth.  Run with:

    python3 demos/01_quickstart_decompose.py
"""

import numpy as np

from envelofit import (
    PipelineParams,
    TrialSpec,
    decompose_basic,
    decompose_debiased,
    generate_trial,
    mse,
)

# A 120 s trial at 10 Hz.  Everything downstream is deterministic in the seed.
trial = generate_trial(TrialSpec(seed=1, duration_s=120.0))
y = trial.observation
print(f"observation: {len(y)} samples at {y.sample_rate_hz:g} Hz")
print(f"smooth truth range  [{trial.smooth.samples.min():.2f}, "
      f"{trial.smooth.samples.max():.2f}]")
print(f"transient truth rms  {np.sqrt(np.mean(trial.transient.samples**2)):.4f}")

params = PipelineParams()

# Basic variant: outer envelopes hug the observation from inside.
basic = decompose_basic(y, params)
print("\nbasic decomposition")
print(f"  smooth-estimate MSE    {mse(trial.smooth, basic.smooth):.5f}")
print(f"  transient-estimate MSE {mse(trial.transient, basic.transient):.5f}")

# Debiased variant: a coarse trend re-centres the corridor first, which
# removes the inward bias of the one-sided envelopes.
deb = decompose_debiased(y, params)
print("\ndebiased decomposition")
print(f"  smooth-estimate MSE    {mse(trial.smooth, deb.smooth):.5f}")
print(f"  transient-estimate MSE {mse(trial.transient, deb.transient):.5f}")

# The sandwich invariant: lower envelope <= smooth estimate <= upper envelope,
# and the transient is exactly the leftover (bitwise).
lo, hi = deb.lower_env.samples, deb.upper_env.samples
print("\ninvariants")
print(f"  max(lower - smooth) = {np.max(lo - deb.smooth.samples):.2e}")
print(f"  max(smooth - upper) = {np.max(deb.smooth.samples - hi):.2e}")
exact = np.array_equal(deb.transient.samples, y.samples - deb.smooth.samples)
print(f"  transient == y - smooth bitwise: {exact}")

for d in deb.diagnostics:
    flag = "" if d.converged else "  (hit iteration cap)"
    print(f"  {d.stage:12s}: {d.iters:5d} iters, "
          f"residual {d.residual_inf:.2e}{flag}")
