"""Event timing from the transient channel.

After decomposition, the transient component carries the fast repetitive
events; peak detection on it yields inter-event intervals and a rate.  Run
with:

    python3 demos/05_peak_intervals.py
"""

import numpy as np

from envelofit import (
    PipelineParams,
    TrialSpec,
    decompose_debiased,
    detect_peaks,
    generate_trial,
)

trial = generate_trial(TrialSpec(seed=5, duration_s=120.0))
dec = decompose_debiased(trial.observation, PipelineParams())

# the prominence floor rejects residual noise wiggles; only genuine
# transient events survive
stats = detect_peaks(dec.transient, min_separation_s=0.33, min_prominence=0.2)
print(f"{stats.peak_indices.size} peaks in 120 s")
if stats.intervals_s.size:
    print(f"mean interval {stats.mean_interval_s:.3f} s "
          f"(sd {np.std(stats.intervals_s):.3f} s)")
    print(f"rate {60.0 / stats.mean_interval_s:.1f} events/min")
    print("first ten intervals (s):",
          np.array2string(stats.intervals_s[:10], precision=2))

# Ground truth for comparison: peaks of the true transient channel.
truth = detect_peaks(trial.transient, min_separation_s=0.33,
                     min_prominence=0.2)
print(f"\ntruth: {truth.peak_indices.size} peaks, "
      f"mean interval {truth.mean_interval_s:.3f} s")
