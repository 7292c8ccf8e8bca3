"""Per-iteration cost scales like n log n, not n^2.

The covariance is a banded Toeplitz matrix embedded in a circulant, so the
resolvent in each splitting iteration is two FFTs and a multiply by the
cached reciprocal spectrum.
This script times the solver across doubling signal lengths.  Run with:

    python3 demos/03_fft_scaling.py
"""

import numpy as np

from envelofit import run_scaling

sizes = [2 ** k for k in range(12, 17)]
times = run_scaling(sizes, iters=20, repeats=3)
# median time per size, and the median of each repeat's own doubling ratio
medians = np.median(times, axis=0)
ratios = [""] + [f"{r:.2f}" for r in np.median(times[:, 1:] / times[:, :-1], axis=0)]

print(f"{'n':>8s}  {'us/iter':>9s}  {'ratio':>6s}")
for n, t, ratio in zip(sizes, medians, ratios):
    print(f"{n:8d}  {t * 1e6:9.1f}  {ratio:>6s}")
print("\nA dense solve would quadruple per doubling; FFT keeps it near 2x.")
