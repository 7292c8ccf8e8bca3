"""Per-iteration cost scales like n log n, not n^2.

The covariance is a banded Toeplitz matrix embedded in a circulant, so the
resolvent in each splitting iteration is two FFTs and a multiply by the
cached reciprocal spectrum.
This script times the solver across doubling signal lengths and prints
each length's circulant size M, the length of the FFT that ran (the first
5-smooth size from n + K).  Run with:

    python3 demos/03_fft_scaling.py
"""

import numpy as np

from envelofit import KernelSpec, build_band, embed_circulant, run_scaling

sizes = [2 ** k for k in range(12, 17)]
# run_scaling's kernel: sigma 20, K = 67
circulant_sizes = [embed_circulant(build_band(KernelSpec(sigma=20.0), n)).size for n in sizes]
times = run_scaling(sizes, iters=20, repeats=3)
# median time per size, and the median of each repeat's own doubling ratio
medians = np.median(times, axis=0)
ratios = [""] + [f"{r:.2f}" for r in np.median(times[:, 1:] / times[:, :-1], axis=0)]

print(f"{'n':>8s}  {'M':>8s}  {'us/iter':>9s}  {'ratio':>6s}")
for n, m, t, ratio in zip(sizes, circulant_sizes, medians, ratios):
    print(f"{n:8d}  {m:8d}  {t * 1e6:9.1f}  {ratio:>6s}")
print("\nA dense solve would quadruple per doubling; FFT keeps it near 2x.")
