"""Per-iteration cost scales like n log n, not n^2.

The covariance is a banded Toeplitz matrix embedded in a circulant, so the
resolvent in each splitting iteration is two FFTs and a multiply by the
cached reciprocal spectrum.
This script times the solver across doubling signal lengths.  Run with:

    python3 demos/03_fft_scaling.py
"""

from envelofit import run_scaling

sizes = [2 ** k for k in range(12, 17)]
table = run_scaling(sizes, iters=20, repeats=3)

print(f"{'n':>8s}  {'us/iter':>9s}  {'ratio':>6s}")
prev = None
for n, t in table:
    ratio = "" if prev is None else f"{t / prev:.2f}"
    print(f"{n:8d}  {t * 1e6:9.1f}  {ratio:>6s}")
    prev = t
print("\nA dense solve would quadruple per doubling; FFT keeps it near 2x.")
