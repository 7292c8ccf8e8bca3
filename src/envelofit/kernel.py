"""Truncated squared-exponential Toeplitz covariance and its circulant embedding.

The covariance of the smoothness prior is a banded symmetric Toeplitz matrix
with first row ``r[k] = exp(-k^2 / sigma^2)`` for lags ``1..K`` (``K`` set
by the truncation threshold ``tau``) and diagonal
``r[0] = 1 + sigma*sqrt(pi)*erfc(K/sigma) + 1/(2(K + 1))``.  Truncation alone
leaves the band indefinite; the middle term bounds how far the dropped tail
lowers the (positive) untruncated symbol, so every Toeplitz and circulant
eigenvalue exceeds the floor ``1/(2(K + 1))``, for any size.  The condition
number, about ``2 sqrt(pi) sigma (K + 1)``, then sets the splitting
iterations per solve.  ``embed_circulant`` embeds a band in the circulant
of size ``scipy.fft.next_fast_len(N + K, real=True)``, the first 5-smooth
size from ``N + K``, which carries the band and derives the step, and makes
both the matrix-vector product and the resolvent ``(I + alpha C)^-1``
diagonal in the Fourier basis, so each costs one FFT pair.
``apply_resolvent`` runs the pair as pocketfft's real halfcomplex
transforms through scipy's binding, which caches their plans; those
transforms have passes of their own for the factors 2, 3, 4 and 5 only,
hence the size.  ``toeplitz_from_resolvent`` reads the band's product
off a resolvent instead of convolving.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import InputError, NumericalError, check_int, check_out

__all__ = [
    "KernelSpec",
    "ToeplitzBand",
    "CirculantOperator",
    "band_half_width",
    "build_band",
    "embed_circulant",
    "apply_resolvent",
    "apply_toeplitz",
    "toeplitz_from_resolvent",
]

#: Truncation threshold of a ``KernelSpec`` that names none, and the default
#: of ``PipelineParams.tau``, whose docstring gives the trade it sets.
DEFAULT_TAU = 1e-5

_r2r_fftpack = None  # scipy's pocketfft r2r_fftpack, bound by load_fft


@dataclass(frozen=True)
class KernelSpec:
    """Width ``sigma`` (in samples) and truncation threshold ``tau``."""

    sigma: float
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        # the kernel exp(-k^2 / sigma^2) needs sigma**2 not to underflow or overflow
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < math.inf):
            raise InputError(f"sigma and sigma**2 must be positive and finite, got {self.sigma}")
        if not (0 < self.tau <= 1):
            raise InputError(f"tau must be in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class ToeplitzBand:
    """First row of the banded covariance, out to half-width ``half_width``."""

    first_row: np.ndarray  # length half_width + 1
    half_width: int
    n: int


@dataclass(frozen=True)
class CirculantOperator:
    """Spectral form of the circulant extension of ``band``, and its step;
    a product read off its resolvent takes both from it.

    ``eigenvalues`` is the rfft half of the spectrum (length ``size // 2 + 1``);
    the even-symmetric first row makes the other half its mirror image, so the
    half holds every distinct eigenvalue.  Built from it: the extremes
    ``eig_min``, ``eig_max`` and the step ``alpha = 1 / sqrt(eig_min * eig_max)``,
    at which the undamped splitting contracts at ``(sqrt(kappa) - 1) /
    (sqrt(kappa) + 1)`` (Giselsson and Boyd 2017); a spectrum that is not
    positive has no step and raises ``NumericalError``.
    """

    band: ToeplitzBand
    size: int
    eigenvalues: np.ndarray
    eig_min: float = field(init=False)
    eig_max: float = field(init=False)
    alpha: float = field(init=False)

    def __post_init__(self):
        eig_min, eig_max = float(np.min(self.eigenvalues)), float(np.max(self.eigenvalues))
        if not eig_min > 0:
            raise NumericalError(f"step-size rule needs a positive kernel spectrum, "
                                 f"got eig_min {eig_min:.3e}")
        for name, value in (("eig_min", eig_min), ("eig_max", eig_max),
                            ("alpha", 1.0 / math.sqrt(eig_min * eig_max))):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def multipliers(self) -> np.ndarray:
        """Read-only ``1 / (1 + alpha * eigenvalues)`` in halfcomplex order: slot 0
        DC's, slots ``2k - 1`` and ``2k`` the k-th, the last Nyquist's if ``size``
        is even; built on first use, after a solve's work block (built ahead of
        it they raised a 2^17-sample call's peak RSS 5 MB)."""
        recip = np.repeat(self.eigenvalues, 2)[1 : self.size + 1]
        recip *= self.alpha
        recip += 1.0
        np.divide(1.0, recip, out=recip)
        recip.flags.writeable = False
        return recip


def band_half_width(spec: KernelSpec) -> int:
    """Largest lag ``k`` with ``exp(-k^2 / sigma^2) >= tau`` in floats; 0 for ``tau = 1``."""
    def inside(j: int) -> bool:
        return math.exp(-(j**2) / spec.sigma**2) >= spec.tau

    if spec.tau == 1.0:
        return 0
    k = int(math.floor(spec.sigma * math.sqrt(math.log(1.0 / spec.tau))))
    if k > 2**53:
        # lags past 2^53 are not exact floats: no band of that width can be built
        raise InputError(f"kernel band half-width {k:.3e} exceeds 2**53; "
                         f"reduce sigma or increase tau")
    # inside() holds for lags 0..K and fails past K; rounding can put the closed
    # form many lags off K where tau is near 1, so bisect a bracket of K
    lo, hi = 0, 2 * k + 2
    while inside(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def build_band(spec: KernelSpec, n: int) -> ToeplitzBand:
    """Banded first row of the covariance for a length-``n`` signal, its
    diagonal raised as the module docstring states."""
    check_int(n, "signal length", 1)
    k = band_half_width(spec)
    if k >= n:
        raise InputError(
            f"kernel band half-width {k} does not fit signal length {n}; "
            f"reduce sigma or increase tau"
        )
    lags = np.arange(k + 1, dtype=float)
    row = np.exp(-(lags**2) / spec.sigma**2)
    # the tail past K sums to at most sigma*sqrt(pi)/2 * erfc(K/sigma) per side
    row[0] += spec.sigma * math.sqrt(math.pi) * math.erfc(k / spec.sigma) + 0.5 / (k + 1)
    return ToeplitzBand(first_row=row, half_width=k, n=n)


def embed_circulant(band: ToeplitzBand) -> CirculantOperator:
    """Circulant extension whose top-left N x N block equals the Toeplitz band.

    Its size is ``scipy.fft.next_fast_len(N + K, real=True)``, the first
    size from ``N + K``, the least that embeds the band, that its
    resolvent's real transforms run fast (5-smooth); zeros fill the first
    row's middle, so every such size embeds it exactly.
    """
    from scipy.fft import next_fast_len

    k = band.half_width
    m = next_fast_len(band.n + k, real=True)
    row = np.zeros(m)
    row[: k + 1] = band.first_row
    if k > 0:
        row[-k:] = band.first_row[1:][::-1]
    # even-symmetric row => real spectrum; discard round-off imaginary part
    eig = np.fft.rfft(row).real.copy()
    eig.flags.writeable = False
    return CirculantOperator(band=band, size=m, eigenvalues=eig)


def load_fft():
    """scipy's pocketfft ``r2r_fftpack``, bound on the process's first call,
    which imports ``scipy.fft`` (about 0.2 s)."""
    global _r2r_fftpack
    if _r2r_fftpack is None:
        from scipy.fft._pocketfft import pypocketfft
        _r2r_fftpack = pypocketfft.r2r_fftpack
    return _r2r_fftpack


def apply_resolvent(op: CirculantOperator, v, out=None) -> np.ndarray:
    """Spectral solve ``(I + alpha C~)^-1 v`` at the operator's own step.

    ``out`` (float64, ``op.size``; ``v`` itself or disjoint from it, else
    ``InputError``) receives the spectrum, then the result; given, a call
    allocates nothing but the FFT's own scratch.  The pair is pocketfft's
    halfcomplex transform and its inverse over 1/M, whose plans scipy's
    binding caches (``load_fft``); the real spectrum takes one multiply by
    the operator's reciprocals.  That gives the bits of ``np.fft``'s
    ``irfft(rfft(v) / (1 + alpha * eigenvalues))``: numpy divides by a real
    ``d`` as ``(a + b*0) * (1/d)``, which is ``a * (1/d)`` up to a zero's sign.
    """
    r2r = load_fft()
    v = np.asarray(v, dtype=float)
    if v.shape != (op.size,):
        raise InputError(f"vector shape {v.shape} does not match circulant size {op.size}")
    if out is not v:  # the forward transform would overwrite v while reading it
        out = check_out(out, v.shape, v)
    r2r(v, (0,), True, True, 0, out)
    out *= op.multipliers
    return r2r(out, (0,), False, False, 2, out)


def apply_toeplitz(band: ToeplitzBand, z) -> np.ndarray:
    """Banded product ``C z`` (zero boundary, direct convolution over the band)."""
    z = np.asarray(z, dtype=float)
    if z.shape != (band.n,):
        raise InputError(
            f"vector length {z.shape} does not match band size {band.n}"
        )
    kern = np.concatenate([band.first_row[1:][::-1], band.first_row])
    k = band.half_width
    return np.convolve(z, kern, mode="full")[k : k + band.n]


def toeplitz_from_resolvent(op: CirculantOperator, u, r, out=None) -> np.ndarray:
    """Banded product ``C z`` for ``z = r[:n]``, read off ``r = (I + alpha C~)^-1 u``,
    the resolvent of ``op`` at its step ``alpha``.

    ``(I + alpha C~) r = u`` gives ``C~ r = (u - r) / alpha``.  Its first
    ``n`` rows are ``C z`` plus the band's reach into the tail ``r[n:]``,
    which only the last ``K`` rows (through ``r[n:n+K]``) and the first
    ``K`` (wrapping round to ``r[M-K:]``) have; subtracting those costs
    O(n + K^2) where the convolution costs O(nK).  The error is the
    resolvent's rounding over ``alpha``, of order ``eps * ||u|| / alpha``.
    ``out`` (float64, length ``n``) may be any buffer, ``r[:n]`` or ``u[:n]``
    included, but one that overlaps ``r[n:]``, which the corrections read
    after ``out`` is written (``InputError``).
    """
    band = op.band
    n, k = band.n, band.half_width
    cz = np.subtract(u[:n], r[:n], out=check_out(out, (n,), r[n:]))
    cz /= op.alpha
    if k:
        taps = band.first_row[:0:-1]  # c[K], ..., c[1]
        cz[n - k:] -= np.convolve(r[n : n + k], taps)[:k]
        cz[k - 1 :: -1] -= np.convolve(r[: -k - 1 : -1], taps)[:k]
    return cz
