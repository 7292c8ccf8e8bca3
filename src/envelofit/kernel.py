"""Truncated squared-exponential Toeplitz covariance and its circulant embedding.

The covariance of the smoothness prior is a banded symmetric Toeplitz matrix
with first row ``r[k] = exp(-k^2 / sigma^2)`` for lags ``1..K`` (``K`` set
by the truncation threshold ``tau``) and diagonal
``r[0] = 1 + sigma*sqrt(pi)*erfc(K/sigma) + 1/(2(K + 1))``.  Truncation alone
leaves the band indefinite; the middle term bounds how far the dropped tail
lowers the (positive) untruncated symbol, so every Toeplitz and circulant
eigenvalue exceeds the floor ``1/(2(K + 1))``, for any size.  The condition
number, about ``2 sqrt(pi) sigma (K + 1)``, then sets the splitting
iterations per solve.  Embedding that band into an
``(N + K) x (N + K)`` circulant makes both the matrix-vector product and the
resolvent ``(I + alpha C)^-1`` diagonal in the Fourier basis, so each costs
one FFT pair.  The transforms are numpy's pocketfft kernels, bound once per
operator; ``toeplitz_from_resolvent`` reads the banded product off a
resolvent instead of convolving.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .core import InputError, NumericalError

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
    "next_fast_len",
]

#: Resolvent denominators 1 + alpha*lambda_i below this are treated as singular.
SPECTRUM_FLOOR = 1e-12

#: Default truncation threshold of a ``KernelSpec`` built directly and of
#: ``run_scaling``; the pipeline uses ``PipelineParams.tau`` instead.
DEFAULT_TAU = 1e-3


@dataclass(frozen=True)
class KernelSpec:
    """Width ``sigma`` (in samples) and truncation threshold ``tau``."""

    sigma: float
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        if not (0 < self.sigma < math.inf):
            raise InputError(f"sigma must be positive and finite, got {self.sigma}")
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
    """Spectral form of the circulant extension of a ToeplitzBand.

    ``eigenvalues`` is the rfft half of the spectrum (length ``size // 2 + 1``);
    the even-symmetric first row makes the other half its mirror image, so the
    half holds every distinct eigenvalue; ``eig_min`` and ``eig_max`` are
    their extremes.
    ``_rfft`` is the pocketfft kernel for this size and ``_inv_size`` the
    ``1/size`` that ``np.fft.irfft`` passes to its kernel, bound once so a
    transform skips ``numpy.fft``'s per-call dispatch.
    """

    size: int
    eigenvalues: np.ndarray
    eig_min: float
    eig_max: float
    _multipliers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _rfft: np.ufunc = field(init=False, repr=False, compare=False)
    _inv_size: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_rfft", _rfft_kernel(self.size))
        object.__setattr__(self, "_inv_size", 1.0 / self.size)

    def resolvent_multipliers(self, alpha: float) -> np.ndarray:
        """Read-only ``1 / (1 + alpha * eigenvalues)``, kept for the last ``alpha``.

        Complex with imaginary part +0, the form numpy casts a real one to, so no
        resolvent casts it again.  Raises unless ``alpha >= 0`` and every denominator
        clears the floor.
        """
        recip = self._multipliers.get(alpha)
        if recip is None:
            if alpha < 0:
                raise InputError(f"alpha must be >= 0, got {alpha}")
            # x -> 1 + alpha*x rounds monotonically for alpha >= 0: the exact minimum
            denom_min = 1.0 + alpha * self.eig_min
            if denom_min <= SPECTRUM_FLOOR:
                raise NumericalError(
                    f"resolvent denominator min {denom_min:.3e} <= {SPECTRUM_FLOOR:.0e}; "
                    f"kernel spectrum too negative for alpha={alpha}"
                )
            recip = np.multiply(alpha, self.eigenvalues)
            recip += 1.0
            np.divide(1.0, recip, out=recip)
            recip = recip.astype(complex)
            recip.flags.writeable = False
            self._multipliers.clear()
            self._multipliers[alpha] = recip
        return recip


def _rfft_kernel(m: int) -> np.ufunc:
    """The pocketfft kernel ``np.fft.rfft`` picks for length ``m``."""
    return _pocketfft.rfft_n_odd if m % 2 else _pocketfft.rfft_n_even


def next_fast_len(target: int, real: bool = False) -> int:
    """Smallest size ``>= target`` with no prime factor above 11 (above 5
    with ``real=True``): ``scipy.fft.next_fast_len``'s rule."""
    if target < 1:
        raise InputError(f"transform size must be >= 1, got {target}")
    sizes = _smooth_sizes((target - 1).bit_length(), (2, 3, 5) if real else (2, 3, 5, 7, 11))
    return sizes[bisect.bisect_left(sizes, target)]


@functools.lru_cache(maxsize=None)
def _smooth_sizes(bits: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted sizes up to ``2**bits`` with no prime factor outside ``primes``;
    one tuple per bit length and prime set in use."""
    top, sizes = 1 << bits, [1]
    for p in primes:
        sizes = [s * p**e for s in sizes for e in range(bits + 1) if s * p**e <= top]
    return tuple(sorted(sizes))


def band_half_width(spec: KernelSpec) -> int:
    """Largest lag ``k`` with ``exp(-k^2 / sigma^2) >= tau``."""
    if spec.tau == 1.0:
        return 0
    k = int(math.floor(spec.sigma * math.sqrt(math.log(1.0 / spec.tau))))
    # guard the float boundary: the closed form can land one off
    while math.exp(-((k + 1) ** 2) / spec.sigma**2) >= spec.tau:
        k += 1
    while k > 0 and math.exp(-(k**2) / spec.sigma**2) < spec.tau:
        k -= 1
    return k


def build_band(spec: KernelSpec, n: int) -> ToeplitzBand:
    """Banded first row of the covariance for a length-``n`` signal, its
    diagonal raised as the module docstring states."""
    if n < 1:
        raise InputError(f"signal length must be >= 1, got {n}")
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


def embed_circulant(band: ToeplitzBand, size: int | None = None) -> CirculantOperator:
    """Circulant extension whose top-left N x N block equals the Toeplitz band.

    ``size=None`` gives the minimal extension ``M = N + K``.  Any larger size
    also embeds the band exactly (extra zeros in the first row) and may be
    chosen for FFT efficiency.
    """
    k = band.half_width
    m_min = band.n + k
    m = m_min if size is None else int(size)
    if m < m_min:
        raise InputError(
            f"circulant size {m} below minimal embedding size {m_min}"
        )
    row = np.zeros(m)
    row[: k + 1] = band.first_row
    if k > 0:
        row[-k:] = band.first_row[1:][::-1]
    # even-symmetric row => real spectrum; discard round-off imaginary part
    eig = _rfft_kernel(m)(row, 1.0, out=np.empty(m // 2 + 1, dtype=complex)).real.copy()
    eig.flags.writeable = False
    return CirculantOperator(size=m, eigenvalues=eig, eig_min=float(np.min(eig)),
                             eig_max=float(np.max(eig)))


def apply_resolvent(op: CirculantOperator, alpha: float, v, out=None,
                    spec=None) -> np.ndarray:
    """Spectral solve ``(I + alpha C~)^-1 v``.

    ``out`` (real, ``op.size``) receives the result and ``spec`` (complex,
    ``op.size // 2 + 1``) the spectrum; with both given a call allocates
    nothing but the FFT's own scratch.  The operator's bound kernels give
    the bits of ``np.fft.rfft``/``irfft``.  Multiplying by the cached
    reciprocal gives the quotient's bits: numpy divides by a real ``d`` as
    ``(a + b*0) * (1/d)``, which is ``a * (1/d)`` up to a zero's sign.
    """
    recip = op.resolvent_multipliers(alpha)
    v = np.asarray(v, dtype=float)
    if spec is None:
        spec = np.empty(recip.size, dtype=complex)
    if out is None:
        out = np.empty(op.size)
    if v.shape != (op.size,) or out.shape != v.shape or spec.shape != recip.shape:
        raise InputError(
            f"vector, output and spectrum shapes {v.shape}, {out.shape}, {spec.shape} "
            f"do not match circulant size {op.size}"
        )
    op._rfft(v, 1.0, out=spec)
    spec *= recip
    return _pocketfft.irfft(spec, op._inv_size, out=out)


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


def toeplitz_from_resolvent(band: ToeplitzBand, alpha: float, u, r,
                            out=None) -> np.ndarray:
    """Banded product ``C z`` for ``z = r[:n]``, read off ``r = (I + alpha C~)^-1 u``.

    ``(I + alpha C~) r = u`` gives ``C~ r = (u - r) / alpha``.  Its first
    ``n`` rows are ``C z`` plus the band's reach into the tail ``r[n:]``,
    which only the last ``K`` rows (through ``r[n:n+K]``) and the first
    ``K`` (wrapping round to ``r[M-K:]``) have; subtracting those costs
    O(n + K^2) where the convolution costs O(nK).  The error is the
    resolvent's rounding over ``alpha``, of order ``eps * ||u|| / alpha``.
    ``out`` (length ``n``) may be any buffer that overlaps neither input.
    """
    n, k = band.n, band.half_width
    cz = np.subtract(u[:n], r[:n], out=out)
    cz /= alpha
    if k:
        taps = band.first_row[:0:-1]  # c[K], ..., c[1]
        cz[n - k:] -= np.convolve(r[n : n + k], taps)[:k]
        cz[k - 1 :: -1] -= np.convolve(r[: -k - 1 : -1], taps)[:k]
    return cz
