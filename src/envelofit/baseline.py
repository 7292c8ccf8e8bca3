"""LTI comparators: windowed-sinc FIR filters with zero-delay application.

Linear time-invariant filtering is the natural baseline for the envelope
decomposition; a lowpass estimates the smooth component directly, a bandpass
targets the transient band.  Filters are odd-length (exact linear phase), and
application compensates the integer group delay so outputs align with the
input sample-for-sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, Signal
from .kernel import next_fast_len

__all__ = [
    "FirFilter",
    "design_fir",
    "filter_zero_delay",
    "lti_smooth_estimate",
    "default_baselines",
]

#: Default comparison curves: Hamming lowpass lengths used by the benchmark.
DEFAULT_BASELINE_LENGTHS = (101, 501, 1001, 2001)
DEFAULT_LOWPASS_CUTOFF_HZ = 0.45


@dataclass(frozen=True)
class FirFilter:
    taps: np.ndarray
    kind: str  # "lowpass" | "bandpass"
    cutoffs_hz: tuple[float, ...]
    window: str  # "hamming" | "rect"
    fs_hz: float

    @property
    def length(self) -> int:
        return self.taps.size

    @property
    def group_delay(self) -> int:
        return (self.taps.size - 1) // 2

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cutoffs_hz": list(self.cutoffs_hz),
            "window": self.window,
            "length": self.length,
            "fs_hz": self.fs_hz,
        }


_WINDOWS = ("hamming", "rect")


def design_fir(kind: str, cutoffs_hz, fs_hz: float, length: int,
               window: str = "hamming") -> FirFilter:
    """Windowed-sinc design, normalized to unit gain at DC (lowpass) or at
    the passband center (bandpass)."""
    cutoffs = tuple(float(c) for c in np.atleast_1d(cutoffs_hz))
    if fs_hz <= 0:
        raise InputError(f"fs_hz must be > 0, got {fs_hz}")
    if length < 1 or length % 2 == 0:
        raise InputError(f"length must be a positive odd integer, got {length}")
    if window not in _WINDOWS:
        raise InputError(f"unknown window {window!r}")
    if kind == "lowpass":
        if len(cutoffs) != 1:
            raise InputError("lowpass takes exactly one cutoff")
    elif kind == "bandpass":
        if len(cutoffs) != 2 or not cutoffs[0] < cutoffs[1]:
            raise InputError(
                f"bandpass needs two increasing cutoffs, got {cutoffs}"
            )
    else:
        raise InputError(f"unknown filter kind {kind!r}")
    if not all(0 < c < fs_hz / 2 for c in cutoffs):
        raise InputError(
            f"cutoffs must lie in (0, fs/2) = (0, {fs_hz / 2}), got {cutoffs}"
        )
    return FirFilter(taps=_windowed_sinc(cutoffs, fs_hz, length, window),
                     kind=kind, cutoffs_hz=cutoffs, window=window, fs_hz=fs_hz)


def _windowed_sinc(cutoffs, fs_hz: float, length: int, window: str) -> np.ndarray:
    """Taps equal to ``scipy.signal.firwin`` bit for bit: one passband
    ``[left, right]`` (``left = 0`` for lowpass), scaled to unit gain at DC
    or at the band centre."""
    edges = np.asarray(cutoffs, dtype=float) / (0.5 * fs_hz)
    left, right = (0.0, edges[0]) if edges.size == 1 else edges
    m = np.arange(length, dtype=float) - 0.5 * (length - 1)
    h = right * np.sinc(right * m) - left * np.sinc(left * m)
    if window == "hamming":
        h *= 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, length))
    centre = 0.0 if left == 0 else 0.5 * (left + right)
    return h / np.sum(h * np.cos(np.pi * m * centre))


def filter_zero_delay(f: FirFilter, x: Signal) -> Signal:
    """Convolve with symmetric edge extension and undo the group delay.

    The linear convolution runs through one real FFT pair at
    ``next_fast_len``; its "valid" part equals
    ``scipy.signal.fftconvolve(padded, taps, mode="valid")`` bit for bit.
    """
    g = f.group_delay
    if len(x) <= g:
        raise InputError(
            f"signal length {len(x)} must exceed filter group delay {g}"
        )
    if g == 0:
        return x.with_samples(f.taps[0] * x.samples)
    padded = np.pad(x.samples, g, mode="symmetric")
    size = next_fast_len(padded.size + f.length - 1, real=True)
    spec = np.fft.rfft(padded, size) * np.fft.rfft(f.taps, size)
    return x.with_samples(np.fft.irfft(spec, size)[f.length - 1 : padded.size])


def lti_smooth_estimate(y: Signal, f: FirFilter) -> tuple[Signal, Signal]:
    """Smooth estimate = filter output; transient = remainder."""
    smooth = filter_zero_delay(f, y)
    transient = y.with_samples(y.samples - smooth.samples)
    return smooth, transient


def default_baselines(fs_hz: float,
                      lengths=DEFAULT_BASELINE_LENGTHS,
                      cutoff_hz: float = DEFAULT_LOWPASS_CUTOFF_HZ) -> list[FirFilter]:
    """The four Hamming lowpass comparison filters used by the benchmark."""
    return [design_fir("lowpass", (cutoff_hz,), fs_hz, n) for n in lengths]
