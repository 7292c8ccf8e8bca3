"""O(n log n) synthetic trials at any length, for the long-signal workload.

``envelofit.synth.generate_trial`` draws its three Gaussian processes by
dense Cholesky, which is capped at ``DENSE_GP_LIMIT`` samples.  This module
draws the same processes (the ``TrialSpec`` defaults) by Gaussian-filtering
white noise: filtering with a Gaussian of standard deviation ``s`` gives the
autocovariance ``exp(-dt^2 / (4 s^2))``, so ``s = sqrt(c1) / 2`` seconds
reproduces ``exp(-dt^2 / c1)``.  Each draw is scaled to variance ``c0`` and
gets ``c2`` white jitter, then ``synth.make_smooth`` and
``synth.nonlinearity_q`` build the ground truth exactly as the dense
generator does.  The draws are not the dense generator's draws for the same
seed; they share its covariance.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from envelofit import synth
from envelofit.core import Signal

#: Zero padding around the circular filter, in filter standard deviations.
#: The wrapped-around correlation is at most exp(-PAD_SDS^2 / 4).
PAD_SDS = 10.0


def gaussian_filter_taps(c1: float, fs: float, size: int) -> np.ndarray:
    """Circular Gaussian taps of std ``sqrt(c1)/2`` seconds, unit energy.

    Unit energy makes the filtered unit white noise have unit variance.
    """
    sd = 0.5 * math.sqrt(c1) * fs
    lag = np.arange(size, dtype=float)
    lag = np.minimum(lag, size - lag)
    taps = np.exp(-0.5 * (lag / sd) ** 2)
    return taps / math.sqrt(float(np.sum(taps * taps)))


def filtered_gp(p: synth.GpParams, n: int, fs: float,
                rng: np.random.Generator) -> np.ndarray:
    """One draw of ``c0 * exp(-dt^2 / c1) + c2 * I`` on ``t_i = i / fs``."""
    sd = 0.5 * math.sqrt(p.c1) * fs
    size = scipy.fft.next_fast_len(n + int(math.ceil(PAD_SDS * sd)), real=True)
    taps_hat = scipy.fft.rfft(gaussian_filter_taps(p.c1, fs, size))
    noise = rng.standard_normal(size)
    draw = scipy.fft.irfft(scipy.fft.rfft(noise) * taps_hat, n=size)[:n]
    return math.sqrt(p.c0) * draw + math.sqrt(p.c2) * rng.standard_normal(n)


def long_trial(seed: int, n: int) -> synth.Trial:
    """Ground-truth trial of length ``n`` with the ``TrialSpec`` defaults.

    Draw order is warp, magnitude, transient, as in ``generate_trial``.
    """
    spec = synth.TrialSpec(seed=seed)
    fs = spec.fs_hz
    rng = np.random.default_rng(seed)
    s = filtered_gp(spec.warp, n, fs, rng)
    m = filtered_gp(spec.mag, n, fs, rng)
    f = filtered_gp(spec.transient, n, fs, rng)
    smooth = synth.make_smooth(s, m, fs)
    transient = synth.nonlinearity_q(f)
    return synth.Trial(
        smooth=Signal(smooth, fs),
        transient=Signal(transient, fs),
        observation=Signal(smooth + transient, fs),
    )
