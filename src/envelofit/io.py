"""CSV / JSON interchange used by the command-line tools.

Signal files are two-column CSV, header ``t,value``, time in seconds.
Floats are written with ``repr``-level precision so rewriting a file from
the same data is byte-identical.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .core import InputError, Signal

__all__ = ["read_signal_csv", "write_signal_csv", "write_json", "read_json"]

#: Maximum relative jitter tolerated in the time column.
UNIFORMITY_TOL = 1e-6


def write_signal_csv(path, sig: Signal) -> None:
    t = sig.times
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "value"])
        for ti, vi in zip(t, sig.samples):
            w.writerow([repr(float(ti)), repr(float(vi))])


def read_signal_csv(path, fs_override: float | None = None) -> Signal:
    """Parse a ``t,value`` CSV; sample rate is the median time step unless
    overridden.  Non-uniform time beyond a small relative jitter is an error.
    """
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
    except (ValueError, OSError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc
    if data.ndim == 1:
        data = data.reshape(1, -1)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 1:
        raise InputError(f"{path}: expected two columns 't,value'")
    if np.any(np.isnan(data)):
        raise InputError(f"{path}: non-numeric or missing entries")
    t, v = data[:, 0], data[:, 1]
    if fs_override is not None:
        fs = fs_override
    elif t.size >= 2:
        dt = np.diff(t)
        med = float(np.median(dt))
        if med <= 0:
            raise InputError(f"{path}: time column must be increasing")
        if np.max(np.abs(dt - med)) > UNIFORMITY_TOL * max(abs(med), 1e-300):
            raise InputError(
                f"{path}: non-uniform sampling (jitter beyond {UNIFORMITY_TOL:g} relative)"
            )
        fs = 1.0 / med
    else:
        fs = 1.0
    return Signal(v, sample_rate_hz=fs, t0=float(t[0]))


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc
