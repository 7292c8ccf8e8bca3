"""Importing the package loads numpy and ``scipy.fft``, not the heavier
``scipy.signal``, ``scipy.stats`` or ``scipy.linalg``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import envelofit, envelofit.cli
heavy = ("scipy.signal", "scipy.stats", "scipy.linalg")
loaded = sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy)))
import numpy as np
envelofit.detect_peaks(envelofit.Signal(np.sin(np.arange(200) / 3.0), 10.0))
print(json.dumps({"at_import": loaded, "after_peaks": "scipy.signal" in sys.modules}))
"""


def test_import_loads_no_signal_stats_or_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["at_import"] == []
    # detect_peaks loads scipy.signal on first use
    assert probe["after_peaks"] is True
