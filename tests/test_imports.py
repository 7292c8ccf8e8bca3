"""Importing the package loads numpy and no scipy module at all, nor
``concurrent.futures``; ``detect_peaks`` loads ``scipy.signal`` on its first
call."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import envelofit, envelofit.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
futures = "concurrent.futures" in sys.modules
import numpy as np
envelofit.detect_peaks(envelofit.Signal(np.sin(np.arange(200) / 3.0), 10.0))
print(json.dumps({"at_import": loaded, "futures": futures,
                  "after_peaks": "scipy.signal" in sys.modules}))
"""


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["at_import"] == []
    assert probe["futures"] is False
    # detect_peaks loads scipy.signal on first use
    assert probe["after_peaks"] is True
