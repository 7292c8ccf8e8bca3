"""Importing the package loads numpy and no scipy module at all, nor
``concurrent.futures``; the first solve loads scipy's pocketfft binding, a
first FIR filtering ``scipy.fft`` for its size rule, and ``detect_peaks``
loads ``scipy.signal`` on its first call.  Private modules of numpy and
scipy are named only where listed."""

import ast
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
y = envelofit.Signal(np.sin(np.arange(200) / 3.0), 10.0)
envelofit.decompose_basic(y, envelofit.PipelineParams())
after_solve = {m: m in sys.modules for m in ("scipy.fft._pocketfft.pypocketfft", "scipy.signal")}
envelofit.detect_peaks(y)
print(json.dumps({"at_import": loaded, "futures": futures, "after_solve": after_solve,
                  "after_peaks": "scipy.signal" in sys.modules}))
"""

FILTER_PROBE = """
import json, sys
import numpy as np
import envelofit
fir = envelofit.design_fir("lowpass", (0.45,), 10.0, 101)
envelofit.filter_zero_delay(fir, envelofit.Signal(np.sin(np.arange(500) / 3.0), 10.0))
print(json.dumps({m: m in sys.modules for m in ("scipy.fft", "scipy.signal")}))
"""


def run_probe(code: str) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    probe = run_probe(PROBE)
    assert probe["at_import"] == []
    assert probe["futures"] is False
    # a solve loads scipy's FFT binding, and only detect_peaks scipy.signal
    assert probe["after_solve"] == {"scipy.fft._pocketfft.pypocketfft": True,
                                    "scipy.signal": False}
    assert probe["after_peaks"] is True


def test_lone_filter_loads_scipy_fft_only():
    # the FIR takes its size from scipy.fft.next_fast_len; numpy runs its transforms
    assert run_probe(FILTER_PROBE) == {"scipy.fft": True, "scipy.signal": False}


def private_uses():
    """Package -> {(private module, module, qualified function)} for each
    import from numpy or scipy whose path has a private component, and each
    use of the name it binds, in ``src/envelofit``; ``<module>`` marks the
    top level."""
    uses = {}

    def visit(node, module, scope, bound):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                path = f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) \
                    else alias.name
                parts = path.split(".")
                if parts[0] in ("numpy", "scipy") and any(c.startswith("_") for c in parts):
                    bound[alias.asname or parts[-1]] = path
                    uses.setdefault(parts[0], set()).add((path, module, scope or "<module>"))
        if isinstance(node, ast.Name) and node.id in bound:
            path = bound[node.id]
            uses[path.split(".")[0]].add((path, module, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, bound)

    for path in sorted((SRC / "envelofit").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", {})
    return uses


def test_private_modules_used_only_where_listed():
    """Each private module skips a public wrapper's per-call cost: numpy's
    LAPACK gufuncs serve the Anderson solve and the GP factor, and scipy's
    pocketfft binding, which caches its plans, the resolvent's FFT pair,
    bound by ``load_fft`` on first use so that importing the package loads
    no scipy.
    Only scipy 1.17.1 was verified against this list, though the
    requirement stays ``scipy>=1.10``; a new use, or an upgrade that moves
    one of these, should be reviewed against it."""
    linalg, pocketfft = "numpy.linalg._umath_linalg", "scipy.fft._pocketfft.pypocketfft"
    assert private_uses() == {
        "numpy": {(linalg, "solver", "<module>"), (linalg, "solver", "_iterate"),
                  (linalg, "synth", "<module>"), (linalg, "synth", "_gp_factor")},
        "scipy": {(pocketfft, "kernel", "load_fft")},
    }
