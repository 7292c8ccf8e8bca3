"""Importing the package loads numpy and no scipy module at all, nor
``concurrent.futures``; the first solve loads scipy's pocketfft binding and
``detect_peaks`` loads ``scipy.signal`` on its first call.  Private modules
of numpy and scipy are named only where listed."""

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


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert probe["at_import"] == []
    assert probe["futures"] is False
    # a solve loads scipy's FFT binding, and only detect_peaks scipy.signal
    assert probe["after_solve"] == {"scipy.fft._pocketfft.pypocketfft": True,
                                    "scipy.signal": False}
    assert probe["after_peaks"] is True


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
