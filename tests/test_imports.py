"""Importing the package loads numpy and no scipy module at all, nor
``concurrent.futures``; ``detect_peaks`` loads ``scipy.signal`` on its first
call.  Numpy's private modules are named only where listed."""

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


NUMPY_PRIVATE = ("_pocketfft", "_umath_linalg")


def numpy_private_uses():
    """(module, qualified function) of each identifier in ``src/envelofit``
    that names a private numpy module; ``<module>`` for its import."""
    uses = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        names = [getattr(node, a, None) for a in ("id", "attr", "module", "name", "asname")]
        if any(isinstance(n, str) and any(p in n for p in NUMPY_PRIVATE) for n in names):
            uses.add((module, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted((SRC / "envelofit").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return uses


def test_numpy_private_modules_used_only_where_listed():
    """The pocketfft kernels serve the resolvent's FFT pair, and
    ``_umath_linalg`` the Anderson solve and the GP factor: each skips a
    public wrapper's per-call dispatch.  A new use, or a numpy upgrade that
    moves one of these, should be reviewed against this list."""
    assert numpy_private_uses() == {
        ("kernel", "<module>"), ("kernel", "apply_resolvent"),
        ("solver", "<module>"), ("solver", "solve_constrained_filter"),
        ("synth", "<module>"), ("synth", "_gp_factor"),
    }
