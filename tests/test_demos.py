"""The Python demos run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_every_demo_is_collected():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(path, tmp_path):
    # run from an empty directory, so a demo that writes files would show it
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
    if path.name == "02_solver_anatomy.py":
        assert "converged=True" in proc.stdout
