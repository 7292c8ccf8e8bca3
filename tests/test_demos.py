"""The demos run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "07"]


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
        assert "alpha=" in proc.stdout and "kappa=" in proc.stdout
    if path.name == "03_fft_scaling.py":
        # each length's circulant size M beside its time: the 5-smooth sizes
        lines = proc.stdout.splitlines()
        assert lines[0].split() == ["n", "M", "us/iter", "ratio"]
        assert [int(line.split()[1]) for line in lines[1:6]] == [4320, 8640, 16875, 33750, 65610]
    if path.name == "07_short_transient_regime.py":
        assert proc.stdout.count("/10") == 2  # one row per regime


def test_cli_walkthrough_exits_zero(tmp_path):
    """The shell demo runs the ``envelofit`` command, here a shim that runs
    the package in ``src``; its ``mktemp`` output directory lands in
    ``tmp_path``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "envelofit"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m envelofit.cli "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path),
           "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    proc = subprocess.run(["sh", str(ROOT / "demos" / "06_cli_walkthrough.sh")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    written = {p.relative_to(tmp_path).parts[1:] for p in tmp_path.rglob("*")
               if p.is_file() and p.parts[-2] != "bin"}
    assert {("data", "observation.csv"), ("dec", "observation_smooth.csv"),
            ("peaks", "peaks.csv"), ("bench", "mse.csv")} <= written
