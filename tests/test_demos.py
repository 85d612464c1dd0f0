"""Smoke run of every demo script, so an API change cannot break one silently."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
# arguments that keep a demo short
ARGS = {"sweep_and_cutoffs.py": ["--points", "3"]}


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=src + os.pathsep + path if path else src)
    # the suite's error::RuntimeWarning filter does not reach a subprocess
    cmd = [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name),
           *ARGS.get(name, [])]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # a demo cleans up the temporary files it makes
    assert list(tmpdir.iterdir()) == []
