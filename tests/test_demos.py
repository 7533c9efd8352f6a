"""Every narrative script in ``demos/`` runs to completion.

Each demo runs as its own process in a fresh working directory, with its
temporary files kept under that directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, REPO / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    paths = [str(REPO / "src")] + [os.path.abspath(p) for p in
                                   os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
