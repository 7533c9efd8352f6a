"""The benchmark's self-test, run with the suite.

``perfbench/selftest.py`` wraps the program's public functions by name,
as a traced benchmark run does, and reads datasets and checkpoints with
the benchmark's own readers.  A renamed traced attribute or changed
on-disk bytes fail here, before any benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("self-test passed")
