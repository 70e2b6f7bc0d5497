"""Every demo runs clean and prints its committed output.

Each demo runs in a fresh interpreter under ``-W error``, with ``src`` on its
path: it must exit 0 with nothing on stderr, and its stdout must equal
``tests/data/demo_NN.txt`` byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("number", ["01", "02", "03", "04"])
def test_demo_prints_its_committed_output(number):
    (demo,) = (ROOT / "demos").glob(f"{number}_*.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (
        ROOT / "tests" / "data" / f"demo_{number}.txt").read_bytes()
