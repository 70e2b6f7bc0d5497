"""Demos 02-04 print the same bytes as their committed outputs.

Each demo runs in a fresh interpreter with ``src`` on its path, and its
stdout must equal ``tests/data/demo_NN.txt`` byte for byte.  Demo 01 is left
out: it draws from numpy's ``default_rng``, whose stream numpy does not
promise to keep across versions.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("number", ["02", "03", "04"])
def test_demo_prints_its_committed_output(number):
    (demo,) = (ROOT / "demos").glob(f"{number}_*.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         env=env, check=True).stdout
    assert out == (ROOT / "tests" / "data" / f"demo_{number}.txt").read_bytes()
