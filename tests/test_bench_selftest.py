"""The benchmark's self-tests pass, run as the benchmark runs them.

``bench/selftest.py`` checks the benchmark's table generator, its exact
reference and its tracer, and the stage contract between the benchmark and
the package: each traced span names a function the ops still call, such as
``fitting.saturated_closed_form`` under the saturated effects op.  A
function that moves or is renamed fails it here, in the tier-1 run.  It
runs under ``-B``, so it leaves no bytecode in ``src`` or ``bench``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "selftest.py")],
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
