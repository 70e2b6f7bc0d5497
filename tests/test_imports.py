import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import sys
from loglin_effects import (
    ContingencyTable, additive_zero_test, effects_report, fit_causal,
    fit_poisson,
)
t = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))
effects_report(fit_causal(t))
effects_report(fit_causal(t, True))
fit = fit_poisson(t)
additive_zero_test(fit)
print("numpy" in sys.modules)
fit.covariance
print("numpy" in sys.modules)
"""


def test_numpy_imported_only_for_the_covariance():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout.split()
    assert out == ["False", "True"]
