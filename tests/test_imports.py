import ast
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


def test_numpy_never_imported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout.split()
    assert out == ["False", "False"]


#: modules the package does without, each costly to import: ``dataclasses``
#: alone brings in ``inspect``, ``ast`` and ``dis``
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "pathlib")

COLD_PROGRAM = """
import sys
from loglin_effects.cli import main
path = sys.argv[1]
assert main(["effects", "--verify", "--input", path]) == 0
assert main(["fit", "--output", "json", "--input", path]) == 0
print("loaded:", *[m for m in {heavy!r} if m in sys.modules], file=sys.stderr)
"""


def test_cold_cli_imports_no_heavy_module(tmp_path):
    # -S: no site module, so nothing is imported before the package
    path = tmp_path / "readme.csv"
    path.write_text("x,z,y,count\n0,0,0,42\n0,0,1,18\n0,1,0,25\n0,1,1,31\n"
                    "1,0,0,17\n1,0,1,23\n1,1,0,12\n1,1,1,48\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_PROGRAM.format(heavy=HEAVY_MODULES),
         str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"converged":true' in proc.stdout
    assert proc.stderr.splitlines()[-1] == "loaded:"


def test_no_module_imports_a_heavy_module():
    for path in sorted((SRC / "loglin_effects").glob("*.py")):
        assert not [m for m in _imported_modules(path)
                    if m.split(".")[0] in HEAVY_MODULES], path.name


def _imported_modules(path):
    tree = ast.parse(path.read_text())
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
    return [m for m in imported if m]


def test_no_module_imports_numpy():
    # the package is pure Python: its covariance is a closed form
    for path in sorted((SRC / "loglin_effects").glob("*.py")):
        assert not [m for m in _imported_modules(path)
                    if m.split(".")[0] == "numpy"], path.name


def test_oracle_imports_neither_engine_module():
    # the oracle cross-checks the engine, so it must not share its code
    imported = _imported_modules(SRC / "loglin_effects" / "oracle.py")
    assert not [m for m in imported
                if m.split(".")[-1] in ("effects", "causal")]
