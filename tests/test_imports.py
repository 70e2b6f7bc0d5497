import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from conftest import DECLARED_VERSION

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules the package does without, each costly to import: ``dataclasses``
#: alone brings in ``inspect``, ``ast`` and ``dis``
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "pathlib")

#: what no library call and no plain command line imports: numpy, since the
#: package is pure Python; the heavy modules; and argparse with its gettext,
#: which only a command line that is not plain needs
COLD_UNUSED = ("numpy", *HEAVY_MODULES, "argparse", "gettext")

#: the README table as a CSV file
README_CSV = ("x,z,y,count\n0,0,0,42\n0,0,1,18\n0,1,0,25\n0,1,1,31\n"
              "1,0,0,17\n1,0,1,23\n1,1,0,12\n1,1,1,48\n")

COLD_PROGRAM = """
import io, sys
from loglin_effects import *
t = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))
effects_report(fit_causal(t))
effects_report(fit_causal(t, True))
fit = fit_poisson(t)
additive_zero_test(fit)
fit.covariance
from loglin_effects.cli import main
sys.stdout = io.StringIO()
for line in ("fit", "fit --output json", "fit --model saturated --output json",
             "effects --verify", "test", "oracle"):
    assert main([*line.split(), "--input", sys.argv[1]]) == 0, line
sys.stdout = sys.__stdout__
loaded = [m for m in {unused!r} if m in sys.modules]
assert not loaded, loaded
# help still comes from argparse, imported on first use
try:
    main(["fit", "-h"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""


def test_cold_interpreter_imports_no_unused_module(tmp_path):
    # -S: no site module, so nothing is imported before the package; numpy's
    # directory is on the path, so an import of numpy would succeed.  -W
    # error: the star import, or any call, may not warn
    path = tmp_path / "readme.csv"
    path.write_text(README_CSV)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(numpy.__file__).parent.parent)]))
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c",
         COLD_PROGRAM.format(unused=COLD_UNUSED), str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: loglin-effects fit [-h]")


KERNEL_PROGRAM = """
import io, sys
from loglin_effects.cli import main
from loglin_effects.fitting import _covariance_kernel
built = [_covariance_kernel.cache_info().currsize]
sys.stdout = io.StringIO()
for line in ("fit", "fit --output json", "fit --output json",
             "fit --model saturated --output json"):
    assert main([*line.split(), "--input", sys.argv[1]]) == 0, line
    built.append(_covariance_kernel.cache_info().currsize)
sys.stdout = sys.__stdout__
print(*built)
"""


def test_the_covariance_kernel_is_built_on_first_read(tmp_path):
    # the import builds no kernel, nor does a command that prints no
    # covariance; the first JSON fit of a model builds that model's one
    path = tmp_path / "readme.csv"
    path.write_text(README_CSV)
    proc = subprocess.run(
        [sys.executable, "-c", KERNEL_PROGRAM, str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "1", "1", "2"]


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


#: the package's private names the CLI may import: the causal builder of
#: its one fit route
CLI_PRIVATE_IMPORTS = {("causal", "_causal_params"), ("causal", "_xz_margins")}


def _private_routes(source):
    """What a module's ``source`` imports from the package beyond its public
    names and ``CLI_PRIVATE_IMPORTS``: each single-underscore name, as
    ``(module, name)`` with ``module`` relative to the package, and the
    ``fitting`` module itself, as ``("", "fitting")``."""
    imports = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                package, _, module = module.partition(".")
                if package != "loglin_effects":
                    continue
            imports += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            # ``import loglin_effects.fitting`` imports the module itself
            imports += [tuple(rest.rpartition(".")[::2])
                        for package, _, rest in (alias.name.partition(".")
                                                 for alias in node.names)
                        if package == "loglin_effects"]
    return [(m, n) for m, n in imports
            if (n.startswith("_") and not n.startswith("__")
                and (m, n) not in CLI_PRIVATE_IMPORTS)
            or (m, n) == ("", "fitting")]


def test_cli_reaches_the_fit_by_public_names_only():
    # every command fits through ``fit_poisson``: a private route into
    # ``fitting`` or ``inference`` beside it is a second fit path
    source = (SRC / "loglin_effects" / "cli.py").read_text()
    assert _private_routes(source) == []


@pytest.mark.parametrize("line", [
    "from . import __version__, fitting",
    "from loglin_effects import fitting",
    "import loglin_effects.fitting",
    "from .fitting import FitError, _fit",
    "from .inference import TestError, _additive_zero_test",
    "from loglin_effects.inference import _additive_zero_test",
    "from .causal import _causal_params, _odds",
])
def test_the_route_check_sees_each_form(line):
    assert _private_routes(line) != []


def test_oracle_imports_neither_engine_module():
    # the oracle cross-checks the engine, so it must not share its code
    imported = _imported_modules(SRC / "loglin_effects" / "oracle.py")
    assert not [m for m in imported
                if m.split(".")[-1] in ("effects", "causal")]


#: the package's public names; an API change is a deliberate edit here
PUBLIC_API = (
    "CELLS", "CausalModelError", "CausalParams", "ConditionalProbabilities",
    "ContingencyTable", "DegenerateProbabilityError", "EffectsReport",
    "FitError", "FitResult", "JointProbabilityTable", "LinearityReport",
    "ModelSpec", "NoCausalParams", "OracleError", "TableError",
    "TestError", "TestResult", "additive_zero_test", "causal_from_nocausal",
    "conditional_probabilities", "design_matrix", "effects_report",
    "fit_causal", "fit_poisson", "indirect_effect", "joint_probabilities",
    "linearity_bonds", "nocausal_from_causal", "oracle_effects",
    "parse_table", "saturated_closed_form", "saturated_spec",
    "serialize_table", "two_sided_p", "two_way_spec", "validate",
)

#: names removed in 0.2.0; README's "Changes in 0.2.0" gives each one's
#: replacement
REMOVED_NAMES = (
    "total_effect", "lde", "cell_effect", "natural_direct_effect",
    "additive_interaction", "multiplicative_interaction_or", "eta_factors",
    "NormalizationFactors", "normal_cdf",
)

#: names removed in 0.7.0, which no command, demo or test of the paper's
#: numbers used; README's "Changes in 0.7.0" lists them
REMOVED_IN_0_7_0 = ("dichotomize", "margin", "MarginalTable")


def test_public_api_is_pinned():
    import loglin_effects

    assert tuple(sorted(loglin_effects.__all__)) == PUBLIC_API
    namespace = {}
    exec("from loglin_effects import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == list(
        PUBLIC_API)


@pytest.mark.parametrize("name", REMOVED_NAMES + REMOVED_IN_0_7_0)
def test_removed_name_does_not_import(name):
    with pytest.raises(ImportError):
        exec(f"from loglin_effects import {name}", {})


def test_no_causal_params_has_no_from_additive():
    from loglin_effects import NoCausalParams

    assert not hasattr(NoCausalParams, "from_additive")


def test_one_version_everywhere(capsys):
    import loglin_effects
    from loglin_effects.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == f"{DECLARED_VERSION}\n"
    assert loglin_effects.__version__ == DECLARED_VERSION
