"""JSON and text output: golden CLI bytes and the ``to_dict`` contract.

``data/cli_golden_readme.json`` holds the exit code, stdout and stderr of
12 CLI calls on the README table (``fit`` on both models, ``effects
--verify`` on both models, ``test`` and ``oracle``, each as text and as
JSON), recorded before the commands built their JSON documents from
``to_dict`` instead of reparsing ``to_json``.  The covariance values of the
two ``fit`` JSON cases were re-recorded when the covariance became a closed
form; the ``test`` JSON case was re-recorded when its ``linearity`` object
lost its copy of the z-test and bond 1 became ``beta_hat``'s expression.
The two-way ``fit`` cases and the ``test`` JSON case were re-recorded when
the two-way solve began to start Newton's method at the cubic's estimate:
``iterations`` went from 4 to 1, and the last bits of the fitted counts
and what follows from them moved, the z-test's SE and z nearer their
60-digit values (``test_fitting.py`` holds them within 2 ulps of those).
The four ``effects --verify`` cases' discrepancy, in stdout and stderr,
was re-recorded when ``--verify`` began to run the oracle on the solve's
fitted counts instead of the causal parameters' joint table.  The two-way
``fit`` JSON case and the two two-way ``effects --verify`` cases were
re-recorded when the solve began to take one log per step: m(1,1,0) moved
one ulp, to the correctly rounded MLE, with the covariance and deviance
read from it, and the discrepancy with it.
Every byte is compared.
"""

import json
from pathlib import Path

import pytest

from loglin_effects import (
    ContingencyTable,
    additive_zero_test,
    effects_report,
    fit_causal,
    fit_poisson,
    linearity_bonds,
    oracle_effects,
    serialize_table,
    two_way_spec,
)
from loglin_effects.cli import main
from loglin_effects.tables import joint_probabilities

README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "cli_golden_readme.json").read_text()
)


@pytest.fixture(scope="module")
def readme_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "readme.csv"
    path.write_text(serialize_table(ContingencyTable(README_COUNTS), "csv"))
    return str(path)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_cli_output_matches_golden(case, readme_csv, capsys):
    code = main([*case["argv"], "--input", readme_csv])
    out, err = capsys.readouterr()
    assert code == case["code"]
    assert err == case["stderr"]
    assert out == case["stdout"]


def _results():
    table = ContingencyTable(README_COUNTS)
    fit = fit_poisson(table, two_way_spec())
    cp = fit_causal(table)
    return {
        "FitResult": fit,
        "CausalParams": cp,
        "EffectsReport": effects_report(cp),
        "EffectsReport (oracle)": oracle_effects(joint_probabilities(table)),
        "TestResult": additive_zero_test(fit),
        "LinearityReport": linearity_bonds(cp),
    }


@pytest.mark.parametrize("name", list(_results()))
def test_to_json_is_to_dict_dumped(name):
    result = _results()[name]
    assert result.to_json() == json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name", list(_results()))
def test_to_dict_is_fresh_plain_data(name):
    # the CLI adds keys to the dict it gets; a dict must not be shared
    result = _results()[name]
    doc = result.to_dict()
    assert doc is not result.to_dict()
    assert json.loads(json.dumps(doc)) == doc
