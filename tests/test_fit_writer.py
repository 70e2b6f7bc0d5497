"""``fit --output json`` prints the document that ``FitResult._json`` and
``CausalParams._json`` write in one pass.  It must be, byte for byte, what
the CLI's encoder ``cli._JSON`` makes of the records' ``to_dict()``; where
``to_dict()`` raises, the command exits with the code and prints the
stderr that the same error gives, so the writers check in the same order,
with the same messages."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DEVIANCE_OVERFLOW, FAR_SATURATED, FAR_TWO_WAY
from loglin_effects import (
    CausalModelError,
    ContingencyTable,
    FitError,
    FitResult,
    fit_poisson,
    saturated_spec,
    two_way_spec,
)
from loglin_effects import cli, fitting
from loglin_effects.cli import _JSON, main

README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)

CELLS = tuple((x, z, y) for x in (0, 1) for z in (0, 1) for y in (0, 1))


def _logs(bound):
    return st.floats(-bound, bound).map(lambda e: 10.0 ** e)


def _tables(cell):
    return st.lists(cell, min_size=8, max_size=8)


#: ``test_exact``'s strata: integers log-uniform on 1..1e12, integers
#: 0..40 with zeros, 10^U(+-30) and 10^U(+-300)
TABLES = st.one_of(
    _tables(st.floats(0.0, 12.0).map(lambda e: max(1, round(10.0 ** e)))),
    _tables(st.integers(0, 40)),
    _tables(_logs(30)),
    _tables(_logs(300)),
)


def _reference(counts, model) -> tuple:
    """The exit code, stdout and stderr of ``fit --output json`` on
    ``counts`` as ``_JSON`` encodes the ``to_dict()`` documents, with the
    exit code and message of ``cli.main`` where that raises."""
    try:
        fit, cp = cli._fit(ContingencyTable(counts), model)
        doc = {"model": model, "loglinear": fit.to_dict(),
               "causal": cp.to_dict()}
    except FitError as exc:
        return cli.EXIT_FIT, "", f"fit error: {exc}\n"
    except CausalModelError as exc:
        return cli.EXIT_FIT, "", f"error: {exc}\n"
    except ValueError as exc:  # the table's own error, a total that overflows
        return cli.EXIT_INPUT, "", f"error: {exc}\n"
    return cli.EXIT_OK, _JSON.encode(doc) + "\n", ""


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "table.json"


@settings(max_examples=200, deadline=None)
@given(TABLES, st.sampled_from(("two-way", "saturated")))
@example(list(README_COUNTS), "two-way")
@example(list(README_COUNTS), "saturated")
@example([0, 5, 3, 0, 2, 7, 0, 1], "two-way")  # zeros of one parity
@example([0, 5, 3, 0, 2, 7, 0, 1], "saturated")  # no saturated MLE
@example(list(FAR_SATURATED), "saturated")  # mu^XZ overflows: params raises
@example([1e-308] * 8, "saturated")  # the covariance leaves the float range
@example(list(FAR_TWO_WAY), "two-way")  # mu^X overflows
@example(list(DEVIANCE_OVERFLOW), "two-way")  # the deviance overflows
def test_fit_json_prints_the_to_dict_documents(table_file, counts, model):
    # JSON input: ``json`` reads back each int and each float's repr exactly
    table_file.write_text(_JSON.encode({"cells": [
        {"x": x, "z": z, "y": y, "count": c}
        for (x, z, y), c in zip(CELLS, counts)]}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["fit", "--input", str(table_file), "--output", "json",
                     "--model", model, "--zero-cells", "allow"])
    assert (code, out.getvalue(), err.getvalue()) == _reference(counts, model)


def _by_hand(m, spec=two_way_spec()) -> FitResult:
    """A fit of the README table whose fitted counts are ``m``."""
    fit = fit_poisson(ContingencyTable(README_COUNTS), spec)
    return FitResult(tuple(m), fit.y_block, fit.counts, fit.iterations, spec)


@pytest.mark.parametrize("fit", [
    pytest.param(_by_hand([math.nan] + [1.0] * 7), id="nan-fitted-count"),
    pytest.param(_by_hand([-1.0] + [1.0] * 7), id="negative-fitted-count"),
    pytest.param(_by_hand([math.inf] + [1.0] * 7), id="infinite-fitted-count"),
    pytest.param(_by_hand([1e-308] * 8, saturated_spec()),
                 id="covariance-overflows"),
    pytest.param(fit_poisson(ContingencyTable(DEVIANCE_OVERFLOW)),
                 id="deviance-overflows"),
    pytest.param(fit_poisson(ContingencyTable(FAR_TWO_WAY)),
                 id="params-overflow"),
])
def test_the_writer_raises_what_to_dict_raises(fit):
    with pytest.raises(FitError) as want:
        fit.to_dict()
    with pytest.raises(FitError, match=f"^{want.value}$"):
        fit._json()


@pytest.mark.parametrize("spec", [two_way_spec(), saturated_spec()],
                         ids=["two-way", "saturated"])
def test_each_covariance_entry_is_formatted_once(spec, monkeypatch):
    fit = fit_poisson(ContingencyTable(README_COUNTS), spec)
    formatted = []

    def counting(value):
        formatted.append(value)
        return repr(value)

    # a module global shadows the builtin for the writer alone
    monkeypatch.setattr(fitting, "repr", counting, raising=False)
    assert fit._json() == _JSON.encode(fit.to_dict())
    size = len(spec.ordered_terms)
    upper = [row[j] for i, row in enumerate(fit.covariance)
             for j in range(i, size)]
    assert formatted == upper
