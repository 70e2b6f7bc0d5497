"""The covariance and the deviance against references.

``reference_covariance`` computes every entry of ``FitResult.covariance``
on its own, row by row, each sum an explicit left fold, which is how
``sum`` added floats before Python 3.12, so it gives the same bits on
every supported version.  ``reference_covariance_terms`` builds the
covariance's index tables by their definition, a comprehension over every
entry of every vector, from this file's own inverse coding ``C[t][c]`` and
``u(c)``, which name variables and not bit masks.  ``reference_deviance``
is the loop that ``fit_poisson`` ran on every fit before the deviance
became a ``FitResult`` property, kept verbatim.
"""

import math
import operator
import sys
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CELLS,
    ContingencyTable,
    FitError,
    ModelSpec,
    fit_poisson,
)
from loglin_effects.fitting import _PAIRS, TERM_ORDER, _covariance_terms
from conftest import DEVIANCE_OVERFLOW

_TINY = sys.float_info.min


def _fold(values):
    return reduce(operator.add, values, 0.0)


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _outcome(compute):
    """``("ok", value)`` of ``compute()``, or its error's type and message."""
    try:
        return "ok", compute()
    except Exception as exc:  # noqa: BLE001 - every error must agree
        return type(exc).__name__, str(exc)


def _counts(exponents):
    return st.floats(*exponents).map(lambda e: 10.0 ** e)


def _tables(cell):
    return st.lists(cell, min_size=8, max_size=8)


def reference_covariance(fit):
    """``FitResult.covariance`` as computed before the upper triangle was
    mirrored: every entry summed on its own, row by row."""
    m = fit.fitted_counts
    if fit.spec.with_three_way:
        weights = [1.0 / c for c in m]
        terms = _covariance_terms(True)
    else:
        least = min(m)
        ratios = [least / c for c in m]
        s = _fold(ratios)
        weights = [ratios[c] / (m[d] * s) if m[c] <= m[d]
                   else ratios[d] / (m[c] * s) for c, d in _PAIRS]
        terms = _covariance_terms(False)
    cov = [[_fold(weights[k] for k in plus) - _fold(weights[k] for k in minus)
            for plus, minus in row] for row in terms]
    if not all(math.isfinite(v) for row in cov for v in row):
        raise FitError("the covariance leaves the float range")
    return cov


def reference_deviance(n, m):
    """The deviance of the counts ``n`` against the fitted counts ``m`` as
    ``fit_poisson`` computed it on every fit, before it was a property."""
    # each term is c log(c / f) - (c - f), with log(c / f) taken as
    # log c - log f when c / f leaves the normal float range; a zero count
    # adds f.  The saturated fit reproduces n, so every term is 0.0
    log, tiny, inf = math.log, _TINY, math.inf
    total = 0.0
    for c, f in zip(n, m):
        if c > 0:
            r = c / f
            total += c * (log(r) if tiny <= r < inf
                          else log(c) - log(f)) - (c - f)
        else:
            total += f
    return 2.0 * total


def reference_coding(term, cell):
    """``C[term][cell]`` of the inverse of the saturated dummy coding, so
    that lambda_term = sum over cells of C[term][cell] log m(cell): the
    sign (-1)^(|term| - |cell|) when every variable at level 1 in ``cell``
    is one of ``term``'s, and 0 otherwise."""
    variables = set() if term == "eta" else set(term)
    ones = {v for v, level in zip("XZY", cell) if level}
    if not ones <= variables:
        return 0
    return (-1) ** (len(variables) - len(ones))


#: u(x,z,y) = (-1)^(x+z+y), the one direction the two-way model leaves out
U = tuple((-1) ** sum(cell) for cell in CELLS)


def reference_outer_terms(vectors):
    """Entry (i, j) of ``sum_k v_k g_k g_k'`` over ``vectors`` g_k with
    entries 0, 1 and -1, as the indices k where g_ki g_kj is 1 and those
    where it is -1: one comprehension over every entry of every vector."""
    size = len(vectors[0])
    return tuple(
        tuple(tuple(tuple(k for k, g in enumerate(vectors)
                          if g[i] * g[j] == sign) for sign in (1, -1))
              for j in range(size))
        for i in range(size)
    )


def reference_covariance_terms(with_three_way):
    """``fitting._covariance_terms`` by its definition: the saturated
    covariance ``C diag(1/m) C'`` has the vectors g_c, column c of C; the
    two-way one has, for each cell pair c < d, g = p(c) - p(d) over the
    seven two-way terms, p_t(c) = C[t][c] u(c)."""
    if with_three_way:
        return reference_outer_terms(
            [[reference_coding(t, cell) for t in TERM_ORDER] for cell in CELLS]
        )
    return reference_outer_terms([
        [reference_coding(t, CELLS[c]) * U[c]
         - reference_coding(t, CELLS[d]) * U[d] for t in TERM_ORDER[:-1]]
        for c, d in _PAIRS
    ])


class TestCovarianceAgainstReference:
    @pytest.mark.parametrize("saturated", [False, True])
    def test_terms_match_the_comprehension(self, saturated):
        assert _covariance_terms(saturated) == reference_covariance_terms(
            saturated)

    @settings(max_examples=300, deadline=None)
    @given(_tables(st.one_of(_counts((-300, 300)), _counts((-5, 5)))),
           st.booleans())
    @example([42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0], False)
    @example([42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0], True)
    def test_covariance_matches(self, counts, saturated):
        assume(0.0 < sum(counts) < math.inf)
        try:
            fit = fit_poisson(ContingencyTable(counts), ModelSpec(saturated))
        except FitError:
            return
        assert (_outcome(lambda: [_bits(row) for row in fit.covariance])
                == _outcome(lambda: [_bits(row)
                                     for row in reference_covariance(fit)]))


class TestDevianceAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_tables(st.integers(0, 40).map(float)),
                     _tables(_counts((-30, 30))),
                     _tables(_counts((-300, 300)))),
           st.booleans())
    @example(list(DEVIANCE_OVERFLOW), False)
    # n(0,0,0) / m(0,0,0) underflows to 0: log c - log f
    @example([1e-300] + [1e30] * 7, False)
    @example([42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0], True)
    def test_deviance_matches(self, counts, saturated):
        assume(0.0 < sum(counts) < math.inf)
        table = ContingencyTable(counts)
        try:
            fit = fit_poisson(table, ModelSpec(saturated))
        except FitError:
            return
        assert _bits([fit.deviance]) == _bits(
            [reference_deviance(table.counts, fit.fitted_counts)])

    def test_the_underflow_example_takes_log_c_minus_log_f(self):
        counts = (1e-300,) + (1e30,) * 7
        fit = fit_poisson(ContingencyTable(counts))
        assert counts[0] / fit.fitted_counts[0] == 0.0
        assert math.isfinite(fit.deviance)
