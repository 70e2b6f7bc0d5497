"""The covariance against references that build it entry by entry.

``reference_covariance`` computes every entry of ``FitResult.covariance``
on its own, row by row, each sum an explicit left fold, which is how
``sum`` added floats before Python 3.12, so it gives the same bits on
every supported version.  ``reference_covariance_terms`` builds the
covariance's index tables by their definition, a comprehension over every
entry of every vector.
"""

import math
import operator
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
from loglin_effects.fitting import (
    _PAIRS,
    _U,
    TERM_ORDER,
    _covariance_terms,
    _inverse_coding,
)


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


def reference_outer_terms(vectors):
    """``fitting._outer_terms`` as one comprehension over every entry of
    every vector: its definition."""
    size = len(vectors[0])
    return tuple(
        tuple(tuple(tuple(k for k, g in enumerate(vectors)
                          if g[i] * g[j] == sign) for sign in (1, -1))
              for j in range(size))
        for i in range(size)
    )


def reference_covariance_terms(with_three_way):
    """``fitting._covariance_terms`` with ``C[t][c]`` read where it is
    used: 64 reads for the saturated model and 392 for the two-way one."""
    if with_three_way:
        return reference_outer_terms(
            [[_inverse_coding(t, cell) for t in TERM_ORDER] for cell in CELLS]
        )
    return reference_outer_terms([
        [_inverse_coding(t, CELLS[c]) * _U[c]
         - _inverse_coding(t, CELLS[d]) * _U[d] for t in TERM_ORDER[:-1]]
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
