"""The two-way fit against a reference copy of its earlier list-based form.

``reference_fit`` transcribes the two-way ``fit_poisson`` as it stood before
the Newton loop was unrolled and ``fit_causal`` stopped building a
``FitResult``: the existence check, the scaled solve with its lists of
rising and falling counts, the Y-block and underflow checks, the deviance
and the cell-ratio parameters, in that order.  Its solve is the library's
one Newton loop: it starts at the estimate from three Newton steps on the
cubic, and a step starts at the midpoint instead when that estimate is
unusable or the last step left the near half of the interval.
``reference_covariance`` computes every entry of the covariance on its
own.  Its sums are explicit left folds, which is how ``sum`` added floats
before Python 3.12, so the reference gives the same bits on every
supported version.  ``fit_poisson``
must agree with it bit for bit, or raise the same error with the same
message; so must the two-way ``fit_causal`` with the causal parameters of the
reference Y-block, since it does not check the fit's other parameters.
``reference_z_test`` and ``reference_bonds`` copy the z-test and the
linearity bonds as they stood before their sums were written out, with a
generator per group of cells and a fold of logs, bond 1 in ``beta_hat``'s
order; ``additive_zero_test`` and ``linearity_bonds`` must agree with them
bit for bit on the reference fit.  Bond 1 and ``beta_hat`` are one
expression, so wherever both succeed they are the same bits.
"""

import math
import operator
import sys
from functools import reduce

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CELLS,
    CausalModelError,
    ContingencyTable,
    FitError,
    ModelSpec,
    NoCausalParams,
    TestError,
    additive_zero_test,
    fit_causal,
    fit_poisson,
    linearity_bonds,
)
from loglin_effects.causal import _causal_params, _xz_margins
from loglin_effects.fitting import _FIELDS, _PAIRS, _covariance_terms

_EVEN = (0, 3, 5, 6)
_ODD = (1, 2, 4, 7)


def _fold(values):
    return reduce(operator.add, values, 0.0)


def _reference_estimate(n):
    """``t`` after three Newton steps from 0 on the cubic
    ``prod_even (n + t) - prod_odd (n - t)``, or nan on a zero divisor."""
    t = 0.0
    try:
        for _ in range(3):
            rising = [n[i] + t for i in _EVEN]
            falling = [n[i] - t for i in _ODD]
            up = reduce(operator.mul, rising)
            down = reduce(operator.mul, falling)
            t -= (up - down) / (up * _fold([1.0 / c for c in rising])
                                + down * _fold([1.0 / c for c in falling]))
    except ZeroDivisionError:
        return math.nan
    return t


def _reference_solve(n):
    """The fitted counts and the steps of Newton's method in log s from the
    estimate, where a step whose s is outside ``[tiny, mid]`` starts at the
    midpoint, on the side the sign of the equation there picks."""
    tiny = sys.float_info.min
    lo, hi = min(n[i] for i in _EVEN), min(n[i] for i in _ODD)
    mid = (lo + hi) / 2.0
    if not mid >= tiny:
        raise FitError("a fitted count underflows")
    t = _reference_estimate(n)
    even_rises = t + lo <= mid
    s = t + lo if even_rises else hi - t
    for iterations in range(1, 101):
        if not tiny <= s <= mid:
            s = mid
            even_rises = (_fold(math.log(n[i] - lo + s) for i in _EVEN)
                          >= _fold(math.log(n[i] - hi + s) for i in _ODD))
        rise, fall, end = (_EVEN, _ODD, lo) if even_rises else (_ODD, _EVEN, hi)
        up, down = [n[i] - end for i in rise], [n[i] + end for i in fall]
        rising, falling = [a + s for a in up], [b - s for b in down]
        g = _fold(map(math.log, rising)) - _fold(map(math.log, falling))
        dv = g / (s * _fold([1.0 / c for c in rising + falling]))
        try:
            s *= math.exp(-dv)
        except OverflowError:
            s = math.inf
        if not s >= tiny:
            raise FitError("a fitted count underflows")
        if abs(dv) <= 1e-8:
            m = dict(zip(rise + fall,
                         [a + s for a in up] + [b - s for b in down]))
            return [m[i] for i in range(8)], iterations
    raise FitError("the two-way fit did not converge in 100 steps")


def _reference_log_ratio(c, f):
    r = c / f
    if sys.float_info.min <= r < math.inf:
        return math.log(r)
    return math.log(c) - math.log(f)


def reference_mle(n):
    """(fitted counts, Y-block, iterations) of the two-way MLE of counts
    ``n``, or the ``FitError`` of the earlier fit."""
    zeros = [cell for cell, c in zip(CELLS, n) if c == 0]
    if len({sum(cell) % 2 for cell in zeros}) == 2:
        raise FitError(
            f"the two-way MLE does not exist: the zero counts at cells "
            f"{zeros} make a zero margin n(x,z,+) or separate Y=1 from Y=0"
        )
    top = math.frexp(max(n))[1]
    bottom = math.frexp(min(c for c in n if c > 0))[1]
    k = min(-((top + bottom) // 2), max(0, 1020 - top))
    sc, iterations = _reference_solve([math.ldexp(c, k) for c in n])
    y_block = (sc[1] / sc[0], (sc[5] / sc[4]) * (sc[0] / sc[1]),
               (sc[3] / sc[2]) * (sc[0] / sc[1]))
    if not all(0.0 < r < math.inf for r in y_block):
        raise FitError("a loglinear Y-block parameter overflows or underflows")
    m = [math.ldexp(c, -k) for c in sc]
    if min(m) < sys.float_info.min:
        raise FitError("a fitted count underflows")
    return m, y_block, iterations


def reference_fit(n):
    """(fitted counts, parameters, deviance, iterations) of the two-way MLE
    of counts ``n``, or the ``FitError`` of the earlier fit."""
    m, (y, xy, zy), iterations = reference_mle(n)
    deviance = 2.0 * _fold(
        c * _reference_log_ratio(c, f) - (c - f) if c > 0 else f
        for c, f in zip(n, m)
    )
    try:
        params = NoCausalParams(
            eta=m[0], x=m[4] / m[0], z=m[2] / m[0], y=y,
            xz=(m[6] / m[4]) * (m[0] / m[2]), xy=xy, zy=zy,
        )
    except ValueError as exc:
        raise FitError(str(exc)) from None
    return m, params, deviance, iterations


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _outcome(compute):
    """``("ok", value)`` of ``compute()``, or its error's type and message."""
    try:
        return "ok", compute()
    except Exception as exc:  # noqa: BLE001 - every error must agree
        return type(exc).__name__, str(exc)


def _fields(record, names):
    return [getattr(record, name) for name in names]


#: the fields of ``CausalParams``, in order
_CAUSAL_FIELDS = ("xc", "zc", "xzc", "y", "xy", "zy", "xzy", "with_interaction")


def _library_fit(table):
    fit = fit_poisson(table)
    assert not fit.spec.with_three_way
    return (_bits(fit.fitted_counts), _bits(_fields(fit.params, _FIELDS)),
            _bits([fit.deviance]), fit.iterations)


def _reference_fit(table):
    m, params, deviance, iterations = reference_fit(table.counts)
    return (_bits(m), _bits(_fields(params, _FIELDS)), _bits([deviance]),
            iterations)


def reference_causal_params(n):
    """The two-way ``fit_causal`` of counts ``n``: the margins first, then
    the reference MLE's Y-block, then the causal parameters from it."""
    return _causal_params(_xz_margins(n), *reference_mle(n)[1])


def _reference_causal(table):
    return _bits(_fields(reference_causal_params(table.counts),
                         _CAUSAL_FIELDS))


def _counts(exponents):
    return st.floats(*exponents).map(lambda e: 10.0 ** e)


def _tables(cell):
    return st.lists(cell, min_size=8, max_size=8)


#: the count tables both two-way reference tests draw
_TWO_WAY_TABLES = st.one_of(
    _tables(_counts((-300, 300))),
    _tables(st.one_of(st.just(0.0), _counts((-300, 300)))),
    _tables(_counts((-30, 30))),
    _tables(_counts((-5, 5))),
    _tables(st.integers(0, 40).map(float)),
)

#: the tables both two-way reference tests always run
_TWO_WAY_EXAMPLES = (
    [42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0],
    [1e-300, 1e-300, 1.0, 1.0, 1e300, 1e300, 1.0, 1.0],  # x
    [1e-300, 1e-300, 1e300, 1e300, 1.0, 1.0, 1.0, 1.0],  # z
    [1.0, 1.0, 1e-300, 1e-300, 1e-300, 1e-300, 1e300, 1e300],  # xz
    [0.0, 5.0, 3.0, 0.0, 2.0, 7.0, 0.0, 1.0],  # zeros of one parity
    [0.0, 0.0, 3.0, 4.0, 2.0, 7.0, 6.0, 1.0],  # a zero margin
    # mu^XZ overflows, so fit_poisson raises; the causal parameters and
    # the effects (TE 4.88e64) are finite
    [2.8112949152862326e+189, 1.660546804686013e+149,
     1.4118171754011321e+55, 7.632977356421863e-213,
     1.1262998667873243e-61, 1.5242942212882254e-184,
     3.636872862625773e+16, 1.0493567549073163e+41],
    # the root lies at the midpoint, so a converged step may pass it
    [10 ** 0.375, 1.0, 10 ** -0.96875, 10 ** -0.96875, 10 ** -0.96875, 1.0,
     10 ** -0.96875, 10 ** 0.375],
)


def _two_way_cases(*extra):
    """Run a test on ``_TWO_WAY_TABLES``, ``_TWO_WAY_EXAMPLES`` and the
    ``extra`` example tables."""
    def decorate(test):
        for counts in (*_TWO_WAY_EXAMPLES, *extra):
            test = example(counts)(test)
        return settings(max_examples=600, deadline=None)(
            given(_TWO_WAY_TABLES)(test))
    return decorate


class TestTwoWayFitAgainstReference:
    @_two_way_cases()
    def test_fit_poisson_and_fit_causal_match(self, counts):
        assume(0.0 < sum(counts) < math.inf)
        table = ContingencyTable(counts)
        want = _outcome(lambda: _reference_fit(table))
        assert _outcome(lambda: _library_fit(table)) == want
        assert (_outcome(lambda: _bits(_fields(fit_causal(table),
                                               _CAUSAL_FIELDS)))
                == _outcome(lambda: _reference_causal(table)))

    def test_examples_reach_each_parameter_error(self):
        # fit_causal does not check mu^X, mu^Z or mu^XZ; on these tables it
        # fails on a causal parameter instead
        for counts, name, causal_name in (
            ((1e-300, 1e-300, 1, 1, 1e300, 1e300, 1, 1), "x", "xzc"),
            ((1e-300, 1e-300, 1e300, 1e300, 1, 1, 1, 1), "z", "zc"),
            ((1, 1, 1e-300, 1e-300, 1e-300, 1e-300, 1e300, 1e300), "xz",
             "xzc"),
        ):
            message = f"multiplicative parameter {name} must be finite and > 0"
            causal = f"parameter {causal_name} must be finite and > 0"
            table = ContingencyTable(counts)
            assert _outcome(lambda: fit_poisson(table)) == ("FitError", message)
            assert (_outcome(lambda: fit_causal(table))
                    == ("CausalModelError", causal))


def reference_z_test(m, params):
    """(beta_hat, se, z, p) of the z-test on the two-way fit with fitted
    counts ``m`` and parameters ``params``, as computed with a generator
    per group of cells, or its ``TestError``."""
    beta_hat = (2.0 * math.log(params.y) + math.log(params.xy)
                + math.log(params.zy))
    inverse = 0.0
    for cells in ((0, 1, 6, 7), (2, 3, 4, 5)):
        least = min(m[i] for i in cells)
        inverse += least / _fold(least / m[i] for i in cells)
    var = 1.0 / inverse
    if not 0.0 < var < math.inf:
        raise TestError("covariance is not positive on the test contrast")
    se = math.sqrt(var)
    z = beta_hat / se
    return beta_hat, se, z, math.erfc(abs(z) / math.sqrt(2.0))


def reference_bonds(cp):
    """The two linearity-bond residuals of ``cp``, each a fold of logs; bond
    1 in ``beta_hat``'s order, since ``log y + log y`` is ``2.0 * log y``."""
    return (_fold(map(math.log, (cp.y, cp.y, cp.xy, cp.zy))),
            _fold(map(math.log, (cp.xzc, cp.zc, cp.zc))))


#: the fields of ``TestResult`` that hold floats, in order
_TEST_FIELDS = ("beta_hat", "se", "z", "p_two_sided")


def _library_inference(table):
    """The z-test of ``fit_poisson``, then the bonds of ``fit_causal``."""
    test = additive_zero_test(fit_poisson(table))
    bonds = linearity_bonds(fit_causal(table))
    return (_bits(_fields(test, _TEST_FIELDS)),
            _bits([bonds.bond1_residual, bonds.bond2_residual]))


def _reference_inference(table):
    n = table.counts
    m, params, _, _ = reference_fit(n)
    test = reference_z_test(m, params)
    bonds = reference_bonds(reference_causal_params(n))
    return _bits(test), _bits(bonds)


def _library_bonds(table):
    bonds = linearity_bonds(fit_causal(table))
    return _bits([bonds.bond1_residual, bonds.bond2_residual])


class TestInferenceAgainstReference:
    @_two_way_cases([1e200, 1.0, 1.0, 1e200, 2.0, 3e150, 1e100, 1.0])
    def test_z_test_and_bonds_match(self, counts):
        assume(0.0 < sum(counts) < math.inf)
        table = ContingencyTable(counts)
        assert (_outcome(lambda: _library_inference(table))
                == _outcome(lambda: _reference_inference(table)))
        # the bonds alone, also where fit_poisson raises
        assert (_outcome(lambda: _library_bonds(table))
                == _outcome(lambda: _bits(reference_bonds(
                    reference_causal_params(table.counts)))))

    @_two_way_cases([1e200, 1.0, 1.0, 1e200, 2.0, 3e150, 1e100, 1.0])
    def test_bond1_is_beta_hat(self, counts):
        assume(0.0 < sum(counts) < math.inf)
        table = ContingencyTable(counts)
        try:
            bond1 = linearity_bonds(fit_causal(table)).bond1_residual
            beta_hat = additive_zero_test(fit_poisson(table)).beta_hat
        except (FitError, CausalModelError, TestError):
            return
        assert bond1.hex() == beta_hat.hex()


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


class TestCovarianceAgainstReference:
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
