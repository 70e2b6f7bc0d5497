"""The causal layer against a reference copy of its earlier form.

The reference transcribes the path from the causal parameters to the joint
as it stood before it was written as straight-line code: the field check of
``CausalParams``, the normalization factors, ``conditional_probabilities``
built on them, ``ConditionalProbabilities.joint`` with its loops and the
checks of ``JointProbabilityTable``, the saturated ``fit_causal`` route
through ``saturated_closed_form``, and the checks and the last steps of
``effects_report``.  Its sums are explicit left folds, so it gives
the same bits on every supported Python version.  The library must agree
with it bit for bit, or raise the same error with the same message.
"""

import math
import operator
from functools import reduce

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CELLS,
    CausalModelError,
    CausalParams,
    ContingencyTable,
    DegenerateProbabilityError,
    FitError,
    TableError,
    conditional_probabilities,
    effects_report,
    fit_causal,
    saturated_closed_form,
)

_NAMES = ("xc", "zc", "xzc", "y", "xy", "zy", "xzy")
_FIELDS = ("eta", "x", "z", "y", "xz", "xy", "zy", "xzy")
_YX = ((0, 0), (1, 0), (0, 1), (1, 1))


def _fold(values):
    return reduce(operator.add, values, 0.0)


def reference_check(values, with_interaction):
    """The earlier ``CausalParams.__post_init__`` on the seven values."""
    for name, value in zip(_NAMES, values):
        if not 0.0 < value < math.inf:
            raise CausalModelError(f"parameter {name} must be finite and > 0")
    if not with_interaction and values[6] != 1.0:
        raise CausalModelError(
            "three-way parameter must be 1 without interaction"
        )


def reference_eta(xc, zc, xzc, y, xy, zy, xzy):
    y11 = y * xy * zy * xzy
    return (
        1.0 / (1.0 + xc),
        (1.0 / (1.0 + zc), 1.0 / (1.0 + zc * xzc)),
        {
            (0, 0): 1.0 / (1.0 + y),
            (1, 0): 1.0 / (1.0 + y * xy),
            (0, 1): 1.0 / (1.0 + y * zy),
            (1, 1): 1.0 / (1.0 + y11),
        },
    )


def reference_conditional(xc, zc, xzc, y, xy, zy, xzy):
    """(p_x1, p_z1_given_x, p_y1_given_xz, p_x0, p_z0_given_x,
    p_y0_given_xz), each from the normalization factors; where a two-factor
    product overflows, its level-0 probability is 0.0 and the level-1 one
    1.0."""
    x_norm, z_given_x, y_given_xz = reference_eta(xc, zc, xzc, y, xy, zy, xzy)
    y11 = y * xy * zy * xzy
    z1, y10, y01 = z_given_x[1], y_given_xz[(1, 0)], y_given_xz[(0, 1)]
    return (
        x_norm * xc,
        (z_given_x[0] * zc, z1 * zc * xzc if z1 != 0.0 else 1.0),
        {
            (0, 0): y_given_xz[(0, 0)] * y,
            (1, 0): y10 * y * xy if y10 != 0.0 else 1.0,
            (0, 1): y01 * y * zy if y01 != 0.0 else 1.0,
            (1, 1): y_given_xz[(1, 1)] * y11,
        },
        x_norm,
        z_given_x,
        y_given_xz,
    )


def reference_joint(cond):
    p_x1, p_z1, p_y1, p_x0, p_z0, p_y0 = cond
    probs = []
    for x, px in enumerate((p_x0, p_x1)):
        for z, pz in enumerate((p_z0[x], p_z1[x])):
            pxz = px * pz
            probs += (pxz * p_y0[(x, z)], pxz * p_y1[(x, z)])
    total = _fold(probs)
    if not 0.0 < total < math.inf:
        raise CausalModelError(
            f"the joint probabilities sum to {total}: the parameters "
            "leave the float range"
        )
    probs = tuple(p / total for p in probs)
    if any(p < 0 for p in probs):
        raise TableError("negative probability")
    total = _fold(probs)
    if abs(total - 1.0) > 1e-12:
        raise TableError(f"probabilities sum to {total!r}, not 1")
    return probs


def reference_saturated_causal(n):
    """The seven causal parameters of the earlier ``fit_causal(t, True)``:
    the XZ margins, then ``saturated_closed_form`` with its checks, then
    the causal parameters with the ``CausalParams`` check."""
    m = (n[0] + n[1], n[2] + n[3], n[4] + n[5], n[6] + n[7])
    if min(m) <= 0:
        raise CausalModelError("zero margin; causal blocks are not estimable")
    params = reference_saturated(n)
    values = ((m[2] + m[3]) / (m[0] + m[1]), m[1] / m[0],
              (m[3] / m[2]) * (m[0] / m[1]), params[3], params[5], params[6],
              params[7])
    reference_check(values, True)
    return values


def reference_saturated(n):
    """The multiplicative parameters of the earlier
    ``saturated_closed_form``."""
    zero = [cell for cell, c in zip(CELLS, n) if c == 0]
    if zero:
        raise FitError(
            f"zero count at cells {zero}: the saturated MLE does not exist "
            "(its estimate is divergent)"
        )
    params = (n[0], n[4] / n[0], n[2] / n[0], n[1] / n[0],
              (n[6] / n[4]) * (n[0] / n[2]), (n[5] / n[4]) * (n[0] / n[1]),
              (n[3] / n[2]) * (n[0] / n[1]),
              ((n[7] / n[6]) * (n[4] / n[5])) * ((n[2] / n[3]) * (n[1] / n[0])))
    for name, value in zip(_FIELDS, params):
        if not 0.0 < value < math.inf:
            raise FitError(
                f"multiplicative parameter {name} must be finite and > 0"
            )
    return params


def reference_effects(xc, zc, xzc, y, xy, zy, xzy, x, xp):
    """The fields of the earlier ``effects_report``, in the order of
    ``EffectsReport``."""
    o10 = y * xy
    o = ((y, y * zy), (o10, o10 * zy * xzy))
    w = (zc, zc * xzc)

    def mixed(a, b):
        o0, o1 = o[a]
        u, v = 1.0 + o0, 1.0 + o1
        return (o0 * v + o1 * w[b] * u) / (v + w[b] * u)

    try:
        at_x, at_xp, held = mixed(x, x), mixed(xp, xp), mixed(xp, x)
        te = at_xp / at_x
        nde = held / at_x
        ie = mixed(x, xp) / at_x
        ie_rev = held / at_xp
        lde_z = (o[xp][0] / o[x][0], o[xp][1] / o[x][1])
        cell_z = (nde / lde_z[0], nde / lde_z[1])
        mult = (o[1][1] / o[0][1]) / (o[1][0] / o[0][0])
        finite = all(0.0 < r < math.inf
                     for r in (te, nde, ie, ie_rev, mult) + lde_z + cell_z)
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise DegenerateProbabilityError(
            "an odds product over- or underflows: the effects are not all "
            "positive and finite"
        )
    p1 = [[v / (1.0 + v) for v in row] for row in o]
    residual = max(abs(te - lde_z[z] * cell_z[z] / ie_rev) for z in (0, 1))
    return (te, *lde_z, *cell_z, ie, ie_rev, nde,
            p1[1][1] - p1[0][1] - p1[1][0] + p1[0][0], mult, residual)


def _report_bits(r):
    return _bits((r.te, *r.lde, *r.cell, r.ie, r.ie_reverse, r.nde,
                  r.additive_interaction, r.multiplicative_interaction,
                  r.decomposition_residual)), r.direction


def _bits(values):
    return [float.hex(float(v)) for v in values]


def _fields(record, names):
    return [getattr(record, name) for name in names]


def _cond_bits(p_x1, p_z1, p_y1, p_x0, p_z0, p_y0):
    return (_bits([p_x1, *p_z1]), _bits(p_y1[k] for k in _YX),
            _bits([p_x0, *p_z0]), _bits(p_y0[k] for k in _YX),
            list(p_y1), list(p_y0))


def _outcome(compute):
    """``("ok", value)`` of ``compute()``, or its error's type and message."""
    try:
        return "ok", compute()
    except Exception as exc:  # noqa: BLE001 - every error must agree
        return type(exc).__name__, str(exc)


def _library(values, with_interaction):
    cp = CausalParams(*values, with_interaction=with_interaction)
    cond = conditional_probabilities(cp)
    return (
        _cond_bits(cond.p_x1, cond.p_z1_given_x, cond.p_y1_given_xz,
                   cond.p_x0, cond.p_z0_given_x, cond.p_y0_given_xz),
        # the normalization factors are the level-0 probabilities
        (_bits([cond.p_x0, *cond.p_z0_given_x]),
         _bits(cond.p_y0_given_xz[k] for k in _YX)),
        _outcome(lambda: _bits(cond.joint().probs)),
        [_outcome(lambda: _report_bits(effects_report(cp, x, xp)))
         for x, xp in ((0, 1), (1, 0))],
    )


def _reference(values, with_interaction):
    reference_check(values, with_interaction)
    cond = reference_conditional(*values)
    x_norm, z_given_x, y_given_xz = reference_eta(*values)
    return (
        _cond_bits(*cond),
        (_bits([x_norm, *z_given_x]), _bits(y_given_xz[k] for k in _YX)),
        _outcome(lambda: _bits(reference_joint(cond))),
        [_outcome(lambda: (_bits(reference_effects(*values, x, xp)), (x, xp)))
         for x, xp in ((0, 1), (1, 0))],
    )


def _logs(bound):
    return st.floats(-bound, bound).map(lambda e: 10.0 ** e)


#: mostly 10^U(+-300), sometimes a value the field check rejects
_PARAM = st.one_of(
    _logs(300), _logs(300), _logs(300), _logs(3),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
)

_COUNT = _logs(300)


class TestCausalLayerAgainstReference:
    @settings(max_examples=1500, deadline=None)
    @given(st.lists(_PARAM, min_size=7, max_size=7), st.booleans(),
           st.booleans())
    @example([1.7132, 0.4659, 3.3059, 0.4881, 1.9240, 2.4038, 1.0],
             False, False)
    @example([1e308] * 7, True, False)  # the sum overflows; all valid
    @example([1e300, 1e300, 1e-300, 1e300, 1e300, 1e300, 1e300], True, False)
    @example([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.nan], False, False)
    @example([1.0, 1e-10, 1.0, 1.0, 1e10, 1.0, 1e-310], True, False)  # cell(1)
    def test_params_conditionals_joint_and_effects_match(
        self, values, with_interaction, unit_xzy
    ):
        if unit_xzy:
            values[6] = 1.0
        assert (_outcome(lambda: _library(values, with_interaction))
                == _outcome(lambda: _reference(values, with_interaction)))

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.one_of(_COUNT, _COUNT, _COUNT, st.just(0.0),
                              st.integers(0, 40).map(float)),
                    min_size=8, max_size=8))
    @example([42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0])
    @example([0.0, 5.0, 3.0, 0.0, 2.0, 7.0, 0.0, 1.0])  # zero counts
    @example([0.0, 0.0, 3.0, 4.0, 2.0, 7.0, 6.0, 1.0])  # a zero margin
    @example([1e-300, 1e300, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # y overflows
    @example([1.0, 1.0, 1e-300, 1e-300, 1e-300, 1e-300, 1e300, 1e300])  # xz
    def test_saturated_route_matches(self, counts):
        assume(0.0 < sum(counts) < math.inf)
        table = ContingencyTable(counts)
        assert (_outcome(lambda: _bits(_fields(fit_causal(table, True),
                                               _NAMES)))
                == _outcome(lambda: _bits(reference_saturated_causal(counts))))
        assert (_outcome(lambda: _bits(_fields(saturated_closed_form(table),
                                               _FIELDS)))
                == _outcome(lambda: _bits(reference_saturated(counts))))
