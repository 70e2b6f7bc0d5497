"""Effects, the causal layer, the two-way fit and the z-test against exact
rational references (``exact_reference``, which shares no code with the
engine or the oracle), each within a bound stated once, below.

The bounds are in units of u = 2^-53.  A value formed from exact floats by
k products, quotients and sums of positive terms is within gamma_k =
ku / (1 - ku) of its exact value while every result on the way is a normal
float (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
2002, Lemmas 3.1 and 3.3).  k counts along the path: a product adds its
operands' counts and 1, a sum of positive terms takes the larger count and
1, and a quotient counts its denominator twice.  Where each input is within
eps of its exact value and the value's log moves by at most J times as much
as any input's log, the bound is (1 + gamma_k) / (1 - eps)^J - 1.

Each property states its path as the exact value of each intermediate
result (the ``*_path`` functions).  Where all of them lie in [2^-1020,
2^1020], the normal range less a margin for rounding, the engine must
return within the bound.  Elsewhere it may instead raise a documented
error, whose type and message are checked; what it returns there is not,
since a subnormal or overflowed partial result can lose digits silently.
``TestKnownDefects`` pins such tables as strict xfails that assert the
right answer.
"""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CausalModelError,
    CausalParams,
    ContingencyTable,
    DegenerateProbabilityError,
    FitError,
    TestError,
    additive_zero_test,
    conditional_probabilities,
    effects_report,
    fit_causal,
    fit_poisson,
    linearity_bonds,
    oracle_effects,
    saturated_closed_form,
)
from loglin_effects import cli
from loglin_effects.causal import _odds
from loglin_effects.effects import _effects
from loglin_effects.fitting import _fit
from exact_reference import (
    _EVEN,
    _ODD,
    RATIO_FIELDS,
    exact_conditionals,
    exact_contrast_variance,
    exact_effects,
    exact_joint,
    exact_two_way_mle,
    worst_rel_err,
)

U = 2.0 ** -53  # bounds are evaluated in floats: a last-bit slip is moot


def gamma(k):
    return k * U / (1 - k * U)


def rel_bound(k, eps=0, uses=0):
    return (1 + gamma(k)) / (1 - eps) ** uses - 1


#: conditional probabilities: the longest path is P(Y=1|1,1) =
#: [1 / (1 + y xy zy xzy)] (y xy zy xzy), 3 + (2 + 2*4) + 1
K_CONDITIONAL = 13
#: a joint cell: P(x) P(z|x) P(y|x,z) is at most 4 + 7 + 13 + 2 = 26, the
#: total of the eight 26 + 7, and the cell over the total 26 + 2*33 + 1
K_JOINT = 93
#: ``effects_report``: a mixed odds is at most 20 (o(1,1) is 3, w(1) 1, the
#: numerator 9 and the denominator 5), and TE, IE, IE_rev and NDE are ratios
#: of two; LDE is a ratio of odds, Cell = NDE / LDE, and the multiplicative
#: interaction a ratio of ratios of odds
K_EFFECTS = {"te": 61, "ie": 61, "ie_reverse": 61, "nde": 61, "lde": 8,
             "cell": 78, "multiplicative_interaction": 11}
#: the additive interaction, an absolute bound: four P(Y=1|x,z) = o / (1 +
#: o) of at most 1, each 12, and three roundings of at most 2u
ADDITIVE_BOUND = 4 * gamma(12) + 6 * U
#: the residual |TE - LDE Cell / IE_rev|: gamma_61 + gamma_210, of TE
K_RESIDUAL = 272
#: an effect's log moves by at most one per use of a causal parameter, 24
#: at most (Cell: two mixed odds of 8 over an LDE of 8)
EFFECT_USES = 24
#: ratios of cells as (cells used, roundings): the multiplicative parameters
#: of the saturated closed form and of ``_cell_ratios``, and the Y-block
RATIOS = {"eta": (1, 0), "x": (2, 1), "z": (2, 1), "xz": (4, 3),
          "y": (2, 1), "xy": (4, 3), "zy": (4, 3), "xzy": (8, 7)}
#: the causal X and Z blocks: each margin n(x,z,+) is 1, X is two margins
#: over two
K_CAUSAL = {"xc": 7, "zc": 4, "xzc": 9}
#: se^2: the variance is 21 from fitted counts whose log-sensitivities sum
#: to 1, and the square root 1, twice in its square
K_SE_SQUARED = 23


#: the two-way fitted counts' relative bound.  The solve stops where
#: g = log(prod r / prod f), computed, is about 0: one log of a ratio near
#: 1, so no sum of logs cancels and the bound does not grow with the
#: counts' logs, as u (6 L + 24) did.  Of the eight factors a + s and
#: b - s, seven round, each within 2u or 3u, and the seven products and
#: quotients round once each; as g' >= 1 in log s, an error in g is a
#: relative one in s, and in each fitted count, which rounds once more.
#: That adds to about 31u only where every rounding errs the same way.
#: They are independent: the worst over 5 000 to 20 000 drawn tables of
#: each stratum is 9.4u (the scaled stratum, below; 4.4u on the
#: benchmark's tables), so 8u would fail on a rare draw, and the bound is
#: 16u.
FIT_BOUND = 16 * U


def _scale(n) -> int:
    """The fit's k: 0 where every positive count is in [2^-200, 2^200];
    elsewhere 2^k centres the binary exponents of the greatest and the
    least positive count on 1, and keeps every count below 2^1020."""
    top, bottom = max(n), min(c for c in n if c > 0)
    if 2.0 ** -200 <= bottom and top <= 2.0 ** 200:
        return 0
    top, bottom = math.frexp(top)[1], math.frexp(bottom)[1]
    return min(-((top + bottom) // 2), max(0, 1020 - top))


def _normal(values) -> bool:
    """Whether each Fraction ``v`` is in [2^-1020, 2^1020]: the bit lengths
    of its terms place log2 v within 1, and only a near miss is compared."""
    for v in values:
        log2 = v.numerator.bit_length() - v.denominator.bit_length()
        if not -1019 <= log2 <= 1019 and not (
                Fraction(1, 2 ** 1020) <= v <= 2 ** 1020):
            return False
    return True


def _check(got, want, bound, what=""):
    """|got - want| <= bound |want|, exactly: in integers, over the terms
    of the float ``got``, the float ``bound`` and the rational ``want``."""
    assert math.isfinite(got), (what, got, float(want))
    (a, b), (c, d) = got.as_integer_ratio(), bound.as_integer_ratio()
    p, q = want.numerator, want.denominator
    assert abs(a * q - p * b) * d <= c * abs(p) * b, (what, got, float(want))


#: the errors the engine may raise where a partial result leaves the range
DOCUMENTED = {
    CausalModelError: r"parameter \w+ must be finite and > 0|the joint "
    r"probabilities sum to \S+: the parameters leave the float range",
    DegenerateProbabilityError: "an odds product over- or underflows: the "
    "effects are not all positive and finite",
    FitError: r"multiplicative parameter \w+ must be finite and > 0|a fitted "
    "count underflows|a loglinear Y-block parameter overflows or underflows",
    TestError: "covariance is not positive on the test contrast",
}


def _outcome(compute, normal):
    """``compute()``: where ``normal`` it must return, elsewhere it may raise
    a documented error instead (then None)."""
    if normal:
        return compute()
    try:
        return compute()
    except tuple(DOCUMENTED) as exc:
        assert re.fullmatch(DOCUMENTED[type(exc)], str(exc)), exc
        return None


def conditional_path(xc, zc, xzc, y, xy, zy, xzy):
    """``conditional_probabilities``: the odds, one plus each, the level-0
    probabilities, and the level-1 ones with their partial products."""
    xc, zc, xzc, y, xy, zy, xzy = map(Fraction, (xc, zc, xzc, y, xy, zy, xzy))
    odds = (xc, zc, zc * xzc, y, y * xy, y * zy, y * xy * zy * xzy)
    p0 = [1 / (1 + o) for o in odds]
    return [*odds, y * xy * zy, *(1 + o for o in odds), *p0, p0[2] * zc,
            p0[4] * y, p0[5] * y, *(p * o for p, o in zip(p0, odds))]


def effects_path(xc, zc, xzc, y, xy, zy, xzy):
    """``effects_report`` in both directions: the odds o(x,z) and w(x),
    every term of each mixed odds, and every ratio."""
    zc, xzc, y, xy, zy, xzy = map(Fraction, (zc, xzc, y, xy, zy, xzy))
    o = ((y, y * zy), (y * xy, y * xy * zy * xzy))
    w = (zc, zc * xzc)
    path = [*o[0], *o[1], y * xy * zy, *w]
    mixed = {}
    for a in (0, 1):
        (o0, o1), u = o[a], 1 + o[a][0]
        for b in (0, 1):
            num, den = o0 * (1 + o1) + o1 * w[b] * u, 1 + o1 + w[b] * u
            mixed[a, b] = num / den
            path += [u, 1 + o1, o0 * (1 + o1), o1 * w[b], o1 * w[b] * u, num,
                     w[b] * u, den, num / den]
    for x, xp in ((0, 1), (1, 0)):
        nde = mixed[xp, x] / mixed[x, x]
        lde = [o[xp][z] / o[x][z] for z in (0, 1)]
        path += [mixed[xp, xp] / mixed[x, x], nde, mixed[x, xp] / mixed[x, x],
                 mixed[xp, x] / mixed[xp, xp], *lde, *(nde / v for v in lde)]
    ratios = (o[1][1] / o[0][1], o[1][0] / o[0][0])
    return path + [*ratios, ratios[0] / ratios[1]]


def margins_path(n):
    """The causal X and Z blocks of the XZ margins of counts ``n``."""
    m = [Fraction(n[i]) + Fraction(n[i + 1]) for i in range(0, 8, 2)]
    return m + [m[2] + m[3], m[0] + m[1], (m[2] + m[3]) / (m[0] + m[1]),
                m[1] / m[0], m[3] / m[2], m[0] / m[1],
                m[3] / m[2] * m[0] / m[1]]


def y_block_path(m, with_three_way=False):
    """The ratios of ratios of the cells ``m`` that give the Y-block."""
    m0, m1, m2, m3, m4, m5, m6, m7 = m
    path = [m1 / m0, m5 / m4, m0 / m1, m3 / m2, m5 / m4 * (m0 / m1),
            m3 / m2 * (m0 / m1)]
    if with_three_way:
        a, b = m7 / m6 * (m4 / m5), m2 / m3 * (m1 / m0)
        path += [m7 / m6, m4 / m5, m2 / m3, a, b, a * b]
    return path


def cell_ratio_path(m):
    """``_cell_ratios``: mu, mu^X, mu^Z and mu^XZ of the cells ``m``."""
    m0, m1, m2, m3, m4, m5, m6, m7 = m
    return [m0, m4 / m0, m2 / m0, m6 / m4, m0 / m2, m6 / m4 * (m0 / m2)]


def _ratios(m) -> dict:
    """The multiplicative parameters of the cells ``m``, exactly."""
    m0, m1, m2, m3, m4, m5, m6, m7 = map(Fraction, m)
    return {"eta": m0, "x": m4 / m0, "z": m2 / m0, "y": m1 / m0,
            "xz": m6 * m0 / (m4 * m2), "xy": m5 * m0 / (m4 * m1),
            "zy": m3 * m0 / (m2 * m1),
            "xzy": m7 * m4 * m2 * m1 / (m6 * m5 * m3 * m0)}


def check_causal(cp, n, exact, y_bounds):
    """``cp``'s fields against the causal parameters of counts ``n`` with
    the exact Y-block in ``exact``, within ``y_bounds`` for the Y-block;
    returns the exact ones."""
    m = [Fraction(n[i]) + Fraction(n[i + 1]) for i in range(0, 8, 2)]
    want = {"xc": (m[2] + m[3]) / (m[0] + m[1]), "zc": m[1] / m[0],
            "xzc": m[3] * m[0] / (m[2] * m[1]), "y": exact["y"],
            "xy": exact["xy"], "zy": exact["zy"], "xzy": exact.get("xzy", 1)}
    for name, value in want.items():
        bound = y_bounds.get(name) or gamma(K_CAUSAL.get(name, 0))
        _check(getattr(cp, name), value, bound, name)
    return list(want.values())


def check_effects(cp, exact_params, eps=0):
    """``effects_report(cp)`` in both directions against the exact effects
    of ``exact_params``, of which ``cp``'s fields are within ``eps``."""
    normal = _normal(effects_path(*exact_params))
    joint = exact_joint(*exact_params) if normal else None
    for x, xp in ((0, 1), (1, 0)):
        report = _outcome(lambda: effects_report(cp, x, xp), normal)
        if not normal:
            continue
        want = exact_effects(joint, x, xp)
        bound = {f: rel_bound(k, eps, EFFECT_USES)
                 for f, k in K_EFFECTS.items()}
        for f in RATIO_FIELDS:
            _check(getattr(report, f), want[f], bound[f], f)
        for z in (0, 1):
            _check(report.lde[z], want["lde"][z], bound["lde"], "lde")
            _check(report.cell[z], want["cell"][z], bound["cell"], "cell")
        # each P(Y=1|x,z) moves by at most a quarter of its odds' log
        additive = Fraction(report.additive_interaction)
        assert (abs(additive - want["additive_interaction"])
                <= ADDITIVE_BOUND + 8 * eps)
        assert (report.decomposition_residual
                <= rel_bound(K_RESIDUAL, eps, EFFECT_USES) * want["te"])


def _logs(bound):
    return st.floats(-bound, bound).map(lambda e: 10.0 ** e)


def _tables(cell):
    return st.lists(cell, min_size=8, max_size=8)


#: tables of counts within 10^+-5 of each other, at a scale 10^U(+-300):
#: their ratios are ordinary, their products of two may leave the range
_SCALED = st.tuples(_tables(_logs(5)), _logs(300)).map(
    lambda t: [c * t[1] for c in t[0]])


#: mostly 10^U(+-300), sometimes a value the field check rejects
_PARAM = st.one_of(
    _logs(300), _logs(300), _logs(300), _logs(3),
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
)


class TestCausalLayer:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PARAM, min_size=7, max_size=7), st.booleans(),
           st.booleans())
    @example([1.7132, 0.4659, 3.3059, 0.4881, 1.9240, 2.4038, 1.0],
             False, False)
    @example([1e308] * 7, True, False)  # the sum overflows; all valid
    @example([1e300, 1e300, 1e-300, 1e300, 1e300, 1e300, 1e300], True, False)
    @example([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.nan], False, False)
    @example([1.0, 1e-10, 1.0, 1.0, 1e10, 1.0, 1e-310], True, False)  # cell(1)
    # P(Y=1|x,z) = 1 - 2e-9 and 1 - 7e-13: p / (1 - p) would lose ~3e-4
    @example([1.0, 1.0, 1.0, math.exp(20), math.exp(8), 1.0, 1.0], False,
             False)
    def test_conditionals_joint_and_effects_within_their_bounds(
        self, values, with_interaction, unit_xzy
    ):
        if unit_xzy:
            values[6] = 1.0
        if not (all(0.0 < v < math.inf for v in values)
                and (with_interaction or values[6] == 1.0)):
            with pytest.raises(CausalModelError):
                CausalParams(*values, with_interaction=with_interaction)
            return
        cp = CausalParams(*values, with_interaction=with_interaction)
        cond = conditional_probabilities(cp)
        normal = _normal(conditional_path(*values))
        _outcome(cond.joint, normal)
        if normal:
            p_x1, p_z1, p_y1 = exact_conditionals(*values)
            bound = gamma(K_CONDITIONAL)
            pairs = [(cond.p_x1, p_x1), (cond.p_x0, 1 - p_x1)]
            pairs += [(cond.p_z1_given_x[x], p_z1[x]) for x in (0, 1)]
            pairs += [(cond.p_z0_given_x[x], 1 - p_z1[x]) for x in (0, 1)]
            pairs += [(cond.p_y1_given_xz[k], p) for k, p in p_y1.items()]
            pairs += [(cond.p_y0_given_xz[k], 1 - p) for k, p in p_y1.items()]
            for got, want in pairs:
                _check(got, want, bound)
            joint = exact_joint(*values)
            if _normal(joint):  # and each P(x) P(z|x), at least as large
                for got, want in zip(cond.joint().probs, joint):
                    _check(got, want, gamma(K_JOINT))
        check_effects(cp, values)


#: integer counts log-uniform on [1, 1e12], so cell ratios reach 1e12
counts_1e12 = st.lists(
    st.floats(0.0, 12.0).map(lambda e: max(1, round(10.0 ** e))),
    min_size=8, max_size=8,
)


class TestExactReference:
    def test_readme_table(self):
        counts = (42, 18, 25, 31, 17, 23, 12, 48)
        cp = fit_causal(ContingencyTable(counts), with_interaction=True)
        for x, xp in ((0, 1), (1, 0)):
            rep = effects_report(cp, x, xp)
            assert worst_rel_err(rep, exact_effects(counts, x, xp)) <= 1e-14

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(counts_1e12, _SCALED, _tables(st.one_of(
        _logs(300), _logs(300), _logs(300), st.just(0.0),
        st.integers(0, 40).map(float)))))
    @example([42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0])
    @example([0.0, 5.0, 3.0, 0.0, 2.0, 7.0, 0.0, 1.0])  # zero counts
    @example([0.0, 0.0, 3.0, 4.0, 2.0, 7.0, 6.0, 1.0])  # a zero margin
    @example([1e-300, 1e300, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])  # y overflows
    @example([1.0, 1.0, 1e-300, 1e-300, 1e-300, 1e-300, 1e300, 1e300])  # xz
    def test_saturated_fit_and_effects_within_their_bounds(self, counts):
        if not 0.0 < math.fsum(counts) < math.inf:
            return
        table = ContingencyTable(counts)
        if 0.0 in table.counts:  # no saturated MLE, or a zero margin
            with pytest.raises((FitError, CausalModelError)):
                fit_causal(table, True)
            return
        n = list(map(Fraction, table.counts))
        normal = _normal(y_block_path(n, True) + cell_ratio_path(n)
                         + margins_path(n))
        params = _outcome(lambda: saturated_closed_form(table), normal)
        cp = _outcome(lambda: fit_causal(table, True), normal)
        if normal:
            exact = _ratios(n)
            for name, (_, k) in RATIOS.items():
                _check(getattr(params, name), exact[name], gamma(k), name)
            bounds = {f: gamma(RATIOS[f][1]) for f in ("y", "xy", "zy", "xzy")}
            exact_cp = check_causal(cp, n, exact, bounds)
            check_effects(cp, exact_cp, gamma(K_CAUSAL["xzc"]))

    @settings(max_examples=200, deadline=None)
    @given(counts_1e12, st.booleans())
    @example([42, 18, 25, 31, 17, 23, 12, 48], False)
    def test_kernel_on_exact_odds_is_exact(self, counts, reverse):
        # the odds of the counts, o(x,z) = n(x,z,1) / n(x,z,0) and
        # w(x) = n(x,1,+) / n(x,0,+), as Fractions
        x, xp = (1, 0) if reverse else (0, 1)
        n = list(map(Fraction, counts))
        o = ((n[1] / n[0], n[3] / n[2]), (n[5] / n[4], n[7] / n[6]))
        w = ((n[2] + n[3]) / (n[0] + n[1]), (n[6] + n[7]) / (n[4] + n[5]))
        report = _effects(o, w, x, xp)
        want = exact_effects(counts, x, xp)
        assert {f: getattr(report, f) for f in want} == {
            **want, "lde": tuple(want["lde"]), "cell": tuple(want["cell"])}
        assert report.decomposition_residual == 0
        assert report.direction == (x, xp)

    @settings(max_examples=300, deadline=None)
    @given(counts_1e12, st.booleans())
    def test_oracle_within_1e12_of_exact(self, counts, reverse):
        x, xp = (1, 0) if reverse else (0, 1)
        cp = fit_causal(ContingencyTable(tuple(counts)), with_interaction=True)
        joint = conditional_probabilities(cp).joint()
        exact = exact_effects(counts, x, xp)
        assert worst_rel_err(oracle_effects(joint, x, xp), exact) <= 1e-12


#: count tables of every stratum: 10^U(+-300), with zeros too, 10^U(+-30),
#: 10^U(+-5), integers 0..40, and 10^U(+-5) at a far scale
TWO_WAY_TABLES = st.one_of(
    _SCALED,
    _tables(_logs(300)),
    _tables(st.one_of(st.just(0.0), _logs(300))),
    _tables(_logs(30)),
    _tables(_logs(5)),
    _tables(st.integers(0, 40).map(float)),
)

#: the tables every two-way property also runs
TWO_WAY_EXAMPLES = (
    [42.0, 18.0, 25.0, 31.0, 17.0, 23.0, 12.0, 48.0],
    [1e-300, 1e-300, 1.0, 1.0, 1e300, 1e300, 1.0, 1.0],  # x
    [1e-300, 1e-300, 1e300, 1e300, 1.0, 1.0, 1.0, 1.0],  # z
    [1.0, 1.0, 1e-300, 1e-300, 1e-300, 1e-300, 1e300, 1e300],  # xz
    [0.0, 5.0, 3.0, 0.0, 2.0, 7.0, 0.0, 1.0],  # zeros of one parity
    [0.0, 0.0, 3.0, 4.0, 2.0, 7.0, 6.0, 1.0],  # a zero margin
    # mu^XZ overflows, so fit_poisson's params raise; the causal
    # parameters and the effects (TE 4.88e64) are finite
    [2.8112949152862326e+189, 1.660546804686013e+149,
     1.4118171754011321e+55, 7.632977356421863e-213,
     1.1262998667873243e-61, 1.5242942212882254e-184,
     3.636872862625773e+16, 1.0493567549073163e+41],
    # the root lies at the midpoint, so a converged step may pass it
    [10 ** 0.375, 1.0, 10 ** -0.96875, 10 ** -0.96875, 10 ** -0.96875, 1.0,
     10 ** -0.96875, 10 ** 0.375],
    # the scale's edges, which the drawn tables do not reach.  Every count
    # subnormal: the scale is 2^1064, beyond the float range as a number,
    # and a fitted count underflows
    [3e-320, 1e-321, 2e-320, 5e-321, 4e-320, 1e-320, 6e-321, 2.5e-320],
    # counts near the float maximum: the scale is 2^-1019, 2 steps
    [1.5e307, 2e306, 3e307, 1e307, 2.5e307, 1.2e306, 4e306, 3.3e307],
    # subnormal and normal counts: the scale is 2^522, 6 steps
    [1e-310, 1.0, 2.0, 1e-315, 3.0, 1e-312, 1e-311, 5.0],
    # a fitted count underflows although every effect is a normal float:
    # the scale centres on the counts, not on the fitted counts
    [1.090515879411044e+37, 9.905708736435144e+155, 3.1104397823752685e+247,
     8.892751294204288e-35, 3.286477071171664e+67, 2147.2297254063187,
     19809953.73141923, 4.351124689073013e+115],
    # logits far apart: the first step starts at the midpoint
    [1e200, 1.0, 1.0, 1e200, 2.0, 3e150, 1e100, 1.0],
    # a partial product r0 r1 = 8.5e-321 is subnormal while r0 r1 r2 r3 =
    # 3.4e-108 is normal: a g guarded on the two products alone stops
    # depending on s and does not converge; 3 steps
    [3.262796177724567e-19, 1.111569828739354e-83, 8.033700310066538e-22,
     4.1643839399293876e-111, 3.321137366083648e+102,
     2.1138447966259058e+63, 1.7544255474937093e+282,
     7.488146020726493e+285],
    # a fitted count 9.4u off exact, the worst of the drawn tables measured
    [3.085629407149341e+224, 1.3986643126279578e+216, 3.5616743546641726e+223,
     5.200300154412216e+218, 2.4528015714064923e+224, 8.609835353024422e+215,
     4.850228541981294e+224, 2.632236216542337e+223],
)


def two_way_cases(test):
    """Run a test on ``TWO_WAY_TABLES`` and on ``TWO_WAY_EXAMPLES``."""
    for counts in TWO_WAY_EXAMPLES:
        test = example(counts)(test)
    return settings(max_examples=160, deadline=None)(
        given(TWO_WAY_TABLES)(test))


def _two_way_tables() -> list:
    """A fixed list of 160 tables in four strata of 40: integer counts
    log-uniform on 1..1e6; integers 0..40 with a zero in one parity class
    only; 10^U(-5, 5); 10^U(-300, 300)."""
    rng = random.Random(1817)
    tables = []
    for _ in range(40):
        tables.append([float(round(10.0 ** rng.uniform(0.0, 6.0)))
                       for _ in range(8)])
    for _ in range(40):
        counts = [float(rng.randint(1, 40)) for _ in range(8)]
        cells = rng.choice((_EVEN, _ODD))
        for i in rng.sample(cells, rng.randint(1, 3)):
            counts[i] = 0.0
        tables.append(counts)
    for exponent in (5.0, 300.0):
        for _ in range(40):
            tables.append([10.0 ** rng.uniform(-exponent, exponent)
                           for _ in range(8)])
    return tables


class TestExactTwoWayReference:
    def test_fits_within_1e12_of_exact(self):
        fitted = 0
        for counts in _two_way_tables():
            try:
                fit = fit_poisson(ContingencyTable(tuple(counts)))
            except FitError:
                continue
            fitted += 1
            exact = exact_two_way_mle(counts)
            for got, want in zip(fit.fitted_counts, exact):
                assert abs(Fraction(got) - want) <= want * Fraction(1, 10**12), (
                    counts, got, float(want))
        # the first three strata, 120 tables, always fit
        assert fitted >= 120


class TestTwoWayFit:
    @two_way_cases
    def test_fit_and_its_readers_within_their_bounds(self, counts):
        if not 0.0 < math.fsum(counts) < math.inf:
            return
        table = ContingencyTable(counts)
        n = table.counts
        if len({i in _EVEN for i, c in enumerate(n) if c == 0}) == 2:
            with pytest.raises(FitError, match="MLE does not exist"):
                fit_poisson(table)
            return
        m, k = exact_two_way_mle(n), _scale(n)
        # the fitted counts at the fit's scale and unscaled, and the Y-block
        normal = _normal([c * Fraction(2) ** k for c in m] + m
                         + y_block_path(m))
        fit = _outcome(lambda: fit_poisson(table), normal)
        test = fit and _outcome(lambda: additive_zero_test(fit), False)
        causal_normal = normal and _normal(margins_path(n))
        cp = _outcome(lambda: fit_causal(table), causal_normal)
        # after fit_poisson(table), fit_causal(table) reuses its solve; a
        # table of fresh counts solves again, and gives the same parameters
        assert _outcome(lambda: fit_causal(ContingencyTable(counts)),
                        False) == cp
        # the commands' route, the fit and then the margins, gives the same
        # causal parameters on the same tables, and bond 1 is beta_hat
        assert _outcome(lambda: cli._fit(table, "two-way")[1], False) == cp
        if cp and test:
            bond1 = linearity_bonds(cp).bond1_residual
            assert bond1.hex() == test.beta_hat.hex()
        if not normal:
            return
        exact, eps = _ratios(m), FIT_BOUND
        bound = {name: rel_bound(r, eps, j) for name, (j, r) in RATIOS.items()}
        for got, want in zip(fit.fitted_counts, m):
            _check(got, want, eps, "fitted count")
        for name, got in zip(("y", "xy", "zy"), fit.y_block):
            _check(got, exact[name], bound[name], name)
        if _normal(cell_ratio_path(m)):
            for name in ("eta", "x", "z", "xz"):
                _check(getattr(fit.params, name), exact[name], bound[name])
        groups = ((0, 1, 6, 7), (2, 3, 4, 5))
        variance = exact_contrast_variance(m)
        if _normal([min(m[i] for i in g) / m[j] for g in groups for j in g]
                   + [variance]):
            _check(test.se ** 2, variance, rel_bound(K_SE_SQUARED, eps, 1))
            # beta_hat, 2 log y + log xy + log zy: each log is within twice
            # its argument's bound and an ulp, and the sums round twice
            logs = [math.log(exact[name]) for name in ("y", "xy", "zy")]
            size = 2 * abs(logs[0]) + abs(logs[1]) + abs(logs[2])
            assert abs(test.beta_hat - (2 * logs[0] + logs[1] + logs[2])) <= (
                4 * bound["y"] + 2 * bound["xy"] + 2 * bound["zy"]
                + U * (8 * size + 8))
        if causal_normal:
            exact_cp = check_causal(cp, n, exact, bound)
            check_effects(cp, exact_cp, max(bound.values()))


#: the silent tables: the two-way mu^XY passes through m5 / m4 = 8.6e-324,
#: so TE is 14.5% off; the saturated o(1,1) through o(1,0) zy = 7.2e-321,
#: so the float chain puts TE 2.1e-4 off
SILENT_TWO_WAY = (2.7273980743346266e+198, 8.19565826022456e-09,
                  4.0529971057776215e+74, 3.135249356757005e+286,
                  9.007277266263948e-197, 1.6447246914038178e+137,
                  6.026841244718938e+249, 0.14025602003190954)
SILENT_SATURATED = (6.7511640127902735e-108, 1.2940180135811937e-89,
                    5.216895527695513e+189, 3.373347350775295e+63,
                    8.35954981627429e+64, 1.77973293044809e-111,
                    3.372621782897062e+151, 4.27178336139234e+124)


#: o(1,1) is 1e200, but y xy = 1e400 overflows on the way to it
CHAINED = (1, 1, 1, 1e200, 1e200, 1e-200, 1)
#: o(1,1) = 1e310 itself overflows; P(Y=0|1,1) is 1e-310, so the joint
#: has seven normal cells and one subnormal one
OVERFLOWED_O11 = (1, 1, 1, 1e150, 1e150, 1.0, 1e10)


def check_normal_joint_cells(values, with_interaction=False):
    """The joint of ``CausalParams(*values, with_interaction)`` within
    gamma_93 of the exact one at each cell whose exact value is a normal
    float; returns that."""
    joint = exact_joint(*values)
    cp = CausalParams(*values, with_interaction=with_interaction)
    got = conditional_probabilities(cp).joint().probs
    for cell, want in zip(got, joint):
        if want >= sys.float_info.min:
            _check(cell, want, gamma(K_JOINT))
    return joint


class TestKnownDefects:
    """Tables where the answer is representable but the engine missed it,
    each asserting the answer it should give; a strict xfail where it still
    does."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="mu^XY passes through a subnormal ratio")
    def test_silent_two_way_table(self):
        cp = fit_causal(ContingencyTable(SILENT_TWO_WAY))
        want = exact_effects(exact_two_way_mle(SILENT_TWO_WAY))
        assert worst_rel_err(effects_report(cp), want) <= 1e-12

    def test_silent_saturated_table(self):
        table = ContingencyTable(SILENT_SATURATED)
        cp = fit_causal(table, True)
        # the commands' route gives the same causal parameters
        assert cli._fit(table, "saturated")[1] == cp
        want = exact_effects(SILENT_SATURATED)
        assert worst_rel_err(effects_report(cp), want) <= 1e-12

    @pytest.mark.xfail(strict=True, raises=DegenerateProbabilityError,
                       reason="o(1,0) = y xy = 1e400 overflows by itself")
    def test_chained_odds_in_range(self):
        joint = check_normal_joint_cells(CHAINED)
        cp = CausalParams(*CHAINED)
        assert worst_rel_err(effects_report(cp), exact_effects(joint)) <= 1e-12

    @pytest.mark.xfail(strict=True, raises=FitError,
                       reason="the fit's scale centres on the counts")
    def test_spurious_underflow(self):
        # its least exact fitted count is 8.7e-250
        counts = TWO_WAY_EXAMPLES[11]
        m = exact_two_way_mle(counts)
        fit = fit_poisson(ContingencyTable(counts))
        for got, want in zip(fit.fitted_counts, m):
            _check(got, want, 1e-12)
        cp = fit_causal(ContingencyTable(counts))
        assert worst_rel_err(effects_report(cp), exact_effects(m)) <= 1e-12


class TestOddsChain:
    """``causal._odds`` keeps the float chain y xy zy xzy of o(1,1) where
    y xy and y xy zy are normal, and rounds the exact product once
    elsewhere."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_logs(300), min_size=4, max_size=4))
    @example([1e200, 1e200, 1e-200, 1.0])  # y xy overflows
    @example([1e-200, 1e-100, 1e-10, 1e20])  # y xy zy is subnormal
    @example([1e-200, 1e-110, 1e-100, 1e300])  # y xy is subnormal
    @example([1e200, 1e108, 1e-100, 1e-200])  # y xy is near the greatest float
    @example([1e200, 1e200, 1e200, 1.0])  # the exact product overflows
    def test_o11(self, values):
        y, xy, zy, xzy = values
        got = _odds(CausalParams(1.0, 1.0, 1.0, y, xy, zy, xzy, True))[0][1][1]
        if all(sys.float_info.min <= p <= sys.float_info.max
               for p in (y * xy, y * xy * zy)):
            assert got.hex() == (y * xy * zy * xzy).hex()
        else:
            try:  # a Fraction's float is its correctly rounded value
                want = float(math.prod(map(Fraction, values)))
            except OverflowError:
                want = math.inf
            assert got.hex() == want.hex()

    def test_silent_saturated_o11(self):
        # the chain passes through o(1,0) zy = 7.2e-321 and loses digits
        cp = fit_causal(ContingencyTable(SILENT_SATURATED), True)
        exact = math.prod(map(Fraction, (cp.y, cp.xy, cp.zy, cp.xzy)))
        chain = cp.y * cp.xy * cp.zy * cp.xzy
        got = _odds(cp)[0][1][1]
        assert got == float(exact) == 1.266606111321176e-27
        assert chain == 1.2668682057716702e-27

    def test_chained_odds_joint_within_its_bound(self):
        check_normal_joint_cells(CHAINED)

    def test_overflowed_o11_joint_within_its_bound(self):
        # P(Y=1|1,1) is 1.0 where o(1,1) overflows, not 0.0 * inf
        check_normal_joint_cells(OVERFLOWED_O11, True)


#: saturated tables whose mu^XZY chain passes through a subnormal first
#: product (n7/n6)(n4/n5), 2.5e-313 and 6.2e-316: the float chain put every
#: effect through mu^XZY 6.7e-12 and 2.9e-9 off
SUBNORMAL_XZY = (
    (1.9420280315902935e-62, 6.684410964349262e-94, 9.41179349530486e-70,
     1.6792888301519967e-225, 4.129447953589069e-68, 1.1227306625803366e-30,
     2.4073454340995656e+134, 1.60895916434372e-141),
    (459950.69909841707, 2.2030248176424313e+58, 2.1188998757109886e+72,
     5.179252860038487e-99, 1.788401641709543e+73, 1.2491369471830019e+259,
     4.556105538472459e+118, 1.9729444879599854e-11),
)


def _is_normal(v) -> bool:
    return sys.float_info.min <= v <= sys.float_info.max


class TestSaturatedXZY:
    """``_fit(n, True)`` keeps the float chain (n7/n6 n4/n5)(n2/n3 n1/n0) of
    mu^XZY unless its first product alone leaves the normal range, and
    rounds the exact ratio once there."""

    @pytest.mark.parametrize("counts", SUBNORMAL_XZY)
    def test_effects_within_1e12_of_exact(self, counts):
        table = ContingencyTable(counts)
        cp = fit_causal(table, True)
        assert cli._fit(table, "saturated")[1] == cp
        for x, xp in ((0, 1), (1, 0)):
            want = exact_effects(counts, x, xp)
            assert worst_rel_err(effects_report(cp, x, xp), want) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(_tables(_logs(300)))
    @example(list(SUBNORMAL_XZY[0]))
    @example(list(SUBNORMAL_XZY[1]))
    # the first product is 1e400, mu^XZY 1e200
    @example([1.0, 1.0, 1e-200, 1.0, 1e200, 1.0, 1.0, 1e200])
    # the first product and mu^XZY overflow
    @example([1.0, 1.0, 1.0, 1.0, 1e200, 1.0, 1.0, 1e200])
    # the second product overflows too: the chain stands
    @example([1.0, 1e200, 1e200, 1.0, 1e200, 1.0, 1.0, 1e200])
    def test_xzy(self, counts):
        n0, n1, n2, n3, n4, n5, n6, n7 = counts
        p, q = (n7 / n6) * (n4 / n5), (n2 / n3) * (n1 / n0)
        got = _fit(counts, True)[1][3]
        if _is_normal(p) or not all(
                map(_is_normal, (n7 / n6, n4 / n5, n2 / n3, n1 / n0, q))):
            assert got.hex() == (p * q).hex()
        else:
            exact = (Fraction(n7) * Fraction(n4) * Fraction(n2) * Fraction(n1)
                     / (Fraction(n6) * Fraction(n5) * Fraction(n3)
                        * Fraction(n0)))
            try:  # a Fraction's float is its correctly rounded value
                want = float(exact)
            except OverflowError:
                want = math.inf
            assert got.hex() == want.hex()


class TestExtremeOdds:
    def test_oracle_agrees_near_certain_outcome(self):
        cp = CausalParams(1.3, 0.4, 2.0, math.exp(20), math.exp(8), 3.0)
        rep = effects_report(cp)
        ora = oracle_effects(conditional_probabilities(cp).joint())
        for f in RATIO_FIELDS:
            assert getattr(ora, f) == pytest.approx(
                getattr(rep, f), rel=1e-13, abs=0.0
            )

    @pytest.mark.parametrize("params", [
        (1.0, 1.0, 1.0, 1e200, 1e200, 1.0),    # an outcome odds overflows
        (1.0, 1.0, 1.0, 1e200, 1.0, 1.0),      # a mixed-odds product overflows
        (1.0, 1.0, 1.0, 1e-200, 1e-200, 1.0),  # an outcome odds underflows
    ])
    def test_overflow_raises(self, params):
        with pytest.raises(DegenerateProbabilityError):
            effects_report(CausalParams(*params))
