"""Effects and two-way fits against exact rational references, and effects
at extreme odds.

Under the saturated model the fitted table is the observed one, so for an
integer count table every conditional probability is a ratio of count
sums and every effect is rational in the counts.  ``exact_effects``
evaluates the definitions in ``fractions.Fraction`` arithmetic; it shares
no code with the engine or the oracle.

The two-way MLE is ``n + t*u``, u = +1 on the even cells (0, 3, 5, 6) and
-1 on the odd ones, with ``t`` the root in ``(-lo, hi)`` of the cubic
``prod_even (n + t) - prod_odd (n - t)`` (its t^4 terms cancel), lo and hi
the least even and odd counts.  Every float count is a dyadic rational, so
``exact_two_way_mle`` brackets the root by the exact sign of the cubic.
"""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CausalParams,
    ContingencyTable,
    DegenerateProbabilityError,
    FitError,
    conditional_probabilities,
    effects_report,
    fit_causal,
    fit_poisson,
    oracle_effects,
)

RATIO_FIELDS = ("te", "ie", "ie_reverse", "nde", "multiplicative_interaction")


def exact_effects(counts, x=0, xp=1) -> dict:
    """Every ratio effect of the saturated model, exactly, keyed by field."""
    n = {(a, b, c): Fraction(counts[4 * a + 2 * b + c])
         for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    nxz = {(a, b): n[(a, b, 0)] + n[(a, b, 1)] for a in (0, 1) for b in (0, 1)}
    nx = {a: nxz[(a, 0)] + nxz[(a, 1)] for a in (0, 1)}

    def p_y(y, a, b):
        return n[(a, b, y)] / nxz[(a, b)]

    def p_z(b, a):
        return nxz[(a, b)] / nx[a]

    def odds(y_arm, z_arm):
        # sum_z P(Y=1|y_arm,z) P(z|z_arm) over the same sum at Y=0
        return (sum(p_y(1, y_arm, b) * p_z(b, z_arm) for b in (0, 1))
                / sum(p_y(0, y_arm, b) * p_z(b, z_arm) for b in (0, 1)))

    def cond_odds(a, b):
        return p_y(1, a, b) / p_y(0, a, b)

    lde_z = [cond_odds(xp, b) / cond_odds(x, b) for b in (0, 1)]
    nde = odds(xp, x) / odds(x, x)
    return {
        "te": odds(xp, xp) / odds(x, x),
        "lde": lde_z,
        "cell": [nde / v for v in lde_z],
        "ie": odds(x, xp) / odds(x, x),
        "ie_reverse": odds(xp, x) / odds(xp, xp),
        "nde": nde,
        "multiplicative_interaction": (cond_odds(1, 1) / cond_odds(0, 1))
        / (cond_odds(1, 0) / cond_odds(0, 0)),
    }


def worst_rel_err(report, exact) -> float:
    pairs = [(getattr(report, f), exact[f]) for f in RATIO_FIELDS]
    pairs += [(report.lde[z], exact["lde"][z]) for z in (0, 1)]
    pairs += [(report.cell[z], exact["cell"][z]) for z in (0, 1)]
    return max(abs(Fraction(got) - want) / want for got, want in pairs)


#: integer counts log-uniform on [1, 1e12], so cell ratios reach 1e12
counts_1e12 = st.lists(
    st.floats(0.0, 12.0).map(lambda e: max(1, round(10.0 ** e))),
    min_size=8, max_size=8,
)


_EVEN = (0, 3, 5, 6)
_ODD = (1, 2, 4, 7)


def _float_bits(x: float) -> int:
    """The bits of a float >= 0, which order such floats as they are."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def exact_two_way_mle(counts, extra_bits=40) -> list:
    """The two-way MLE of ``counts`` as Fractions; the MLE must exist.

    ``s``, the root's distance from the end of ``(-lo, hi)`` nearer to it,
    is bracketed between adjacent floats by bisection on their bits, and
    the bracket is then halved ``extra_bits`` times in Fractions: for a
    normal ``s`` a relative width of 2^-(52 + extra_bits).  Every fitted
    count is ``a + s`` or ``b - s`` with ``a >= 0`` and ``b >= 2s``, so
    each is as relatively exact as ``s``.
    """
    n = [Fraction(c) for c in counts]
    lo, hi = min(n[i] for i in _EVEN), min(n[i] for i in _ODD)

    def cubic(t):
        return (math.prod(n[i] + t for i in _EVEN)
                - math.prod(n[i] - t for i in _ODD))

    # the cubic rises through its one root on (-lo, hi); from the end
    # nearer the root, s is at or beyond it when ``beyond(s)``
    mid = (lo + hi) / 2
    sign = 1 if cubic(mid - lo) >= 0 else -1
    end = -lo if sign > 0 else hi

    def beyond(s):
        return sign * cubic(end + sign * s) >= 0

    below, above = 0, _float_bits(math.nextafter(float(mid), math.inf))
    assert not beyond(0) and beyond(Fraction(_bits_float(above)))
    while above - below > 1:
        half = (below + above) // 2
        if beyond(Fraction(_bits_float(half))):
            above = half
        else:
            below = half
    below, above = Fraction(_bits_float(below)), Fraction(_bits_float(above))
    for _ in range(extra_bits):
        half = (below + above) / 2
        below, above = (below, half) if beyond(half) else (half, above)
    t = end + sign * (below + above) / 2
    return [c + t if i in _EVEN else c - t for i, c in enumerate(n)]


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


class TestExactReference:
    def test_readme_table(self):
        counts = (42, 18, 25, 31, 17, 23, 12, 48)
        cp = fit_causal(ContingencyTable(counts), with_interaction=True)
        for x, xp in ((0, 1), (1, 0)):
            rep = effects_report(cp, x, xp)
            assert worst_rel_err(rep, exact_effects(counts, x, xp)) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(counts_1e12, st.booleans())
    def test_engine_within_1e12_of_exact(self, counts, reverse):
        x, xp = (1, 0) if reverse else (0, 1)
        cp = fit_causal(ContingencyTable(tuple(counts)), with_interaction=True)
        exact = exact_effects(counts, x, xp)
        assert worst_rel_err(effects_report(cp, x, xp), exact) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(counts_1e12, st.booleans())
    def test_oracle_within_1e12_of_exact(self, counts, reverse):
        x, xp = (1, 0) if reverse else (0, 1)
        cp = fit_causal(ContingencyTable(tuple(counts)), with_interaction=True)
        joint = conditional_probabilities(cp).joint()
        exact = exact_effects(counts, x, xp)
        assert worst_rel_err(oracle_effects(joint, x, xp), exact) <= 1e-12


class TestExtremeOdds:
    def test_lde_near_certain_outcome(self):
        # P(Y=1|x,z) = 1 - 2e-9 and 1 - 7e-13: p / (1 - p) loses ~3e-4
        cp = CausalParams(1.0, 1.0, 1.0, math.exp(20), math.exp(8), 1.0)
        for z in (0, 1):
            assert effects_report(cp).lde[z] == pytest.approx(
                math.exp(8), rel=1e-14, abs=0.0
            )

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
