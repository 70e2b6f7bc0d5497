"""Effects against an exact rational reference and at extreme odds.

Under the saturated model the fitted table is the observed one, so for an
integer count table every conditional probability is a ratio of count
sums and every effect is rational in the counts.  ``exact_effects``
evaluates the definitions in ``fractions.Fraction`` arithmetic; it shares
no code with the engine or the oracle.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CausalParams,
    ContingencyTable,
    DegenerateProbabilityError,
    conditional_probabilities,
    effects_report,
    fit_causal,
    lde,
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
            assert lde(cp, z=z) == pytest.approx(
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
