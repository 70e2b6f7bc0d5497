"""Effects and two-way fits against exact rational references, and effects
at extreme odds.

The references, ``exact_effects`` and ``exact_two_way_mle``, are in
``exact_reference``; they share no code with the engine or the oracle.
"""

import math
import random
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
from exact_reference import (
    _EVEN,
    _ODD,
    RATIO_FIELDS,
    exact_effects,
    exact_two_way_mle,
    worst_rel_err,
)

#: integer counts log-uniform on [1, 1e12], so cell ratios reach 1e12
counts_1e12 = st.lists(
    st.floats(0.0, 12.0).map(lambda e: max(1, round(10.0 ** e))),
    min_size=8, max_size=8,
)


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
