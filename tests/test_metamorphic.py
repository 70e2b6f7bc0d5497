"""Metamorphic properties of the effects: relations between the reports of
two tables that need no reference value.

Each property runs on both models over two strata, integers 1..1e6 and
counts at 10^U(+-30), by the library route ``effects_report(fit_causal(t))``;
all but the Z relabel also run on the two-way model over a third, integers
1..40 with one to three zeros, all in one parity class of the cell index.
Bounds are in units of u = 2^-53 and are compared exactly, in fractions:

- scaling every count by 2^k changes no bit of the effects or the Y-block;
- relabelling Y (cell i -> i ^ 1) inverts every ratio effect and negates the
  additive interaction;
- TE(0 -> 1) * TE(1 -> 0) is within 2 u of 1: the two are the correctly
  rounded quotients a / b and b / a of the same two mixed odds;
- relabelling Z (cell i -> i ^ 2) keeps TE, NDE and IE and swaps LDE(0) with
  LDE(1) and Cell(0) with Cell(1).

Over 10^4 tables per stratum and model (``random.Random(11)``), the worst
Y-relabelled ratio effect was 16.3 u off its inverse, and the worst
Z-relabelled saturated effect 11 u off; 4 * 10^4 saturated tables at
10^U(+-30) (``random.Random(21)``) gave 15.4 u and 12.2 u.  The additive
interaction's negation was within 2 ulp(1), and TE(0 -> 1) * TE(1 -> 0)
within 1.5 u of 1.  On 10^4 two-way tables with zeros each
(``random.Random(5)`` and ``random.Random(6)``), scaling kept every bit, the
worst Y-relabelled ratio effect was 9.7 u off, the negation within 4.5 u and
the TE product within 1.5 u of 1.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import ContingencyTable, effects_report, fit_causal

U = 2.0 ** -53
#: a ratio effect of a relabelled table against the one it should equal
RELABEL_BOUND = 24 * U
#: the additive interaction is a sum of four probabilities of at most 1
ADDITIVE_BOUND = 4 * math.ulp(1.0)

#: integer counts, and counts spread over sixty decades
TABLES = st.one_of(
    st.lists(st.integers(1, 10 ** 6), min_size=8, max_size=8),
    st.lists(st.floats(-30, 30).map(lambda e: 10.0 ** e),
             min_size=8, max_size=8),
)

#: integers 1..40 with one to three zeros, all at cells of one parity of
#: the cell index's bits, {0, 3, 5, 6} or {1, 2, 4, 7}: the two-way fit
#: succeeded on each of 2 * 10^4 probed; the saturated one has no MLE
ZERO_TABLES = st.builds(
    lambda counts, zeros: [0 if i in zeros else c
                           for i, c in enumerate(counts)],
    st.lists(st.integers(1, 40), min_size=8, max_size=8),
    st.sampled_from([(0, 3, 5, 6), (1, 2, 4, 7)]).flatmap(
        lambda cells: st.lists(st.sampled_from(cells), min_size=1,
                               max_size=3, unique=True)),
)

#: the powers of two a table is scaled by
POWERS = st.sampled_from([-40, -7, -1, 1, 3, 50])

MODELS = pytest.mark.parametrize("saturated", [False, True],
                                 ids=["two-way", "saturated"])


def _report(counts, saturated, x=0, xp=1):
    return effects_report(fit_causal(ContingencyTable(counts), saturated),
                          x, xp)


def _relabelled(counts, bit):
    """``counts`` with cell i moved to i ^ ``bit``: 1 flips Y, 2 flips Z."""
    return [counts[i ^ bit] for i in range(8)]


def _ratios(report) -> list:
    return [report.te, report.ie, report.ie_reverse, report.nde,
            report.multiplicative_interaction, *report.lde, *report.cell]


def _off(got, want) -> Fraction:
    """|got / want - 1|, exactly."""
    return abs(Fraction(got) / Fraction(want) - 1)


def check_scaled(counts, saturated, k):
    scaled = [math.ldexp(c, k) for c in counts]
    cp = fit_causal(ContingencyTable(counts), saturated)
    scaled_cp = fit_causal(ContingencyTable(scaled), saturated)
    assert (scaled_cp.y, scaled_cp.xy, scaled_cp.zy, scaled_cp.xzy) == (
        cp.y, cp.xy, cp.zy, cp.xzy)
    for x, xp in ((0, 1), (1, 0)):
        assert _report(scaled, saturated, x, xp) == _report(counts, saturated,
                                                            x, xp)


def check_y_relabelled(counts, saturated):
    report = _report(counts, saturated)
    flipped = _report(_relabelled(counts, 1), saturated)
    for got, want in zip(_ratios(flipped), _ratios(report)):
        assert _off(got, 1 / Fraction(want)) <= RELABEL_BOUND, (got, want)
    assert (abs(flipped.additive_interaction + report.additive_interaction)
            <= ADDITIVE_BOUND)


def check_te_reversed(counts, saturated):
    forward = _report(counts, saturated).te
    backward = _report(counts, saturated, 1, 0).te
    assert abs(Fraction(forward) * Fraction(backward) - 1) <= 2 * U


@MODELS
@settings(max_examples=150, deadline=None)
@given(TABLES, POWERS)
# the two-way solve's s is near 2^-200, where g is taken from the frexp
# parts on one side of the scale and from the products on the other
@example(counts=[1.0, 1.0, 1e-08, 1.0, 1e-11, 1e-14, 1e+16, 1e-15], k=-40)
def test_scaling_by_a_power_of_two_changes_no_bit(saturated, counts, k):
    check_scaled(counts, saturated, k)


@MODELS
@settings(max_examples=150, deadline=None)
@given(TABLES)
# a far-spread table that a draw once reached: its two-way relabelled TE
# was 66 u off the inverse while the fit's g was a sum of eight logs
@example(counts=[1.0, 10 ** 19.5, 1e-14, 1e-16, 1e-16, 10 ** 19.5, 1e-14,
                 1.0])
def test_relabelling_y_inverts_every_ratio_effect(saturated, counts):
    check_y_relabelled(counts, saturated)


@MODELS
@settings(max_examples=150, deadline=None)
@given(TABLES)
def test_reversing_the_direction_inverts_te(saturated, counts):
    check_te_reversed(counts, saturated)


@settings(max_examples=150, deadline=None)
@given(ZERO_TABLES, POWERS)
def test_scaling_with_zeros_changes_no_bit_two_way(counts, k):
    check_scaled(counts, False, k)


@settings(max_examples=150, deadline=None)
@given(ZERO_TABLES)
def test_relabelling_y_with_zeros_inverts_every_ratio_effect_two_way(counts):
    check_y_relabelled(counts, False)


@settings(max_examples=150, deadline=None)
@given(ZERO_TABLES)
def test_reversing_the_direction_with_zeros_inverts_te_two_way(counts):
    check_te_reversed(counts, False)


def check_z_relabelled(counts, saturated):
    report = _report(counts, saturated)
    flipped = _report(_relabelled(counts, 2), saturated)
    pairs = [(flipped.te, report.te), (flipped.nde, report.nde),
             (flipped.ie, report.ie), (flipped.lde[0], report.lde[1]),
             (flipped.lde[1], report.lde[0]), (flipped.cell[0], report.cell[1]),
             (flipped.cell[1], report.cell[0])]
    for got, want in pairs:
        assert _off(got, want) <= RELABEL_BOUND, (got, want)


@settings(max_examples=150, deadline=None)
@given(TABLES)
def test_relabelling_z_swaps_the_z_effects_saturated(counts):
    check_z_relabelled(counts, True)


# its relabelled effects were 486 u off while the two-way fit's g was a sum
# of eight logs
@settings(max_examples=150, deadline=None)
@given(TABLES)
@example([1.74e+24, 3.38e-24, 5.76e-27, 6.83e-11, 3.52e-20, 2.97e+16,
          7.14e-23, 5.13e-16])
def test_relabelling_z_swaps_the_z_effects_two_way(counts):
    check_z_relabelled(counts, False)
