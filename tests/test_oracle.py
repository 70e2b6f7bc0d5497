import json
import math

import pytest

from loglin_effects import (
    CELLS,
    ContingencyTable,
    JointProbabilityTable,
    OracleError,
    conditional_probabilities,
    effects_report,
    joint_probabilities,
    oracle_effects,
)
from conftest import BAD_LEVELS, INTEGER_LEVELS, TABLE5, random_causal

FIELDS = (
    "te", "ie", "ie_reverse", "nde", "additive_interaction",
    "multiplicative_interaction",
)


def test_uniform_joint():
    rep = oracle_effects(joint_probabilities(ContingencyTable((3,) * 8)))
    assert rep.te == pytest.approx(1.0)
    assert rep.nde == pytest.approx(1.0)
    assert rep.ie == pytest.approx(1.0)
    assert rep.lde == (pytest.approx(1.0), pytest.approx(1.0))
    assert rep.additive_interaction == pytest.approx(0.0, abs=1e-15)


def test_reconstructed_empirical_joint():
    joint = conditional_probabilities(TABLE5).joint()
    rep = oracle_effects(joint)
    assert rep.te == pytest.approx(2.4008, abs=5e-3)


@pytest.mark.parametrize("with_interaction", [False, True])
def test_matches_closed_form_engine(rng, with_interaction):
    for _ in range(200):
        cp = random_causal(rng, with_interaction=with_interaction)
        joint = conditional_probabilities(cp).joint()
        ora = oracle_effects(joint)
        rep = effects_report(cp)
        for f in FIELDS:
            assert getattr(ora, f) == pytest.approx(
                getattr(rep, f), rel=1e-10, abs=1e-10
            ), f
        for z in (0, 1):
            assert ora.lde[z] == pytest.approx(rep.lde[z], rel=1e-10)
            assert ora.cell[z] == pytest.approx(rep.cell[z], rel=1e-10)


def test_decomposition_in_probability_space(rng):
    for _ in range(50):
        cp = random_causal(rng, with_interaction=True)
        rep = oracle_effects(conditional_probabilities(cp).joint())
        assert rep.decomposition_residual < 1e-10


def test_conditioning_consistency(rng):
    # P(Y=1|X=x) via the mediator sum equals the XY-margin conditional
    cp = random_causal(rng)
    joint = conditional_probabilities(cp).joint()
    for x in (0, 1):
        px = sum(joint.prob(x, z, y) for z in (0, 1) for y in (0, 1))
        margin_route = sum(joint.prob(x, z, 1) for z in (0, 1)) / px
        sum_route = sum(
            (joint.prob(x, z, 1) / (joint.prob(x, z, 0) + joint.prob(x, z, 1)))
            * ((joint.prob(x, z, 0) + joint.prob(x, z, 1)) / px)
            for z in (0, 1)
        )
        assert math.isclose(margin_route, sum_route, abs_tol=1e-12)


def test_degenerate_conditional_rejected():
    # P(Y=1|X=0,Z=0) = 0
    joint = joint_probabilities(ContingencyTable((1, 0, 1, 1, 1, 1, 1, 1)))
    with pytest.raises(OracleError, match="degenerate"):
        oracle_effects(joint)


def test_zero_conditioning_slice_rejected():
    joint = joint_probabilities(ContingencyTable((0, 0, 1, 1, 1, 1, 1, 1)))
    with pytest.raises(OracleError) as exc:
        oracle_effects(joint)
    assert str(exc.value) == "P(X=0,Z=0) = 0; conditioning undefined"


def test_underflowing_ratio_rejected():
    # LDE(z=1) underflows to 0, so cell(z=1) = NDE / LDE(z=1) has no value
    counts = (1.0, 1.0354286453990213e307, 1, 1, 3.909535518583441e16, 1, 1, 1)
    joint = joint_probabilities(ContingencyTable(counts))
    with pytest.raises(OracleError, match="over- or underflows"):
        oracle_effects(joint)


def _zero_cells(*zeros):
    """The joint with the cells ``zeros`` at 0 and the rest equal."""
    p = 1 / (8 - len(zeros))
    return JointProbabilityTable([0.0 if i in zeros else p for i in range(8)])


RATIO_ERROR = ("a probability ratio over- or underflows: the effects are not "
               "all positive and finite")

#: one joint per message, in the order the checks run: P(X=x), then the
#: slices at x, then Y=1 and Y=0 at each z
ORACLE_ERRORS = [
    (_zero_cells(0, 1, 2, 3), "P(X=0) = 0; conditioning undefined"),
    (_zero_cells(4, 5, 6, 7), "P(X=1) = 0; conditioning undefined"),
    *[(_zero_cells(4 * x + 2 * z, 4 * x + 2 * z + 1),
       f"P(X={x},Z={z}) = 0; conditioning undefined")
      for x in (0, 1) for z in (0, 1)],
    *[(_zero_cells(4 * x + 2 * z + y), f"P(Y={y}|X={x},Z={z}) = 0.0 is degenerate")
      for x, z, y in CELLS],
    # the odds ratio at z=0 underflows to 0: LDE(z=0) is 0 one way and
    # inf the other
    (joint_probabilities(ContingencyTable(
        (1.0, 1.0354286453990213e307, 1, 1, 3.909535518583441e16, 1, 1, 1))),
     RATIO_ERROR),
    # P(Y=1|0,0) = 1e-300 against P(Y=1|1,0) near 1: the odds ratio at
    # z=0 overflows, so the multiplicative interaction is 0 both ways
    (joint_probabilities(ContingencyTable((1, 1e-300, 1, 1, 1, 1e10, 1, 1))),
     RATIO_ERROR),
]


@pytest.mark.parametrize("joint, message", ORACLE_ERRORS)
@pytest.mark.parametrize("x, xp", [(0, 1), (1, 0)])
def test_every_error_message(joint, message, x, xp):
    with pytest.raises(OracleError) as exc:
        oracle_effects(joint, x, xp)
    assert str(exc.value) == message


@pytest.mark.parametrize("x, xp", BAD_LEVELS)
def test_non_integer_direction_level_rejected(x, xp):
    joint = joint_probabilities(ContingencyTable((3,) * 8))
    with pytest.raises(ValueError, match="direction"):
        oracle_effects(joint, x, xp)


@pytest.mark.parametrize("x, xp", INTEGER_LEVELS)
def test_integer_levels_give_a_plain_int_direction(x, xp):
    joint = conditional_probabilities(TABLE5).joint()
    rep = oracle_effects(joint, x, xp)
    assert rep == oracle_effects(joint, 1, 0)
    assert [type(v) for v in rep.direction] == [int, int]
    assert json.loads(rep.to_json())["direction"] == [1, 0]


def test_json_flags_source():
    rep = oracle_effects(joint_probabilities(ContingencyTable((3,) * 8)))
    assert json.loads(rep.to_json())["source"] == "oracle"
