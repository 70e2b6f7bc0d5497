import json
from fractions import Fraction

import pytest

from loglin_effects import (
    CausalParams,
    DegenerateProbabilityError,
    conditional_probabilities,
    effects_report,
    indirect_effect,
)
from loglin_effects.effects import _effects
from conftest import (
    BAD_LEVELS, INTEGER_LEVELS, TABLE5, TABLE6, random_causal,
)

UNIT = CausalParams(1, 1, 1, 1, 1, 1)

# worked conversion scenario: unit plain XZ parameter, nonunit causal one
SEC3 = CausalParams(
    xc=1.5, zc=1.67, xzc=1.19288117, y=0.2, xy=0.02, zy=0.01
)


class TestTotalEffect:
    def test_unit_params(self):
        assert effects_report(UNIT).te == pytest.approx(1.0)

    def test_first_empirical_model(self):
        assert effects_report(TABLE5).te == pytest.approx(2.4008, abs=5e-3)

    def test_second_empirical_model(self):
        assert effects_report(TABLE6).te == pytest.approx(3.1886, abs=5e-3)

    def test_reciprocity(self, rng):
        cp = random_causal(rng)
        assert effects_report(cp, 1, 0).te == pytest.approx(
            1.0 / effects_report(cp, 0, 1).te, rel=1e-10
        )


class TestLde:
    def test_equals_two_effect_parameter_without_interaction(self):
        for z in (0, 1):
            assert effects_report(TABLE5).lde[z] == pytest.approx(
                1.9240, rel=1e-10
            )

    def test_interaction_multiplies_at_z1(self):
        lde = effects_report(TABLE6).lde
        assert lde[1] == pytest.approx(1.4042 * 2.8826, rel=1e-10)
        assert lde[0] == pytest.approx(1.4042, rel=1e-10)

    def test_unit_params(self):
        assert effects_report(UNIT).lde[0] == pytest.approx(1.0)

    def test_reciprocity(self, rng):
        cp = random_causal(rng, with_interaction=True)
        for z in (0, 1):
            assert effects_report(cp, 1, 0).lde[z] == pytest.approx(
                1.0 / effects_report(cp, 0, 1).lde[z], rel=1e-10
            )


class TestCellEffect:
    def test_first_empirical_model(self):
        cell = effects_report(TABLE5).cell
        assert cell[0] == pytest.approx(0.9741, abs=5e-3)
        assert cell[1] == pytest.approx(0.9741, abs=5e-3)

    def test_second_empirical_model(self):
        cell = effects_report(TABLE6).cell
        assert cell[1] == pytest.approx(0.4270, abs=5e-3)
        assert cell[0] == pytest.approx(1.231002, abs=5e-3)

    def test_unit_mediator_outcome_link_gives_one(self, rng):
        cp = random_causal(rng)
        no_zy = CausalParams(cp.xc, cp.zc, cp.xzc, cp.y, cp.xy, 1.0)
        for z in (0, 1):
            assert effects_report(no_zy).cell[z] == pytest.approx(
                1.0, abs=1e-12
            )

    def test_unit_direct_link_gives_one(self, rng):
        cp = random_causal(rng)
        no_xy = CausalParams(cp.xc, cp.zc, cp.xzc, cp.y, 1.0, cp.zy)
        for z in (0, 1):
            assert effects_report(no_xy).cell[z] == pytest.approx(
                1.0, abs=1e-12
            )

    def test_constant_in_z_without_interaction(self, rng):
        cell = effects_report(random_causal(rng)).cell
        assert cell[0] == pytest.approx(cell[1], rel=1e-10)

    def test_matches_eta_closed_form(self, rng):
        # the no-interaction display in normalization factors
        cp = random_causal(rng)
        e = conditional_probabilities(cp).p_y0_given_xz
        expected = (
            (e[(0, 0)] + e[(0, 1)] * cp.zc)
            / (e[(0, 0)] + e[(0, 1)] * cp.zc * cp.zy)
            * (e[(1, 0)] + e[(1, 1)] * cp.zc * cp.zy)
            / (e[(1, 0)] + e[(1, 1)] * cp.zc)
        )
        assert effects_report(cp).cell[0] == pytest.approx(expected,
                                                           rel=1e-10)

    def test_interaction_closed_form_ratio(self, rng):
        # with the three-way term, Cell(z=1) = Cell(z=0) / that term
        cp = random_causal(rng, with_interaction=True)
        cell = effects_report(cp).cell
        assert cell[1] == pytest.approx(cell[0] / cp.xzy, rel=1e-10)


class TestIndirectEffect:
    def test_worked_conversion_scenario(self):
        assert indirect_effect(SEC3) == pytest.approx(0.8894, abs=5e-4)

    def test_first_empirical_model(self):
        assert indirect_effect(TABLE5) == pytest.approx(1.2845, abs=5e-3)

    def test_unit_mediator_link_gives_one(self):
        cp = CausalParams(1.5, 1.67, 1.0, 0.2, 0.02, 0.01)
        assert indirect_effect(cp) == pytest.approx(1.0, abs=1e-12)

    def test_insensitive_to_interaction_term_given_same_values(self, rng):
        cp = random_causal(rng)
        with_int = CausalParams(
            cp.xc, cp.zc, cp.xzc, cp.y, cp.xy, cp.zy, 2.5,
            with_interaction=True,
        )
        # values differ because the outcome conditional changes, but the
        # formula itself only reads the X=x outcome arm; at x=0 the
        # three-way term never enters
        assert indirect_effect(with_int, 0, 1) == pytest.approx(
            indirect_effect(cp, 0, 1), rel=1e-12
        )


class TestNaturalDirectEffect:
    def test_first_empirical_model(self):
        assert effects_report(TABLE5).nde == pytest.approx(1.8741, abs=5e-3)

    def test_second_empirical_model(self):
        assert effects_report(TABLE6).nde == pytest.approx(1.7286, abs=5e-3)

    def test_unit_params(self):
        assert effects_report(UNIT).nde == pytest.approx(1.0)

    def test_factorizes_into_lde_and_cell(self, rng):
        for with_int in (False, True):
            cp = random_causal(rng, with_interaction=with_int)
            rep = effects_report(cp)
            for z in (0, 1):
                assert rep.nde == pytest.approx(rep.lde[z] * rep.cell[z],
                                                rel=1e-10)


class TestAdditiveInteraction:
    def test_unit_params(self):
        assert effects_report(UNIT).additive_interaction == pytest.approx(
            0.0, abs=1e-15
        )

    def test_balanced_mediator_link_zero(self, rng):
        cp = random_causal(rng)
        balanced = CausalParams(
            cp.xc, cp.zc, cp.xzc, cp.y, cp.xy,
            cp.y ** -2 * cp.xy ** -1,
        )
        assert effects_report(balanced).additive_interaction == pytest.approx(
            0.0, abs=1e-12
        )

    def test_interaction_model_nonzero(self):
        assert abs(effects_report(TABLE6).additive_interaction) > 1e-6

    def test_sign_for_second_empirical_model(self):
        # frozen from direct evaluation of the four conditionals
        assert effects_report(TABLE6).additive_interaction == pytest.approx(
            0.2381, abs=5e-4
        )


class TestMultiplicativeInteraction:
    def test_no_interaction_model_gives_one(self, rng):
        rep = effects_report(random_causal(rng))
        assert rep.multiplicative_interaction == pytest.approx(1.0, abs=1e-12)

    def test_equals_three_way_parameter(self):
        rep = effects_report(TABLE6)
        assert rep.multiplicative_interaction == pytest.approx(2.8826,
                                                               rel=1e-10)

    def test_unit_params(self):
        rep = effects_report(UNIT)
        assert rep.multiplicative_interaction == pytest.approx(1.0)


class TestEffectsReport:
    def test_first_empirical_model_bundle(self):
        rep = effects_report(TABLE5)
        assert rep.te == pytest.approx(2.4008, abs=5e-3)
        assert rep.lde[0] == pytest.approx(1.9240, abs=5e-3)
        assert rep.cell[0] == pytest.approx(0.9741, abs=5e-3)
        assert rep.ie == pytest.approx(1.2845, abs=5e-3)
        assert rep.nde == pytest.approx(1.8741, abs=5e-3)

    def test_decomposition_residual_tiny(self, rng):
        for with_int in (False, True):
            cp = random_causal(rng, with_interaction=with_int)
            assert effects_report(cp).decomposition_residual < 1e-10

    def test_reverse_direction_te_lde_reciprocal(self, rng):
        cp = random_causal(rng, with_interaction=True)
        fwd = effects_report(cp, 0, 1)
        rev = effects_report(cp, 1, 0)
        assert rev.te == pytest.approx(1.0 / fwd.te, rel=1e-10)
        for z in (0, 1):
            assert rev.lde[z] == pytest.approx(1.0 / fwd.lde[z], rel=1e-10)

    def test_nde_ie_cell_not_reciprocal_generically(self):
        cp = CausalParams(1.5, 0.5, 3.0, 0.4, 2.0, 2.5)
        fwd = effects_report(cp, 0, 1)
        rev = effects_report(cp, 1, 0)
        assert abs(rev.nde - 1.0 / fwd.nde) > 1e-6
        assert abs(rev.ie - 1.0 / fwd.ie) > 1e-6
        assert abs(rev.cell[0] - 1.0 / fwd.cell[0]) > 1e-6

    def test_same_direction_levels_rejected(self):
        with pytest.raises(ValueError):
            effects_report(UNIT, 1, 1)

    @pytest.mark.parametrize("x, xp", BAD_LEVELS)
    def test_non_integer_direction_level_rejected(self, x, xp):
        with pytest.raises(ValueError, match="direction"):
            effects_report(UNIT, x, xp)

    @pytest.mark.parametrize("o, w", [
        # a zero odds: an LDE divides by 0, in floats and in Fractions
        (((0.0, 1.0), (1.0, 1.0)), (1.0, 1.0)),
        (((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))),
         (Fraction(1), Fraction(1))),
        # LDE(z=0) overflows one way and underflows the other
        (((1e-200, 1.0), (1e200, 1.0)), (1.0, 1.0)),
        # a mixed-odds product overflows
        (((1.0, 1e300), (1.0, 1.0)), (1e300, 1.0)),
    ])
    @pytest.mark.parametrize("x, xp", [(0, 1), (1, 0)])
    def test_degenerate_odds_rejected(self, o, w, x, xp):
        with pytest.raises(DegenerateProbabilityError) as exc:
            _effects(o, w, x, xp)
        assert str(exc.value) == (
            "an odds product over- or underflows: the effects are not all "
            "positive and finite")

    @pytest.mark.parametrize("x, xp", INTEGER_LEVELS)
    def test_integer_levels_give_a_plain_int_direction(self, x, xp):
        rep = effects_report(TABLE5, x, xp)
        assert rep == effects_report(TABLE5, 1, 0)
        assert [type(v) for v in rep.direction] == [int, int]
        assert json.loads(rep.to_json())["direction"] == [1, 0]

    def test_json_keys(self):
        doc = json.loads(effects_report(TABLE5).to_json())
        assert set(doc) == {
            "TE", "LDE", "cell", "IE", "IE_reverse", "NDE",
            "additive_interaction", "multiplicative_interaction",
            "decomposition_residual", "direction",
        }
        assert set(doc["LDE"]) == {"z0", "z1"}
