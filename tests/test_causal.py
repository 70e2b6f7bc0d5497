import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CausalModelError,
    CausalParams,
    ConditionalProbabilities,
    ContingencyTable,
    JointProbabilityTable,
    NoCausalParams,
    causal_from_nocausal,
    conditional_probabilities,
    fit_causal,
    fit_poisson,
    joint_probabilities,
    nocausal_from_causal,
    two_way_spec,
)
from loglin_effects import FitError, saturated_closed_form, saturated_spec
from loglin_effects import causal, fitting
from loglin_effects.causal import _causal_params, _xz_margins
from conftest import (FAR_SATURATED, random_causal, random_nocausal,
                      record_outcome)
from exact_reference import exact_joint

# single-letter-free aliases for the worked conversion values
SEC3_NC = NoCausalParams(
    eta=1.0, x=1.5, z=2.0, y=0.2, xz=1.0, xy=0.02, zy=0.01
)


class TestCausalParamsValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("index", range(7))
    def test_non_finite_or_non_positive_rejected(self, bad, index):
        args = [1.0] * 7
        args[index] = bad
        with pytest.raises(CausalModelError):
            CausalParams(*args, with_interaction=True)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("index", range(7))
    def test_message_names_the_first_bad_field(self, bad, index):
        names = ("xc", "zc", "xzc", "y", "xy", "zy", "xzy")
        for later in (1.0, float("nan"), -1.0):
            args = [1.0] * index + [bad] + [later] * (6 - index)
            with pytest.raises(CausalModelError) as err:
                CausalParams(*args, with_interaction=True)
            assert str(err.value) == (
                f"parameter {names[index]} must be finite and > 0"
            )

    @pytest.mark.parametrize("big", [1e308, 1.7976931348623157e308])
    def test_finite_values_whose_sum_overflows_are_accepted(self, big):
        cp = CausalParams(*[big] * 7, with_interaction=True)
        assert (cp.xc, cp.xzy) == (big, big)
        assert NoCausalParams(*[big] * 8).xzy == big

    def test_three_way_term_needs_interaction(self):
        with pytest.raises(CausalModelError, match="three-way parameter"):
            CausalParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0)


class TestEtaFactors:
    # the normalization factors are the level-0 probabilities
    def test_symmetric_params(self):
        cp = CausalParams(1, 1, 1, 1, 1, 1)
        cond = conditional_probabilities(cp)
        assert cond.p_x0 == 0.5
        assert cond.p_z0_given_x == (0.5, 0.5)
        assert all(v == 0.5 for v in cond.p_y0_given_xz.values())

    def test_closed_form_values(self):
        cp = CausalParams(1.5, 2.0, 1.0, 0.2, 0.02, 0.01)
        y0 = conditional_probabilities(cp).p_y0_given_xz
        assert y0[(0, 0)] == pytest.approx(1 / 1.2)
        assert y0[(1, 0)] == pytest.approx(1 / 1.004)
        assert y0[(0, 1)] == pytest.approx(1 / 1.002)
        assert y0[(1, 1)] == pytest.approx(1 / 1.00004)

    def test_normalization_identity(self, rng):
        for _ in range(50):
            cp = random_causal(rng, with_interaction=bool(rng.integers(2)))
            cond = conditional_probabilities(cp)
            for (x, z), p1 in cond.p_y1_given_xz.items():
                # P(Y=0|x,z) is the bare factor; the two levels sum to 1
                assert p1 + cond.p_y0_given_xz[(x, z)] == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_interaction_enters_only_11_factor(self):
        no = CausalParams(1, 1, 1, 0.5, 2.0, 3.0)
        yes = CausalParams(1, 1, 1, 0.5, 2.0, 3.0, 2.0, with_interaction=True)
        eno = conditional_probabilities(no).p_y0_given_xz
        eyes = conditional_probabilities(yes).p_y0_given_xz
        assert eno[(1, 0)] == eyes[(1, 0)]
        assert eno[(0, 1)] == eyes[(0, 1)]
        assert eyes[(1, 1)] == pytest.approx(1 / (1 + 0.5 * 2 * 3 * 2))


class TestConditionalProbabilities:
    def test_uniform(self):
        cond = conditional_probabilities(CausalParams(1, 1, 1, 1, 1, 1))
        joint = cond.joint()
        assert all(p == pytest.approx(0.125) for p in joint.probs)

    def test_empirical_model_value_by_formula(self):
        cp = CausalParams(1.7132, 0.4659, 3.3059, 0.4881, 1.9240, 2.4038)
        cond = conditional_probabilities(cp)
        prod = 0.4881 * 1.9240 * 2.4038
        assert cond.p_y1_given_xz[(1, 1)] == pytest.approx(prod / (1 + prod))

    def test_joint_sums_to_one(self, rng):
        for _ in range(50):
            cp = random_causal(rng, with_interaction=bool(rng.integers(2)))
            assert sum(conditional_probabilities(cp).joint().probs) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_joint_keeps_level0_of_near_certain_outcome(self):
        # P(Y=0|x,z) = 1e-20 is the eta factor, not 1 - P(Y=1|x,z) = 0
        joint = conditional_probabilities(
            CausalParams(1.0, 1.0, 1.0, 1e20, 1.0, 1.0)
        ).joint()
        for x in (0, 1):
            for z in (0, 1):
                assert joint.prob(x, z, 0) == pytest.approx(
                    0.25e-20, rel=1e-14, abs=0.0
                )

    def test_joint_near_the_float_range_matches_the_exact_joint(self):
        # zc * xzc and y * zy overflow, so their level-1 probabilities are
        # 1.0; the exact joint has five cells below the normal range
        values = (1.387787036005161e295, 6.436591753309211e176,
                  8.651822222387864e141, 9.244291379236444e244,
                  8.24987848667008e-245, 5.723388001407132e123)
        probs = conditional_probabilities(CausalParams(*values)).joint().probs
        exact = exact_joint(*values)
        assert sum(exact) == 1
        normal = [i for i, p in enumerate(exact)
                  if float(p) >= sys.float_info.min]
        assert normal == [3, 6, 7]
        for i in normal:
            assert abs(Fraction(probs[i]) - exact[i]) <= exact[i] * 1e-15
        # cells 4 and 5 are subnormal, and the first three round to 0
        assert [probs[i] for i in (0, 1, 2, 4, 5)] == [0.0] * 5
        assert 0.0 < float(exact[4]) < float(exact[5]) < sys.float_info.min

    @pytest.mark.parametrize("values, want", [
        ((1.0, 1e200, 1e200, 1.0, 1.0, 1.0),
         (2.5e-201, 2.5e-201, 0.25, 0.25, 0.0, 0.0, 0.25, 0.25)),
        ((1.0, 1.0, 1.0, 1e200, 1e-200, 1e200),
         (2.5e-201, 0.25, 0.0, 0.25, 0.125, 0.125, 2.5e-201, 0.25)),
    ])
    def test_an_overflowing_odds_product_keeps_its_mass(self, values, want):
        # the odds of Z at X=1 and of Y at (0, 1) overflow: the level-1
        # probability is 1.0, so the joint keeps that block's mass
        probs = conditional_probabilities(CausalParams(*values)).joint().probs
        assert probs == pytest.approx(want, rel=1e-15, abs=0.0)
        exact = exact_joint(*values)
        for p, e in zip(probs, exact):
            if float(e) >= sys.float_info.min:
                assert abs(Fraction(p) - e) <= e * 1e-15
            else:  # out of the float range, as 0.5 / (1 + 1e400) is
                assert p == 0.0


#: a positive parameter at 10^U(-300, 300)
_wide = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
#: causal parameters of either model with every field drawn from ``_wide``
_wide_causal = st.one_of(
    st.builds(CausalParams, _wide, _wide, _wide, _wide, _wide, _wide),
    st.builds(CausalParams, _wide, _wide, _wide, _wide, _wide, _wide, _wide,
              st.just(True)),
)


class TestDirectJoint:
    """``joint`` builds its table without the constructor's checks; they
    hold on every table it returns."""

    @settings(max_examples=1000, deadline=None)
    @given(_wide_causal)
    @example(CausalParams(1, 1, 1, 1e200, 1e200, 1e-200))  # (1,1) overflows
    def test_the_joint_passes_the_constructor_or_raises(self, cp):
        try:
            joint = conditional_probabilities(cp).joint()
        except CausalModelError as exc:
            assert "the joint probabilities sum to" in str(exc)
        else:
            assert type(joint) is JointProbabilityTable
            assert JointProbabilityTable(joint.probs) == joint

    def test_nan_probability_is_rejected(self):
        # a hand-built record: a nan P(X=1) makes the sum nan
        halves = {(x, z): 0.5 for x in (0, 1) for z in (0, 1)}
        cond = ConditionalProbabilities(math.nan, (0.5, 0.5), halves, 0.5,
                                        (0.5, 0.5), halves)
        with pytest.raises(CausalModelError, match=(
                "^the joint probabilities sum to nan: the parameters leave "
                "the float range$")):
            cond.joint()


#: a parameter or a margin: any float, the ends of the float range often
_any_param = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.7976931348623157e308,
                     math.inf, math.nan]),
)


class TestDirectCausalParams:
    """``_causal_params`` builds its record without the constructor's
    checks: the record ``CausalParams`` builds from the same seven values,
    or its error."""

    @settings(max_examples=1000, deadline=None)
    @given(st.tuples(_any_param, _any_param, _any_param, _any_param),
           _any_param, _any_param, _any_param, _any_param, st.booleans())
    @example((1e-300, 1e-300, 1e300, 1e300), 1.0, 1.0, 1.0, 1.0, False)  # xc
    @example((1.0, 2.0, 3.0, 4.0), math.inf, 1.0, 1.0, 1.0, True)  # y
    @example((1.0, 2.0, 3.0, 4.0), 1.0, 1.0, 1.0, 2.0, False)  # xzy
    @example((1.0, 2.0, 3.0, 4.0), 1.0, 1.0, 1.0, 2.0, True)
    def test_the_record_is_the_constructors(self, m, y, xy, zy, xzy,
                                            with_interaction):
        m0, m1, m2, m3 = m
        got = record_outcome(lambda: _causal_params(
            m, y, xy, zy, xzy, with_interaction))
        want = record_outcome(lambda: CausalParams(
            (m2 + m3) / (m0 + m1), m1 / m0, (m3 / m2) * (m0 / m1),
            y, xy, zy, xzy, with_interaction))
        assert got == want


class TestFitCausal:
    def test_uniform(self):
        cp = fit_causal(ContingencyTable((10,) * 8))
        for name in ("xc", "zc", "xzc", "y", "xy", "zy"):
            assert getattr(cp, name) == pytest.approx(1.0, abs=1e-9)

    def test_generative_roundtrip(self, rng):
        for _ in range(10):
            gen = random_causal(rng, with_interaction=False)
            table = ContingencyTable(
                tuple(p * 1e4 for p in conditional_probabilities(gen).joint().probs)
            )
            cp = fit_causal(table, with_interaction=False)
            for name in ("xc", "zc", "xzc", "y", "xy", "zy"):
                assert getattr(cp, name) == pytest.approx(
                    getattr(gen, name), abs=1e-8
                )

    def test_interaction_fit_recovers_unit_cross_ratio(self, rng):
        gen = random_causal(rng, with_interaction=False)
        table = ContingencyTable(
            tuple(p * 1e4 for p in conditional_probabilities(gen).joint().probs)
        )
        cp = fit_causal(table, with_interaction=True)
        assert cp.xzy == pytest.approx(1.0, abs=1e-8)

    def test_saturated_joint_reconstruction_exact(self, rng):
        t = ContingencyTable(tuple(rng.uniform(2, 90, 8)))
        cp = fit_causal(t, with_interaction=True)
        rebuilt = conditional_probabilities(cp).joint()
        target = joint_probabilities(t)
        for a, b in zip(rebuilt.probs, target.probs):
            assert a == pytest.approx(b, abs=1e-10)

    def test_two_routes_agree(self, rng):
        t = ContingencyTable(tuple(rng.uniform(5, 80, 8)))
        direct = fit_causal(t, with_interaction=False)
        via_fit = causal_from_nocausal(
            fit_poisson(t, two_way_spec()).params
        )
        for name in ("xc", "zc", "xzc", "y", "xy", "zy"):
            assert getattr(direct, name) == pytest.approx(
                getattr(via_fit, name), rel=1e-6
            )

    def test_zero_margin_rejected(self):
        t = ContingencyTable((1, 1, 0, 0, 1, 1, 1, 1))
        with pytest.raises(CausalModelError, match="zero margin"):
            fit_causal(t)

    def test_json_keys(self):
        doc = json.loads(fit_causal(ContingencyTable((10,) * 8)).to_json())
        assert set(doc) == {
            "Xc", "Zc", "XZc", "Y", "XY", "ZY", "XZY",
            "with_interaction", "eta",
        }
        assert len(doc["eta"]) == 7


class TestConversions:
    def test_worked_conversion_value(self):
        cp = causal_from_nocausal(SEC3_NC)
        assert cp.xzc == pytest.approx(1.1929, abs=5e-4)

    def test_unit_causal_parameter_case(self):
        nc = NoCausalParams(1.0, 1.5, 2.0, 0.2, 0.8383, 0.02, 0.01)
        cp = causal_from_nocausal(nc)
        assert cp.xzc == pytest.approx(1.0, abs=5e-4)

    def test_identity_on_unit_params(self):
        nc = NoCausalParams(1, 1, 1, 1, 1, 1, 1)
        cp = causal_from_nocausal(nc)
        for name in ("xc", "zc", "xzc", "y", "xy", "zy"):
            assert getattr(cp, name) == pytest.approx(1.0)

    def test_three_way_term_rejected(self):
        nc = NoCausalParams(1, 1, 1, 1, 1, 1, 1, 2.0)
        with pytest.raises(CausalModelError):
            causal_from_nocausal(nc)
        cp = CausalParams(1, 1, 1, 1, 1, 1, 2.0, with_interaction=True)
        with pytest.raises(CausalModelError):
            nocausal_from_causal(cp)

    def test_nan_joint_rejected(self):
        # the joint of these parameters is all nan; the conversion used to
        # return NoCausalParams with eta, x, z and xz all nan
        cp = CausalParams(
            xc=1.4733217925453454e-121, zc=7.069492208689044e-286,
            xzc=1.7581130897699523e222, y=2.6984315924773393e-17,
            xy=1.1159168164124091e133, zy=2.10296650436276e230,
        )
        with pytest.raises(CausalModelError):
            nocausal_from_causal(cp)

    def test_inverse_reproduces_worked_value(self):
        cp = CausalParams(
            xc=causal_from_nocausal(SEC3_NC).xc,
            zc=causal_from_nocausal(SEC3_NC).zc,
            xzc=1.1929, y=0.2, xy=0.02, zy=0.01,
        )
        nc = nocausal_from_causal(cp)
        assert nc.xz == pytest.approx(1.0, abs=5e-4)

    def test_roundtrip(self, rng):
        # log-parameters up to +-30: both conversions read ratios of cells
        for _ in range(500):
            cp = CausalParams(*(math.exp(v) for v in rng.uniform(-30, 30, 6)))
            back = causal_from_nocausal(nocausal_from_causal(cp))
            for name in ("xc", "zc", "xzc", "y", "xy", "zy"):
                assert getattr(back, name) == pytest.approx(
                    getattr(cp, name), rel=1e-12
                )

    def test_out_of_range_parameter_is_a_causal_model_error(self):
        # every joint cell is normal, but the cross ratio mu^XZ of the four
        # y = 0 cells overflows: the FitError of the cell ratios is mapped
        cp = CausalParams(0.0013373363149965934, 6.138812008661915e-196,
                          1.0171737280855518e+283, 0.13855286393513366,
                          1.4024178875967488e+155, 3.065807506414767e-85)
        with pytest.raises(CausalModelError) as exc:
            nocausal_from_causal(cp)
        assert str(exc.value) == (
            "multiplicative parameter xz must be finite and > 0")

    @pytest.mark.parametrize("big", [1e155, 1e200])
    def test_underflowing_joint_rejected(self, big):
        # P(0,0,0) is 5e-311 (subnormal, few digits left) or 0
        cp = CausalParams(big, big, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(CausalModelError, match="underflows"):
            nocausal_from_causal(cp)

    def test_underflowing_expected_count_rejected(self):
        # m(1,1,1) = 1e-160 * 1e-160 * ... underflows to 0 on the way
        nc = NoCausalParams(1.0, 1e-160, 1e-160, 1.0, 1.0, 1e-100, 1.0)
        with pytest.raises(CausalModelError, match="underflows"):
            causal_from_nocausal(nc)

    def test_conversion_consistent_with_marginalization(self, rng):
        # mu_c^X must equal the joint's X-margin odds
        nc = random_nocausal(rng, three_way=False, scale=1.0)
        cp = causal_from_nocausal(nc)
        probs = nc.expected_counts()
        p1 = sum(probs[4:])
        p0 = sum(probs[:4])
        assert cp.xc == pytest.approx(p1 / p0, rel=1e-12)

    def test_conditional_independence_iff_unit_interaction(self, rng):
        cp = random_causal(rng, with_interaction=False)
        cp_indep = CausalParams(cp.xc, cp.zc, 1.0, cp.y, cp.xy, cp.zy)
        cond = conditional_probabilities(cp_indep)
        assert cond.p_z1_given_x[0] == pytest.approx(
            cond.p_z1_given_x[1], abs=1e-10
        )


def test_mediator_block_log_residual_helper():
    # sanity: the conversion ratio is a pure function of the outcome block
    nc = SEC3_NC
    cp = causal_from_nocausal(nc)
    e = conditional_probabilities(cp).p_y0_given_xz
    assert cp.zc == pytest.approx(nc.z * e[(0, 0)] / e[(0, 1)], rel=1e-12)
    assert math.isclose(
        cp.xzc,
        nc.xz * e[(1, 0)] * e[(0, 1)] / (e[(0, 0)] * e[(1, 1)]),
        rel_tol=1e-12,
    )


README_TABLE = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))


class TestOneParameterCheck:
    """Each record checks its parameters with one chained test; the
    ``_check_positive`` that names the failing one runs only when it fails."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = fitting._check_positive

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fitting, "_check_positive", counting)
        monkeypatch.setattr(causal, "_check_positive", counting)
        return calls

    @pytest.mark.parametrize("run", [
        lambda t: fit_poisson(t, two_way_spec()),
        lambda t: fit_poisson(t, saturated_spec()),
        saturated_closed_form,
        lambda t: fit_causal(t, True),
        lambda t: nocausal_from_causal(fit_causal(t)),
    ], ids=["fit_poisson-two-way", "fit_poisson-saturated",
            "saturated_closed_form", "fit_causal-saturated",
            "nocausal_from_causal"])
    def test_no_check_on_a_successful_fit(self, checks, run):
        run(README_TABLE)
        assert checks == []

    @pytest.mark.parametrize("counts, name, causal_name", [
        ((1e-300, 1e-300, 1, 1, 1e300, 1e300, 1, 1), "x", "xzc"),
        ((1e-300, 1e-300, 1e300, 1e300, 1, 1, 1, 1), "z", "zc"),
        ((1, 1, 1e-300, 1e-300, 1e-300, 1e-300, 1e300, 1e300), "xz", "xzc"),
    ])
    def test_one_check_on_a_failing_fit(self, checks, counts, name,
                                        causal_name):
        table = ContingencyTable(counts)
        fit = fit_poisson(table)  # builds no NoCausalParams
        assert checks == []
        with pytest.raises(FitError) as exc:
            fit.params
        assert str(exc.value) == (
            f"multiplicative parameter {name} must be finite and > 0")
        assert len(checks) == 1
        checks.clear()
        with pytest.raises(CausalModelError) as exc:
            fit_causal(table)
        assert str(exc.value) == f"parameter {causal_name} must be finite and > 0"
        assert len(checks) == 1


@pytest.mark.xfail(
    strict=True, raises=FitError,
    reason="the library route only, which waits on ROADMAP item 3's "
           "selftest edit: bench/selftest.py pins the library's saturated "
           "fit_causal to saturated_closed_form, which checks mu, mu^X, mu^Z "
           "and mu^XZ though no effect uses them; the effects command reads "
           "the fit's Y-block alone (TestUnprintedParameters in test_cli.py)",
)
def test_saturated_fit_causal_checks_only_its_y_block():
    n = FAR_SATURATED
    y_block = ((n[1] / n[0]), (n[5] / n[4]) * (n[0] / n[1]),
               (n[3] / n[2]) * (n[0] / n[1]),
               ((n[7] / n[6]) * (n[4] / n[5])) * ((n[2] / n[3]) * (n[1] / n[0])))
    want = _causal_params(_xz_margins(n), *y_block, True)
    assert fit_causal(ContingencyTable(n), True) == want
