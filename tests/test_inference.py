import math

import numpy as np
import pytest

from loglin_effects import (
    CausalModelError,
    CausalParams,
    ContingencyTable,
    FitResult,
    NoCausalParams,
    additive_zero_test,
    causal_from_nocausal,
    fit_poisson,
    linearity_bonds,
    saturated_spec,
    two_sided_p,
    two_way_spec,
)
from loglin_effects.inference import TestError, TestResult
from conftest import TABLE5
from exact_reference import exact_contrast_variance


def balanced_table(scale=1000.0):
    """Expected counts whose generating parameters satisfy the zero
    additive-interaction constraint exactly."""
    y, xy = 0.5, 1.8
    zy = y ** -2 * xy ** -1
    nc = NoCausalParams(
        eta=scale, x=1.3, z=0.7, y=y, xz=1.4, xy=xy, zy=zy
    )
    return nc.as_table()


class TestNormalConvention:
    def test_reported_pvalue_convention(self):
        # the printed pair (z, p) pins down the two-sided normal test
        assert two_sided_p(0.4174) == pytest.approx(0.6764, abs=5e-4)

    def test_p_monotone_in_abs_z(self):
        zs = [0.0, 0.3, 0.7, 1.2, 2.5, 4.0]
        ps = [two_sided_p(z) for z in zs]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_symmetry(self):
        assert two_sided_p(-1.3) == two_sided_p(1.3)


class TestAdditiveZeroTest:
    def test_exact_null_table(self):
        fit = fit_poisson(balanced_table(), two_way_spec())
        res = additive_zero_test(fit)
        assert abs(res.beta_hat) < 1e-8
        assert abs(res.z) < 1e-6
        assert res.p_two_sided == pytest.approx(1.0, abs=1e-6)

    def test_z_scales_with_counts(self):
        # constraint violated; multiplying counts by 100 shrinks se ~10x
        nc = NoCausalParams(
            eta=200.0, x=1.3, z=0.7, y=0.5, xz=1.4, xy=1.8, zy=math.e / 0.45
        )
        small = additive_zero_test(fit_poisson(nc.as_table(), two_way_spec()))
        big_table = type(nc)(
            nc.eta * 100, nc.x, nc.z, nc.y, nc.xz, nc.xy, nc.zy
        ).as_table()
        big = additive_zero_test(fit_poisson(big_table, two_way_spec()))
        assert big.se == pytest.approx(small.se / 10.0, rel=0.02)
        assert big.z == pytest.approx(small.z * 10.0, rel=0.02)

    def test_z_consistency(self):
        fit = fit_poisson(balanced_table(), two_way_spec())
        res = additive_zero_test(fit)
        assert res.z == pytest.approx(res.beta_hat / res.se, abs=1e-12)
        # twice the upper tail of the standard normal CDF
        cdf = 0.5 * math.erfc(-abs(res.z) / math.sqrt(2.0))
        assert res.p_two_sided == pytest.approx(2.0 * (1.0 - cdf), abs=1e-9)

    def test_variance_matches_term_expansion(self):
        fit = fit_poisson(balanced_table(), two_way_spec())
        res = additive_zero_test(fit)
        terms = fit.spec.ordered_terms
        idx = {t: i for i, t in enumerate(terms)}
        c = np.asarray(fit.covariance)
        iy, ixy, izy = idx["Y"], idx["XY"], idx["ZY"]
        var = (
            c[izy, izy]
            + 4 * c[iy, iy]
            + c[ixy, ixy]
            + 4 * c[izy, iy]
            + 2 * c[izy, ixy]
            + 4 * c[ixy, iy]
        )
        assert res.se ** 2 == pytest.approx(var, abs=1e-12)

    @pytest.mark.parametrize("counts", [
        (42, 18, 25, 31, 17, 23, 12, 48),
        (1e200, 1, 1, 1e200, 2, 3e150, 1e100, 1),
    ] + [tuple(10.0 ** np.random.default_rng(seed).uniform(-30, 30, 8))
         for seed in range(20)])
    def test_variance_is_the_exact_inverse_y_block_information(self, counts):
        # c' I^-1 c of the Y-block information at the fitted counts
        fit = fit_poisson(ContingencyTable(counts))
        exact = exact_contrast_variance(fit.fitted_counts)
        se = additive_zero_test(fit).se
        assert se ** 2 == pytest.approx(float(exact), rel=1e-12)

    def test_sign_flip_under_outcome_relabel(self, rng):
        # swapping the Y levels flips all three contrast lambdas, so the
        # statistic changes sign with the standard error unchanged
        counts = list(rng.uniform(3, 60, 8))
        swapped = list(counts)
        for i in range(0, 8, 2):
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        a = additive_zero_test(
            fit_poisson(ContingencyTable(tuple(counts)), two_way_spec())
        )
        b = additive_zero_test(
            fit_poisson(ContingencyTable(tuple(swapped)), two_way_spec())
        )
        assert b.z == pytest.approx(-a.z, rel=1e-9)
        assert b.se == pytest.approx(a.se, rel=1e-9)

    @pytest.mark.parametrize("counts", [
        # these two raised an untyped ZeroDivisionError
        (0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),  # a zero count
        (5e-324,) * 8,  # 1/A + 1/B underflows to 0
        (1e-310,) * 8,  # 1/A + 1/B = 5e-311: the variance overflows
    ])
    def test_unusable_variance_is_a_test_error(self, counts):
        # fitted counts of a hand-built fit
        fit = FitResult(counts, (1.0, 1.0, 1.0, 1.0), counts, 1,
                        two_way_spec())
        with pytest.raises(TestError, match="^covariance is not positive "
                                            "on the test contrast$"):
            additive_zero_test(fit)

    @pytest.mark.parametrize("counts, y_block", [
        # a finite z-test from a negative count
        ((-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)),
        # a finite z-test from an infinite count
        ((1.0, 1.0, 1.0, math.inf, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0)),
        # ValueError: math domain error
        ((1.0,) * 8, (-1.0, 1.0, 1.0, 1.0)),
        # a nan beta_hat, z and p
        ((1.0,) * 8, (math.nan, 1.0, 1.0, 1.0)),
    ])
    def test_fit_out_of_range_is_a_test_error(self, counts, y_block):
        # a hand-built fit that no solve returns
        fit = FitResult(counts, y_block, counts, 1, two_way_spec())
        with pytest.raises(TestError, match="^a fitted count is not finite "
                                            "and >= 0, or a Y-block "):
            additive_zero_test(fit)

    def test_saturated_fit_rejected(self):
        nc = NoCausalParams(100.0, 1.2, 0.9, 1.1, 1.3, 0.8, 1.4, 1.2)
        fit = fit_poisson(nc.as_table(), saturated_spec())
        with pytest.raises(TestError, match="two-way"):
            additive_zero_test(fit)


class TestLinearityBonds:
    def test_exact_bonds_zero_residuals(self):
        y, xy = 0.6, 1.5
        cp = CausalParams(
            xc=1.1, zc=0.5, xzc=4.0, y=y, xy=xy, zy=y ** -2 * xy ** -1
        )
        rep = linearity_bonds(cp)
        assert rep.bond1_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.bond2_residual == pytest.approx(0.0, abs=1e-12)

    def test_first_empirical_model_residual(self):
        rep = linearity_bonds(TABLE5)
        expected = math.log(1.9240 * 0.4881 ** 2 * 2.4038)
        assert rep.bond1_residual == pytest.approx(expected, abs=1e-12)
        assert abs(rep.bond1_residual) < 0.15  # small, consistent with H0

    def test_bond2_constructed(self):
        cp = CausalParams(xc=1.0, zc=0.5, xzc=4.0, y=1.0, xy=1.0, zy=1.0)
        assert linearity_bonds(cp).bond2_residual == pytest.approx(0.0, abs=1e-12)

    def test_bond1_is_the_z_test_beta_hat(self):
        fit = fit_poisson(balanced_table(), two_way_spec())
        cp = causal_from_nocausal(fit.params)
        res = additive_zero_test(fit)
        assert abs(res.z) < 1e-6
        # one expression on the same Y-block: the same bits, not just close
        assert linearity_bonds(cp, fit).bond1_residual == res.beta_hat
        assert linearity_bonds(cp).bond1_residual == res.beta_hat

    def test_interaction_model_rejected(self):
        cp = CausalParams(1, 1, 1, 1, 1, 1, 2.0, with_interaction=True)
        with pytest.raises(CausalModelError):
            linearity_bonds(cp)

    def test_extreme_parameters_do_not_overflow(self):
        # (mu^Y)^2 = 1e400 and (mu_c^Z)^2 = 1e-600 are out of float range
        rep = linearity_bonds(CausalParams(1, 1e-300, 1, 1e200, 1e-300, 1))
        assert rep.bond1_residual == pytest.approx(
            math.log(1e-300) + 2 * math.log(1e200), rel=1e-14
        )
        assert rep.bond2_residual == pytest.approx(
            2 * math.log(1e-300), rel=1e-14
        )


def test_json_shapes():
    fit = fit_poisson(balanced_table(), two_way_spec())
    res = additive_zero_test(fit)
    assert isinstance(res, TestResult)
    assert set(res.to_dict()) == {
        "beta_hat", "se", "z", "p", "constraint"
    }
    rep = linearity_bonds(causal_from_nocausal(fit.params))
    assert set(rep.to_dict()) == {
        "bond1_residual", "bond2_residual"
    }
