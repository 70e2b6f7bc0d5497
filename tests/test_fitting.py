import copy
import decimal
import itertools
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loglin_effects import (
    CELLS,
    CausalModelError,
    ContingencyTable,
    FitError,
    ModelSpec,
    NoCausalParams,
    additive_zero_test,
    design_matrix,
    effects_report,
    fit_causal,
    fit_poisson,
    saturated_closed_form,
    saturated_spec,
    two_way_spec,
)
from loglin_effects import fitting
from loglin_effects.fitting import TERM_ORDER
from conftest import (
    DEVIANCE_OVERFLOW,
    FAR_TWO_WAY,
    random_nocausal,
    table_from_params,
)

README_COUNTS = (42, 18, 25, 31, 17, 23, 12, 48)


class TestDesignMatrix:
    def test_two_way_shape_and_columns(self):
        D = np.asarray(design_matrix(two_way_spec()))
        assert D.shape == (8, 7)
        # row for cell (1,1,1): every two-way term active
        assert list(D[7]) == [1, 1, 1, 1, 1, 1, 1]
        # row for cell (0,0,0): intercept only
        assert list(D[0]) == [1, 0, 0, 0, 0, 0, 0]

    def test_saturated_full_rank(self):
        D = np.asarray(design_matrix(saturated_spec()))
        assert D.shape == (8, 8)
        assert np.linalg.matrix_rank(D) == 8

    def test_spec_is_one_bool(self):
        assert two_way_spec() == ModelSpec()
        assert saturated_spec() == ModelSpec(with_three_way=True)
        assert two_way_spec().ordered_terms == TERM_ORDER[:-1]
        assert saturated_spec().ordered_terms == TERM_ORDER
        # one shared record per model, built once
        assert two_way_spec() is two_way_spec()
        assert saturated_spec() is saturated_spec()
        # a term set is not a model: it would read as a truthy flag
        with pytest.raises(ValueError, match="bool"):
            ModelSpec(frozenset({"X", "Z", "Y", "XZY"}))

    def test_rows_are_the_log_expected_counts(self, rng):
        # the design matrix and expected_counts share one dummy coding
        nc = random_nocausal(rng, three_way=True)
        D = design_matrix(saturated_spec())
        lam = np.array([nc.additive[t] for t in TERM_ORDER])
        assert np.allclose(D @ lam, np.log(nc.expected_counts()), rtol=1e-13)


class TestFitPoisson:
    def test_uniform_table(self):
        fit = fit_poisson(ContingencyTable((10,) * 8), two_way_spec())
        mult = fit.params.multiplicative
        for term in ("X", "Z", "Y", "XZ", "XY", "ZY"):
            assert mult[term] == pytest.approx(1.0, abs=1e-9)
        assert mult["eta"] == pytest.approx(10.0, abs=1e-8)
        assert fit.deviance == pytest.approx(0.0, abs=1e-9)

    def test_saturated_reproduces_counts(self, rng):
        t = ContingencyTable(tuple(rng.uniform(2, 60, 8)))
        fit = fit_poisson(t, saturated_spec())
        assert fit.fitted_counts == pytest.approx(t.counts, rel=1e-9)
        assert fit.deviance == pytest.approx(0.0, abs=1e-9)

    def test_generative_roundtrip(self, rng):
        nc = random_nocausal(rng, three_way=False, scale=500.0)
        fit = fit_poisson(table_from_params(nc), two_way_spec())
        for term, lam in nc.additive.items():
            if term == "XZY":
                continue
            assert fit.params.additive[term] == pytest.approx(lam, abs=1e-8)

    def test_score_equations_at_convergence(self, rng):
        t = ContingencyTable(tuple(rng.uniform(1, 80, 8)))
        fit = fit_poisson(t, two_way_spec())
        D = np.asarray(design_matrix(two_way_spec()))
        resid = D.T @ (np.array(t.counts) - np.array(fit.fitted_counts))
        assert np.max(np.abs(resid)) < 1e-8 * t.total

    def test_two_way_fit_kills_three_way_cross_ratio(self, rng):
        t = ContingencyTable(tuple(rng.uniform(1, 50, 8)))
        m = fit_poisson(t, two_way_spec()).fitted_counts
        cross = (m[7] * m[4] * m[2] * m[1]) / (m[6] * m[5] * m[3] * m[0])
        assert cross == pytest.approx(1.0, abs=1e-8)

    def test_to_dict_raises_on_an_overflowed_deviance(self):
        fit = fit_poisson(ContingencyTable(DEVIANCE_OVERFLOW))
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            exact = 2 * sum(D(c) * (D(c) / D(f)).ln() - (D(c) - D(f))
                            for c, f in zip(DEVIANCE_OVERFLOW,
                                            fit.fitted_counts))
        assert exact > D(sys.float_info.max)
        assert fit.deviance == math.inf
        # the parameters and the covariance are finite; the deviance is not
        assert all(math.isfinite(v) for row in fit.covariance for v in row)
        with pytest.raises(FitError) as exc:
            fit.to_dict()
        assert str(exc.value) == "the deviance leaves the float range"

    def test_deviance_reads_equal_after_copies_and_is_read_only(self):
        fit = fit_poisson(ContingencyTable(README_COUNTS))
        deviance = fit.deviance
        assert fit.deviance == deviance > 0.0
        assert fit.counts == ContingencyTable(README_COUNTS).counts
        for other in (pickle.loads(pickle.dumps(fit)), copy.deepcopy(fit)):
            assert other.deviance == deviance
        with pytest.raises(AttributeError):
            fit.deviance = 0.0

    def test_divergence_detected(self):
        # a zero cell drives the three-way estimate to -inf
        t = ContingencyTable((5, 5, 5, 5, 5, 5, 5, 0))
        with pytest.raises(FitError, match="divergent"):
            fit_poisson(t, saturated_spec())

    def test_parameters_raise_only_where_read(self):
        # the fit and its Y-block are finite; mu^X = m(1,0,0)/m(0,0,0)
        # overflows, and only reading params says so
        fit = fit_poisson(ContingencyTable(FAR_TWO_WAY))
        assert all(0.0 < v < math.inf for v in fit.y_block)
        assert fit.y_block[3] == 1.0
        for _ in range(2):  # a failed read caches nothing
            with pytest.raises(FitError) as exc:
                fit.params
            assert str(exc.value) == (
                "multiplicative parameter x must be finite and > 0")

    def test_covariance_symmetric_psd(self, rng):
        fit = fit_poisson(
            ContingencyTable(tuple(rng.uniform(3, 40, 8))), two_way_spec()
        )
        cov = np.asarray(fit.covariance)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_covariance_matches_fd_hessian(self, rng):
        # inverse observed information vs central-difference Hessian
        spec = two_way_spec()
        D = design_matrix(spec)
        t = ContingencyTable(tuple(rng.uniform(5, 60, 8)))
        fit = fit_poisson(t, spec)
        lam = np.array([fit.params.additive[k] for k in spec.ordered_terms])
        n = np.array(t.counts)

        def loglik(v):
            eta = D @ v
            return float(n @ eta - np.exp(eta).sum())

        h = 5e-4
        p = len(lam)
        H = np.zeros((p, p))
        for i in range(p):
            for j in range(p):
                for si, sj, w in (
                    (1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)
                ):
                    step = lam.copy()
                    step[i] += si * h
                    step[j] += sj * h
                    H[i, j] += w * loglik(step)
        H /= 4 * h * h
        fd_cov = np.linalg.inv(-H)
        assert np.max(np.abs(fd_cov - fit.covariance) / np.abs(fit.covariance)) < 1e-4

    def test_json_serialization_shape(self, rng):
        import json

        fit = fit_poisson(
            ContingencyTable(tuple(rng.uniform(3, 40, 8))), two_way_spec()
        )
        doc = json.loads(fit.to_json())
        assert set(doc["additive"]) == {"eta", "X", "Z", "Y", "XZ", "XY", "ZY"}
        assert len(doc["covariance"]["values"]) == 49
        assert doc["converged"] is True


class TestClosedForms:
    def test_uniform_closed_form(self):
        p = saturated_closed_form(ContingencyTable((7,) * 8))
        assert all(
            v == pytest.approx(1.0) for k, v in p.multiplicative.items()
            if k != "eta"
        )
        assert p.eta == 7

    def test_single_parameter_construction(self):
        base = NoCausalParams(10, 1, 1, 1, 1, 2, 1, 1)
        rec = saturated_closed_form(base.as_table())
        assert rec.xy == pytest.approx(2.0)
        assert rec.eta == pytest.approx(10.0)

    def test_matches_irls_saturated(self, rng):
        t = ContingencyTable(tuple(rng.uniform(2, 70, 8)))
        closed = saturated_closed_form(t)
        irls = fit_poisson(t, saturated_spec()).params
        for term in closed.multiplicative:
            assert closed.additive[term] == pytest.approx(
                irls.additive[term], abs=1e-8
            )

    def test_zero_cell_rejected(self):
        with pytest.raises(FitError):
            saturated_closed_form(
                ContingencyTable((0, 1, 1, 1, 1, 1, 1, 1))
            )

    def test_underflowing_parameter_is_a_fit_error(self):
        # xz = (n(1,1,0)/n(1,0,0)) * (n(0,0,0)/n(0,1,0)) underflows to 0
        t = ContingencyTable((4.54, 3.66e-14, 1.97e108, 2.65e45, 1.98e214,
                              1.11e-30, 5.07e-18, 1.77e199))
        with pytest.raises(FitError, match="xz"):
            saturated_closed_form(t)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("index", range(8))
    def test_non_finite_or_non_positive_params_rejected(self, bad, index):
        args = [1.0] * 8
        args[index] = bad
        with pytest.raises(ValueError, match="finite and > 0"):
            NoCausalParams(*args)


class TestMultiplicativeConversion:
    def test_expected_counts_match_a_fraction_reference(self, rng):
        # log-parameters on +-300: a product taken factor by factor can
        # overflow, or pass through the subnormal range and lose digits,
        # although the count itself is a normal float
        checked = 0
        for _ in range(3000):
            # the parameters in TERM_ORDER, the constructor's order
            p = NoCausalParams(*map(math.exp, rng.uniform(-300, 300, 8)))
            mult = p.multiplicative
            exact = [
                math.prod((Fraction(mult[t]) for t in TERM_ORDER
                           if t == "eta" or all(cell["XZY".index(v)] for v in t)),
                          start=Fraction(1))
                for cell in CELLS
            ]
            if not all(Fraction(sys.float_info.min) <= e
                       <= Fraction(sys.float_info.max) for e in exact):
                continue
            checked += 1
            for got, want in zip(p.expected_counts(), exact):
                assert math.isfinite(got)
                assert abs(Fraction(got) - want) <= want * Fraction(1e-15)
        assert checked > 1000

    def test_expected_count_beyond_float_range_is_inf(self):
        p = NoCausalParams(1e300, 1e300, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert p.expected_counts() == (1e300,) * 4 + (math.inf,) * 4


def _margins(counts):
    """The XZ, XY and ZY margins of a table, keyed by (pair, levels)."""
    out = {}
    for keep in ((0, 1), (0, 2), (1, 2)):
        for cell, c in zip(CELLS, counts):
            key = (keep, cell[keep[0]], cell[keep[1]])
            out[key] = out.get(key, 0.0) + c
    return out


def _separable(counts):
    """Reference: is a margin n(x,z,+) zero, or does an affine a + b*x + c*z
    that is not zero on every (x, z) separate Y=1 from Y=0?

    It enumerates the sign patterns of the direction over the four binomial
    cells.  A pattern s is affine exactly when s00 + s11 - s01 - s10 = 0
    has a solution with those signs, i.e. when s00, -s01, -s10, s11 take
    both signs; a cell where the direction is > 0 (< 0) must have no Y=0
    (Y=1) count.
    """
    n0, n1 = counts[0::2], counts[1::2]
    if any(a + b == 0 for a, b in zip(n0, n1)):
        return True
    for s in itertools.product((-1, 0, 1), repeat=4):
        if {s[0], -s[1], -s[2], s[3]} >= {-1, 1} and all(
            (si <= 0 or a == 0) and (si >= 0 or b == 0)
            for si, a, b in zip(s, n0, n1)
        ):
            return True
    return False


class TestMleExistence:
    def test_quasi_separation_rejected(self):
        # n(0,0,1) = n(0,1,1) = 0: lambda^Y -> -inf with lambda^XY -> +inf
        # raises the likelihood without bound; no finite MLE exists
        t = ContingencyTable((5, 0, 7, 0, 3, 4, 6, 8))
        with pytest.raises(FitError, match=r"\(0, 0, 1\), \(0, 1, 1\)"):
            fit_poisson(t, two_way_spec())

    def test_every_zero_pattern_against_separation_reference(self, rng):
        # all 2^8 placements of zero cells; the check must raise exactly when
        # the sign-pattern reference finds a separation, and every fit that
        # is returned must meet the observed margins
        for zeros in itertools.product((False, True), repeat=8):
            if all(zeros):
                continue
            counts = tuple(
                0.0 if zero else float(v)
                for zero, v in zip(zeros, rng.integers(1, 30, 8))
            )
            t = ContingencyTable(counts)
            if _separable(counts):
                with pytest.raises(FitError, match="does not exist"):
                    fit_poisson(t, two_way_spec())
                continue
            fit = fit_poisson(t, two_way_spec())
            obs, got = _margins(counts), _margins(fit.fitted_counts)
            for key, o in obs.items():
                assert got[key] == pytest.approx(o, rel=1e-9, abs=1e-9)


    def test_underflowing_fitted_count_rejected(self):
        # the MLE exists, but m(0,0,1) = 1.4e-101 * P(Y=1|0,0) underflows
        t = ContingencyTable((
            1.413206146113962e-101, 1.2888925180744533e-107,
            4.1098455412908226e71, 4.10984554129082e71,
            7.669454141975074e94, 1.0, 1.0, 7.459106318111507e127,
        ))
        with pytest.raises(FitError, match="underflows"):
            fit_poisson(t)

    def test_interval_below_the_normal_range_rejected(self):
        # the least even count is 0 and the least odd one 5e-324: the
        # interval of t is positive, but its midpoint, scaled, is below the
        # least normal float, so the fit stops before its first step
        t = ContingencyTable((0.0, 5e-324, 1e300, 1e300, 1e300, 1e300,
                              1e300, 1e300))
        with pytest.raises(FitError, match="^a fitted count underflows$"):
            fit_poisson(t)

    def test_deviance_with_underflowing_count_ratio(self):
        # n(0,0,0) / m(0,0,0) = 1e-300 / 2.1e29 underflows to 0, which
        # made the deviance's log(c / f) raise "math domain error"
        counts = (1e-300,) + (1e30,) * 7
        fit = fit_poisson(ContingencyTable(counts))
        expected = 2.0 * sum(
            c * (math.log(c) - math.log(f)) - (c - f)
            for c, f in zip(counts, fit.fitted_counts)
        )
        assert fit.deviance == pytest.approx(expected, rel=1e-12)

    def test_overflowing_y_block_parameter_is_a_fit_error(self):
        # the fit converges to lambda^Y = 724, whose exp overflows
        t = ContingencyTable((0.009234292562400749, 0.0019505349237660058,
                              1e-300, 1.0, 0.9999999999999987,
                              1.3083909595959356e-15, 1e-300, 1.0))
        with pytest.raises(FitError, match="overflows"):
            fit_poisson(t)

    def test_step_lost_to_round_off_is_not_convergence(self):
        # an earlier Newton fit of the Y-block stopped here on an exactly
        # zero step, as "converged" with every fitted P(Y=1|x,z) = 1/2; the
        # fit must fail or be the MLE
        t = ContingencyTable((5.15e48, 7.72e-113, 6.26e151, 3.07e-196,
                              4.08e-7, 2.93e-33, 1.75e-25, 7.38e22))
        try:
            fit = fit_poisson(t)
        except FitError:
            return
        _assert_two_way_mle(t.counts, fit.fitted_counts)


#: the cells where x + z + y is even; u(x,z,y) = (-1)^(x+z+y) is +1 there
_EVEN_CELLS = (0, 3, 5, 6)

#: far-off logits that a Newton fit of the Y-block could not reach
FAR_OFF = (1e200, 1, 1, 1e200, 2, 3e150, 1e100, 1)

#: tables with counts 10^U(-300, 300), and small integer tables, many with
#: zero cells
COUNTS = st.one_of(
    st.lists(st.floats(-300.0, 300.0), min_size=8, max_size=8).map(
        lambda exponents: tuple(10.0 ** e for e in exponents)),
    st.lists(st.integers(0, 40), min_size=8, max_size=8).filter(any),
)


def _assert_two_way_mle(counts, fitted):
    """The two-way MLE by its definition: the fitted counts keep the twelve
    observed two-way margins and have no three-way term.

    A fitted count is a float a few ulps from the exact one, which moves its
    log by a few eps: beside the relative bound, the three-way sum gets an
    absolute 16 eps, the bound that matters when every count is near 1.
    """
    obs, got = _margins(counts), _margins(fitted)
    for key, o in obs.items():
        assert got[key] == pytest.approx(o, rel=1e-12, abs=0.0), key
    logs = [math.log(m) for m in fitted]
    three_way = sum(v if i in _EVEN_CELLS else -v for i, v in enumerate(logs))
    assert abs(three_way) <= (1e-12 * sum(map(abs, logs))
                              + 16 * sys.float_info.epsilon)


class TestTwoWayMleByDefinition:
    @settings(max_examples=300, deadline=None)
    @given(COUNTS)
    @example(FAR_OFF)
    # counts near 1, where the three-way sum is at its float floor
    @example((1.0, 1.0, 1.0, 1.0, 1.0, 1.0001405485169472, 1.0, 1.0))
    @example((5.15e48, 7.72e-113, 6.26e151, 3.07e-196,
              4.08e-7, 2.93e-33, 1.75e-25, 7.38e22))
    # fits that missed an observed margin by factors of 1e63 and more
    @example((5.01e94, 6.61e73, 8.91e-205, 5.66e244,
              1.98e-171, 1.07e200, 2.40e267, 2.99e-228))
    @example((1e202, 3.39e222, 2.39e39, 5.63e103,
              3.55e69, 5.07e-193, 1.56e-132, 1.75e178))
    # Newton starts at the midpoint, not at the cubic's estimate, when the
    # cubic's products overflow (FAR_OFF's underflow), at a zero count, when
    # the estimate lies outside the near half, when a step from it leaves
    # the near half, and when that step overflows exp
    @example((1.12e90, 4.38e189, 1.92e-290, 8.66e265,
              4.77e137, 7.35e63, 1.56e243, 6.42e230))
    @example((0, 5, 3, 7, 2, 4, 6, 1))
    @example((1.13e-48, 7.49e37, 1.1e32, 8.8e-37,
              2.04e29, 2.22e10, 9.54e-38, 3.18e36))
    @example((3.88e11, 6.63e15, 3.82e238, 1.47e173,
              5.58e-151, 8.66e239, 1.72e41, 1.02e182))
    @example((5.12e-9, 9.4e-36, 1.19e267, 4.81e265,
              3.03e-149, 2.12e-45, 2.84e76, 5.81e-263))
    # the root lies at the midpoint, so a converged step may pass it
    @example((10 ** 0.375, 1, 10 ** -0.96875, 10 ** -0.96875,
              10 ** -0.96875, 1, 10 ** -0.96875, 10 ** 0.375))
    def test_fit_is_the_mle_or_a_fit_error(self, counts):
        try:
            fit = fit_poisson(ContingencyTable(counts))
        except FitError:
            return
        _assert_two_way_mle(counts, fit.fitted_counts)
        assert fit.iterations >= 1

    def test_far_off_logits_fit(self):
        fit = fit_poisson(ContingencyTable(FAR_OFF))
        _assert_two_way_mle(FAR_OFF, fit.fitted_counts)
        assert fit.iterations <= 10

    def test_newton_steps_from_the_cubic_estimate(self):
        # multinomial tables like the benchmark's, every count positive: the
        # estimate is nearly the root, so about one log step is left
        rng = np.random.default_rng(18)
        steps = []
        for _ in range(500):
            p = np.asarray(random_nocausal(rng).expected_counts())
            total = round(math.exp(rng.uniform(math.log(50), math.log(1e6))))
            counts = rng.multinomial(total, p / p.sum())
            if counts.min() > 0:
                table = ContingencyTable(tuple(map(float, counts)))
                steps.append(fit_poisson(table).iterations)
        assert len(steps) >= 450
        assert sum(steps) / len(steps) <= 1.2
        assert max(steps) <= 3

    def test_readme_fit_matches_a_decimal_reference(self):
        # bisection on t for sum_even log(n + t) = sum_odd log(n - t) in 60
        # digits; each fitted count, and the z-test's beta_hat, SE and z, is
        # within 2 ulps
        fit = fit_poisson(ContingencyTable(README_COUNTS))
        test = additive_zero_test(fit)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            n = [decimal.Decimal(c) for c in README_COUNTS]

            def three_way(t):
                return sum((c + t).ln() if i in _EVEN_CELLS else -(c - t).ln()
                           for i, c in enumerate(n))

            lo = -min(n[i] for i in _EVEN_CELLS)
            hi = min(c for i, c in enumerate(n) if i not in _EVEN_CELLS)
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if three_way(mid) > 0 else (mid, hi)
            m = [c + lo if i in _EVEN_CELLS else c - lo
                 for i, c in enumerate(n)]
            beta_hat = (m[3] * m[5] / (m[2] * m[4])).ln()
            se = (1 / (1 / sum(1 / m[i] for i in (0, 1, 6, 7))
                       + 1 / sum(1 / m[i] for i in (2, 3, 4, 5)))).sqrt()
            pairs = list(zip(fit.fitted_counts, m))
            pairs += [(test.beta_hat, beta_hat), (test.se, se),
                      (test.z, beta_hat / se)]
            for got, want in pairs:
                error = abs(decimal.Decimal(got) - want)
                assert error <= 2 * decimal.Decimal(math.ulp(got)), (got, want)


def _exact_covariance(fit):
    """``(D' diag(m) D)^-1`` at the fitted counts in exact rationals."""
    D = design_matrix(fit.spec)
    m = [Fraction(c) for c in fit.fitted_counts]
    p = len(D[0])
    rows = [[sum(m[c] * int(D[c][i] * D[c][j]) for c in range(8))
             for j in range(p)] + [Fraction(int(i == j)) for j in range(p)]
            for i in range(p)]
    for i in range(p):  # Gauss-Jordan on a positive definite matrix
        rows[i] = [v / rows[i][i] for v in rows[i]]
        for j in range(p):
            if j != i:
                f = rows[j][i]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    return [row[p:] for row in rows]


class TestCovariance:
    @settings(max_examples=150, deadline=None)
    @given(
        COUNTS,
        st.booleans(),
    )
    @example(FAR_OFF, False)
    @example(FAR_OFF, True)
    @example(README_COUNTS, False)
    @example(README_COUNTS, True)
    def test_is_the_exact_inverse_information(self, counts, saturated):
        # the variances to 1e-14 relative, each covariance to 1e-14 of the
        # geometric mean of its two variances
        try:
            fit = fit_poisson(ContingencyTable(counts), ModelSpec(saturated))
        except FitError:
            return
        cov, exact = fit.covariance, _exact_covariance(fit)
        assert len(cov) == len(exact) == len(fit.spec.ordered_terms)
        scale = [math.sqrt(exact[i][i]) for i in range(len(exact))]
        for i, (row, want) in enumerate(zip(cov, exact)):
            assert type(row) is tuple and len(row) == len(want)
            for j, (c, e) in enumerate(zip(row, want)):
                assert c == cov[j][i]
                error = abs(float(Fraction(c) - e))
                assert error <= 1e-14 * scale[i] * scale[j], (i, j, c, e)


class TestScaleSafety:
    def test_mean_count_1e14_fits(self):
        # above e^30 ~ 1.07e13 a bound on the parameters used to reject it
        base = ContingencyTable(README_COUNTS)
        scale = 1e14 / (base.total / 8)
        big = ContingencyTable(tuple(c * scale for c in README_COUNTS))
        got, want = fit_poisson(big).params, fit_poisson(base).params
        for name in ("x", "z", "y", "xz", "xy", "zy"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-12
            )
        assert got.eta == pytest.approx(want.eta * scale, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 1000), min_size=8, max_size=8),
        st.integers(-300, 300),
    )
    def test_effects_invariant_under_count_scaling(self, counts, k):
        base = ContingencyTable(tuple(counts))
        scaled = ContingencyTable(tuple(c * 10.0 ** k for c in counts))
        want, got = fit_poisson(base).params, fit_poisson(scaled).params
        for name in ("y", "xy", "zy"):
            assert getattr(got, name) == pytest.approx(
                getattr(want, name), rel=1e-12
            )
        for saturated in (False, True):
            a = fit_causal(base, saturated)
            b = fit_causal(scaled, saturated)
            for name in ("xc", "zc", "xzc", "y", "xy", "zy", "xzy"):
                assert getattr(b, name) == pytest.approx(
                    getattr(a, name), rel=1e-12
                )
            ra, rb = effects_report(a), effects_report(b)
            for name in ("te", "nde", "ie", "ie_reverse",
                         "multiplicative_interaction"):
                assert getattr(rb, name) == pytest.approx(
                    getattr(ra, name), rel=1e-12
                )
            for z in (0, 1):
                assert rb.lde[z] == pytest.approx(ra.lde[z], rel=1e-12)
                assert rb.cell[z] == pytest.approx(ra.cell[z], rel=1e-12)
            assert rb.additive_interaction == pytest.approx(
                ra.additive_interaction, abs=1e-12
            )


class _CountingMath:
    """``math`` with its ``log``, ``exp`` and ``ldexp`` calls counted."""

    def __init__(self):
        self.logs = self.exps = self.ldexps = 0

    def log(self, *args):
        self.logs += 1
        return math.log(*args)

    def exp(self, x):
        self.exps += 1
        return math.exp(x)

    def ldexp(self, x, i):
        self.ldexps += 1
        return math.ldexp(x, i)

    def __getattr__(self, name):
        return getattr(math, name)


@pytest.fixture
def counting(monkeypatch):
    """``fitting``'s ``math`` replaced by a ``_CountingMath``."""
    proxy = _CountingMath()
    monkeypatch.setattr(fitting, "math", proxy)
    return proxy


class TestDevianceOnRead:
    """``fit_poisson`` takes the solve's logs and no more: the deviance's
    eight logs are taken where it is read."""

    @staticmethod
    def _logs(counting, compute):
        before = counting.logs
        result = compute()
        return counting.logs - before, result

    @pytest.mark.parametrize("counts", [README_COUNTS, FAR_TWO_WAY,
                                        DEVIANCE_OVERFLOW])
    @pytest.mark.parametrize("saturated", [False, True])
    def test_fit_poisson_takes_the_solves_logs(self, counting, counts,
                                               saturated):
        table = ContingencyTable(counts)
        spec = ModelSpec(saturated)
        fit_logs, _ = self._logs(counting, lambda: fit_poisson(table, spec))
        # an equal new tuple, so the solve is not the stored one
        fresh = tuple(list(table.counts))
        assert fresh is not table.counts
        solve_logs, _ = self._logs(counting,
                                   lambda: fitting._fit(fresh, saturated))
        assert fit_logs == solve_logs
        assert saturated or solve_logs > 0

    def test_a_read_of_the_deviance_takes_eight(self, counting):
        fit = fit_poisson(ContingencyTable(README_COUNTS))
        assert self._logs(counting, lambda: fit.deviance)[0] == 8
        assert self._logs(counting, lambda: fit.deviance)[0] == 8

    def test_to_dict_reads_the_deviance_once(self, counting):
        fit = fit_poisson(ContingencyTable(README_COUNTS))
        logs, doc = self._logs(counting, fit.to_dict)
        # seven for the additive block, eight for the deviance
        assert len(doc["additive"]) == 7
        assert logs == 7 + 8


class TestTwoWaySolveCost:
    """A typical two-way solve takes one ``log`` and one ``exp`` per Newton
    step and scales nothing: counts, unlike wall time, do not depend on the
    host."""

    def test_readme_table_takes_one_log_one_exp_and_no_ldexp(self, counting):
        _, _, iterations = fitting._fit(tuple(map(float, README_COUNTS)),
                                        False)
        assert iterations == 1
        assert (counting.logs, counting.exps, counting.ldexps) == (1, 1, 0)

    def test_counts_outside_2_to_the_200_are_scaled(self, counting):
        fitting._fit((1e-300, 1e-300, 1.0, 1.0, 1e300, 1e300, 1.0, 1.0), False)
        assert counting.ldexps > 0


def _fit_causal_bits(table, with_interaction=False):
    """``fit_causal``'s parameters as hex strings, or its error's type and
    message."""
    try:
        cp = fit_causal(table, with_interaction)
    except (FitError, CausalModelError) as exc:
        return type(exc), str(exc)
    return tuple(v.hex() for v in cp[:7])


def _fit_bits(fit):
    return (tuple(v.hex() for v in fit.fitted_counts),
            tuple(v.hex() for v in fit.y_block), fit.iterations)


class TestTwoWaySolveReuse:
    """``_fit`` keeps the last successful two-way solve, keyed by the
    identity of the counts tuple: ``fit_causal(t)`` after ``fit_poisson(t)``
    does not solve again."""

    @settings(max_examples=200, deadline=None)
    @given(COUNTS)
    @example(FAR_OFF)
    @example(README_COUNTS)
    def test_a_reused_solve_equals_a_new_one(self, counts):
        t = ContingencyTable(counts)
        try:
            fit_poisson(t)
        except FitError:
            pass
        # a fresh tuple of equal counts solves again
        assert _fit_causal_bits(t) == _fit_causal_bits(
            ContingencyTable(t.counts))

    def test_the_same_table_does_not_solve_again(self):
        t = ContingencyTable(README_COUNTS)
        fit = fit_poisson(t)
        # the Y-block's floats are the stored ones, not equal new ones
        assert fit_causal(t).y is fit.y_block[0]
        assert fit_poisson(t).y_block is fit.y_block
        assert fit_causal(ContingencyTable(t.counts)).y is not fit.y_block[0]

    def test_each_model_gets_its_own_fit(self):
        t = ContingencyTable(README_COUNTS)
        fresh = ContingencyTable(README_COUNTS)
        two_way = fit_poisson(t)
        saturated = fit_poisson(t, saturated_spec())
        assert _fit_bits(saturated) == _fit_bits(
            fit_poisson(fresh, saturated_spec()))
        assert saturated.y_block != two_way.y_block
        assert _fit_causal_bits(t, True) == _fit_causal_bits(
            ContingencyTable(README_COUNTS), True)
        # a saturated fit between leaves the two-way solve stored
        again = fit_poisson(t)
        assert again.y_block is two_way.y_block
        assert _fit_bits(again) == _fit_bits(
            fit_poisson(ContingencyTable(README_COUNTS)))

    @pytest.mark.parametrize("counts, message", [
        ((1.413206146113962e-101, 1.2888925180744533e-107,
          4.1098455412908226e71, 4.10984554129082e71,
          7.669454141975074e94, 1.0, 1.0, 7.459106318111507e127),
         "a fitted count underflows"),
        ((0.009234292562400749, 0.0019505349237660058, 1e-300, 1.0,
          0.9999999999999987, 1.3083909595959356e-15, 1e-300, 1.0),
         "a loglinear Y-block parameter overflows or underflows"),
    ])
    def test_a_failed_solve_is_not_stored(self, counts, message):
        good = ContingencyTable(README_COUNTS)
        fit = fit_poisson(good)
        bad = ContingencyTable(counts)
        for _ in range(2):
            with pytest.raises(FitError) as exc:
                fit_poisson(bad)
            assert str(exc.value) == message
        # the failure left the last successful solve in place
        assert fit_causal(good).y is fit.y_block[0]

    def test_one_entry_only(self):
        # counted outside the asserts, whose rewriting holds a reference
        old = ContingencyTable(README_COUNTS)
        before = sys.getrefcount(old.counts)
        fit_poisson(old)
        held = sys.getrefcount(old.counts)
        fit_poisson(ContingencyTable(FAR_OFF))
        after = sys.getrefcount(old.counts)
        assert (held, after) == (before + 1, before)

    def test_threads_get_their_own_fits(self):
        tables = [ContingencyTable(c) for c in (
            README_COUNTS, FAR_OFF, FAR_TWO_WAY, DEVIANCE_OVERFLOW)]
        want = [(_fit_bits(fit_poisson(ContingencyTable(t.counts))),
                 _fit_causal_bits(ContingencyTable(t.counts)))
                for t in tables]
        got = [[] for _ in tables]

        def work(i):
            t = tables[i]
            for _ in range(300):
                got[i].append((_fit_bits(fit_poisson(t)), _fit_causal_bits(t)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(tables))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results, expected in zip(got, want):
            assert len(results) == 300
            assert all(r == expected for r in results)
