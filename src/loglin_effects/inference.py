"""Hypothesis tests: zero additive interaction and linearity bonds.

The additive-interaction test is a z-test on the linear combination
lambda^ZY + 2 lambda^Y + lambda^XY of the additive two-way-model
parameters, which is logit(0,0) + logit(1,1) of P(Y=1|x,z).  Its variance,
the inverse Y-block information applied to that contrast, has the closed
form 1 / (1/A + 1/B): A is the sum of 1/m(x,z,y) over the fitted cells with
x = z and B the same sum over those with x != z.  Every term is positive,
so nothing cancels.  The z-test's sums and the bonds' sums of logs are
written out as left-to-right chains of ``+``, so they are the same bits on
every supported Python version.
"""

from __future__ import annotations

import math

from .causal import CausalParams, CausalModelError
from .fitting import FitResult
from .tables import _Record, _set


class TestError(ValueError):
    """Test preconditions violated (wrong model, unusable covariance)."""


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolutely accurate to ~1e-15."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


class TestResult(_Record):
    """A z-test of the linear ``combination`` of parameters being 0."""

    __slots__ = ("beta_hat", "se", "z", "p_two_sided", "combination")

    def __init__(self, beta_hat: float, se: float, z: float,
                 p_two_sided: float, combination: str):
        _set(self, "beta_hat", beta_hat)
        _set(self, "se", se)
        _set(self, "z", z)
        _set(self, "p_two_sided", p_two_sided)
        _set(self, "combination", combination)

    def to_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat,
            "se": self.se,
            "z": self.z,
            "p": self.p_two_sided,
            "constraint": self.combination,
        }


class LinearityReport(_Record):
    """The log-scale residuals of the two linearity bonds, and the z-test
    of bond 1 when a fit was given."""

    __slots__ = ("bond1_residual", "bond2_residual", "bond1_test")

    def __init__(self, bond1_residual: float, bond2_residual: float,
                 bond1_test: TestResult | None = None):
        _set(self, "bond1_residual", bond1_residual)
        _set(self, "bond2_residual", bond2_residual)
        _set(self, "bond1_test", bond1_test)

    def to_dict(self) -> dict:
        return {
            "bond1_residual": self.bond1_residual,
            "bond2_residual": self.bond2_residual,
            "bond1_test": (
                None if self.bond1_test is None else self.bond1_test.to_dict()
            ),
        }


def additive_zero_test(fit: FitResult) -> TestResult:
    """z-test of lambda^ZY + 2 lambda^Y + lambda^XY = 0 on a two-way fit."""
    if fit.spec.with_three_way:
        raise TestError("test defined for two-way model")
    p = fit.params
    beta_hat = 2.0 * math.log(p.y) + math.log(p.xy) + math.log(p.zy)
    # 1/A + 1/B, each taken relative to its least count so that no
    # reciprocal of a count over- or underflows
    m0, m1, m2, m3, m4, m5, m6, m7 = fit.fitted_counts
    a = min(m0, m1, m6, m7)
    b = min(m2, m3, m4, m5)
    inverse = (a / (a / m0 + a / m1 + a / m6 + a / m7)
               + b / (b / m2 + b / m3 + b / m4 + b / m5))
    var = 1.0 / inverse
    if not 0.0 < var < math.inf:
        raise TestError("covariance is not positive on the test contrast")
    se = math.sqrt(var)
    z = beta_hat / se
    return TestResult(beta_hat, se, z, two_sided_p(z),
                      "lambda^ZY + 2*lambda^Y + lambda^XY = 0")


def linearity_bonds(
    cp: CausalParams, fit: FitResult | None = None
) -> LinearityReport:
    """Log-scale residuals of the two mean-split linearity constraints.

    Bond 1: mu^XY * (mu^Y)^2 * mu^ZY = 1 (equivalently the zero
    additive-interaction condition); bond 2: mu_c^XZ * (mu_c^Z)^2 = 1.
    Each residual is a sum of logs, so no product of the parameters is
    formed and none over- or underflows.  Bond 2 is reported as a residual
    only; no sampling variance is attached to the causal Z-block parameters.
    """
    if cp.with_interaction:
        raise CausalModelError("linearity bonds defined without interaction")
    log = math.log
    log_y = log(cp.y)
    log_zc = log(cp.zc)
    bond1 = log(cp.xy) + log(cp.zy) + log_y + log_y
    bond2 = log(cp.xzc) + log_zc + log_zc
    test = additive_zero_test(fit) if fit is not None else None
    return LinearityReport(bond1, bond2, test)
