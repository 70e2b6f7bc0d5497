"""Hypothesis tests: zero additive interaction and linearity bonds.

The additive-interaction test is a z-test on the linear combination
lambda^ZY + 2 lambda^Y + lambda^XY of the additive two-way-model
parameters, which is logit(0,0) + logit(1,1) of P(Y=1|x,z).  Its variance,
the inverse Y-block information applied to that contrast, has the closed
form 1 / (1/A + 1/B): A is the sum of 1/m(x,z,y) over the fitted cells with
x = z and B the same sum over those with x != z.  Every term is positive,
so nothing cancels.  The contrast is linearity bond 1, ``_bond1``, and its
sums are written out as left-to-right chains of ``+``, so they are the
same bits on every supported Python version.
"""

from __future__ import annotations

import math

from .causal import CausalParams, CausalModelError
from .fitting import FitResult
from .tables import _Record


class TestError(ValueError):
    """Test preconditions violated (wrong model, unusable covariance)."""
    __test__ = False  # not a pytest test class


def two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


class TestResult(_Record):
    """A z-test of the linear ``combination`` of parameters being 0."""

    __test__ = False  # not a pytest test class
    __slots__ = ()
    _fields = ("beta_hat", "se", "z", "p_two_sided", "combination")

    def __new__(cls, beta_hat: float, se: float, z: float,
                p_two_sided: float, combination: str):
        return tuple.__new__(cls, (beta_hat, se, z, p_two_sided, combination))

    def to_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat,
            "se": self.se,
            "z": self.z,
            "p": self.p_two_sided,
            "constraint": self.combination,
        }


class LinearityReport(_Record):
    """The log-scale residuals of the two linearity bonds."""

    __slots__ = ()
    _fields = ("bond1_residual", "bond2_residual")

    def __new__(cls, bond1_residual: float, bond2_residual: float):
        return tuple.__new__(cls, (bond1_residual, bond2_residual))

    def to_dict(self) -> dict:
        return {
            "bond1_residual": self.bond1_residual,
            "bond2_residual": self.bond2_residual,
        }


def _bond1(y, xy, zy) -> float:
    """Bond 1, log(mu^XY (mu^Y)^2 mu^ZY), of a Y-block: beta_hat."""
    return 2.0 * math.log(y) + math.log(xy) + math.log(zy)


def additive_zero_test(fit: FitResult) -> TestResult:
    """z-test of lambda^ZY + 2 lambda^Y + lambda^XY = 0 on a two-way fit,
    from its Y-block and fitted counts alone: the test of the ``test``
    command.

    A fit no solve returns, built by hand, raises ``TestError`` where a
    fitted count is negative, infinite or nan, or mu^Y, mu^XY or mu^ZY is
    not finite and > 0; a zero count leaves the contrast no variance."""
    if fit.spec.with_three_way:
        raise TestError("test defined for two-way model")
    y, xy, zy = fit.y_block[:3]
    m0, m1, m2, m3, m4, m5, m6, m7 = fit.fitted_counts
    inf = math.inf
    # one chain, which nan fails too
    if not (0.0 <= m0 < inf > m1 >= 0.0 <= m2 < inf > m3 >= 0.0 <= m4 < inf
            > m5 >= 0.0 <= m6 < inf > m7 >= 0.0 < y < inf > xy > 0.0 < zy
            < inf):
        raise TestError("a fitted count is not finite and >= 0, or a Y-block "
                        "parameter not finite and > 0")
    beta_hat = _bond1(y, xy, zy)
    # 1/A + 1/B, each taken relative to its least count so that no
    # reciprocal of a count over- or underflows
    a = min(m0, m1, m6, m7)
    b = min(m2, m3, m4, m5)
    try:
        var = 1.0 / (a / (a / m0 + a / m1 + a / m6 + a / m7)
                     + b / (b / m2 + b / m3 + b / m4 + b / m5))
    except ZeroDivisionError:  # a zero count, or 1/A + 1/B underflows to 0
        var = math.nan
    if not 0.0 < var < inf:  # nan fails it too
        raise TestError("covariance is not positive on the test contrast")
    se = math.sqrt(var)
    z = beta_hat / se
    # the record checks nothing, so it is built directly
    return tuple.__new__(TestResult, (
        beta_hat, se, z, two_sided_p(z),
        "lambda^ZY + 2*lambda^Y + lambda^XY = 0"))


def linearity_bonds(cp: CausalParams, fit=None) -> LinearityReport:
    """Log-scale residuals of the two mean-split linearity constraints.

    Bond 1: mu^XY * (mu^Y)^2 * mu^ZY = 1, the zero additive-interaction
    condition; its residual is the ``beta_hat`` of the fit ``cp`` is from,
    bit for bit.  Bond 2: mu_c^XZ * (mu_c^Z)^2 = 1, with no sampling
    variance.  Each residual is a sum of logs, so no product over- or
    underflows.  ``fit`` is unread; ``bench/worker.py`` still passes it.
    """
    if cp.with_interaction:
        raise CausalModelError("linearity bonds defined without interaction")
    log_zc = math.log(cp.zc)
    return tuple.__new__(LinearityReport, (_bond1(cp.y, cp.xy, cp.zy),
                                           math.log(cp.xzc) + log_zc + log_zc))
