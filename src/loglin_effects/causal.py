"""Causal decomposition P(X) P(Z|X) P(Y|X,Z) of the loglinear model.

The causal form keeps the Y-block parameters of the plain loglinear model
(they are shared between the two parameterizations) and replaces the X- and
Z-block parameters with causal ones, written with a ``c`` suffix here.
Normalization factors make each conditional block sum to one; they are the
level-0 probabilities, written once, in ``conditional_probabilities``.
"""

from __future__ import annotations

import math
import sys

from .fitting import (
    _HUGE,
    _TINY,
    FitError,
    NoCausalParams,
    _cell_ratios,
    _check_positive,
    _exact_ratio,
    _fit,
    saturated_closed_form,
)
from .tables import (
    ContingencyTable,
    JointProbabilityTable,
    _Record,
)


class CausalModelError(ValueError):
    """Invalid causal parameterization or unsupported conversion."""


class CausalParams(_Record):
    """Causal-form parameters of the X -> Z -> Y model.

    ``xc``, ``zc``, ``xzc`` drive P(X) and P(Z|X); ``y``, ``xy``, ``zy``,
    ``xzy`` drive P(Y|X,Z) and coincide with the plain loglinear Y-block.
    """

    __slots__ = ()
    _fields = ("xc", "zc", "xzc", "y", "xy", "zy", "xzy", "with_interaction")

    def __new__(cls, xc: float, zc: float, xzc: float, y: float, xy: float,
                zy: float, xzy: float = 1.0, with_interaction: bool = False):
        # one chained test of all seven (nan fails it too); only a failing
        # set is searched for the name to report
        inf = math.inf
        if not (0.0 < xc < inf and 0.0 < zc < inf and 0.0 < xzc < inf
                and 0.0 < y < inf and 0.0 < xy < inf and 0.0 < zy < inf
                and 0.0 < xzy < inf):
            _check_positive((xc, zc, xzc, y, xy, zy, xzy), CausalModelError,
                            ("xc", "zc", "xzc", "y", "xy", "zy", "xzy"),
                            "parameter")
        if not with_interaction and xzy != 1.0:
            raise CausalModelError(
                "three-way parameter must be 1 without interaction"
            )
        return tuple.__new__(
            cls, (xc, zc, xzc, y, xy, zy, xzy, with_interaction))

    def to_dict(self) -> dict:
        cond = conditional_probabilities(self)
        y0 = cond.p_y0_given_xz
        doc = dict(zip(("Xc", "Zc", "XZc", "Y", "XY", "ZY", "XZY",
                        "with_interaction"), self))
        doc["eta"] = {
            "X": cond.p_x0,
            "Z|X=0": cond.p_z0_given_x[0],
            "Z|X=1": cond.p_z0_given_x[1],
            "Y|X=0,Z=0": y0[0, 0],
            "Y|X=1,Z=0": y0[1, 0],
            "Y|X=0,Z=1": y0[0, 1],
            "Y|X=1,Z=1": y0[1, 1],
        }
        return doc


class ConditionalProbabilities(_Record):
    """P(X=1), P(Z=1|X=x), P(Y=1|X=x,Z=z), their level-0 complements, and
    the joint reconstruction.

    The ``p_z*`` tuples are indexed by x and the ``p_y*`` dicts keyed by
    (x, z).  The level-0 probabilities are the normalization factors
    themselves, not ``1 - p``, so a near-certain level keeps the relative
    accuracy of its complement.
    """

    __slots__ = ()
    _fields = ("p_x1", "p_z1_given_x", "p_y1_given_xz", "p_x0",
               "p_z0_given_x", "p_y0_given_xz")

    def __new__(cls, p_x1: float, p_z1_given_x: tuple, p_y1_given_xz: dict,
                p_x0: float, p_z0_given_x: tuple, p_y0_given_xz: dict):
        return tuple.__new__(cls, (p_x1, p_z1_given_x, p_y1_given_xz, p_x0,
                                   p_z0_given_x, p_y0_given_xz))

    def joint(self) -> JointProbabilityTable:
        """The cell products over their finite, positive sum; built directly."""
        y0, y1 = self.p_y0_given_xz, self.p_y1_given_xz
        p00 = self.p_x0 * self.p_z0_given_x[0]
        p01 = self.p_x0 * self.p_z1_given_x[0]
        p10 = self.p_x1 * self.p_z0_given_x[1]
        p11 = self.p_x1 * self.p_z1_given_x[1]
        c0, c1, c2, c3 = (p00 * y0[0, 0], p00 * y1[0, 0],
                          p01 * y0[0, 1], p01 * y1[0, 1])
        c4, c5, c6, c7 = (p10 * y0[1, 0], p10 * y1[1, 0],
                          p11 * y0[1, 1], p11 * y1[1, 1])
        total = 0.0 + c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7  # as _left_sum
        if not 0.0 < total < math.inf:  # also a nan probability
            raise CausalModelError(
                f"the joint probabilities sum to {total}: the parameters "
                "leave the float range"
            )
        # JointProbabilityTable's checks hold: eight floats, none negative
        # (each cell is a product of probabilities in [0, 1], and a nan
        # would make ``total`` nan), whose quotients sum to within about
        # 16 units of rounding of 1, far inside its 1e-12
        return tuple.__new__(JointProbabilityTable, ((
            c0 / total, c1 / total, c2 / total, c3 / total,
            c4 / total, c5 / total, c6 / total, c7 / total,
        ),))


def _odds(cp: CausalParams) -> tuple:
    """The outcome odds ``o[x][z]`` and the mediator odds ``w[x]`` of ``cp``.
    o(1,1) is the chain ``y * xy * zy * xzy`` unless ``y * xy`` or ``y * xy
    * zy`` leaves the normal range, where the chain can lose digits; there
    it is the exact product of the four, rounded once (inf on overflow)."""
    _, zc, xzc, y, xy, zy, xzy, _ = cp
    o10 = y * xy
    o11 = o10 * zy
    if _TINY <= o10 <= _HUGE >= o11 >= _TINY:
        o11 *= xzy
    else:
        o11 = _exact_ratio((y, xy, zy, xzy), ())
    return ((y, y * zy), (o10, o11)), (zc, zc * xzc)


def conditional_probabilities(cp: CausalParams) -> ConditionalProbabilities:
    """Evaluate the three conditional blocks at both levels; each level-0
    probability is the reciprocal of one plus its block's odds.

    The odds come from ``_odds``.  Where one overflows, its level-0
    probability is 0.0 and the level-1 one 1.0.
    """
    xc, zc, xzc, y, xy, zy, _, _ = cp
    ((o00, o01), (o10, o11)), (w0, w1) = _odds(cp)
    x0 = 1.0 / (1.0 + xc)
    z0_0, z0_1 = 1.0 / (1.0 + w0), 1.0 / (1.0 + w1)  # by x
    y0_00, y0_10 = 1.0 / (1.0 + o00), 1.0 / (1.0 + o10)  # by (x, z)
    y0_01, y0_11 = 1.0 / (1.0 + o01), 1.0 / (1.0 + o11)
    # built directly: ``ConditionalProbabilities`` checks nothing
    return tuple.__new__(ConditionalProbabilities, (
        x0 * xc,
        (z0_0 * zc, z0_1 * zc * xzc if z0_1 else 1.0),
        {(0, 0): y0_00 * y,
         (1, 0): y0_10 * y * xy if y0_10 else 1.0,
         (0, 1): y0_01 * y * zy if y0_01 else 1.0,
         (1, 1): y0_11 * o11 if y0_11 else 1.0},
        x0,
        (z0_0, z0_1),
        {(0, 0): y0_00, (1, 0): y0_10, (0, 1): y0_01, (1, 1): y0_11},
    ))


def _xz_margins(n) -> tuple:
    """n(x,z,+) for (x,z) = 00, 01, 10, 11 of counts ``n`` in canonical
    order; raises on a zero margin."""
    m = (n[0] + n[1], n[2] + n[3], n[4] + n[5], n[6] + n[7])
    if min(m) <= 0:
        raise CausalModelError("zero margin; causal blocks are not estimable")
    return m


def _causal_params(
    m: tuple, y: float, xy: float, zy: float, xzy: float = 1.0,
    with_interaction: bool = False,
) -> CausalParams:
    """Causal parameters from the XZ margins ``m`` and a fit's Y-block.

    The X margin and XZ margin blocks are closed-form count ratios; the
    Y-block parameters are shared with the loglinear fit.  The record is
    built directly when ``CausalParams``' own test holds: all seven finite
    and > 0, and the three-way parameter 1 without interaction.  The
    Y-block is tested too, since the commands' saturated one comes from
    ``fitting._fit`` unchecked.  Any other set goes to ``CausalParams`` for
    its error.
    """
    m0, m1, m2, m3 = m
    xc, zc, xzc = (m2 + m3) / (m0 + m1), m1 / m0, (m3 / m2) * (m0 / m1)
    inf = math.inf
    if (0.0 < xc < inf and 0.0 < zc < inf and 0.0 < xzc < inf
            and 0.0 < y < inf and 0.0 < xy < inf and 0.0 < zy < inf
            and 0.0 < xzy < inf and (with_interaction or xzy == 1.0)):
        return tuple.__new__(
            CausalParams, (xc, zc, xzc, y, xy, zy, xzy, with_interaction))
    return CausalParams(xc, zc, xzc, y, xy, zy, xzy, with_interaction)


def fit_causal(table: ContingencyTable, with_interaction: bool = False) -> CausalParams:
    """Estimate the causal decomposition from observed counts.

    The Y-block is the saturated conditional odds ratios when the three-way
    term is requested, otherwise the Y-involving terms of the two-way MLE,
    the logistic regression of Y on X and Z.  The two-way route reads only
    the fit's Y-block: the other parameters (mu, mu^X, mu^Z, mu^XZ) are
    neither returned nor checked, since no effect uses them.  The saturated
    route still reads its Y-block through ``saturated_closed_form``, which
    checks all eight, so there one of those four raises ``FitError``
    although the causal parameters are in range (the ``effects`` command
    reads the fit's Y-block on both routes).

    The two-way route reuses the last successful two-way solve when it was
    of this table's very ``counts`` tuple, as after ``fit_poisson(table)``
    (see ``fitting._fit``); a table rebuilt from equal counts solves again.
    Either route builds its record once, by ``_causal_params``.
    """
    n = table.counts
    m = _xz_margins(n)
    if with_interaction:
        p = saturated_closed_form(table)
        return _causal_params(m, p.y, p.xy, p.zy, p.xzy, True)
    y, xy, zy, xzy = _fit(n, False)[1]
    return _causal_params(m, y, xy, zy, xzy)


def causal_from_nocausal(nc: NoCausalParams) -> CausalParams:
    """Convert plain loglinear parameters to causal ones.

    The causal X and Z blocks are read off the XZ margins of the model's
    expected counts, as ``fit_causal`` reads them off a table; the Y-block
    is shared.  This holds only when the three-way term is absent.  The
    margins' ratios do not depend on the intercept, so the counts are
    formed with eta = 1, which keeps them in float range more often; a
    count below the normal range raises ``CausalModelError``, as in
    ``nocausal_from_causal``.
    """
    if not math.isclose(nc.xzy, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise CausalModelError(
            "causal conversion is defined only without the three-way term"
        )
    counts = NoCausalParams(1.0, nc.x, nc.z, nc.y, nc.xz, nc.xy, nc.zy,
                            nc.xzy).expected_counts()
    if min(counts) < sys.float_info.min:
        raise CausalModelError("an expected count underflows")
    return _causal_params(_xz_margins(counts), nc.y, nc.xy, nc.zy)


def nocausal_from_causal(cp: CausalParams) -> NoCausalParams:
    """Invert ``causal_from_nocausal``: the cell ratios of the joint
    probabilities, so the intercept normalizes the joint.

    A joint cell below the normal float range has lost relative precision,
    and its ratios with it, so it raises ``CausalModelError``, as does a
    ratio that over- or underflows.
    """
    if cp.with_interaction:
        raise CausalModelError(
            "causal conversion is defined only without the three-way term"
        )
    joint = conditional_probabilities(cp).joint().probs
    if min(joint) < sys.float_info.min:
        raise CausalModelError("a joint probability underflows")
    try:
        return _cell_ratios(joint, cp.y, cp.xy, cp.zy)
    except FitError as exc:
        raise CausalModelError(str(exc)) from None
