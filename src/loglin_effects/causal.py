"""Causal decomposition P(X) P(Z|X) P(Y|X,Z) of the loglinear model.

The causal form keeps the Y-block parameters of the plain loglinear model
(they are shared between the two parameterizations) and replaces the X- and
Z-block parameters with causal ones, written with a ``c`` suffix here.
Normalization factors make each conditional block sum to one.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

from .fitting import (
    FitError,
    NoCausalParams,
    _cell_ratios,
    _two_way_mle,
    saturated_closed_form,
)
from .tables import ContingencyTable, JointProbabilityTable, _left_sum


class CausalModelError(ValueError):
    """Invalid causal parameterization or unsupported conversion."""


@dataclass(frozen=True)
class CausalParams:
    """Causal-form parameters of the X -> Z -> Y model.

    ``xc``, ``zc``, ``xzc`` drive P(X) and P(Z|X); ``y``, ``xy``, ``zy``,
    ``xzy`` drive P(Y|X,Z) and coincide with the plain loglinear Y-block.
    """

    xc: float
    zc: float
    xzc: float
    y: float
    xy: float
    zy: float
    xzy: float = 1.0
    with_interaction: bool = False

    def __post_init__(self):
        for name in ("xc", "zc", "xzc", "y", "xy", "zy", "xzy"):
            if not 0.0 < getattr(self, name) < math.inf:  # also rejects nan
                raise CausalModelError(
                    f"parameter {name} must be finite and > 0"
                )
        if not self.with_interaction and self.xzy != 1.0:
            raise CausalModelError(
                "three-way parameter must be 1 without interaction"
            )

    def to_dict(self) -> dict:
        eta = eta_factors(self)
        return {
            "Xc": self.xc,
            "Zc": self.zc,
            "XZc": self.xzc,
            "Y": self.y,
            "XY": self.xy,
            "ZY": self.zy,
            "XZY": self.xzy,
            "with_interaction": self.with_interaction,
            "eta": {
                "X": eta.x_norm,
                "Z|X=0": eta.z_given_x[0],
                "Z|X=1": eta.z_given_x[1],
                "Y|X=0,Z=0": eta.y_given_xz[(0, 0)],
                "Y|X=1,Z=0": eta.y_given_xz[(1, 0)],
                "Y|X=0,Z=1": eta.y_given_xz[(0, 1)],
                "Y|X=1,Z=1": eta.y_given_xz[(1, 1)],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class NormalizationFactors:
    """The seven normalization factors of the causal decomposition."""

    x_norm: float
    z_given_x: tuple  # indexed by x
    y_given_xz: dict  # keyed by (x, z)


def eta_factors(cp: CausalParams) -> NormalizationFactors:
    """Closed-form normalization factors for every conditional block.

    Each factor is the reciprocal of one plus the level-1 product of the
    block, so the two levels of the conditioned variable sum to one.
    """
    y11 = cp.y * cp.xy * cp.zy * cp.xzy
    return NormalizationFactors(
        x_norm=1.0 / (1.0 + cp.xc),
        z_given_x=(1.0 / (1.0 + cp.zc), 1.0 / (1.0 + cp.zc * cp.xzc)),
        y_given_xz={
            (0, 0): 1.0 / (1.0 + cp.y),
            (1, 0): 1.0 / (1.0 + cp.y * cp.xy),
            (0, 1): 1.0 / (1.0 + cp.y * cp.zy),
            (1, 1): 1.0 / (1.0 + y11),
        },
    )


@dataclass(frozen=True)
class ConditionalProbabilities:
    """P(X=1), P(Z=1|X=x), P(Y=1|X=x,Z=z), their level-0 complements, and
    the joint reconstruction.

    The level-0 probabilities are the normalization factors themselves, not
    ``1 - p``, so a near-certain level keeps the relative accuracy of its
    complement.
    """

    p_x1: float
    p_z1_given_x: tuple  # indexed by x
    p_y1_given_xz: dict  # keyed by (x, z)
    p_x0: float
    p_z0_given_x: tuple  # indexed by x
    p_y0_given_xz: dict  # keyed by (x, z)

    def joint(self) -> JointProbabilityTable:
        probs = []  # canonical cell order
        for x, px in enumerate((self.p_x0, self.p_x1)):
            for z, pz in enumerate((self.p_z0_given_x[x], self.p_z1_given_x[x])):
                pxz = px * pz
                probs += (pxz * self.p_y0_given_xz[(x, z)],
                          pxz * self.p_y1_given_xz[(x, z)])
        total = _left_sum(probs)
        if not 0.0 < total < math.inf:  # also a nan probability
            raise CausalModelError(
                f"the joint probabilities sum to {total}: the parameters "
                "leave the float range"
            )
        return JointProbabilityTable(tuple(p / total for p in probs))


def conditional_probabilities(cp: CausalParams) -> ConditionalProbabilities:
    """Evaluate the three conditional blocks at both levels."""
    eta = eta_factors(cp)
    y11 = cp.y * cp.xy * cp.zy * cp.xzy
    return ConditionalProbabilities(
        p_x1=eta.x_norm * cp.xc,
        p_z1_given_x=(
            eta.z_given_x[0] * cp.zc,
            eta.z_given_x[1] * cp.zc * cp.xzc,
        ),
        p_y1_given_xz={
            (0, 0): eta.y_given_xz[(0, 0)] * cp.y,
            (1, 0): eta.y_given_xz[(1, 0)] * cp.y * cp.xy,
            (0, 1): eta.y_given_xz[(0, 1)] * cp.y * cp.zy,
            (1, 1): eta.y_given_xz[(1, 1)] * y11,
        },
        p_x0=eta.x_norm,
        p_z0_given_x=eta.z_given_x,
        p_y0_given_xz=eta.y_given_xz,
    )


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
    Y-block parameters are shared with the loglinear fit.
    """
    return CausalParams(
        xc=(m[2] + m[3]) / (m[0] + m[1]),
        zc=m[1] / m[0],
        xzc=(m[3] / m[2]) * (m[0] / m[1]),
        y=y,
        xy=xy,
        zy=zy,
        xzy=xzy,
        with_interaction=with_interaction,
    )


def fit_causal(table: ContingencyTable, with_interaction: bool = False) -> CausalParams:
    """Estimate the causal decomposition from observed counts.

    The Y-block is the saturated conditional odds ratios when the three-way
    term is requested, otherwise the Y-involving terms of the two-way MLE,
    the logistic regression of Y on X and Z.  The two-way fit's other
    parameters are not returned, but one that leaves the float range
    raises ``FitError``, as it does in ``fit_poisson``.
    """
    n = table.counts
    m = _xz_margins(n)
    if with_interaction:
        p = saturated_closed_form(table)
        return _causal_params(m, p.y, p.xy, p.zy, p.xzy, True)
    fitted, y_block, _ = _two_way_mle(n)
    _cell_ratios(fitted, *y_block)  # raises the FitError fit_poisson would
    return _causal_params(m, *y_block)


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
    counts = replace(nc, eta=1.0).expected_counts()
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
        return NoCausalParams(*_cell_ratios(joint, cp.y, cp.xy, cp.zy))
    except FitError as exc:
        raise CausalModelError(str(exc)) from None
