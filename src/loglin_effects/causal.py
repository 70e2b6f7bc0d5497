"""Causal decomposition P(X) P(Z|X) P(Y|X,Z) of the loglinear model.

The causal form keeps the Y-block parameters of the plain loglinear model
(they are shared between the two parameterizations) and replaces the X- and
Z-block parameters with causal ones, written with a ``c`` suffix here.
Normalization factors make each conditional block sum to one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .fitting import NoCausalParams, fit_poisson, saturated_closed_form
from .tables import CELLS, ContingencyTable, JointProbabilityTable, cell_index


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
            if getattr(self, name) <= 0:
                raise CausalModelError(f"parameter {name} must be > 0")
        if not self.with_interaction and self.xzy != 1.0:
            raise CausalModelError(
                "three-way parameter must be 1 without interaction"
            )

    def to_json(self) -> str:
        eta = eta_factors(self)
        doc = {
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
        return json.dumps(doc, sort_keys=True)


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
    y11 = cp.y * cp.xy * cp.zy * (cp.xzy if cp.with_interaction else 1.0)
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
    """P(X=1), P(Z=1|X=x), and P(Y=1|X=x,Z=z) plus joint reconstruction."""

    p_x1: float
    p_z1_given_x: tuple  # indexed by x
    p_y1_given_xz: dict  # keyed by (x, z)

    def joint(self) -> JointProbabilityTable:
        probs = [0.0] * 8
        for x, z, y in CELLS:
            px = self.p_x1 if x else 1.0 - self.p_x1
            pz = self.p_z1_given_x[x] if z else 1.0 - self.p_z1_given_x[x]
            py = (
                self.p_y1_given_xz[(x, z)]
                if y
                else 1.0 - self.p_y1_given_xz[(x, z)]
            )
            probs[cell_index(x, z, y)] = px * pz * py
        total = sum(probs)
        return JointProbabilityTable(tuple(p / total for p in probs))


def conditional_probabilities(cp: CausalParams) -> ConditionalProbabilities:
    """Evaluate the three conditional blocks at their level-1 values."""
    eta = eta_factors(cp)
    y11 = cp.y * cp.xy * cp.zy * (cp.xzy if cp.with_interaction else 1.0)
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
    )


def fit_causal(table: ContingencyTable, with_interaction: bool = False) -> CausalParams:
    """Estimate the causal decomposition from observed counts.

    The X margin and XZ margin blocks are closed-form count ratios.  The
    Y-block is the saturated conditional odds ratios when the three-way
    term is requested, otherwise the Y-involving terms of the two-way
    MLE, the logistic regression of Y on X and Z.
    """
    n = {cell: table.count(*cell) for cell in CELLS}
    n_x = [sum(v for c, v in n.items() if c[0] == x) for x in (0, 1)]
    n_xz = {
        (x, z): sum(v for c, v in n.items() if c[0] == x and c[1] == z)
        for x in (0, 1)
        for z in (0, 1)
    }
    if min(n_x) <= 0 or min(n_xz.values()) <= 0:
        raise CausalModelError("zero margin; causal blocks are not estimable")

    xc = n_x[1] / n_x[0]
    zc = n_xz[(0, 1)] / n_xz[(0, 0)]
    xzc = (n_xz[(1, 1)] / n_xz[(1, 0)]) * (n_xz[(0, 0)] / n_xz[(0, 1)])

    if with_interaction:
        sat = saturated_closed_form(table)
        y, xy, zy, xzy = sat.y, sat.xy, sat.zy, sat.xzy
    else:
        p = fit_poisson(table).params
        y, xy, zy, xzy = p.y, p.xy, p.zy, 1.0

    return CausalParams(
        xc=xc, zc=zc, xzc=xzc, y=y, xy=xy, zy=zy, xzy=xzy,
        with_interaction=with_interaction,
    )


def causal_from_nocausal(nc: NoCausalParams) -> CausalParams:
    """Convert plain loglinear parameters to causal ones.

    The Z-block conversions are ratios of Y-block normalization factors;
    they hold only when the three-way term is absent.  The X conversion
    follows from summing the eight joint cells over Z and Y:

        mu_c^X = mu^X * S1 / S0
        S1 = 1 + mu^Y mu^XY + mu^Z mu^XZ + mu^Y mu^Z mu^XY mu^XZ mu^ZY
        S0 = 1 + mu^Y + mu^Z + mu^Y mu^Z mu^ZY

    since P(X=1)/P(X=0) is the ratio of the two x-slices of the joint.
    """
    if not math.isclose(nc.xzy, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise CausalModelError(
            "causal conversion is defined only without the three-way term"
        )
    e00 = 1.0 / (1.0 + nc.y)
    e10 = 1.0 / (1.0 + nc.y * nc.xy)
    e01 = 1.0 / (1.0 + nc.y * nc.zy)
    e11 = 1.0 / (1.0 + nc.y * nc.xy * nc.zy)

    zc = nc.z * e00 / e01
    xzc = nc.xz * (e10 * e01) / (e00 * e11)

    s0 = 1.0 + nc.y + nc.z + nc.y * nc.z * nc.zy
    s1 = (
        1.0
        + nc.y * nc.xy
        + nc.z * nc.xz
        + nc.y * nc.z * nc.xy * nc.xz * nc.zy
    )
    xc = nc.x * s1 / s0

    return CausalParams(
        xc=xc, zc=zc, xzc=xzc, y=nc.y, xy=nc.xy, zy=nc.zy,
        xzy=1.0, with_interaction=False,
    )


def nocausal_from_causal(cp: CausalParams) -> NoCausalParams:
    """Invert ``causal_from_nocausal``; the intercept normalizes the joint."""
    if cp.with_interaction:
        raise CausalModelError(
            "causal conversion is defined only without the three-way term"
        )
    e00 = 1.0 / (1.0 + cp.y)
    e10 = 1.0 / (1.0 + cp.y * cp.xy)
    e01 = 1.0 / (1.0 + cp.y * cp.zy)
    e11 = 1.0 / (1.0 + cp.y * cp.xy * cp.zy)

    z = cp.zc * e01 / e00
    xz = cp.xzc * (e00 * e11) / (e10 * e01)

    s0 = 1.0 + cp.y + z + cp.y * z * cp.zy
    s1 = 1.0 + cp.y * cp.xy + z * xz + cp.y * z * cp.xy * xz * cp.zy
    x = cp.xc * s0 / s1

    # intercept so the eight cells form a probability table
    base = NoCausalParams(1.0, x, z, cp.y, xz, cp.xy, cp.zy, 1.0)
    eta = 1.0 / sum(base.expected_counts())
    return NoCausalParams(eta, x, z, cp.y, xz, cp.xy, cp.zy, 1.0)
