"""Brute-force effect computation straight from the eight joint cells.

This module deliberately shares no formula code with the engine and
imports neither ``effects`` nor ``causal``: every conditional probability
is obtained by dividing sums of joint cells, and every effect definition
is transcribed independently.  Only the report type is shared.  It exists
to cross-validate the closed-form engine.
"""

from __future__ import annotations

import math

from .report import EffectsReport
from .tables import JointProbabilityTable


class OracleError(ValueError):
    """Zero-probability conditioning event or degenerate conditional."""


#: the oracle fills the engine's report type, with ``source="oracle"``
OracleReport = EffectsReport


def _conditionals(joint: JointProbabilityTable):
    """P(Z=z|X=x) as ``pz[x][z]`` and P(Y=y|X=x,Z=z) as ``py[y][x][z]``.

    Each is a joint cell or cell sum divided by the sum of its conditioning
    slice; both outcome levels are divided out of their own cells, so no
    conditional is formed as ``1 - p``.
    """
    p = joint.probs  # cell (x, z, y) sits at index 4x + 2z + y
    pz = []
    py = ([], [])
    for x in (0, 1):
        pxz = (p[4 * x] + p[4 * x + 1], p[4 * x + 2] + p[4 * x + 3])
        px = pxz[0] + pxz[1]
        if px <= 0.0:
            raise OracleError(f"P(X={x}) = 0; conditioning undefined")
        for z in (0, 1):
            if pxz[z] <= 0.0:
                raise OracleError(f"P(X={x},Z={z}) = 0; conditioning undefined")
        pz.append((pxz[0] / px, pxz[1] / px))
        for y in (1, 0):
            cond = (p[4 * x + y] / pxz[0], p[4 * x + 2 + y] / pxz[1])
            for z in (0, 1):
                if cond[z] <= 0.0:
                    raise OracleError(
                        f"P(Y={y}|X={x},Z={z}) = {cond[z]!r} is degenerate"
                    )
            py[y].append(cond)
    return pz, py


def oracle_effects(
    joint: JointProbabilityTable, x: int = 0, xp: int = 1
) -> EffectsReport:
    """Evaluate every effect definition literally on the joint table."""
    if x not in (0, 1) or xp not in (0, 1) or x == xp:
        raise ValueError("direction must be two distinct levels in {0, 1}")
    pz, (p0, p1) = _conditionals(joint)

    def odds(y_arm, z_arm):
        # sum_z P(Y=1|X=y_arm,Z=z) P(Z=z|X=z_arm), over the same sum at Y=0
        w0, w1 = pz[z_arm]
        return ((p1[y_arm][0] * w0 + p1[y_arm][1] * w1)
                / (p0[y_arm][0] * w0 + p0[y_arm][1] * w1))

    def conditional_odds(at_x, z):
        return p1[at_x][z] / p0[at_x][z]

    try:
        marginal_x, marginal_xp, held = odds(x, x), odds(xp, xp), odds(xp, x)
        te = marginal_xp / marginal_x
        lde = tuple(
            conditional_odds(xp, z) / conditional_odds(x, z) for z in (0, 1)
        )
        nde = held / marginal_x
        ie = odds(x, xp) / marginal_x
        ie_reverse = held / marginal_xp
        cell = tuple(nde / lde[z] for z in (0, 1))
        multiplicative = (
            conditional_odds(1, 1) / conditional_odds(0, 1)
        ) / (conditional_odds(1, 0) / conditional_odds(0, 0))
        finite = all(0.0 < r < math.inf for r in
                     (te, nde, ie, ie_reverse, multiplicative) + lde + cell)
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise OracleError(
            "a probability ratio over- or underflows: the effects are not "
            "all positive and finite"
        )
    additive = p1[1][1] - p1[0][1] - p1[1][0] + p1[0][0]
    residual = max(
        abs(te - lde[z] * cell[z] / ie_reverse) for z in (0, 1)
    )
    return EffectsReport(
        te=te,
        lde=lde,
        cell=cell,
        ie=ie,
        ie_reverse=ie_reverse,
        nde=nde,
        additive_interaction=additive,
        multiplicative_interaction=multiplicative,
        decomposition_residual=residual,
        direction=(x, xp),
        source="oracle",
    )
