"""Brute-force effect computation straight from the eight joint cells.

This module deliberately shares no formula code with the engine and
imports neither ``effects`` nor ``causal``: every conditional probability
is obtained by dividing sums of joint cells, and every effect definition
is transcribed independently.  It shares only the report type and the
check of its direction, both in ``report``.  It exists to cross-validate
the closed-form engine.
"""

from __future__ import annotations

import math

from .report import EffectsReport, _direction
from .tables import JointProbabilityTable


class OracleError(ValueError):
    """Zero-probability conditioning event or degenerate conditional."""


def _conditionals(joint: JointProbabilityTable):
    """P(Z=z|X=x) as ``pz[x][z]`` and P(Y=y|X=x,Z=z) as ``py[y][x][z]``.

    Each is a joint cell or cell sum divided by the sum of its conditioning
    slice; both outcome levels are divided out of their own cells, so no
    conditional is formed as ``1 - p``.  A zero slice or conditional raises
    ``OracleError``; only then does ``_check_conditioning`` look for which.
    """
    p = joint.probs
    c0, c1, c2, c3, c4, c5, c6, c7 = p  # cell (x, z, y) at 4x + 2z + y
    s00, s01, s10, s11 = c0 + c1, c2 + c3, c4 + c5, c6 + c7  # P(X=x,Z=z)
    if not min(s00, s01, s10, s11) > 0.0:
        _check_conditioning(p)
    y0 = ((c0 / s00, c2 / s01), (c4 / s10, c6 / s11))
    y1 = ((c1 / s00, c3 / s01), (c5 / s10, c7 / s11))
    if not min(y0[0] + y0[1] + y1[0] + y1[1]) > 0.0:
        _check_conditioning(p)
    px0, px1 = s00 + s01, s10 + s11
    return ((s00 / px0, s01 / px0), (s10 / px1, s11 / px1)), (y0, y1)


def _check_conditioning(p) -> None:
    """Raise the ``OracleError`` of the first zero slice or conditional of
    the joint cells ``p``, if any, in the order x, then the slices, then
    Y=1 and Y=0 at each z."""
    for x in (0, 1):
        pxz = (p[4 * x] + p[4 * x + 1], p[4 * x + 2] + p[4 * x + 3])
        if pxz[0] + pxz[1] <= 0.0:
            raise OracleError(f"P(X={x}) = 0; conditioning undefined")
        for z in (0, 1):
            if pxz[z] <= 0.0:
                raise OracleError(
                    f"P(X={x},Z={z}) = 0; conditioning undefined"
                )
        for y in (1, 0):
            for z in (0, 1):
                cond = p[4 * x + 2 * z + y] / pxz[z]
                if cond <= 0.0:
                    raise OracleError(
                        f"P(Y={y}|X={x},Z={z}) = {cond!r} is degenerate"
                    )


def oracle_effects(
    joint: JointProbabilityTable, x: int = 0, xp: int = 1
) -> EffectsReport:
    """Evaluate every effect definition literally on the joint table."""
    x, xp = _direction(x, xp)
    pz, (p0, p1) = _conditionals(joint)

    def odds(y_arm, z_arm):
        # sum_z P(Y=1|X=y_arm,Z=z) P(Z=z|X=z_arm), over the same sum at Y=0
        w0, w1 = pz[z_arm]
        return ((p1[y_arm][0] * w0 + p1[y_arm][1] * w1)
                / (p0[y_arm][0] * w0 + p0[y_arm][1] * w1))

    try:
        # the conditional odds P(Y=1|x,z) / P(Y=0|x,z), as odds_xz[x][z]
        odds_xz = ((p1[0][0] / p0[0][0], p1[0][1] / p0[0][1]),
                   (p1[1][0] / p0[1][0], p1[1][1] / p0[1][1]))
        marginal_x, marginal_xp, held = odds(x, x), odds(xp, xp), odds(xp, x)
        te = marginal_xp / marginal_x
        lde = (odds_xz[xp][0] / odds_xz[x][0], odds_xz[xp][1] / odds_xz[x][1])
        nde = held / marginal_x
        ie = odds(x, xp) / marginal_x
        ie_reverse = held / marginal_xp
        cell = (nde / lde[0], nde / lde[1])
        multiplicative = ((odds_xz[1][1] / odds_xz[0][1])
                          / (odds_xz[1][0] / odds_xz[0][0]))
        inf = math.inf
        finite = (0.0 < te < inf and 0.0 < nde < inf and 0.0 < ie < inf
                  and 0.0 < ie_reverse < inf and 0.0 < multiplicative < inf
                  and 0.0 < lde[0] < inf and 0.0 < lde[1] < inf
                  and 0.0 < cell[0] < inf and 0.0 < cell[1] < inf)
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise OracleError(
            "a probability ratio over- or underflows: the effects are not "
            "all positive and finite"
        )
    additive = p1[1][1] - p1[0][1] - p1[1][0] + p1[0][0]
    residual = max(abs(te - lde[0] * cell[0] / ie_reverse),
                   abs(te - lde[1] * cell[1] / ie_reverse))
    return EffectsReport(te, lde, cell, ie, ie_reverse, nde, additive,
                         multiplicative, residual, (x, xp), "oracle")
