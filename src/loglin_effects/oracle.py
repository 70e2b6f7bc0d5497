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
from .tables import ContingencyTable, JointProbabilityTable


class OracleError(ValueError):
    """Zero-probability conditioning event or degenerate conditional."""


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
    joint: JointProbabilityTable | ContingencyTable, x: int = 0, xp: int = 1
) -> EffectsReport:
    """Evaluate every effect definition literally on the joint table.

    P(Z=z|X=x) is ``z<x><z>`` and P(Y=y|X=x,Z=z) is ``y<y>_<x><z>``, each a
    joint cell or cell sum divided by the sum of its conditioning slice;
    both outcome levels are divided out of their own cells, so no
    conditional is formed as ``1 - p``.  A zero slice or conditional
    raises ``OracleError``; only then does ``_check_conditioning`` look for
    which.

    Every value is a ratio within a slice, so ``joint`` may as well be a
    ``ContingencyTable`` of counts on any positive scale, such as a fit's
    fitted counts: its cells are read as the joint table's, unnormalized.
    """
    x, xp = _direction(x, xp)
    p = joint[0]  # the cells: a joint's probs, or a table's counts
    c0, c1, c2, c3, c4, c5, c6, c7 = p  # cell (x, z, y) at 4x + 2z + y
    s00, s01, s10, s11 = c0 + c1, c2 + c3, c4 + c5, c6 + c7  # P(X=x,Z=z)
    if not min(s00, s01, s10, s11) > 0.0:
        _check_conditioning(p)
    y0_00, y0_01, y0_10, y0_11 = c0 / s00, c2 / s01, c4 / s10, c6 / s11
    y1_00, y1_01, y1_10, y1_11 = c1 / s00, c3 / s01, c5 / s10, c7 / s11
    if not min(y0_00, y0_01, y0_10, y0_11, y1_00, y1_01, y1_10, y1_11) > 0.0:
        _check_conditioning(p)
    px0, px1 = s00 + s01, s10 + s11
    z00, z01, z10, z11 = s00 / px0, s01 / px0, s10 / px1, s11 / px1
    try:
        # the conditional odds P(Y=1|x,z) / P(Y=0|x,z)
        q00, q01 = y1_00 / y0_00, y1_01 / y0_01
        q10, q11 = y1_10 / y0_10, y1_11 / y0_11
        # sum_z P(Y=1|X=a,Z=z) P(Z=z|X=b), over the same sum at Y=0, as
        # odds_<a><b>
        odds_00 = (y1_00 * z00 + y1_01 * z01) / (y0_00 * z00 + y0_01 * z01)
        odds_01 = (y1_00 * z10 + y1_01 * z11) / (y0_00 * z10 + y0_01 * z11)
        odds_10 = (y1_10 * z00 + y1_11 * z01) / (y0_10 * z00 + y0_11 * z01)
        odds_11 = (y1_10 * z10 + y1_11 * z11) / (y0_10 * z10 + y0_11 * z11)
        if x:
            marginal_x, marginal_xp, held, shifted = (
                odds_11, odds_00, odds_01, odds_10)
            lde0, lde1 = q00 / q10, q01 / q11
        else:
            marginal_x, marginal_xp, held, shifted = (
                odds_00, odds_11, odds_10, odds_01)
            lde0, lde1 = q10 / q00, q11 / q01
        te = marginal_xp / marginal_x
        nde = held / marginal_x
        ie = shifted / marginal_x
        ie_reverse = held / marginal_xp
        cell0, cell1 = nde / lde0, nde / lde1
        multiplicative = (q11 / q01) / (q10 / q00)
        inf = math.inf
        finite = (0.0 < te < inf and 0.0 < nde < inf and 0.0 < ie < inf
                  and 0.0 < ie_reverse < inf and 0.0 < multiplicative < inf
                  and 0.0 < lde0 < inf and 0.0 < lde1 < inf
                  and 0.0 < cell0 < inf and 0.0 < cell1 < inf)
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise OracleError(
            "a probability ratio over- or underflows: the effects are not "
            "all positive and finite"
        )
    # every field is checked, so the record is built directly
    return tuple.__new__(EffectsReport, (
        te, (lde0, lde1), (cell0, cell1), ie, ie_reverse, nde,
        y1_11 - y1_01 - y1_10 + y1_00, multiplicative,
        max(abs(te - lde0 * cell0 / ie_reverse),
            abs(te - lde1 * cell1 / ie_reverse)),
        (x, xp), "oracle",
    ))
