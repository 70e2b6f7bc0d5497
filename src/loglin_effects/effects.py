"""Odds-ratio causal effects computed from the causal parameterization.

Every effect is a ratio of outcome odds under P(X) P(Z|X) P(Y|X,Z), so one
pass gives them all.  It reads the four conditional outcome odds
``o(x,z)`` and the two mediator odds ``w(x)`` straight off the parameters
and forms each mixed odds, outcome arm ``a`` and mediator arm ``b``, as

    sum_z P(Y=1|a,z) P(z|b)   o0 (1 + o1) + o1 w (1 + o0)
    ----------------------- = ---------------------------,
    sum_z P(Y=0|a,z) P(z|b)     (1 + o1) + w (1 + o0)

with ``o0, o1 = o(a,0), o(a,1)`` and ``w = w(b)``: a ratio of positive
sums, so no odds is ever formed as ``p / (1 - p)`` and no digit cancels.
The ``oracle`` module recomputes the same quantities from a raw joint
probability table for cross-checking.
"""

from __future__ import annotations

import math

from .causal import CausalParams
from .report import EffectsReport, _direction


class DegenerateProbabilityError(ValueError):
    """An odds product over- or underflowed, so an effect is 0, inf or nan."""


def effects_report(cp: CausalParams, x: int = 0, xp: int = 1) -> EffectsReport:
    """Every effect of the direction X = x -> xp, in one pass.

    The residual checks TE = LDE(z) * Cell(z) / IE_{xp,x} at both z
    levels; the reverse-direction IE is evaluated from its definition,
    not inverted.
    """
    x, xp = _direction(x, xp)
    o00, o10 = cp.y, cp.y * cp.xy  # o(x,z), as o[x][z]
    o01, o11 = o00 * cp.zy, o10 * cp.zy * cp.xzy
    o = ((o00, o01), (o10, o11))
    w = (cp.zc, cp.zc * cp.xzc)  # w[x]

    def mixed(a, b):
        o0, o1 = o[a]
        u, v = 1.0 + o0, 1.0 + o1
        return (o0 * v + o1 * w[b] * u) / (v + w[b] * u)

    try:
        at_x, at_xp, held = mixed(x, x), mixed(xp, xp), mixed(xp, x)
        te = at_xp / at_x
        nde = held / at_x
        ie = mixed(x, xp) / at_x
        ie_rev = held / at_xp
        lde0, lde1 = o[xp][0] / o[x][0], o[xp][1] / o[x][1]
        cell0, cell1 = nde / lde0, nde / lde1
        mult = (o11 / o01) / (o10 / o00)
        inf = math.inf
        finite = (0.0 < te < inf and 0.0 < nde < inf and 0.0 < ie < inf
                  and 0.0 < ie_rev < inf and 0.0 < mult < inf
                  and 0.0 < lde0 < inf and 0.0 < lde1 < inf
                  and 0.0 < cell0 < inf and 0.0 < cell1 < inf)
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise DegenerateProbabilityError(
            "an odds product over- or underflows: the effects are not all "
            "positive and finite"
        )
    # additive: the double difference of P(Y=1|x,z) = o / (1 + o)
    return EffectsReport(
        te, (lde0, lde1), (cell0, cell1), ie, ie_rev, nde,
        (o11 / (1.0 + o11) - o01 / (1.0 + o01)
         - o10 / (1.0 + o10) + o00 / (1.0 + o00)),
        mult,
        max(abs(te - lde0 * cell0 / ie_rev), abs(te - lde1 * cell1 / ie_rev)),
        (x, xp), None,
    )


def indirect_effect(cp: CausalParams, x: int = 0, xp: int = 1) -> float:
    """Odds ratio from shifting only the mediator distribution to X=xp."""
    return effects_report(cp, x, xp).ie

