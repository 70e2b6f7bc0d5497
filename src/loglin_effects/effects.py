"""Odds-ratio causal effects computed from the causal parameterization.

Every effect is a ratio of outcome odds under P(X) P(Z|X) P(Y|X,Z), so one
pass gives them all.  It takes the four conditional outcome odds
``o(x,z)`` and the two mediator odds ``w(x)`` from ``causal._odds`` and
forms each mixed odds, outcome arm ``a`` and mediator arm ``b``, as

    sum_z P(Y=1|a,z) P(z|b)   o0 (1 + o1) + o1 w (1 + o0)
    ----------------------- = ---------------------------,
    sum_z P(Y=0|a,z) P(z|b)     (1 + o1) + w (1 + o0)

with ``o0, o1 = o(a,0), o(a,1)`` and ``w = w(b)``: a ratio of positive
sums, so no odds is ever formed as ``p / (1 - p)`` and no digit cancels.
The kernel ``_effects`` uses only +, *, / and comparisons, so it works in
any number type: ``Fraction`` odds give exact effects.  The ``oracle``
module recomputes them from a raw joint probability table.
"""

from __future__ import annotations

import math

from .causal import CausalParams, _odds
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
    return _effects(*_odds(cp), x, xp)


def _effects(o, w, x: int, xp: int) -> EffectsReport:
    """``effects_report`` of the odds ``o[x][z]`` and ``w[x]``, in their type.

    The four mixed odds are formed once each, arm (outcome, mediator) =
    (0,0), (0,1), (1,0) and (1,1), then read in the direction's order."""
    (o00, o01), (o10, o11) = o
    w0, w1 = w
    u0, v0, u1, v1 = 1 + o00, 1 + o01, 1 + o10, 1 + o11
    a0, a1 = o00 * v0, o10 * v1
    try:
        m00 = (a0 + o01 * w0 * u0) / (v0 + w0 * u0)
        m01 = (a0 + o01 * w1 * u0) / (v0 + w1 * u0)
        m10 = (a1 + o11 * w0 * u1) / (v1 + w0 * u1)
        m11 = (a1 + o11 * w1 * u1) / (v1 + w1 * u1)
        if x:
            at_x, at_xp, held, shifted = m11, m00, m01, m10
            lde0, lde1 = o00 / o10, o01 / o11
        else:
            at_x, at_xp, held, shifted = m00, m11, m10, m01
            lde0, lde1 = o10 / o00, o11 / o01
        te = at_xp / at_x
        nde = held / at_x
        ie = shifted / at_x
        ie_rev = held / at_xp
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
    # every field is checked, so the record is built directly; additive:
    # the double difference of P(Y=1|x,z) = o / (1 + o)
    return tuple.__new__(EffectsReport, (
        te, (lde0, lde1), (cell0, cell1), ie, ie_rev, nde,
        o11 / v1 - o01 / v0 - o10 / u1 + o00 / u0,
        mult,
        max(abs(te - lde0 * cell0 / ie_rev), abs(te - lde1 * cell1 / ie_rev)),
        (x, xp), None,
    ))


def indirect_effect(cp: CausalParams, x: int = 0, xp: int = 1) -> float:
    """Odds ratio from shifting only the mediator distribution to X=xp."""
    return effects_report(cp, x, xp).ie

