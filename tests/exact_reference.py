"""Exact rational references for the effects and the two-way fit.

Under the saturated model the fitted table is the observed one, so for an
integer count table every conditional probability is a ratio of count
sums and every effect is rational in the counts.  ``exact_effects``
evaluates the definitions in ``fractions.Fraction`` arithmetic; it shares
no code with the engine or the oracle.

The two-way MLE is ``n + t*u``, u = +1 on the even cells (0, 3, 5, 6) and
-1 on the odd ones, with ``t`` the root in ``(-lo, hi)`` of the cubic
``prod_even (n + t) - prod_odd (n - t)`` (its t^4 terms cancel), lo and hi
the least even and odd counts.  Every float count is a dyadic rational, so
``exact_two_way_mle`` brackets the root by the exact sign of the cubic.
"""

import math
import struct
from fractions import Fraction

RATIO_FIELDS = ("te", "ie", "ie_reverse", "nde", "multiplicative_interaction")


def exact_effects(counts, x=0, xp=1) -> dict:
    """Every ratio effect of the saturated model, exactly, keyed by field."""
    n = {(a, b, c): Fraction(counts[4 * a + 2 * b + c])
         for a in (0, 1) for b in (0, 1) for c in (0, 1)}
    nxz = {(a, b): n[(a, b, 0)] + n[(a, b, 1)] for a in (0, 1) for b in (0, 1)}
    nx = {a: nxz[(a, 0)] + nxz[(a, 1)] for a in (0, 1)}

    def p_y(y, a, b):
        return n[(a, b, y)] / nxz[(a, b)]

    def p_z(b, a):
        return nxz[(a, b)] / nx[a]

    def odds(y_arm, z_arm):
        # sum_z P(Y=1|y_arm,z) P(z|z_arm) over the same sum at Y=0
        return (sum(p_y(1, y_arm, b) * p_z(b, z_arm) for b in (0, 1))
                / sum(p_y(0, y_arm, b) * p_z(b, z_arm) for b in (0, 1)))

    def cond_odds(a, b):
        return p_y(1, a, b) / p_y(0, a, b)

    lde_z = [cond_odds(xp, b) / cond_odds(x, b) for b in (0, 1)]
    nde = odds(xp, x) / odds(x, x)
    return {
        "te": odds(xp, xp) / odds(x, x),
        "lde": lde_z,
        "cell": [nde / v for v in lde_z],
        "ie": odds(x, xp) / odds(x, x),
        "ie_reverse": odds(xp, x) / odds(xp, xp),
        "nde": nde,
        "multiplicative_interaction": (cond_odds(1, 1) / cond_odds(0, 1))
        / (cond_odds(1, 0) / cond_odds(0, 0)),
    }


def worst_rel_err(report, exact) -> float:
    pairs = [(getattr(report, f), exact[f]) for f in RATIO_FIELDS]
    pairs += [(report.lde[z], exact["lde"][z]) for z in (0, 1)]
    pairs += [(report.cell[z], exact["cell"][z]) for z in (0, 1)]
    return max(abs(Fraction(got) - want) / want for got, want in pairs)


_EVEN = (0, 3, 5, 6)
_ODD = (1, 2, 4, 7)


def _float_bits(x: float) -> int:
    """The bits of a float >= 0, which order such floats as they are."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def exact_two_way_mle(counts, extra_bits=40) -> list:
    """The two-way MLE of ``counts`` as Fractions; the MLE must exist.

    ``s``, the root's distance from the end of ``(-lo, hi)`` nearer to it,
    is bracketed between adjacent floats by bisection on their bits, and
    the bracket is then halved ``extra_bits`` times in Fractions: for a
    normal ``s`` a relative width of 2^-(52 + extra_bits).  Every fitted
    count is ``a + s`` or ``b - s`` with ``a >= 0`` and ``b >= 2s``, so
    each is as relatively exact as ``s``.
    """
    n = [Fraction(c) for c in counts]
    lo, hi = min(n[i] for i in _EVEN), min(n[i] for i in _ODD)

    def cubic(t):
        return (math.prod(n[i] + t for i in _EVEN)
                - math.prod(n[i] - t for i in _ODD))

    # the cubic rises through its one root on (-lo, hi); from the end
    # nearer the root, s is at or beyond it when ``beyond(s)``
    mid = (lo + hi) / 2
    sign = 1 if cubic(mid - lo) >= 0 else -1
    end = -lo if sign > 0 else hi

    def beyond(s):
        return sign * cubic(end + sign * s) >= 0

    below, above = 0, _float_bits(math.nextafter(float(mid), math.inf))
    assert not beyond(0) and beyond(Fraction(_bits_float(above)))
    while above - below > 1:
        half = (below + above) // 2
        if beyond(Fraction(_bits_float(half))):
            above = half
        else:
            below = half
    below, above = Fraction(_bits_float(below)), Fraction(_bits_float(above))
    for _ in range(extra_bits):
        half = (below + above) / 2
        below, above = (below, half) if beyond(half) else (half, above)
    t = end + sign * (below + above) / 2
    return [c + t if i in _EVEN else c - t for i, c in enumerate(n)]
