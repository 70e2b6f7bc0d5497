"""Exact rational references for the effects, the causal layer and the
two-way fit.

Every effect is a ratio of outcome odds, so it is a rational function of
any table proportional to the joint: ``exact_effects`` evaluates the
definitions in ``fractions.Fraction`` arithmetic on such a table, the
counts under the saturated model, a two-way MLE, or ``exact_joint`` of a
set of causal parameters.  It shares no code with the engine or the oracle.

The two-way MLE is ``n + t*u``, u = +1 on the even cells (0, 3, 5, 6) and
-1 on the odd ones, with ``t`` the root in ``(-lo, hi)`` of the cubic
``prod_even (n + t) - prod_odd (n - t)`` (its t^4 terms cancel), lo and hi
the least even and odd counts.  Every float count is a dyadic rational, so
``exact_two_way_mle`` brackets the root by the exact sign of the cubic.
``exact_contrast_variance`` is the z-test's variance at a fitted table,
from the inverse of the logistic information of Y on X and Z.
``exact_deviance`` is the two-way deviance in ``decimal`` at 80 significant
digits, from that MLE.
"""

import decimal
import math
import struct
from fractions import Fraction

RATIO_FIELDS = ("te", "ie", "ie_reverse", "nde", "multiplicative_interaction")


def exact_effects(counts, x=0, xp=1) -> dict:
    """Every effect of the joint proportional to ``counts`` (floats, ints or
    Fractions), exactly, keyed by field."""
    n = [Fraction(c) for c in counts]  # cell (a, b, y) at 4a + 2b + y
    nxz = [[n[4 * a + 2 * b] + n[4 * a + 2 * b + 1] for b in (0, 1)]
           for a in (0, 1)]
    # P(Y=y|X=a,Z=b) as p_y[y][a][b], P(Z=b|X=a) as p_z[a][b]
    p_y = [[[n[4 * a + 2 * b + y] / nxz[a][b] for b in (0, 1)]
            for a in (0, 1)] for y in (0, 1)]
    p_z = [[nxz[a][b] / (nxz[a][0] + nxz[a][1]) for b in (0, 1)]
           for a in (0, 1)]
    # sum_z P(Y=1|y_arm,z) P(z|z_arm) over the same sum at Y=0, as
    # odds[y_arm][z_arm], and the conditional odds of Y at (a, b)
    odds = [[sum(p_y[1][a][b] * p_z[c][b] for b in (0, 1))
             / sum(p_y[0][a][b] * p_z[c][b] for b in (0, 1)) for c in (0, 1)]
            for a in (0, 1)]
    cond = [[p_y[1][a][b] / p_y[0][a][b] for b in (0, 1)] for a in (0, 1)]
    lde_z = [cond[xp][b] / cond[x][b] for b in (0, 1)]
    nde = odds[xp][x] / odds[x][x]
    return {
        "te": odds[xp][xp] / odds[x][x],
        "lde": lde_z,
        "cell": [nde / v for v in lde_z],
        "ie": odds[x][xp] / odds[x][x],
        "ie_reverse": odds[xp][x] / odds[xp][xp],
        "nde": nde,
        "multiplicative_interaction": (cond[1][1] / cond[0][1])
        / (cond[1][0] / cond[0][0]),
        "additive_interaction": p_y[1][1][1] - p_y[1][0][1] - p_y[1][1][0]
        + p_y[1][0][0],
    }


def exact_conditionals(xc, zc, xzc, y, xy, zy, xzy=1) -> tuple:
    """P(X=1), P(Z=1|X=x) by x and P(Y=1|X=x,Z=z) by (x, z) of a set of
    causal parameters, exactly: each is its odds over one plus its odds."""
    xc, zc, xzc, y, xy, zy, xzy = map(Fraction, (xc, zc, xzc, y, xy, zy, xzy))

    def p(odds):
        return odds / (1 + odds)

    return (p(xc), (p(zc), p(zc * xzc)),
            {(0, 0): p(y), (1, 0): p(y * xy), (0, 1): p(y * zy),
             (1, 1): p(y * xy * zy * xzy)})


def exact_joint(*params) -> list:
    """The eight joint probabilities of a set of causal parameters, exactly,
    in canonical cell order; they sum to 1."""
    p_x1, p_z1, p_y1 = exact_conditionals(*params)
    cells = []
    for x, px in ((0, 1 - p_x1), (1, p_x1)):
        for z, pz in ((0, 1 - p_z1[x]), (1, p_z1[x])):
            cells += (px * pz * (1 - p_y1[x, z]), px * pz * p_y1[x, z])
    return cells


def exact_contrast_variance(m) -> Fraction:
    """Var of lambda^ZY + 2 lambda^Y + lambda^XY at the fitted counts ``m``
    of a two-way fit: c' I^-1 c, c = (2, 1, 1), with I the information of
    the logistic regression of Y on (1, X, Z), sum_xz w r r' with
    r = (1, x, z) and w = m(x,z,0) m(x,z,1) / m(x,z,+); the two-way MLE
    fits the XZ margin, so this is the Y-block of the inverse Poisson
    information.  Solved by elimination without pivoting, as I is
    positive definite."""
    info = [[Fraction(0)] * 3 for _ in range(3)]
    for x in (0, 1):
        for z in (0, 1):
            m0, m1 = Fraction(m[4 * x + 2 * z]), Fraction(m[4 * x + 2 * z + 1])
            r = (1, x, z)
            for i in range(3):
                for j in range(3):
                    info[i][j] += m0 * m1 / (m0 + m1) * r[i] * r[j]
    c = (2, 1, 1)
    rows = [row + [ci] for row, ci in zip(info, c)]
    for col in range(3):
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(3):
            if i != col:
                rows[i] = [v - rows[i][col] * w
                           for v, w in zip(rows[i], rows[col])]
    return sum(ci * row[3] for ci, row in zip(c, rows))


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


def exact_two_way_mle(counts, extra_bits=12) -> list:
    """The two-way MLE of ``counts`` as Fractions; the MLE must exist.

    ``s``, the root's distance from the end of ``(-lo, hi)`` nearer to it,
    is bracketed between adjacent floats by bisection on their bits, and
    the bracket is then halved until its width is 2^-(52 + extra_bits) of
    ``s``: by default a 2048th of the unit of rounding u = 2^-53.  Every
    fitted count is ``a + s`` or ``b - s`` with ``a >= 0`` and ``b >= 2s``,
    so each is as relatively exact as ``s``.  The cubic's sign is taken in
    integers, the counts and the point tried over one common ``scale``;
    far from the root the logs of its factors decide it.
    """
    n = [Fraction(c) for c in counts]
    # every float is a whole multiple of 2^-1074
    scale = math.lcm(*(c.denominator for c in n)) << 1074
    big = [c.numerator * (scale // c.denominator) for c in n]
    lo, hi = min(big[i] for i in _EVEN), min(big[i] for i in _ODD)

    def scaled(x: float) -> int:
        num, den = x.as_integer_ratio()
        return num * (scale // den)

    def beyond(s):
        # the cubic prod_even (n + t) - prod_odd (n - t) rises through its
        # one root on (-lo, hi); from the end nearer the root, s is at or
        # beyond it when this holds
        t = end + sign * s
        rise, fall = [big[i] + t for i in _EVEN], [big[i] - t for i in _ODD]
        if min(rise) > 0 < min(fall):
            # each log is within a few ulps, far inside this margin
            gap = sum(map(math.log, rise)) - sum(map(math.log, fall))
            if abs(gap) > 1e-12 * sum(map(abs, map(math.log, rise + fall))):
                return sign * gap > 0
        return sign * (math.prod(rise) - math.prod(fall)) >= 0

    # one more bit of scale makes the half-length ``mid`` whole; the
    # cubic's sign at the centre of (-lo, hi) picks the nearer end
    mid = lo + hi
    big, lo, hi, scale = [2 * c for c in big], 2 * lo, 2 * hi, 2 * scale
    sign, end = 1, -lo
    if not beyond(mid):
        sign, end = -1, hi
    below = 0
    above = _float_bits(math.nextafter(mid / scale, math.inf))
    assert not beyond(0) and beyond(scaled(_bits_float(above)))
    while above - below > 1:
        half = (below + above) // 2
        if beyond(scaled(_bits_float(half))):
            above = half
        else:
            below = half
    below, above = scaled(_bits_float(below)), scaled(_bits_float(above))
    while below == 0 or (above - below) << (52 + extra_bits) > below:
        # one more bit of scale keeps the half a whole number; below the
        # least float, 64 more bits try 2^-64 of the bound instead
        grow = 2 ** (64 if below == 0 else 1)
        big, end, scale = [grow * c for c in big], grow * end, grow * scale
        below, above = grow * below, grow * above
        half = above // grow if below == 0 else (below + above) // 2
        below, above = (below, half) if beyond(half) else (half, above)
    t = 2 * end + sign * (below + above)  # over 2 * scale
    return [Fraction(2 * c + t if i in _EVEN else 2 * c - t, 2 * scale)
            for i, c in enumerate(big)]


def exact_deviance(counts, digits=80) -> decimal.Decimal:
    """The two-way deviance ``2 sum c log(c / f) - (c - f)`` of ``counts``,
    f the two-way MLE, a zero count adding f, to ``digits`` significant
    digits.

    With f = c (1 + x) a term is c (x - log(1 + x)), about c x^2 / 2, and
    every term is >= 0, so only the terms cancel: each is taken with as
    many more digits as x - log(1 + x) loses.  The root t, f = n + t*u, is
    bracketed to 2^-116 of itself: ``exact_two_way_mle`` brackets its
    distance from an end of the interval, at most mid = (lo + hi) / 2, so
    it takes as many more bits as mid / |t| has.
    """
    n = [Fraction(c) for c in counts]
    fitted = exact_two_way_mle(counts, 64)
    t = abs(fitted[0] - n[0])
    mid = (min(n[i] for i in _EVEN) + min(n[i] for i in _ODD)) / 2
    if t and mid > t:
        fitted = exact_two_way_mle(counts, 64 + math.ceil(mid / t).bit_length())
    total = decimal.Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        for c, f in zip(n, fitted):
            if c == 0:
                total += _decimal(f)
                continue
            x = (f - c) / c
            # 1 + x keeps ``prec`` digits, and the term is about x^2: twice
            # the digits of 1 / |x|, about 3/10 of its bits, more
            lost = x.denominator.bit_length() - x.numerator.bit_length()
            with decimal.localcontext() as wide:
                wide.prec = digits + 2 * max(0, lost * 3 // 10 + 1)
                x = _decimal(x)
                term = _decimal(c) * (x - (1 + x).ln())
            total += term
        return 2 * total


def _decimal(q: Fraction) -> decimal.Decimal:
    """``q`` rounded to the current context's precision."""
    return decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)
