"""Seeded table generator, exact references and per-op correctness checks.

Nothing here imports ``loglin_effects``: the references are written
independently of the engine so that they can catch its defects.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: six causal log-parameters (Xc, Zc, XZc, Y, XY, ZY) are uniform on this
LOG_PARAM_RANGE = 2.5
#: multinomial totals are log-uniform on this interval
TOTAL_RANGE = (50, 1_000_000)
#: share of tables turned into float tables by scaling with 10^U(6, 14)
FLOAT_SHARE = 0.10
SCALE_EXP_RANGE = (6.0, 14.0)

#: one tolerance for every check, relative unless a check says otherwise:
#: engine vs. float oracle, saturated engine vs. exact reference, fitted
#: vs. observed margins, and standard error vs. its exact value.  Clean
#: results sit below 1e-12 (float64 round-off over a few dozen operations);
#: a result 1000x worse than that has lost digits it should not have.
RTOL = 1e-9

#: report fields compared against references; ``additive_interaction`` is
#: compared absolutely, the others relatively
RATIO_FIELDS = ("te", "lde0", "lde1", "cell0", "cell1", "ie", "ie_reverse",
                "nde", "multiplicative_interaction")
ALL_FIELDS = RATIO_FIELDS + ("additive_interaction",)

CELLS = tuple((x, z, y) for x in (0, 1) for z in (0, 1) for y in (0, 1))


def joint_from_causal(xc, zc, xzc, y, xy, zy, xzy=1.0):
    """P(x) P(z|x) P(y|x,z) in canonical cell order, from odds parameters."""
    odds_y = {(0, 0): y, (1, 0): y * xy, (0, 1): y * zy,
              (1, 1): y * xy * zy * xzy}
    odds_z = (zc, zc * xzc)
    out = []
    for x, z, yy in CELLS:
        px = (xc if x else 1.0) / (1.0 + xc)
        pz = (odds_z[x] if z else 1.0) / (1.0 + odds_z[x])
        py = (odds_y[(x, z)] if yy else 1.0) / (1.0 + odds_y[(x, z)])
        out.append(px * pz * py)
    return out


def generate(seed: int, n: int) -> list:
    """``n`` distinct tables as dicts with ``counts`` and ``kind``.

    ``kind`` is ``"count"`` for multinomial integer counts and ``"float"``
    for counts scaled by 10^U(6, 14).  Each continuous dimension (the six
    log-parameters, the log-total, the scale exponent) is sampled by Latin
    hypercube, one value per 1/n stratum in random order, and exactly
    ``round(FLOAT_SHARE * n)`` tables are float tables, so every seed covers
    the same mix and seeds differ in the draws, not in the proportions.
    The same seed and ``n`` give the same list.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0x10611])

    def strata(lo, hi):
        return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n

    logs = np.column_stack([strata(-LOG_PARAM_RANGE, LOG_PARAM_RANGE)
                            for _ in range(6)])
    totals = np.rint(np.exp(strata(math.log(TOTAL_RANGE[0]),
                                   math.log(TOTAL_RANGE[1])))).astype(int)
    scale_exps = strata(*SCALE_EXP_RANGE)
    is_float = np.zeros(n, dtype=bool)
    is_float[rng.permutation(n)[:round(FLOAT_SHARE * n)]] = True

    seen = set()
    tables = []
    for i in range(n):
        probs = joint_from_causal(*(math.exp(v) for v in logs[i]))
        while True:  # redraw the counts of a duplicate or empty table
            counts = [int(c) for c in rng.multinomial(totals[i], probs)]
            if is_float[i]:
                counts = [c * 10.0 ** float(scale_exps[i]) for c in counts]
            if tuple(counts) not in seen and sum(counts) > 0:
                break
        seen.add(tuple(counts))
        tables.append({"counts": counts,
                       "kind": "float" if is_float[i] else "count"})
    return tables


def to_csv(counts) -> str:
    rows = ["x,z,y,count"]
    rows += [f"{x},{z},{y},{c!r}" for (x, z, y), c in zip(CELLS, counts)]
    return "\n".join(rows) + "\n"


def to_json(counts) -> str:
    return json.dumps({"labels": ["X", "Z", "Y"], "cells": [
        {"x": x, "z": z, "y": y, "count": c}
        for (x, z, y), c in zip(CELLS, counts)
    ]})


def corrected(counts, amount=0.5):
    """The ``correct`` zero-cell policy: add ``amount`` to every cell if any is 0."""
    if any(c == 0 for c in counts):
        return [c + amount for c in counts]
    return list(counts)


# ---------------------------------------------------------------------------
# exact reference


def exact_saturated_effects(counts, x=0, xp=1) -> dict:
    """Every effect of the saturated model, exactly, from the cell counts.

    The saturated fit reproduces the observed table, so each conditional
    probability is a ratio of count sums and every effect is rational in
    the counts.  Floats are converted to ``Fraction`` without rounding.
    """
    n = {cell: Fraction(c) for cell, c in zip(CELLS, counts)}
    nxz = {(a, b): n[(a, b, 0)] + n[(a, b, 1)] for a in (0, 1) for b in (0, 1)}
    nx = {a: nxz[(a, 0)] + nxz[(a, 1)] for a in (0, 1)}
    py = {k: n[k + (1,)] / v for k, v in nxz.items()}
    pz = {(a, b): nxz[(a, b)] / nx[a] for a in (0, 1) for b in (0, 1)}

    def odds(p):
        return p / (1 - p)

    def mix(y_arm, z_arm):
        return sum(py[(y_arm, b)] * pz[(z_arm, b)] for b in (0, 1))

    lde = [odds(py[(xp, b)]) / odds(py[(x, b)]) for b in (0, 1)]
    nde = odds(mix(xp, x)) / odds(mix(x, x))
    return {
        "te": odds(mix(xp, xp)) / odds(mix(x, x)),
        "lde0": lde[0],
        "lde1": lde[1],
        "cell0": nde / lde[0],
        "cell1": nde / lde[1],
        "ie": odds(mix(x, xp)) / odds(mix(x, x)),
        "ie_reverse": odds(mix(xp, x)) / odds(mix(xp, xp)),
        "nde": nde,
        "multiplicative_interaction": (odds(py[(1, 1)]) / odds(py[(0, 1)]))
        / (odds(py[(1, 0)]) / odds(py[(0, 0)])),
        "additive_interaction": py[(1, 1)] - py[(0, 1)] - py[(1, 0)] + py[(0, 0)],
    }


def rel_err(got: float, want) -> float:
    want = float(want)
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def check_exact(report: dict, counts) -> float:
    """Largest error of a saturated report against the exact reference.

    Relative on the ratio effects, absolute on the additive interaction.
    """
    ref = exact_saturated_effects(counts)
    worst = max(rel_err(report[f], ref[f]) for f in RATIO_FIELDS)
    return max(worst, abs(report["additive_interaction"]
                          - float(ref["additive_interaction"])))


def margin_error(fitted, counts) -> float:
    """Largest relative miss of the fitted XZ, XY and ZY margins."""
    worst = 0.0
    for keep in ((0, 1), (0, 2), (1, 2)):
        obs, fit = {}, {}
        for cell, n, m in zip(CELLS, counts, fitted):
            key = (cell[keep[0]], cell[keep[1]])
            obs[key] = obs.get(key, 0.0) + n
            fit[key] = fit.get(key, 0.0) + m
        for key, o in obs.items():
            worst = max(worst, abs(fit[key] - o) / o)
    return worst


def fitted_from_causal(cp: dict, counts) -> list:
    """Fitted cell counts N * P(x) P(z|x) P(y|x,z) of a causal fit."""
    total = sum(counts)
    joint = joint_from_causal(cp["xc"], cp["zc"], cp["xzc"], cp["y"],
                              cp["xy"], cp["zy"], cp.get("xzy", 1.0))
    return [total * p for p in joint]


def contrast_variance(fitted) -> Fraction:
    """Exact Var of lambda^ZY + 2 lambda^Y + lambda^XY at the fitted counts.

    The two-way MLE fits the XZ margin exactly, so the Y-block covariance
    is the inverse logistic information sum_xz w(x,z) r r' with
    r = (1, x, z) and w = m(x,z,0) m(x,z,1) / m(x,z,+), which equals that
    block of the inverse Poisson information.  It is solved in
    ``Fraction`` arithmetic, so it carries no rounding of its own.
    """
    info = [[Fraction(0)] * 3 for _ in range(3)]
    for x in (0, 1):
        for z in (0, 1):
            m0 = Fraction(fitted[4 * x + 2 * z])
            m1 = Fraction(fitted[4 * x + 2 * z + 1])
            w = m0 * m1 / (m0 + m1)
            r = (1, x, z)
            for i in range(3):
                for j in range(3):
                    info[i][j] += w * r[i] * r[j]
    c = (2, 1, 1)
    a = [row + [ci] for row, ci in zip(info, c)]
    for col in range(3):  # the information is positive definite: no pivoting
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(3):
            if r != col:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return sum(ci * a[i][3] for i, ci in enumerate(c))
