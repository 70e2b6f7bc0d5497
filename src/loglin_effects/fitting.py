"""Maximum likelihood fits of the paper's two loglinear models of 2x2x2 tables.

The two models are the two-way model ``[XZ][XY][ZY]`` (no multiplicative
interaction) and the saturated model; ``ModelSpec`` is one bool that picks
between them.  Both are dummy coded: a term is 1 at a cell exactly when all
its variables are at level 1 there.

The two-way model has one residual degree of freedom.  The tables with the
observed two-way margins are ``n + t*u``, u(x,z,y) = (-1)^(x+z+y), and its
MLE is the one among them with no three-way term, ``sum u log m = 0``
(Bartlett, 1935): one unknown in one increasing equation.  The positive
tables ``n + t*u`` form an interval of ``t``, which is empty exactly when
the MLE does not exist (Haberman, 1974); otherwise the equation has one root
in it, found by Newton's method.  The saturated model reproduces the counts.
Both models read their Y-block off the cells with the same ratios, and the
intercept and the X, Z and XZ terms with ``_cell_ratios``.

The covariance of the additive parameters, ``(D' diag(m) D)^-1`` over the
dummy-coded design matrix ``D``, is computed on first use in closed form.
``C``, the inverse of the saturated dummy coding, maps the log counts to the
parameters, and the saturated covariance is ``C diag(1/m) C'``.  The two-way
model's log counts have the covariance ``diag(1/m) - (u/m)(u/m)' / sum(1/m)``,
which is the sum over the cell pairs c < d of ``w_cd g g'``, with
``w_cd = 1 / (m_c m_d sum(1/m))`` and ``g = e_c - u_c u_d e_d``.  Either way
each variance is a sum of non-negative terms, so no entry loses digits to
cancellation, as an inverse of the information in floats does when the
fitted counts span more than ~1e16.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .tables import CELLS, VARIABLES, ContingencyTable

#: term order shared by design matrices, parameter vectors, and covariances;
#: each term but the intercept is named by its variables
TERM_ORDER = ("eta", "X", "Z", "Y", "XZ", "XY", "ZY", "XZY")

#: the cells where x + z + y is even, u(x,z,y) = +1, and where it is odd
_EVEN = (0, 3, 5, 6)
_ODD = (1, 2, 4, 7)

#: the two-way fit's Newton iteration stops after a step in log s of at
#: most ``_TOL``, and fails after ``_MAX_ITER`` steps
_TOL = 1e-8
_MAX_ITER = 100


class FitError(RuntimeError):
    """Fitting failure: the MLE does not exist, or the fit did not converge."""


@dataclass(frozen=True)
class ModelSpec:
    """The two-way model ``[XZ][XY][ZY]``, or with ``with_three_way`` the
    saturated model."""

    with_three_way: bool = False

    def __post_init__(self):
        if not isinstance(self.with_three_way, bool):
            raise ValueError("with_three_way must be a bool")

    @property
    def ordered_terms(self) -> tuple:
        """Intercept first, then model terms in canonical order."""
        return TERM_ORDER if self.with_three_way else TERM_ORDER[:-1]


def two_way_spec() -> ModelSpec:
    return ModelSpec()


def saturated_spec() -> ModelSpec:
    return ModelSpec(with_three_way=True)


def _term_on(term: str, cell: tuple) -> bool:
    """Dummy coding: ``term`` is 1 at ``cell`` when its variables all are."""
    return term == "eta" or all(cell[VARIABLES.index(v)] for v in term)


def _inverse_coding(term: str, cell: tuple) -> int:
    """``C[term][cell]`` of the inverse of the saturated dummy coding, so
    that lambda_term = sum over cells of C[term][cell] log m(cell): the
    sign (-1)^(|term| - |cell|) when every variable at level 1 in ``cell``
    is one of ``term``'s, and 0 otherwise."""
    ones = [v for v, level in zip(VARIABLES, cell) if level]
    if not all(v in term for v in ones):
        return 0
    order = 0 if term == "eta" else len(term)
    return (-1) ** (order - len(ones))


#: u(x,z,y) = (-1)^(x+z+y), the one direction the two-way model leaves out
_U = tuple((-1) ** sum(cell) for cell in CELLS)


def _outer_terms(vectors) -> tuple:
    """Entry (i, j) of ``sum_k v_k g_k g_k'`` over ``vectors`` g_k with
    entries 0, 1 and -1, as the indices k where g_ki g_kj is 1 and those
    where it is -1."""
    size = len(vectors[0])
    return tuple(
        tuple(tuple(tuple(k for k, g in enumerate(vectors)
                          if g[i] * g[j] == sign) for sign in (1, -1))
              for j in range(size))
        for i in range(size)
    )


#: the saturated covariance, with weights v_c = 1/m_c and g_c column c of C
_SATURATED_COVARIANCE = _outer_terms(
    [[_inverse_coding(t, cell) for t in TERM_ORDER] for cell in CELLS]
)

#: the cell pairs c < d of the two-way covariance, in the order of its terms
_PAIRS = tuple(itertools.combinations(range(8), 2))

#: the two-way covariance, with weights w_cd and g = p(c) - p(d) over the
#: seven two-way terms, p_t(c) = C[t][c] u(c); p_t(c) is (-1)^|t| or 0, so
#: g is 0, 1 or -1
_TWO_WAY_COVARIANCE = _outer_terms([
    [_inverse_coding(t, CELLS[c]) * _U[c]
     - _inverse_coding(t, CELLS[d]) * _U[d] for t in TERM_ORDER[:-1]]
    for c, d in _PAIRS
])


@dataclass(frozen=True)
class NoCausalParams:
    """Loglinear parameters in multiplicative form (dummy code).

    Every parameter with any index at level 0 is 1 and is not stored;
    ``xzy`` is 1 when the three-way term is absent.  The additive form is
    the componentwise log.
    """

    eta: float
    x: float
    z: float
    y: float
    xz: float
    xy: float
    zy: float
    xzy: float = 1.0

    def __post_init__(self):
        for name in ("eta", "x", "z", "y", "xz", "xy", "zy", "xzy"):
            if not 0.0 < getattr(self, name) < math.inf:  # also rejects nan
                raise ValueError(
                    f"multiplicative parameter {name} must be finite and > 0"
                )

    @property
    def multiplicative(self) -> dict:
        return dict(zip(TERM_ORDER, (self.eta, self.x, self.z, self.y,
                                     self.xz, self.xy, self.zy, self.xzy)))

    @property
    def additive(self) -> dict:
        return {k: math.log(v) for k, v in self.multiplicative.items()}

    @classmethod
    def from_additive(cls, lambdas: dict) -> "NoCausalParams":
        full = {t: float(lambdas.get(t, 0.0)) for t in TERM_ORDER}
        mult = {t: math.exp(v) for t, v in full.items()}
        return cls(mult["eta"], mult["X"], mult["Z"], mult["Y"],
                   mult["XZ"], mult["XY"], mult["ZY"], mult["XZY"])

    def expected_counts(self) -> tuple:
        """Expected cell counts m(x,z,y) in canonical order.

        Each count is the product of its factors' ``frexp`` mantissas scaled
        by the sum of their exponents, so no partial product over- or
        underflows and a count is rounded to its float range once, at the
        end; a count beyond that range is ``inf``.
        """
        parts = {t: math.frexp(v) for t, v in self.multiplicative.items()}
        counts = []
        for cell in CELLS:
            on = [parts[t] for t in TERM_ORDER if _term_on(t, cell)]
            mantissa = math.prod(m for m, _ in on)
            exponent = sum(e for _, e in on)
            try:
                counts.append(math.ldexp(mantissa, exponent))
            except OverflowError:
                counts.append(math.inf)
        return tuple(counts)

    def as_table(self) -> ContingencyTable:
        return ContingencyTable(self.expected_counts())


@dataclass(frozen=True)
class FitResult:
    params: NoCausalParams
    fitted_counts: tuple
    deviance: float
    iterations: int
    converged: bool
    spec: ModelSpec

    @cached_property
    def covariance(self) -> tuple:
        """Inverse Fisher information ``(D' diag(m) D)^-1`` at the fitted counts.

        A tuple of rows over ``spec.ordered_terms``, computed on first use in
        closed form (see the module docstring).  An entry out of the float
        range raises ``FitError``.
        """
        m = self.fitted_counts
        if self.spec.with_three_way:
            weights = [1.0 / c for c in m]
            terms = _SATURATED_COVARIANCE
        else:
            # w_cd = 1 / (m_c m_d sum(1/m)) as (least / lo) / (hi * s), with
            # lo <= hi the pair's counts and s = sum(least / m) in [1, 8]: no
            # factor leaves the float range unless the whole weight does
            least = min(m)
            ratios = [least / c for c in m]
            s = sum(ratios)
            weights = [ratios[c] / (m[d] * s) if m[c] <= m[d]
                       else ratios[d] / (m[c] * s) for c, d in _PAIRS]
            terms = _TWO_WAY_COVARIANCE
        weight = weights.__getitem__
        cov = tuple(
            tuple(sum(map(weight, plus)) - sum(map(weight, minus))
                  for plus, minus in row)
            for row in terms
        )
        if not all(math.isfinite(v) for row in cov for v in row):
            raise FitError("the covariance leaves the float range")
        return cov

    def to_dict(self) -> dict:
        terms = self.spec.ordered_terms
        add = self.params.additive
        mult = self.params.multiplicative
        return {
            "additive": {t: add[t] for t in terms},
            "multiplicative": {t: mult[t] for t in terms},
            "fitted_counts": list(self.fitted_counts),
            "covariance": {
                "terms": list(terms),
                "values": [v for row in self.covariance for v in row],
            },
            "deviance": self.deviance,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def design_matrix(spec: ModelSpec) -> tuple:
    """Dummy-coded design matrix: a tuple of rows over ``CELLS``, columns
    over ``spec.ordered_terms``."""
    terms = spec.ordered_terms
    return tuple(
        tuple(float(_term_on(t, cell)) for t in terms) for cell in CELLS
    )


def fit_poisson(
    table: ContingencyTable, spec: ModelSpec = ModelSpec()
) -> FitResult:
    """Maximum likelihood fit of the two-way (default) or saturated model.

    The two-way fit solves for its one free parameter and raises
    ``FitError`` when its MLE does not exist; the saturated fit is the
    closed form.  The covariance of the additive parameters is the lazy
    ``FitResult.covariance``.
    """
    if not spec.with_three_way:
        return _fit_two_way(table)
    return FitResult(
        params=saturated_closed_form(table),
        fitted_counts=table.counts,
        deviance=0.0,
        iterations=0,
        converged=True,
        spec=spec,
    )


def _cell_ratios(m, y, xy, zy, xzy=1.0) -> NoCausalParams:
    """Loglinear parameters with the Y-block ``y, xy, zy, xzy`` whose
    intercept and X, Z and XZ terms are read off the cells ``m``.

    In dummy code m(0,0,0) is the intercept, m(1,0,0)/m(0,0,0) is mu^X,
    m(0,1,0)/m(0,0,0) is mu^Z, and mu^XZ is the cross ratio of the four
    y = 0 cells, taken as a ratio of ratios so no product of counts over-
    or underflows.  A parameter that does so itself, to 0 or infinity,
    raises ``FitError``: the counts are valid, the fit cannot represent it.
    """
    try:
        return NoCausalParams(
            eta=m[0],
            x=m[4] / m[0],
            z=m[2] / m[0],
            y=y,
            xz=(m[6] / m[4]) * (m[0] / m[2]),
            xy=xy,
            zy=zy,
            xzy=xzy,
        )
    except ValueError as exc:
        raise FitError(str(exc)) from None


def _fit_two_way(table: ContingencyTable) -> FitResult:
    n = table.counts
    # the positive tables n + t*u have t in (-min_even n, min_odd n), which
    # is empty exactly when both parity classes hold a zero count
    zeros = [cell for cell, c in zip(CELLS, n) if c == 0]
    if len({sum(cell) % 2 for cell in zeros}) == 2:
        raise FitError(
            f"the two-way MLE does not exist: the zero counts at cells "
            f"{zeros} make a zero margin n(x,z,+) or separate Y=1 from Y=0"
        )
    k = _scale_exponent(n)
    scaled, iterations = _solve_two_way([math.ldexp(c, k) for c in n])
    y_block = _y_ratios(scaled)
    if not all(0.0 < r < math.inf for r in y_block):
        raise FitError("a loglinear Y-block parameter overflows or underflows")
    m = [math.ldexp(c, -k) for c in scaled]
    if min(m) < sys.float_info.min:
        raise FitError("a fitted count underflows")
    deviance = 2.0 * sum(
        c * _log_ratio(c, f) - (c - f) if c > 0 else f for c, f in zip(n, m)
    )
    return FitResult(
        params=_cell_ratios(m, *y_block),
        fitted_counts=tuple(m),
        deviance=deviance,
        iterations=iterations,
        converged=True,
        spec=ModelSpec(),
    )


def _scale_exponent(n) -> int:
    """The power of two that centres the binary exponents of the positive
    counts on 1, so the logs in the equation stay small.

    It scales up only while every count stays below 2^1020, so no sum of
    two counts overflows, and down only as far as the centre, so no
    positive count becomes 0.
    """
    top = math.frexp(max(n))[1]
    bottom = math.frexp(min(c for c in n if c > 0))[1]
    return min(-((top + bottom) // 2), max(0, 1020 - top))


def _solve_two_way(n) -> tuple:
    """The two-way MLE ``m = n + t*u`` of counts ``n``, and the Newton
    steps it took.

    ``t`` is the root of ``sum_even log(n + t) = sum_odd log(n - t)`` in
    ``(-lo, hi)``, lo and hi the least even and odd counts.  The sign of
    the equation at the midpoint picks the end nearer the root, and ``s``
    is the root's distance from it: each fitted count is then a
    non-negative ``a + s`` or a ``b - s`` with b >= 2s, so none cancels.
    In ``v = log s`` the equation ``g = sum log(a + s) - sum log(b - s)``
    is convex and increasing, with g' >= 1 (one ``a`` is 0) and g'' <= 2g',
    so Newton's method from the midpoint descends to the root
    monotonically, and after a step of at most ``_TOL`` the error in v is
    below round-off.
    """
    lo, hi = min(n[i] for i in _EVEN), min(n[i] for i in _ODD)
    s = (lo + hi) / 2.0
    if not s >= sys.float_info.min:
        raise FitError("a fitted count underflows")
    rising = [n[i] - lo + s for i in _EVEN]
    falling = [n[i] - hi + s for i in _ODD]
    g = sum(map(math.log, rising)) - sum(map(math.log, falling))
    if g >= 0.0:
        rise, fall, end = _EVEN, _ODD, lo
    else:
        rise, fall, end = _ODD, _EVEN, hi
        rising, falling, g = falling, rising, -g
    up, down = [n[i] - end for i in rise], [n[i] + end for i in fall]
    for iterations in range(1, _MAX_ITER + 1):
        dv = g / (s * sum([1.0 / c for c in rising + falling]))
        s *= math.exp(-dv)
        if not s >= sys.float_info.min:
            raise FitError("a fitted count underflows")
        rising, falling = [a + s for a in up], [b - s for b in down]
        if abs(dv) <= _TOL:
            break
        g = sum(map(math.log, rising)) - sum(map(math.log, falling))
    else:
        raise FitError(f"the two-way fit did not converge in {_MAX_ITER} "
                       "steps")
    m = dict(zip(rise + fall, rising + falling))
    return [m[i] for i in range(8)], iterations


def _y_ratios(m) -> tuple:
    """mu^Y, mu^XY and mu^ZY of cells ``m``: the odds of Y at x = z = 0 and
    the odds ratios of Y with X at z = 0 and with Z at x = 0."""
    return (m[1] / m[0], (m[5] / m[4]) * (m[0] / m[1]),
            (m[3] / m[2]) * (m[0] / m[1]))


def _log_ratio(c: float, f: float) -> float:
    """log(c / f) for positive ``c`` and ``f``, also when c / f leaves the
    normal float range."""
    r = c / f
    if sys.float_info.min <= r < math.inf:
        return math.log(r)
    return math.log(c) - math.log(f)


def saturated_closed_form(table: ContingencyTable) -> NoCausalParams:
    """Invert the eight cell formulas of the saturated model directly.

    Each parameter is a ratio of cell ratios, so no product of counts
    over- or underflows.
    """
    n = table.counts
    zero = [cell for cell, c in zip(CELLS, n) if c == 0]
    if zero:
        raise FitError(
            f"zero count at cells {zero}: the saturated MLE does not exist "
            "(its estimate is divergent)"
        )
    return _cell_ratios(
        n,
        *_y_ratios(n),
        xzy=((n[7] / n[6]) * (n[4] / n[5])) * ((n[2] / n[3]) * (n[1] / n[0])),
    )
