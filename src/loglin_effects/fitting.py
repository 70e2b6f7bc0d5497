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
in it, found by Newton's method in the log of the root's distance from the
nearer end.  A step takes one log, of the ratio of the equation's two
products of four fitted counts, so no sum of logs cancels (Higham, 2002,
ch. 3), from the factors' ``frexp`` parts where one of them, and not only
a product, leaves 2^+-200.  Newton starts from an estimate that takes no
log, three Newton steps on the equation's cubic in coefficient form; where
that estimate is unusable or a step leaves the near half of the interval,
the next step of the same loop starts at the midpoint.  The saturated
model reproduces the counts.

``_fit`` is the one fit of both models: it checks that the MLE exists and
returns the fitted counts, the Y-block, read off them with the same ratios
in both models, and the Newton steps; its two-way branch is one straight
line over eight local counts that scales them where one leaves 2^+-200,
solves, reads the Y-block and unscales.  ``fit_poisson`` adds the counts it
solved; its ``FitResult`` computes the deviance each time it is read, and
reads the intercept and the X, Z and XZ terms off the fitted counts
(``_cell_ratios``) each time ``params`` is read, so only a reader of
``params`` sees one of them leave the float range; ``causal.fit_causal``
needs only the Y-block.

``_fit`` keeps one entry: the counts tuple of its last successful two-way
solve, and that solve's result.  A two-way call on that very tuple, by
identity and not by equal counts, returns the stored result without
solving, so ``fit_poisson(t)`` then ``causal.fit_causal(t)`` solves once;
a table rebuilt from the same counts has a new tuple and solves again.  The
entry holds its tuple, so no other object can take that tuple's id.  A
failed solve and the saturated closed form are not stored.

The covariance of the additive parameters, ``(D' diag(m) D)^-1`` over the
dummy-coded design matrix ``D``, is computed each time it is read, in
closed form, by one straight-line function per model,
``_covariance_kernel``, compiled from the model's index tables on the
first such read; a record built by hand with a fitted count that is not
finite and > 0 raises ``FitError`` before it.  A cell's index
4x + 2z + y is the bit mask of its variables at level 1, and a
term is the mask of its variables (``_MASKS``): term t is 1 at cell c when
``t & c == t``, and c lies under t when ``c | t == t``.  The inverse coding
C[t][c], (-1)^(|t| - |c|) for c under t and 0 otherwise, maps the log counts
to the parameters.  The saturated log counts have the covariance
``diag(1/m)``, and the two-way ones ``diag(1/m) - (u/m)(u/m)' / sum(1/m)``,
u_c = (-1)^|c|: the sum over the cell pairs c < d of ``w_cd g g'``, with
``w_cd = 1 / (m_c m_d sum(1/m))`` and ``g = e_c - u_c u_d e_d``.  So each
entry adds and subtracts the weights of the cells or pairs that
``_covariance_terms`` lists for it, and each variance is a sum of
non-negative terms: no entry loses digits to cancellation, as an inverse of
the information in floats does when the fitted counts span more than ~1e16.
The kernel writes each list's sum as a left-to-right chain of ``+`` from
0.0, so the entries are the same bits on every supported Python version.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys

from .tables import CELLS, ContingencyTable, _Record

#: term order shared by design matrices, parameter vectors, and covariances;
#: each term but the intercept is named by its variables
TERM_ORDER = ("eta", "X", "Z", "Y", "XZ", "XY", "ZY", "XZY")

#: the mask of each term's variables over the cell index, in ``TERM_ORDER``
_MASKS = (0, 4, 2, 1, 6, 5, 3, 7)

#: the two-way fit's Newton iteration stops after a step in log s of at
#: most ``_TOL``, and fails after ``_MAX_ITER`` steps
_TOL = 1e-8
_MAX_ITER = 100

#: the least and the greatest positive normal float
_TINY, _HUGE = sys.float_info.min, sys.float_info.max
#: the two-way fit scales counts outside [_LOW, _HIGH], and takes g from
#: ``frexp`` parts where a Newton factor lies outside
_LOW, _HIGH = 2.0 ** -200, 2.0 ** 200

#: the last successful two-way solve, ``(counts, result of _fit)``
_last_two_way = (None, None)

#: the multiplicative parameters, in the order of ``NoCausalParams``' fields
_FIELDS = ("eta", "x", "z", "y", "xz", "xy", "zy", "xzy")


class FitError(RuntimeError):
    """Fitting failure: the MLE does not exist, or the fit did not converge."""


class ModelSpec(_Record):
    """The two-way model ``[XZ][XY][ZY]``, or with ``with_three_way`` the
    saturated model."""

    __slots__ = ()
    _fields = ("with_three_way",)

    def __new__(cls, with_three_way: bool = False):
        if not isinstance(with_three_way, bool):
            raise ValueError("with_three_way must be a bool")
        return tuple.__new__(cls, (with_three_way,))

    @property
    def ordered_terms(self) -> tuple:
        """Intercept first, then model terms in canonical order."""
        return TERM_ORDER if self.with_three_way else TERM_ORDER[:-1]


#: the two models; a ``ModelSpec`` is immutable, so one serves every fit
_TWO_WAY = ModelSpec()
_SATURATED = ModelSpec(True)


def two_way_spec() -> ModelSpec:
    return _TWO_WAY


def saturated_spec() -> ModelSpec:
    return _SATURATED


#: the cell pairs c < d of the two-way covariance, in the order of its terms
_PAIRS = tuple(itertools.combinations(range(8), 2))


@functools.cache
def _covariance_terms(with_three_way: bool) -> tuple:
    """Entry (s, t) of a model's covariance, over its terms' masks, as the
    indices of the weights it adds and of those it subtracts; built on
    first use, in one pass over the weights.

    The saturated covariance adds the weights 1/m_c of the cells c under
    both terms.  The two-way covariance adds the weights w_cd of the pairs
    with one cell under both terms and one under neither, and subtracts
    those with one cell under s only and one under t only.  Either way the
    entry has the sign (-1)^popcount(s ^ t), which swaps the two lists.
    """
    masks = _MASKS if with_three_way else _MASKS[:-1]
    if with_three_way:
        # cell c: 1 at the terms it lies under
        vectors = [[c | t == t for t in masks] for c in range(8)]
    else:
        # pair (c, d): 1 at the terms over c only, -1 at those over d only
        vectors = [[(c | t == t) - (d | t == t) for t in masks]
                   for c, d in _PAIRS]
    # (-1)^popcount(s ^ t) is (-1)^|s| (-1)^|t|: one sign per term
    signs = [-1 if t.bit_count() % 2 else 1 for t in masks]
    entries = [[([], []) for _ in masks] for _ in masks]
    for k, g in enumerate(vectors):
        nonzero = [(i, a * sign) for i, (a, sign) in enumerate(zip(g, signs))
                   if a]
        for i, a in nonzero:
            row = entries[i]
            for j, b in nonzero:
                row[j][a * b < 0].append(k)
    return tuple(tuple((tuple(plus), tuple(minus)) for plus, minus in row)
                 for row in entries)


@functools.cache
def _covariance_kernel(with_three_way: bool):
    """A model's covariance as one straight-line function of the fitted
    counts, which returns the entries of the upper triangle row by row as a
    flat tuple, and the getter that lays such a tuple out as the whole
    matrix, row by row; compiled from ``_covariance_terms`` on first use.

    The function unpacks the counts into ``m0..m7`` and forms the weights
    ``w0..``, the saturated 1/m_c or the two-way w_cd, as
    ``(least / lo) / (hi * s)`` with lo <= hi the pair's counts and
    s = sum(least / m) in [1, 8], a left-to-right chain: no factor leaves
    the float range unless the whole weight does.  Each entry of the upper
    triangle is ``(0.0 + w_i + ...) - (0.0 + w_j + ...)`` over its lists in
    their order, so it rounds as a left-to-right sum of each list would;
    entry (j, i) lists the same terms in the same order as (i, j), so the
    getter fills the lower triangle with the upper one's entries.
    """
    terms = _covariance_terms(with_three_way)
    size = len(terms)
    lines = ["def kernel(m):", "    m0, m1, m2, m3, m4, m5, m6, m7 = m"]
    if with_three_way:
        lines += [f"    w{c} = 1.0 / m{c}" for c in range(8)]
    else:
        lines.append("    least = min(m)")
        lines += [f"    r{c} = least / m{c}" for c in range(8)]
        lines.append("    s = 0.0" + "".join(f" + r{c}" for c in range(8)))
        lines += [f"    w{k} = r{c} / (m{d} * s) if m{c} <= m{d} "
                  f"else r{d} / (m{c} * s)" for k, (c, d) in enumerate(_PAIRS)]
    upper = [(i, j) for i in range(size) for j in range(i, size)]
    entries = []
    for i, j in upper:
        plus, minus = (
            "(0.0" + "".join(f" + w{k}" for k in ks) + ")" for ks in terms[i][j])
        entries.append(f"{plus} - {minus}")
    lines.append(f"    return ({', '.join(entries)})")
    name = "saturated" if with_three_way else "two-way"
    namespace = {}
    exec(compile("\n".join(lines), f"<{name} covariance kernel>", "exec"),
         namespace)
    position = {entry: k for k, entry in enumerate(upper)}
    return namespace["kernel"], operator.itemgetter(*(
        position[min(i, j), max(i, j)] for i in range(size) for j in range(size)))


def _check_positive(params, error=ValueError, names=_FIELDS,
                    what="multiplicative parameter") -> None:
    """Raise ``error`` naming the first of ``params``, in the order of
    ``names``, that ``float`` refuses, or that is not finite and > 0."""
    for name, value in zip(names, params):
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{what} {name} must be a number: {exc}") from None
        if not 0.0 < value < math.inf:  # also rejects nan
            raise error(f"{what} {name} must be finite and > 0")


class NoCausalParams(_Record):
    """Loglinear parameters in multiplicative form (dummy code).

    Every parameter with any index at level 0 is 1 and is not stored;
    ``xzy`` is 1 when the three-way term is absent.  The additive form is
    the componentwise log.
    """

    __slots__ = ()
    _fields = _FIELDS

    def __new__(cls, eta: float, x: float, z: float, y: float, xz: float,
                xy: float, zy: float, xzy: float = 1.0):
        try:
            eta, x, z, y, xz, xy, zy, xzy = map(
                float, (eta, x, z, y, xz, xy, zy, xzy))
        except (TypeError, ValueError, OverflowError):
            _check_positive((eta, x, z, y, xz, xy, zy, xzy))
        return _nocausal(eta, x, z, y, xz, xy, zy, xzy)

    @property
    def multiplicative(self) -> dict:
        return dict(zip(TERM_ORDER, self))

    @property
    def additive(self) -> dict:
        return dict(zip(TERM_ORDER, map(math.log, self)))

    def expected_counts(self) -> tuple:
        """Expected cell counts m(x,z,y) in canonical order.

        Each count is the product of its factors' ``frexp`` mantissas scaled
        by the sum of their exponents, so no partial product over- or
        underflows and a count is rounded to its float range once, at the
        end; a count beyond that range is ``inf``.
        """
        parts = [(t, *math.frexp(v)) for t, v in zip(_MASKS, self)]
        counts = []
        for c in range(8):
            mantissa, exponent = 1.0, 0
            for t, m, e in parts:
                if t & c == t:
                    mantissa *= m
                    exponent += e
            try:
                counts.append(math.ldexp(mantissa, exponent))
            except OverflowError:
                counts.append(math.inf)
        return tuple(counts)

    def as_table(self) -> ContingencyTable:
        return ContingencyTable(self.expected_counts())


def _nocausal(eta, x, z, y, xz, xy, zy, xzy) -> NoCausalParams:
    """The parameters of eight floats, by one chained test that all are
    finite and > 0 (nan fails it too); only a failing set is searched."""
    inf = math.inf
    if not (0.0 < eta < inf and 0.0 < x < inf and 0.0 < z < inf
            and 0.0 < y < inf and 0.0 < xz < inf and 0.0 < xy < inf
            and 0.0 < zy < inf and 0.0 < xzy < inf):
        _check_positive((eta, x, z, y, xz, xy, zy, xzy))
    return tuple.__new__(NoCausalParams, (eta, x, z, y, xz, xy, zy, xzy))


class FitResult(_Record):
    """A maximum likelihood fit under ``spec``: the record of ``_fit``, its
    fitted counts, Y-block ``(mu^Y, mu^XY, mu^ZY, mu^XZY)`` and Newton
    steps, with the observed ``counts`` it solved; ``deviance``, ``params``
    and ``covariance`` are computed on each read.
    ``iterations`` counts the two-way solve's Newton steps in the log of
    ``t``'s distance from an end of its interval (about one on typical
    tables), a step that left the near half included, but not the log-free
    steps that estimate where they start; the saturated closed form takes
    0."""

    __slots__ = ()
    _fields = ("fitted_counts", "y_block", "counts", "iterations", "spec")

    def __new__(cls, fitted_counts: tuple, y_block: tuple, counts: tuple,
                iterations: int, spec: ModelSpec):
        return tuple.__new__(
            cls, (fitted_counts, y_block, counts, iterations, spec))

    @property
    def deviance(self) -> float:
        """``2 sum c log(c / f) - (c - f)`` over the counts c and fitted
        counts f, log(c / f) taken as log c - log f where c / f is not
        normal; a zero count adds f, and the saturated fit's terms are 0.0."""
        log, tiny, inf = math.log, _TINY, math.inf
        total = 0.0
        for c, f in zip(self.counts, self.fitted_counts):
            if c > 0:
                r = c / f
                total += c * (log(r) if tiny <= r < inf
                              else log(c) - log(f)) - (c - f)
            else:
                total += f
        return 2.0 * total

    @property
    def params(self) -> NoCausalParams:
        """The multiplicative parameters: the Y-block, and the intercept and
        the X, Z and XZ terms read off the fitted counts.  One out of the
        float range raises ``FitError``."""
        return _cell_ratios(self.fitted_counts, *self.y_block)

    @property
    def covariance(self) -> tuple:
        """Inverse Fisher information ``(D' diag(m) D)^-1`` at the fitted counts.

        A tuple of rows over ``spec.ordered_terms``, in closed form (see the
        module docstring), cut from the upper triangle of the model's
        ``_covariance_kernel`` laid out as the flat matrix.  A fitted count
        that is not finite and > 0, which only a record built by hand holds,
        or an entry out of the float range raises ``FitError``.
        """
        size = len(self.spec.ordered_terms)
        upper, layout = self._covariance_triangle()
        flat = layout(upper)
        return tuple([flat[i:i + size] for i in range(0, size * size, size)])

    def _covariance_triangle(self) -> tuple:
        """The covariance's upper triangle, row by row, and the getter that
        lays it out as the flat matrix, after the checks ``covariance``
        states."""
        m = self.fitted_counts
        m0, m1, m2, m3, m4, m5, m6, m7 = m
        inf = math.inf
        # one chain, which nan fails too
        if not (0.0 < m0 < inf > m1 > 0.0 < m2 < inf > m3 > 0.0 < m4 < inf
                > m5 > 0.0 < m6 < inf > m7 > 0.0):
            raise FitError("a fitted count is not finite and > 0")
        kernel, layout = _covariance_kernel(self.spec.with_three_way)
        upper = kernel(m)
        if not all(map(math.isfinite, upper)):
            raise FitError("the covariance leaves the float range")
        return upper, layout

    def _deviance(self) -> float:
        """The deviance, for a report that prints it, read once: ``FitError``
        where it leaves the float range, which only such a report sees."""
        deviance = self.deviance
        if not math.isfinite(deviance):
            raise FitError("the deviance leaves the float range")
        return deviance

    def to_dict(self) -> dict:
        terms = self.spec.ordered_terms
        params = self.params
        upper, layout = self._covariance_triangle()
        return {
            "additive": dict(zip(terms, map(math.log, params))),
            "multiplicative": dict(zip(terms, params)),
            "fitted_counts": list(self.fitted_counts),
            "covariance": {
                "terms": list(terms),
                "values": list(layout(upper)),
            },
            "deviance": self._deviance(),
            "iterations": self.iterations,
            # every fit that returns has converged; a failed one raises
            "converged": True,
        }

    def _json(self) -> str:
        """``to_dict()`` as ``cli._JSON`` writes it, in one pass: the
        ``_json_template`` of the model, filled in sorted key order.

        The checks run in ``to_dict``'s order, with its messages: ``params``,
        then the fitted counts and the covariance, then the deviance.  After
        them every float in the document is finite: the parameters are
        finite and > 0 (``_nocausal``), so are their logs, the fitted counts
        and the covariance entries are checked finite, and so is the
        deviance.  ``json`` writes a finite float as ``float.__repr__``
        does, so ``%r`` and ``repr`` print its bytes; each distinct
        covariance entry goes through ``repr`` once, and the layout getter
        repeats the upper triangle's text in the lower one.
        """
        eta, x, z, y, xz, xy, zy, xzy = self.params
        upper, layout = self._covariance_triangle()
        deviance = self._deviance()
        with_three_way = self.spec.with_three_way
        # the parameters in sorted term order: X, XY, XZ, (XZY,) Y, Z, ZY, eta
        if with_three_way:
            params = x, xy, xz, xzy, y, z, zy, eta
        else:
            params = x, xy, xz, y, z, zy, eta
        return _json_template(with_three_way) % (
            *map(math.log, params), *layout(tuple(map(repr, upper))),
            deviance, *self.fitted_counts, self.iterations, *params)


@functools.cache
def _json_template(with_three_way: bool) -> str:
    """The ``%``-template of ``FitResult._json`` under a model, built on
    first use: the keys of ``to_dict()`` in sorted order, with the compact
    separators of ``cli._JSON``; ``%r`` for each float and the iterations,
    ``%s`` for each covariance entry's ``repr``."""
    terms = TERM_ORDER if with_three_way else TERM_ORDER[:-1]
    params = "{" + ",".join(f'"{t}":%r' for t in sorted(terms)) + "}"
    return ('{"additive":' + params + ',"converged":true,"covariance":'
            '{"terms":[' + ",".join(f'"{t}"' for t in terms) + '],"values":['
            + ",".join(["%s"] * len(terms) ** 2) + ']},"deviance":%r,'
            '"fitted_counts":[' + ",".join(["%r"] * 8) + '],"iterations":%r,'
            '"multiplicative":' + params + "}")


def design_matrix(spec: ModelSpec) -> tuple:
    """Dummy-coded design matrix: a tuple of rows over ``CELLS``, columns
    over ``spec.ordered_terms``."""
    masks = _MASKS[:len(spec.ordered_terms)]
    return tuple(tuple(float(t & c == t) for t in masks) for c in range(8))


def fit_poisson(
    table: ContingencyTable, spec: ModelSpec = _TWO_WAY
) -> FitResult:
    """Maximum likelihood fit of the two-way (default) or saturated model.

    Raises ``FitError`` as ``_fit`` does; a parameter out of the float
    range raises only where ``FitResult.params`` is read, and a deviance
    only in ``FitResult._deviance``.  The covariance of the additive
    parameters is ``FitResult.covariance``.  The counts are a checked
    table's and the record checks nothing, so it is built directly.
    """
    n = table.counts
    m, y_block, iterations = _fit(n, spec.with_three_way)
    return tuple.__new__(FitResult, (m, y_block, n, iterations, spec))


def _exact_ratio(num, den) -> float:
    """The product of the floats ``num`` over the product of the floats
    ``den``, computed exactly and rounded once: inf where it overflows."""
    p = q = 1
    for v in num:
        a, b = v.as_integer_ratio()
        p, q = p * a, q * b
    for v in den:
        a, b = v.as_integer_ratio()
        p, q = p * b, q * a
    try:
        return p / q
    except OverflowError:
        return math.inf


def _cell_ratios(m, y, xy, zy, xzy=1.0) -> NoCausalParams:
    """The multiplicative parameters, built by ``_nocausal``, with the
    Y-block ``y, xy, zy, xzy`` and the other four read off the cells ``m``.

    In dummy code m(0,0,0) is the intercept, m(1,0,0)/m(0,0,0) is mu^X,
    m(0,1,0)/m(0,0,0) is mu^Z, and mu^XZ is the cross ratio of the four
    y = 0 cells, taken as a ratio of ratios so no product of counts over-
    or underflows.  A parameter that does so itself, to 0 or infinity,
    raises ``FitError``: the counts are valid, the fit cannot represent it.
    """
    try:
        return _nocausal(m[0], m[4] / m[0], m[2] / m[0], y,
                         (m[6] / m[4]) * (m[0] / m[2]), xy, zy, xzy)
    except ValueError as exc:
        raise FitError(str(exc)) from None


def _fit(n, with_three_way: bool) -> tuple:
    """The MLE of counts ``n`` under the two-way or, ``with_three_way``, the
    saturated model: its fitted counts, its Y-block ``(mu^Y, mu^XY, mu^ZY,
    mu^XZY)`` and the Newton steps it took.

    The Y-block is the odds of Y at x = z = 0, the odds ratios of Y with X
    at z = 0 and with Z at x = 0, and the ratio of the XY odds ratios at
    z = 1 and 0, each a ratio of ratios of the fitted counts.  The saturated
    fit is ``n`` itself, with no step, and its Y-block is not checked; its
    mu^XZY is the exact ratio, rounded once, where the partial product
    mu^ZY mu^XZY alone leaves the normal range.
    Raises ``FitError`` when the MLE does not exist, or when a two-way
    fitted count or Y-block parameter leaves the float range.

    The two-way kernel scales counts not all in [2^-200, 2^200], which no
    ratio it reads feels, by the ``2^k`` that centres the binary exponents
    of the greatest and the least positive count on 1: up only while every
    count stays below 2^1020, and down only as far as the centre.

    ``t`` is the root of ``sum_even log(n + t) = sum_odd log(n - t)`` in
    ``(-lo, hi)``, lo and hi the least even and odd counts, and ``s`` is
    its distance from one end: each fitted count is then a non-negative
    ``a + s`` or a ``b - s``, every ``b >= lo + hi = 2 mid``, so none
    cancels while ``s <= mid``.  In v = log s, ``g = log(prod (a + s) /
    prod (b - s))`` is convex and increasing, since its terms' slopes
    ``s / (a + s)`` and ``s / (b - s)`` rise with s; one a is 0, so
    g' >= 1, and on ``(0, mid]`` each term's curvature is at most twice its
    slope, so g'' <= 2g'.  So a step from left of the root lands right of
    it, the steps from there descend, and after a step dv (``|dv| <= 1/4``)
    the error in v is at most ``2 dv^2``, below round-off once
    ``|dv| <= _TOL``.

    Each step takes g as one log of the ratio of the products.  Every factor
    is in ``[s, 2 max n]``: where ``s >= 2^-200`` and no count exceeds
    2^200, no partial product leaves the normal range (on the two products
    alone, a subnormal partial one could make g stop depending on s);
    elsewhere, or where the ratio does, g comes from the same roundings on
    their ``frexp`` mantissas, which give the same bits where both apply.

    Newton starts at an estimate, three log-free Newton steps from ``t = 0``
    on the cubic ``prod_even (n + t) - prod_odd (n - t)`` in Horner form,
    its coefficients ``E4 - O4, E3 + O3, E2 - O2, E1 + O1`` from each
    parity's elementary symmetric sums; the even cells rise when ``t + lo <=
    mid``.  A step whose ``s`` is outside ``[_TINY, mid]`` (an unusable
    estimate, or a last step that left the near half or overflowed ``exp``)
    starts at the midpoint instead, from the end where it is right of the
    root (the odd end where g >= 0 with the odd cells rising), so the steps
    descend and the loop restarts at most once.  A converged step ends the
    loop before the range is checked: it passes mid only by round-off, at a
    root at the midpoint, where ``b >= 2 mid`` keeps every ``b - s``
    positive.  All steps share ``_MAX_ITER``.  u = +1 at cells 0, 3, 5 and
    6; ``r0..r3`` rise and ``f0..f3`` fall, in cell order.

    A two-way call whose ``n`` is the tuple of the last successful two-way
    solve, the same object and not merely equal counts, returns that
    solve's result: the same tuples, so the same bits.  The entry is one
    tuple, read and replaced whole, so a thread never reads another
    table's fit; only a solve that returns replaces it.
    """
    global _last_two_way
    if not with_three_way:
        last = _last_two_way
        if last[0] is n:
            return last[1]
    # the saturated MLE needs every count positive; the positive two-way
    # tables n + t*u have t in (-min_even n, min_odd n), which is empty
    # exactly when both parity classes hold a zero count
    if 0.0 in n:
        zeros = [cell for cell, c in zip(CELLS, n) if c == 0]
        if with_three_way:
            raise FitError(
                f"zero count at cells {zeros}: the saturated MLE does not "
                "exist (its estimate is divergent)"
            )
        if len({sum(cell) % 2 for cell in zeros}) == 2:
            raise FitError(
                f"the two-way MLE does not exist: the zero counts at cells "
                f"{zeros} make a zero margin n(x,z,+) or separate Y=1 from "
                "Y=0"
            )
    n0, n1, n2, n3, n4, n5, n6, n7 = n
    if with_three_way:
        y, r = n1 / n0, n0 / n1
        r76, r45, r23 = n7 / n6, n4 / n5, n2 / n3
        p, q = r76 * r45, r23 * y
        # p = mu^ZY mu^XZY is the one value on the way that the effects do
        # not read: the four ratios are the outcome odds or their
        # reciprocals, and q is 1 / mu^ZY.  Where p alone leaves the normal
        # range, it loses digits silently, and mu^XZY is the exact ratio
        if _TINY <= p <= _HUGE or not (
                _TINY <= r76 <= _HUGE >= r45 >= _TINY <= r23 <= _HUGE >= y
                >= _TINY <= q <= _HUGE):
            xzy = p * q
        else:
            xzy = _exact_ratio((n7, n4, n2, n1), (n6, n5, n3, n0))
        return n, (y, (n5 / n4) * r, (n3 / n2) * r, xzy), 0
    ldexp, log, exp, tiny, inf = math.ldexp, math.log, math.exp, _TINY, math.inf
    top = max(n)
    # the least count, or when it is 0 the least positive one
    bottom = min(n) or min(c for c in n if c > 0)
    k, low = 0, _LOW
    if bottom < _LOW or top > _HIGH:
        top, bottom = math.frexp(top)[1], math.frexp(bottom)[1]
        k = min(-((top + bottom) // 2), max(0, 1020 - top))
        low = _LOW if top + k <= 200 else inf  # inf: always frexp
        n0, n1, n2, n3, n4, n5, n6, n7 = [ldexp(c, k) for c in n]
    lo, hi = min(n0, n3, n5, n6), min(n1, n2, n4, n7)
    mid = (lo + hi) / 2.0
    if not mid >= tiny:
        raise FitError("a fitted count underflows")
    x0, x1, x2, x3 = n0 * n3, n5 * n6, n1 * n2, n4 * n7
    w0, w1, w2, w3 = n0 + n3, n5 + n6, n1 + n2, n4 + n7
    c0, c1 = x0 * x1 - x2 * x3, (x0 * w1 + x1 * w0) + (x2 * w3 + x3 * w2)
    c2, c3 = (x0 + x1 + w0 * w1) - (x2 + x3 + w2 * w3), (w0 + w1) + (w2 + w3)
    t = 0.0
    try:
        for _ in range(3):
            t -= ((((c3 * t + c2) * t + c1) * t + c0)
                  / ((3.0 * c3 * t + 2.0 * c2) * t + c1))
    except ZeroDivisionError:
        t = math.nan
    even_rises = t + lo <= mid
    s = t + lo if even_rises else hi - t
    iterations = 0
    while iterations < _MAX_ITER:
        if not tiny <= s <= mid:  # nan fails it too
            s, even_rises = mid, None
        if even_rises:  # t = s - lo: even (n - lo) + s, odd (n + lo) - s
            a0, a1, a2, a3 = n0 - lo, n3 - lo, n5 - lo, n6 - lo
            b0, b1, b2, b3 = n1 + lo, n2 + lo, n4 + lo, n7 + lo
        else:  # or None; t = hi - s: odd (n - hi) + s, even (n + hi) - s
            a0, a1, a2, a3 = n1 - hi, n2 - hi, n4 - hi, n7 - hi
            b0, b1, b2, b3 = n0 + hi, n3 + hi, n5 + hi, n6 + hi
        r0, r1, r2, r3 = a0 + s, a1 + s, a2 + s, a3 + s
        f0, f1, f2, f3 = b0 - s, b1 - s, b2 - s, b3 - s
        q = (r0 * r1 * r2 * r3) / (f0 * f1 * f2 * f3) if s >= low else 0.0
        if tiny <= q <= _HUGE:
            g = log(q)
        else:  # the same roundings on the factors' frexp parts: q = p 2^e
            fr, ex = zip(*map(math.frexp, (r0, r1, r2, r3, f0, f1, f2, f3)))
            p = math.prod(fr[:4]) / math.prod(fr[4:])
            e = ex[0] + ex[1] + ex[2] + ex[3] - ex[4] - ex[5] - ex[6] - ex[7]
            g = log(ldexp(p, e)) if -1000 < e < 1000 else log(p) + e * log(2)
        if even_rises is None:  # at the midpoint: g < 0 picks the even end
            even_rises = g < 0.0
            if even_rises:
                continue
        iterations += 1
        dv = g / (s * (1.0 / r0 + 1.0 / r1 + 1.0 / r2 + 1.0 / r3
                       + 1.0 / f0 + 1.0 / f1 + 1.0 / f2 + 1.0 / f3))
        try:
            s *= exp(-dv)
        except OverflowError:  # s leaves the float range: restart
            s = inf
        if not s >= tiny:
            raise FitError("a fitted count underflows")
        if abs(dv) <= _TOL:
            break
    else:
        raise FitError(f"the two-way fit did not converge in {_MAX_ITER} steps")
    # the scaled fitted counts, in cell order
    if even_rises:
        m0, m1, m2, m3 = a0 + s, b0 - s, b1 - s, a1 + s
        m4, m5, m6, m7 = b2 - s, a2 + s, a3 + s, b3 - s
    else:
        m0, m1, m2, m3 = b0 - s, a0 + s, a1 + s, b1 - s
        m4, m5, m6, m7 = a2 + s, b2 - s, b3 - s, a3 + s
    r = m0 / m1
    y, xy, zy = m1 / m0, (m5 / m4) * r, (m3 / m2) * r
    if not (0.0 < y < inf and 0.0 < xy < inf and 0.0 < zy < inf):
        raise FitError("a loglinear Y-block parameter overflows or underflows")
    m = m0, m1, m2, m3, m4, m5, m6, m7
    if k:
        m = tuple([ldexp(c, -k) for c in m])
        if min(m) < tiny:
            raise FitError("a fitted count underflows")
    result = m, (y, xy, zy, 1.0), iterations
    _last_two_way = n, result
    return result


def saturated_closed_form(table: ContingencyTable) -> NoCausalParams:
    """The saturated model's parameters: the cell formulas inverted, each a
    ratio of cell ratios, so no product of counts over- or underflows."""
    m, y_block, _ = _fit(table.counts, True)
    return _cell_ratios(m, *y_block)
