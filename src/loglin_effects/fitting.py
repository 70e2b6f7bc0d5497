"""Maximum likelihood fits of the paper's two loglinear models of 2x2x2 tables.

The two models are the two-way model ``[XZ][XY][ZY]`` (no multiplicative
interaction) and the saturated model; ``ModelSpec`` is one bool that picks
between them.  Both are dummy coded: a term is 1 at a cell exactly when all
its variables are at level 1 there.

The two-way model fits the XZ margin exactly, so its fitted counts are
``n(x,z,+) * p(y|x,z)``, where ``p`` is the logistic regression of Y on X and
Z over the four binomial cells (x, z).  Its three parameters are the Y-block
of the loglinear model (lambda^Y, lambda^XY, lambda^ZY); they are fitted by
Newton's method after an exact check that the MLE exists.  The saturated
model reproduces the counts and is solved in closed form.  Both read the
intercept and the X, Z and XZ terms off the cells with ``_cell_ratios``.

The covariance of the additive parameters, ``(D' diag(m) D)^-1`` over the
dummy-coded design matrix ``D``, is computed on first use; it and
``design_matrix`` are the only parts of the package that import numpy.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .tables import CELLS, VARIABLES, ContingencyTable

#: term order shared by design matrices, parameter vectors, and covariances;
#: each term but the intercept is named by its variables
TERM_ORDER = ("eta", "X", "Z", "Y", "XZ", "XY", "ZY", "XZY")

#: the two-way fit's Newton iteration stops when neither a step nor the
#: score (of the counts divided by their total) exceeds ``_TOL`` times one
#: plus the largest parameter magnitude, and fails after ``_MAX_ITER`` steps
_TOL = 1e-10
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
        """Expected cell counts m(x,z,y) in canonical order."""
        m = self.multiplicative
        return tuple(
            math.prod(m[t] for t in TERM_ORDER if _term_on(t, cell))
            for cell in CELLS
        )

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
    def covariance(self):
        """Inverse Fisher information ``(D' diag(m) D)^-1`` at the fitted counts.

        A numpy array over ``spec.ordered_terms``, computed on first use.
        """
        import numpy as np

        D = design_matrix(self.spec)
        m = np.asarray(self.fitted_counts)
        try:
            cov = np.linalg.inv(D.T @ (m[:, None] * D))
        except np.linalg.LinAlgError:
            raise FitError("singular information matrix") from None
        return (cov + cov.T) / 2.0

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
                "values": self.covariance.ravel().tolist(),
            },
            "deviance": self.deviance,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def design_matrix(spec: ModelSpec):
    """Dummy-coded design matrix: rows over ``CELLS``, columns over
    ``spec.ordered_terms``."""
    import numpy as np

    terms = spec.ordered_terms
    return np.array(
        [[float(_term_on(t, cell)) for t in terms] for cell in CELLS]
    )


#: the four binomial cells (x, z) of the Y-block, in canonical order; cell
#: (x, z, y) of a table sits at index 2k + y for the k-th of them
_XZ = ((0, 0), (0, 1), (1, 0), (1, 1))


def fit_poisson(
    table: ContingencyTable, spec: ModelSpec = ModelSpec()
) -> FitResult:
    """Maximum likelihood fit of the two-way (default) or saturated model.

    The two-way fit runs Newton's method on the logistic Y-block and raises
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
    _check_mle_exists(n)
    beta, iterations = _fit_y_block(n)
    m = []
    for k, (x, z) in enumerate(_XZ):
        size = n[2 * k] + n[2 * k + 1]
        p0, p1, _, _ = _logistic(beta[0] + beta[1] * x + beta[2] * z)
        m += (size * p0, size * p1)
    if min(m) <= 0.0:
        raise FitError("a fitted count underflows to 0")
    deviance = 2.0 * sum(
        c * _log_ratio(c, f) - (c - f) if c > 0 else f for c, f in zip(n, m)
    )
    try:
        y_block = [math.exp(b) for b in beta]
    except OverflowError:
        raise FitError("a loglinear Y-block parameter overflows") from None
    return FitResult(
        params=_cell_ratios(m, *y_block),
        fitted_counts=tuple(m),
        deviance=deviance,
        iterations=iterations,
        converged=True,
        spec=ModelSpec(),
    )


def _log_ratio(c: float, f: float) -> float:
    """log(c / f) for positive ``c`` and ``f``, also when c / f leaves the
    normal float range."""
    r = c / f
    if sys.float_info.min <= r < math.inf:
        return math.log(r)
    return math.log(c) - math.log(f)


def _check_mle_exists(n) -> None:
    """Raise ``FitError`` unless the two-way MLE exists for counts ``n``.

    The MLE of a Poisson loglinear model exists exactly when some table
    with every cell positive has the observed sufficient statistics, here
    the three two-way margins (Haberman, 1974).  The tables with those
    margins are ``n + t*u`` with u(x,z,y) = (-1)^(x+z+y), so one exists
    unless both parity classes of cells hold a zero count.  This covers a
    zero margin n(x,z,+) and every complete or quasi-complete separation
    of Y=1 from Y=0 by an affine a + b*x + c*z.
    """
    if all(n):
        return
    zeros = [cell for cell, c in zip(CELLS, n) if c == 0]
    if len({sum(cell) % 2 for cell in zeros}) == 2:
        raise FitError(
            f"the two-way MLE does not exist: the zero counts at cells "
            f"{zeros} make a zero margin n(x,z,+) or separate Y=1 from Y=0"
        )


def _logistic(eta: float) -> tuple:
    """``P(Y=0)``, ``P(Y=1)`` and their logs at logit ``eta``.

    One ``exp`` of ``-|eta|`` gives all four without cancellation, and
    without overflow at any finite ``eta``.
    """
    e = math.exp(-abs(eta))
    big, small = 1.0 / (1.0 + e), e / (1.0 + e)
    log_big = -math.log1p(e)
    log_small = log_big - abs(eta)
    if eta >= 0:
        return small, big, log_small, log_big
    return big, small, log_big, log_small


#: relative round-off allowed when a Newton step is tested for ascent: the
#: log-likelihood sums eight terms of one sign, each good to a few ulps
_LL_ROUNDOFF = 1e-13


def _fit_y_block(n) -> tuple:
    """Damped Newton's method for the logistic MLE (lambda^Y, lambda^XY, lambda^ZY).

    Counts enter divided by the table total, so the iteration is the same
    at every scale of the table.  It starts from ``_y_start`` and halves a
    step until the log-likelihood does not fall; the log-likelihood is
    concave and its maximum exists (``_check_mle_exists``), so the
    iteration converges from any start.  It stops when the step and the
    score are both within the tolerance; a step that vanishes while the
    score does not has been lost to round-off in the solve, and raises
    ``FitError``.  Returns the parameters and the number of Newton steps.
    """
    total = sum(n)
    cells = [(x, z, n[2 * k] / total, n[2 * k + 1] / total)
             for k, (x, z) in enumerate(_XZ)]
    beta = _y_start(cells)
    w, score, ll = _y_terms(cells, beta)
    for iterations in range(1, _MAX_ITER + 1):
        step = _solve_y_information(w, score)
        size = max(map(abs, step))
        tol = _TOL * (1.0 + max(map(abs, beta)))
        if size <= tol:
            if max(map(abs, score)) > tol:
                raise FitError(
                    "the Newton step vanished in round-off before the score "
                    "did: the Y-block information is too ill-conditioned"
                )
            return tuple(u + d for u, d in zip(beta, step)), iterations
        t = 1.0
        while True:
            trial = tuple(u + t * d for u, d in zip(beta, step))
            w, score, trial_ll = _y_terms(cells, trial)
            if trial_ll >= ll - _LL_ROUNDOFF * abs(ll):
                break
            t *= 0.5
            if t * size <= _TOL:
                raise FitError("Newton step found no ascent")
        beta, ll = trial, trial_ll
    raise FitError(
        f"Newton iteration did not converge in {_MAX_ITER} steps"
    )


def _y_start(cells) -> tuple:
    """Weighted least squares of the empirical logits log(n1/n0) on r.

    Each cell with both Y levels enters with its inverse-variance weight
    n0 n1 / n; this is the MLE when the two-way model fits the table
    exactly.  With fewer than three such cells the start is zero.
    """
    v, vl = [], []
    for x, z, a, b in cells:
        if a > 0 and b > 0:
            v.append(a * (b / (a + b)))
            vl.append(v[-1] * (math.log(b) - math.log(a)))
        else:
            v.append(0.0)
            vl.append(0.0)
    try:
        return _solve_y_information(
            v, (vl[0] + vl[1] + vl[2] + vl[3], vl[2] + vl[3], vl[1] + vl[3])
        )
    except FitError:
        return 0.0, 0.0, 0.0


def _y_terms(cells, beta) -> tuple:
    """Information weights, score and log-likelihood of the Y-block at ``beta``.

    Per cell the weight is n p0 p1 and the score term n1 p0 - n0 p1, which
    is n1 - n p without its cancellation.
    """
    b0, b1, b2 = beta
    w, s, ll = [], [], 0.0
    for x, z, a, b in cells:
        p0, p1, log_p0, log_p1 = _logistic(b0 + b1 * x + b2 * z)
        w.append((a + b) * p0 * p1)
        s.append(b * p0 - a * p1)
        ll += a * log_p0 + b * log_p1
    return w, (s[0] + s[1] + s[2] + s[3], s[2] + s[3], s[1] + s[3]), ll


def _solve_y_information(w, rhs) -> tuple:
    """Solve ``I v = rhs`` for the Y-block information ``I = sum w r r'``.

    ``w`` holds the four cell weights in ``_XZ`` order and r = (1, x, z).
    Any three of the four r form a unimodular matrix, so by Cauchy-Binet
    det I is the sum of the products of three weights; ``I^-1`` is its
    adjugate over that determinant, each entry a sum of products of weights.
    """
    w00, w01, w10, w11 = w
    x0, x1, z0, z1 = w00 + w01, w10 + w11, w00 + w10, w01 + w11
    det = w00 * w01 * x1 + w10 * w11 * x0
    if not det > 0:
        raise FitError("singular Y-block information matrix")
    c00 = w01 * w10 + w11 * (w01 + w10)
    c01, c02, c12 = -w10 * z1, -w01 * x1, w01 * w10 - w00 * w11
    b0, b1, b2 = rhs
    return (
        (c00 * b0 + c01 * b1 + c02 * b2) / det,
        (c01 * b0 + z0 * z1 * b1 + c12 * b2) / det,
        (c02 * b0 + c12 * b1 + x0 * x1 * b2) / det,
    )


def y_block_variance(fitted_counts, contrast) -> float:
    """Variance of ``contrast . (lambda^Y, lambda^XY, lambda^ZY)`` at a two-way fit.

    It is ``c' I^-1 c`` for the Y-block information
    ``I = sum w r r'``, ``w = m(x,z,0) m(x,z,1) / m(x,z,+)``, r = (1, x, z),
    which equals that block of the inverse Poisson information because
    the two-way MLE fits the XZ margin exactly.  Weights are divided by
    the table total, so no product of counts is formed.
    """
    m = fitted_counts
    total = sum(m)
    w = [m[2 * k] / total * (m[2 * k + 1] / (m[2 * k] + m[2 * k + 1]))
         for k in range(4)]
    v = _solve_y_information(w, contrast)
    return sum(c * u for c, u in zip(contrast, v)) / total


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
        y=n[1] / n[0],
        xy=(n[5] / n[4]) * (n[0] / n[1]),
        zy=(n[3] / n[2]) * (n[0] / n[1]),
        xzy=((n[7] / n[6]) * (n[4] / n[5])) * ((n[2] / n[3]) * (n[1] / n[0])),
    )
