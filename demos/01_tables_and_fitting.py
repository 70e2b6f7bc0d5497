"""Walkthrough: building a 2x2x2 table and fitting loglinear models.

Run with ``python3 demos/01_tables_and_fitting.py``.
"""

from loglin_effects import (
    ContingencyTable,
    fit_poisson,
    joint_probabilities,
    parse_table,
    saturated_closed_form,
    saturated_spec,
    serialize_table,
    two_way_spec,
    validate,
)

# A table can come straight from counts.  Cells are ordered (x, z, y)
# lexicographically with x slowest.
table = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))
print("total count:", table.total)
print("n(1, 1, 1) =", table.count(1, 1, 1))

# ...or from CSV or JSON text, as the command line reads it.
text = serialize_table(table, "csv")
print("\nthe table as CSV:\n" + text, end="")
print("read back equal:", parse_table(text, "csv") == table)

# A zero cell stops the fit under the default policy; "correct" adds the
# amount to every cell.
sparse = ContingencyTable((0, 18, 25, 31, 17, 23, 12, 48))
print("\ncorrected counts:", validate(sparse, "correct", 0.5).counts)

# Probabilities, and a margin summed from them: Z summed out of P(X, Z, Y),
# and the XY slice at Z=1 over its total.
joint = joint_probabilities(table)
p = joint.prob
xy11 = p(1, 0, 1) + p(1, 1, 1)
z1 = p(0, 1, 0) + p(0, 1, 1) + p(1, 1, 0) + p(1, 1, 1)
print("\nP(X=1, Y=1)        =", round(xy11, 4))
print("P(X=1, Y=1 | Z=1)  =", round(p(1, 1, 1) / z1, 4))

# Fit the model with all two-way associations (no three-way term).  Its
# fitted table keeps the observed two-way margins, so it is the table plus
# t times the +-1 parity pattern of the cells, with the one t that leaves no
# three-way term: one equation in one unknown, solved by Newton's method...
fit2 = fit_poisson(table, two_way_spec())
print("\ntwo-way fit: deviance", round(fit2.deviance, 4),
      "in", fit2.iterations, "Newton steps")
for term, value in fit2.params.multiplicative.items():
    print(f"  {term:<4} {value:.4f}")

# ...and the saturated model, which reproduces the counts exactly: its
# parameters are ratios of cell ratios, and the three-way term is the ratio
# of the two conditional XY odds ratios.
fit3 = fit_poisson(table, saturated_spec())
closed = saturated_closed_form(table)
n = table.counts
print("\nsaturated deviance:", round(fit3.deviance, 12))
print("three-way term:          ", round(closed.xzy, 6))
print("XY odds ratio z=1 / z=0: ",
      round((n[7] * n[2] / (n[6] * n[3])) / (n[5] * n[0] / (n[4] * n[1])), 6))
