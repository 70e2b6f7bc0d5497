"""Walkthrough: building a 2x2x2 table and fitting loglinear models.

Run with ``python3 demos/01_tables_and_fitting.py``.
"""

import numpy as np

from loglin_effects import (
    ContingencyTable,
    dichotomize,
    fit_poisson,
    joint_probabilities,
    margin,
    saturated_closed_form,
    saturated_spec,
    two_way_spec,
)

# A table can come straight from counts.  Cells are ordered (x, z, y)
# lexicographically with x slowest.
table = ContingencyTable((42, 18, 25, 31, 17, 23, 12, 48))
print("total count:", table.total)

# ...or from raw numeric records via a mean split per variable.
rng = np.random.default_rng(0)
x = rng.normal(size=200)
z = 0.8 * x + rng.normal(scale=0.6, size=200)
y = x + z + rng.normal(scale=0.6, size=200)
split = dichotomize(list(zip(x, z, y)))
print("mean-split table:", split.counts)

# Probabilities and margins.
joint = joint_probabilities(table)
xy_margin = margin(joint, ("X", "Y"))
xy_given_z1 = margin(joint, ("X", "Y"), condition=("Z", 1))
print("P(X=1, Y=1)        =", round(xy_margin.prob(1, 1), 4))
print("P(X=1, Y=1 | Z=1)  =", round(xy_given_z1.prob(1, 1), 4))

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
