"""Walkthrough: testing for zero additive interaction and linearity.

The additive interaction can vanish even when both X and Z influence Y;
this happens exactly when the outcome-block parameters satisfy
mu^ZY = 1 / ((mu^Y)^2 mu^XY).  A z-test on the corresponding additive
contrast checks that constraint from fitted counts.
"""

from loglin_effects import (
    NoCausalParams,
    additive_zero_test,
    causal_from_nocausal,
    fit_poisson,
    linearity_bonds,
    two_way_spec,
)

# Expected counts generated so the constraint holds exactly.
y, xy = 0.5, 1.8
null_params = NoCausalParams(
    eta=1000.0, x=1.3, z=0.7, y=y, xz=1.4, xy=xy, zy=y ** -2 * xy ** -1
)
fit = fit_poisson(null_params.as_table(), two_way_spec())
null = additive_zero_test(fit)
print("exact-null table:")
print(f"  beta_hat {null.beta_hat:+.2e}  z {null.z:+.2e}  p {null.p_two_sided:.4f}")

# Perturb the mediator-outcome link: the test picks it up, and more
# data makes the evidence stronger (se shrinks like 1/sqrt(n)).
for scale in (1.0, 100.0):
    off = NoCausalParams(
        eta=200.0 * scale, x=1.3, z=0.7, y=y, xz=1.4, xy=xy,
        zy=2.0 * y ** -2 * xy ** -1,
    )
    res = additive_zero_test(fit_poisson(off.as_table(), two_way_spec()))
    print(f"violated, counts x{scale:<5g} z {res.z:8.4f}  se {res.se:.4f}  "
          f"p {res.p_two_sided:.2e}")

# Linearity bonds: mean-dichotomized linear systems force two parameter
# constraints; the residuals report how far a fitted model is from them.
# Bond 1 is the z-test's beta_hat, so its test is the one run above.
cp = causal_from_nocausal(fit.params)
bonds = linearity_bonds(cp)
print("\nlinearity bond residuals (log scale):")
print(f"  outcome block:  {bonds.bond1_residual:+.2e}")
print(f"  mediator block: {bonds.bond2_residual:+.2e}")
print(f"  bond-1 z-test p: {null.p_two_sided:.4f}")
