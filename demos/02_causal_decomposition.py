"""Walkthrough: the causal decomposition P(X) P(Z|X) P(Y|X,Z).

Shows how plain loglinear parameters convert to causal ones, and why a
unit plain two-way parameter between X and Z does not mean the causal
link is absent.
"""

from loglin_effects import (
    NoCausalParams,
    causal_from_nocausal,
    conditional_probabilities,
    effects_report,
    nocausal_from_causal,
)

# Plain loglinear parameters with mu^XZ = 1: no *association* term
# between X and Z, yet the causal Z-block still depends on X.
nc = NoCausalParams(eta=1.0, x=1.5, z=2.0, y=0.2, xz=1.0, xy=0.02, zy=0.01)
cp = causal_from_nocausal(nc)
print("plain mu^XZ     =", nc.xz)
print("causal mu_c^XZ  =", round(cp.xzc, 4))
print("indirect effect =", round(effects_report(cp).ie, 4))

# Tuning the plain parameter to ~0.8383 makes the causal one exactly 1,
# which switches the mediated pathway off.
nc_off = NoCausalParams(eta=1.0, x=1.5, z=2.0, y=0.2, xz=0.8383,
                        xy=0.02, zy=0.01)
cp_off = causal_from_nocausal(nc_off)
print("\nwith plain mu^XZ = 0.8383:")
print("causal mu_c^XZ  =", round(cp_off.xzc, 6))
print("indirect effect =", round(effects_report(cp_off).ie, 6))

# The normalization factors, the level-0 probabilities, make each
# conditional block sum to one.
cond = conditional_probabilities(cp)
for (x, z), factor in sorted(cond.p_y0_given_xz.items()):
    p1 = cond.p_y1_given_xz[(x, z)]
    print(f"eta(Y|X={x},Z={z}) = {factor:.4f}   "
          f"P(Y=1|{x},{z}) + P(Y=0|{x},{z}) = {p1 + factor:.6f}")

# The conversion is invertible.
back = nocausal_from_causal(cp)
print("\nround trip mu^XZ:", round(back.xz, 10))
