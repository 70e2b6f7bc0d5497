"""Causal odds-ratio effects for 2x2x2 contingency tables.

The package fits dummy-coded loglinear models to three-way binary
tables, converts them to the causal decomposition P(X) P(Z|X) P(Y|X,Z),
and computes total, controlled-direct, natural-direct, indirect, cell,
and interaction effects as odds ratios, with an independent
probability-space oracle and a z-test for zero additive interaction.
"""

__version__ = "0.1.0"

from .causal import (
    CausalModelError,
    CausalParams,
    ConditionalProbabilities,
    NormalizationFactors,
    causal_from_nocausal,
    conditional_probabilities,
    eta_factors,
    fit_causal,
    nocausal_from_causal,
)
from .effects import (
    DegenerateProbabilityError,
    EffectsReport,
    additive_interaction,
    cell_effect,
    effects_report,
    indirect_effect,
    lde,
    multiplicative_interaction_or,
    natural_direct_effect,
    total_effect,
)
from .fitting import (
    FitError,
    FitResult,
    ModelSpec,
    NoCausalParams,
    design_matrix,
    fit_poisson,
    saturated_closed_form,
    saturated_spec,
    two_way_spec,
)
from .inference import (
    LinearityReport,
    TestError,
    TestResult,
    additive_zero_test,
    linearity_bonds,
    normal_cdf,
    two_sided_p,
)
from .oracle import OracleError, oracle_effects
from .tables import (
    CELLS,
    ContingencyTable,
    JointProbabilityTable,
    MarginalTable,
    TableError,
    dichotomize,
    joint_probabilities,
    margin,
    parse_table,
    serialize_table,
    validate,
)

__all__ = [
    "CELLS",
    "CausalModelError",
    "CausalParams",
    "ConditionalProbabilities",
    "ContingencyTable",
    "DegenerateProbabilityError",
    "EffectsReport",
    "FitError",
    "FitResult",
    "JointProbabilityTable",
    "LinearityReport",
    "MarginalTable",
    "ModelSpec",
    "NoCausalParams",
    "NormalizationFactors",
    "OracleError",
    "TableError",
    "TestError",
    "TestResult",
    "additive_interaction",
    "additive_zero_test",
    "causal_from_nocausal",
    "cell_effect",
    "conditional_probabilities",
    "design_matrix",
    "dichotomize",
    "effects_report",
    "eta_factors",
    "fit_causal",
    "fit_poisson",
    "indirect_effect",
    "joint_probabilities",
    "lde",
    "linearity_bonds",
    "margin",
    "multiplicative_interaction_or",
    "natural_direct_effect",
    "nocausal_from_causal",
    "normal_cdf",
    "oracle_effects",
    "parse_table",
    "saturated_closed_form",
    "saturated_spec",
    "serialize_table",
    "total_effect",
    "two_sided_p",
    "two_way_spec",
    "validate",
]
