"""Causal odds-ratio effects for 2x2x2 contingency tables.

The package fits dummy-coded loglinear models to three-way binary
tables, converts them to the causal decomposition P(X) P(Z|X) P(Y|X,Z),
and computes total, controlled-direct, natural-direct, indirect, cell,
and interaction effects as odds ratios, with an independent
probability-space oracle and a z-test for zero additive interaction.
"""

__version__ = "0.7.0"

from .causal import (
    CausalModelError,
    CausalParams,
    ConditionalProbabilities,
    causal_from_nocausal,
    conditional_probabilities,
    fit_causal,
    nocausal_from_causal,
)
from .effects import (
    DegenerateProbabilityError,
    EffectsReport,
    effects_report,
    indirect_effect,
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
    two_sided_p,
)
from .oracle import OracleError, oracle_effects
from .tables import (
    CELLS,
    ContingencyTable,
    JointProbabilityTable,
    TableError,
    joint_probabilities,
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
    "ModelSpec",
    "NoCausalParams",
    "OracleError",
    "TableError",
    "TestError",
    "TestResult",
    "additive_zero_test",
    "causal_from_nocausal",
    "conditional_probabilities",
    "design_matrix",
    "effects_report",
    "fit_causal",
    "fit_poisson",
    "indirect_effect",
    "joint_probabilities",
    "linearity_bonds",
    "nocausal_from_causal",
    "oracle_effects",
    "parse_table",
    "saturated_closed_form",
    "saturated_spec",
    "serialize_table",
    "two_sided_p",
    "two_way_spec",
    "validate",
]
