"""Simulation and verification engine for EPR-Bell correlation experiments.

Library layout:

- ``geometry``: axes, signed hemispheres, outcomes, pair counts,
  expectation estimates.
- ``rng``: Philox substreams keyed by (seed, stream, batch).
- ``linalg``: Hermiticity-checked spectral norm.
- ``quantum``: singlet closed forms and the operator-algebra CHSH bounds.
- ``lhv``: hidden-variable model contract, CHSH and joint-distribution
  bounds, Wigner set measures.
- ``model1``: ensemble angular-momentum model reproducing the singlet.
- ``model2``: hemifield/particle model with equivalence classes.
- ``oracles``: brute-force quadrature checks of the closed forms.
- ``engine`` / ``cli``: seeded parallel experiment runner and the
  ``bellfoundry`` command.
"""

from .geometry import (
    Axis,
    BELL_BOUND,
    ExpectationEstimate,
    MINUS,
    Outcome,
    PLUS,
    PairCounts,
    TSIRELSON_BOUND,
    V_MAX,
    counts_from_signs,
    empirical_expectation,
    wrap_delta,
)
from .lhv import (
    BellCheckReport,
    ConstantResponseModel,
    DeterministicSignModel,
    SubsetSpec,
    check_bell_theorem,
    chsh_value,
    joint_distribution_chsh,
    model_expectation,
    quantum_wigner_violation,
    sign_model_expectation_analytic,
    stochastic_defect,
    wigner_inequality_check,
    wigner_measure,
)
from .quantum import (
    HermitianOperator,
    chsh_operator,
    operator_norm,
    singlet_expectation,
    singlet_joint_probability,
    spin_operator,
    verify_operator_identity,
)

__all__ = [
    "Axis",
    "BELL_BOUND",
    "BellCheckReport",
    "ConstantResponseModel",
    "DeterministicSignModel",
    "ExpectationEstimate",
    "HermitianOperator",
    "MINUS",
    "Outcome",
    "PLUS",
    "PairCounts",
    "SubsetSpec",
    "TSIRELSON_BOUND",
    "V_MAX",
    "check_bell_theorem",
    "chsh_operator",
    "chsh_value",
    "counts_from_signs",
    "empirical_expectation",
    "joint_distribution_chsh",
    "model_expectation",
    "operator_norm",
    "quantum_wigner_violation",
    "sign_model_expectation_analytic",
    "singlet_expectation",
    "singlet_joint_probability",
    "spin_operator",
    "stochastic_defect",
    "verify_operator_identity",
    "wigner_inequality_check",
    "wigner_measure",
    "wrap_delta",
]

__version__ = "0.1.0"
