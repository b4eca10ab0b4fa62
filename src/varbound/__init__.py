"""Design-compatible variance bounds for linear treatment-effect estimators
under interference: construction, admissibility testing, and estimation."""

from . import errors
from .estimation import (
    RDiagnostics,
    RealizedData,
    empirical_mse,
    estimation_gamma,
    ht_bound_estimate,
    mse_upper_bound,
    observe,
    r_covariance_opnorm,
    validate_realized,
)
from .experiment import (
    Design,
    EstimatorSpec,
    ExposureModel,
    SecondOrderTable,
    VarianceProblem,
    build_variance_problem,
    coefficient_vector,
    compute_estimand,
    compute_exposures,
    enumerate_assignments,
    estimator_value,
    observation_indices,
    pair_observation_probabilities,
    sample_assignments,
    unobservable_pairs,
)
from .linalg import (
    entrywise_norm,
    loewner_dominates,
    quadratic_form_value,
    schatten_norm,
)
from .matrixio import read_matrix, read_vector, write_matrix, write_vector
from .scenario import Scenario, parse_scenario
from .solver import (
    AdmissibilityVerdict,
    BoundResult,
    BoundValidation,
    FrobeniusSquaredTerm,
    Objective,
    SchattenTerm,
    SolverConfig,
    TargetedTerm,
    aronow_samii_slack,
    generalized_as_slack,
    neyman_bound,
    solve_optvb,
    targeting_from_covariates,
    targeting_from_vectors,
    test_admissibility,
    validate_bound,
)

__version__ = "0.1.0"
