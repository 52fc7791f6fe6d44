"""Pitman-nearness comparison of estimators for order-restricted bivariate
location and scale parameters.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    PitnearError,
    UnknownEstimatorError,
    UnsupportedCaseError,
)
from .estimators import (
    ClampBounds,
    Estimator,
    LossFn,
    beta_weight,
    catalog,
    clamp,
    default_bounds,
    estimator_names,
    normal_nu_family,
    resolve_estimator,
)
from .gpn import (
    LOCATION_DOMINANCE_GAPS,
    SCALE_DOMINANCE_GAPS,
    ComparisonTask,
    GpnResult,
    column_tasks,
    derive_cell_seed,
    gpn_monte_carlo,
    gpn_oracle,
    run_columns,
)
from .models import (
    BivariateNormal,
    ExponentialLocation,
    GammaScale,
    ModelSpec,
    Observation,
    PowerScale,
    ProblemKind,
    RestrictedParams,
    model_from_config,
)
from .specfun import gamma_median, gammaln, normal_cdf, regularized_gamma_p

__version__ = "0.1.0"

__all__ = [
    "BivariateNormal",
    "ClampBounds",
    "ComparisonTask",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "Estimator",
    "ExponentialLocation",
    "GammaScale",
    "GpnResult",
    "LOCATION_DOMINANCE_GAPS",
    "LossFn",
    "ModelSpec",
    "Observation",
    "PitnearError",
    "PowerScale",
    "ProblemKind",
    "RestrictedParams",
    "SCALE_DOMINANCE_GAPS",
    "UnknownEstimatorError",
    "UnsupportedCaseError",
    "beta_weight",
    "catalog",
    "clamp",
    "column_tasks",
    "default_bounds",
    "derive_cell_seed",
    "estimator_names",
    "gamma_median",
    "gammaln",
    "gpn_monte_carlo",
    "gpn_oracle",
    "model_from_config",
    "normal_cdf",
    "normal_nu_family",
    "regularized_gamma_p",
    "resolve_estimator",
    "run_columns",
]
