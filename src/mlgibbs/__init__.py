"""Multilevel Langevin Monte Carlo estimators for Gibbs expectations.

Estimates stationary expectations of the law proportional to
exp(-2 U / sigma^2) for convex potentials U, by multilevel time averages of
Euler discretizations.  Two calibrated routes: a ridge-penalized route for
general convex potentials, and a direct route under parametric weak
convexity (Hessian eigenvalue envelopes c * U^{-r}).
"""

from .calibration import (
    BiasBounds,
    LevelSchedule,
    PenalizedPlan,
    RegimeConstants,
    build_schedule,
    calibrate_penalized,
    calibrate_single_level,
    calibrate_weak_i,
    calibrate_weak_ii,
    complexity_bound_penalized,
    complexity_bound_weak,
    decreasing_penalization_gap,
    penalization_bias_bounds,
    regime_constants,
    single_level_schedule,
)
from .diagnostics import (
    MseReport,
    ReferenceValue,
    confluence_curve,
    fourth_moment_reference,
    level_variance_profile,
    long_run_reference,
    moment_envelope_check,
    reference_for,
    reference_moment,
    run_mse_experiment,
    strong_error_curve,
    w1_distance_1d,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleCalibrationError,
    InvalidParameterError,
    NumericalOverflowError,
    OracleFailureError,
)
from .estimator import (
    EstimatorOutput,
    cost_of,
    gaussians_of,
    multilevel_estimate,
    run_replicates,
)
from .observables import (
    coordinate,
    euclidean_norm,
    fourth_norm,
    parse_observable,
    squared_norm,
)
from .potentials import (
    Convexity,
    ConvexityProfile,
    PotentialModel,
    check_gradient,
    make_power,
    make_quadratic,
    penalize,
)
from .sde import (
    CoupledPathState,
    NoiseStream,
    PathState,
    euler_step,
    occupation_average,
    simulate_coupled,
    simulate_path,
)

__version__ = "0.1.0"

__all__ = [
    "BiasBounds",
    "ConfigError",
    "Convexity",
    "ConvexityProfile",
    "ConvergenceError",
    "CoupledPathState",
    "EstimatorOutput",
    "InfeasibleCalibrationError",
    "InvalidParameterError",
    "LevelSchedule",
    "MseReport",
    "NoiseStream",
    "NumericalOverflowError",
    "OracleFailureError",
    "PathState",
    "PenalizedPlan",
    "PotentialModel",
    "ReferenceValue",
    "RegimeConstants",
    "build_schedule",
    "calibrate_penalized",
    "calibrate_single_level",
    "calibrate_weak_i",
    "calibrate_weak_ii",
    "check_gradient",
    "complexity_bound_penalized",
    "complexity_bound_weak",
    "confluence_curve",
    "coordinate",
    "cost_of",
    "decreasing_penalization_gap",
    "euclidean_norm",
    "euler_step",
    "fourth_moment_reference",
    "fourth_norm",
    "gaussians_of",
    "level_variance_profile",
    "long_run_reference",
    "make_power",
    "make_quadratic",
    "moment_envelope_check",
    "multilevel_estimate",
    "occupation_average",
    "parse_observable",
    "penalization_bias_bounds",
    "penalize",
    "reference_for",
    "reference_moment",
    "regime_constants",
    "run_mse_experiment",
    "run_replicates",
    "simulate_coupled",
    "simulate_path",
    "single_level_schedule",
    "squared_norm",
    "strong_error_curve",
    "w1_distance_1d",
]
