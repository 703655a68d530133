"""Pinned verification suites runnable from the CLI and the test suite.

Each suite bundles one empirical check of the analysis behind the
estimator, with all constants fixed here so the command line and the
acceptance tests exercise byte-identical runs.  A suite returns its
pass/fail verdict plus printable detail lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .calibration import (
    calibrate_weak_ii,
    penalization_bias_bounds,
    regime_constants,
)
from .diagnostics import (
    SLACK_FRACTION,
    confluence_curve,
    decreasing_penalization_probe,
    level_variance_profile,
    moment_envelope_check,
    reference_moment,
    strong_error_curve,
    w1_distance_1d,
)
from .observables import coordinate, fourth_norm
from .potentials import make_power, make_quadratic, penalize

__all__ = ["SuiteResult", "SUITES", "run_suite"]

_SIGMA = 1.0
_POWER_P = 0.75

STRONG_ERROR_GAMMAS = tuple(2.0**-k for k in range(4, 10))
STRONG_ERROR_HORIZON = 50.0
STRONG_ERROR_REPLICATES = 2000
STRONG_ERROR_SLOPE_BAND = (0.7, 1.3)

CONFLUENCE_X, CONFLUENCE_Y = 3.0, -3.0
CONFLUENCE_GAMMA = 0.05
CONFLUENCE_HORIZON = 50.0
CONFLUENCE_REPLICATES = 500
CONFLUENCE_RATIO = 0.1

MOMENTS_GAMMA = 1.0 / 9.0
MOMENTS_POWER = 2.0
MOMENTS_HORIZON = 100.0
MOMENTS_REPLICATES = 200
MOMENTS_MARGIN = 8.0

LEVEL_VAR_EPSILON = 0.4
LEVEL_VAR_DELTA = 0.1
LEVEL_VAR_RHO = 0.5
LEVEL_VAR_REPLICATES = 2000
LEVEL_VAR_SLACK = 2.0

PENALIZATION_ALPHAS = (0.05, 0.1, 0.2)

DECPEN_ALPHA = 0.4
DECPEN_ALPHA_TILDE = 0.2
DECPEN_START = 1.0
DECPEN_GAMMA = 0.005
DECPEN_HORIZON = 5.0
DECPEN_REPLICATES = 500


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    lines: Tuple[str, ...]


def _verdict(name: str, passed: bool, lines) -> SuiteResult:
    tag = "pass" if passed else "FAIL"
    return SuiteResult(name=name, passed=passed, lines=tuple(lines) + (f"{name}: {tag}",))


def run_strong_error(seed: int) -> SuiteResult:
    """Fine-coarse mean-square gap scales linearly in the step size."""
    model = make_power(1, _POWER_P)
    curve = strong_error_curve(
        model, _SIGMA, 0.0, STRONG_ERROR_GAMMAS,
        STRONG_ERROR_HORIZON, STRONG_ERROR_REPLICATES, seed,
    )
    lo, hi = STRONG_ERROR_SLOPE_BAND
    lines = [
        f"gamma={g:.6g} gap={m:.6g} se={s:.3g}"
        for g, m, s in zip(curve.gammas, curve.mean_square_gaps, curve.standard_errors)
    ]
    lines.append(
        f"slope={curve.slope:.4f} band=[{lo}, {hi}] "
        f"(mean-square slope {curve.mean_square_slope:.4f})"
    )
    return _verdict("strong_error", lo <= curve.slope <= hi, lines)


def run_confluence(seed: int) -> SuiteResult:
    """Shared-noise chains from distant starts contract together."""
    model = make_power(1, _POWER_P)
    curve = confluence_curve(
        model, _SIGMA, CONFLUENCE_X, CONFLUENCE_Y,
        CONFLUENCE_GAMMA, CONFLUENCE_HORIZON, CONFLUENCE_REPLICATES, seed,
    )
    dist0 = (CONFLUENCE_X - CONFLUENCE_Y) ** 2
    threshold = CONFLUENCE_RATIO * dist0
    lines = [
        f"initial={dist0:.6g} terminal={curve.terminal:.6g} threshold={threshold:.6g}"
    ]
    return _verdict("confluence", curve.terminal <= threshold, lines)


def run_moments(seed: int) -> SuiteResult:
    """Running mean of U^2 along the chain stays inside its envelope."""
    model = make_power(1, _POWER_P)
    trace = moment_envelope_check(
        model, _SIGMA, 0.0, MOMENTS_GAMMA, MOMENTS_POWER,
        MOMENTS_HORIZON, MOMENTS_REPLICATES, seed, MOMENTS_MARGIN,
    )
    lines = [f"envelope={trace.envelope:.6g} max_ratio={trace.max_ratio:.6g}"]
    return _verdict("moments", trace.passed, lines)


def level_variance_schedule():
    """The pinned direct-route schedule used by the level_variance suite."""
    model = make_power(1, _POWER_P)
    constants = regime_constants(model.profile, model.dim, _SIGMA)
    schedule = calibrate_weak_ii(
        LEVEL_VAR_EPSILON, model.profile, constants,
        LEVEL_VAR_DELTA, constants.gamma_star, rho=LEVEL_VAR_RHO,
    )
    return model, schedule


def run_level_variance(seed: int) -> SuiteResult:
    """Levels are uncorrelated and their variances do not grow with depth."""
    model, schedule = level_variance_schedule()
    profile = level_variance_profile(
        model, coordinate(0), schedule, _SIGMA, 0.0, LEVEL_VAR_REPLICATES, seed
    )
    corr_bound = 3.0 / math.sqrt(profile.replicates)
    max_corr = profile.max_cross_correlation()
    variances = profile.variances
    monotone = all(
        variances[j + 1] <= LEVEL_VAR_SLACK * variances[j]
        for j in range(len(variances) - 1)
    )
    lines = [
        "variances=" + " ".join(f"{v:.3e}" for v in variances),
        f"max_cross_correlation={max_corr:.4f} bound={corr_bound:.4f}",
    ]
    return _verdict("level_variance", max_corr <= corr_bound and monotone, lines)


def run_penalization_bias(seed: int) -> SuiteResult:
    """Quadrature distance to the penalized law obeys the analytic bound.

    Deterministic; the seed is accepted for interface uniformity.
    """
    model = make_power(1, _POWER_P)
    m4 = reference_moment(model, _SIGMA, fourth_norm).value
    lines = [f"m4={m4:.8g}"]
    passed = True
    for alpha in PENALIZATION_ALPHAS:
        w1 = w1_distance_1d(model, penalize(model, alpha), _SIGMA)
        bound = penalization_bias_bounds(alpha, m4).w1
        ok = w1 <= bound
        passed = passed and ok
        lines.append(f"alpha={alpha} w1={w1:.6g} bound={bound:.6g}")
    return _verdict("penalization_bias", passed, lines)


def run_decreasing_penalty(seed: int) -> SuiteResult:
    """Gap between chains at two ridge strengths stays under its bound."""
    model = make_quadratic(1)
    probe = decreasing_penalization_probe(
        model, DECPEN_ALPHA, DECPEN_ALPHA_TILDE, _SIGMA,
        DECPEN_START, DECPEN_START, DECPEN_GAMMA,
        DECPEN_HORIZON, DECPEN_REPLICATES, seed,
    )
    limit = (1.0 + SLACK_FRACTION) * probe.bound
    lines = [f"gap={probe.gap:.6g} bound={probe.bound:.6g} limit={limit:.6g}"]
    return _verdict("decreasing_penalty", probe.gap <= limit, lines)


SUITES: Dict[str, Callable[[int], SuiteResult]] = {
    "strong_error": run_strong_error,
    "confluence": run_confluence,
    "moments": run_moments,
    "level_variance": run_level_variance,
    "penalization_bias": run_penalization_bias,
    "decreasing_penalty": run_decreasing_penalty,
}


def run_suite(name: str, seed: int) -> SuiteResult:
    return SUITES[name](seed)
