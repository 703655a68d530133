"""Parameter calibration for single-level and multilevel Langevin estimators.

Two routes are covered.  The penalized route adds a ridge alpha |x|^2 / 2 to a
convex potential, choosing alpha from the target accuracy and the fourth
moment of the target law, and pairs it with a geometric level schedule.  The
direct route applies under parametric weak convexity (curvature envelopes
c * U^{-r}) and calibrates levels from the envelope constants.

All schedules round horizons up to their level's coarse grid, so step counts
and gradient-evaluation costs are exact integers.  A target so tight that a
derived ridge, step, horizon or step count leaves float range (epsilon^2
underflows to zero) raises InfeasibleCalibrationError.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import InfeasibleCalibrationError, InvalidParameterError
from .potentials import (
    _PARAMETRIC,
    Convexity,
    ConvexityProfile,
    PotentialModel,
    _check_dimension,
    _check_nonnegative,
    _check_positive,
)

__all__ = [
    "RegimeConstants",
    "LevelSchedule",
    "PenalizedPlan",
    "BiasBounds",
    "regime_constants",
    "step_bound",
    "build_schedule",
    "single_level_schedule",
    "calibrate_single_level",
    "calibrate_penalized",
    "complexity_bound_penalized",
    "calibrate_weak_i",
    "calibrate_weak_ii",
    "complexity_bound_weak",
    "penalization_bias_bounds",
    "decreasing_penalization_gap",
]

@dataclass(frozen=True)
class RegimeConstants:
    """Admissible step bound and moment scale for a parametric profile.

    gamma_star bounds the usable Euler step; psi_bar bounds the stationary
    moments of U along the chain and scales like the dimension.
    """

    gamma_star: float
    psi_bar: float


def _check_delta(delta: float):
    if not 0.0 < delta <= 0.25:
        raise InvalidParameterError(f"delta must lie in (0, 1/4], got {delta}")


def _check_open_rho(rho: float):
    if not 0.0 < rho < 1.0:
        raise InvalidParameterError(f"rho must lie in (0, 1), got {rho}")


def _check_admissible(name: str, gamma: float, gamma_star: float):
    # the slack lets a step derived from gamma_star through rounding pass
    if gamma > gamma_star * (1.0 + 1e-12):
        raise InvalidParameterError(
            f"{name}={gamma} exceeds the admissible step {gamma_star}"
        )


def _require_parametric(profile: ConvexityProfile):
    if profile.kind not in _PARAMETRIC:
        raise InvalidParameterError(
            "a parametric convexity profile (c_lower with exponent r) is "
            "required; profile lacks c_lower"
        )


def step_bound(profile: ConvexityProfile) -> float:
    """Largest admissible Euler step gamma_star: (1 - r) / (4 max(c_upper, L))
    for a two-sided parametric profile, 1 / (4L) otherwise."""

    if profile.kind is Convexity.PARAMETRIC_TWO_SIDED:
        return (1.0 - profile.r) / (4.0 * max(profile.c_upper, profile.L))
    return 1.0 / (4.0 * profile.L)


def _check_step_size(model: PotentialModel, gamma: float):
    # Parametric profiles carry an admissible step bound; exceeding it is an
    # error.  Outside the parametric regime only warn on a stability heuristic.
    _check_positive("gamma", gamma)
    profile = model.profile
    if profile.kind in _PARAMETRIC:
        _check_admissible("gamma", gamma, step_bound(profile))
    elif gamma * profile.L > 0.5:
        warnings.warn(
            f"gamma={gamma} is large for gradient Lipschitz constant L={profile.L}; "
            "the Euler chain may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )


# Relative slack when snapping times to a step grid; absorbs float
# representation error in quantities like 0.3 / 0.1.
_GRID_SNAP = 1e-9


def grid_count_up(t: float, gamma: float) -> int:
    """Number of gamma-steps covering t, rounding t up to the grid."""

    if not gamma > 0.0:
        raise InvalidParameterError(f"gamma must be positive, got {gamma}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise InvalidParameterError(f"t must be finite and nonnegative, got {t}")
    q = t / gamma
    if not math.isfinite(q):
        raise InvalidParameterError(f"t={t} spans more steps of {gamma} than a float holds")
    return math.ceil(q - _GRID_SNAP * max(1.0, q))


def regime_constants(
    profile: ConvexityProfile, d: int, sigma: float, c_r: float = 1.0
) -> RegimeConstants:
    """Step bound and moment scale implied by a parametric convexity profile;
    c_r scales a two-sided profile's moment scale and must be 1.0 on a lower-only one."""

    _check_dimension(d)
    _check_nonnegative("sigma", sigma)
    _check_positive("c_r", c_r)
    _require_parametric(profile)
    if profile.kind is Convexity.PARAMETRIC_LOWER and c_r != 1.0:
        raise InvalidParameterError(f"c_r must be 1.0 on a lower-only profile, got {c_r}")
    L, c_lo, r = profile.L, profile.c_lower, profile.r
    try:
        if profile.kind is Convexity.PARAMETRIC_TWO_SIDED:
            psi_bar = c_r * (d * (1.0 + sigma * sigma) * max(profile.c_upper, L)) / c_lo
        else:
            psi_bar = (1.0 + sigma * sigma) * (
                d * L + (1.0 + d * L / c_lo) ** (1.0 / (1.0 - r))
            )
    except OverflowError:
        psi_bar = math.inf
    if not d <= psi_bar < math.inf:
        raise InvalidParameterError(
            f"computed moment scale {psi_bar} is below the dimension or not finite"
        )
    return RegimeConstants(gamma_star=step_bound(profile), psi_bar=psi_bar)


@dataclass(frozen=True)
class LevelSchedule:
    """Discretization levels of a multilevel run.

    J correcting levels on top of the base level; gamma[j] = gamma[0] * 2^-j;
    T[j] is the horizon of level j, an exact grid multiple of its coarse step
    (gamma[j-1] for j >= 1, gamma[0] for j = 0); tau is the warm-up time cut
    from every level's average; rho in [0, 1] is the horizon decay exponent,
    T_j proportional to 2^{-(1-rho) j} before rounding.
    """

    J: int
    gamma: Tuple[float, ...]
    T: Tuple[float, ...]
    tau: float
    rho: float

    def __post_init__(self):
        if self.J < 0 or len(self.gamma) != self.J + 1 or len(self.T) != self.J + 1:
            raise InvalidParameterError(
                f"schedule needs J + 1 = {self.J + 1} steps and horizons"
            )
        for j, g in enumerate(self.gamma):
            _check_positive(f"gamma[{j}]", g)
            if g != self.gamma[0] * 2.0 ** (-j):
                raise InvalidParameterError(f"gamma[{j}] must equal gamma[0] * 2^-{j}")
        for j, (t, grid) in enumerate(zip(self.T, _coarse_grids(self.gamma))):
            _check_positive(f"T[{j}]", t)
            q = t / grid
            n = round(q) if math.isfinite(q) else 0
            if n < 1 or abs(t - n * grid) > _GRID_SNAP * max(1.0, t):
                raise InvalidParameterError(
                    f"T[{j}]={t} is not a grid multiple of {grid}"
                )
        if not 0.0 <= self.rho <= 1.0:
            raise InvalidParameterError(f"rho must lie in [0, 1], got {self.rho}")
        if not 0.0 <= self.tau < min(self.T):
            raise InvalidParameterError(
                f"tau={self.tau} must lie in [0, min_j T[j])"
            )
        # tau rounds up to each coarse grid, so it can still fill a level
        for j, (burn, n) in enumerate(zip(self.burn_counts(), self.step_counts)):
            if burn >= n:
                raise InvalidParameterError(
                    f"tau={self.tau} leaves level {j} no averaging window: "
                    f"burn-in {burn} of {n} steps"
                )

    @property
    def step_counts(self) -> Tuple[int, ...]:
        """Steps per level on its coarse grid: T0/gamma0, then T_j/gamma_{j-1}."""
        return tuple(round(t / g) for t, g in zip(self.T, _coarse_grids(self.gamma)))

    def burn_counts(self) -> Tuple[int, ...]:
        """Warm-up steps per level: tau rounded up to each level's coarse grid."""
        return tuple(grid_count_up(self.tau, g) for g in _coarse_grids(self.gamma))

    def to_dict(self) -> dict:
        return {
            "J": self.J,
            "gamma": list(self.gamma),
            "T": list(self.T),
            "tau": self.tau,
            "rho": self.rho,
        }


def _coarse_grids(gamma: Tuple[float, ...]) -> Tuple[float, ...]:
    """Step grid of each level: level j runs on gamma[max(j - 1, 0)]."""
    return gamma[:1] + gamma[:-1]


def build_schedule(gamma0: float, horizons, tau: float = 0.0, rho: float = 0.5) -> LevelSchedule:
    """Assemble a LevelSchedule, rounding each horizon up to its level grid."""

    gamma = tuple(gamma0 * 2.0 ** (-j) for j in range(len(horizons)))
    T = tuple(grid_count_up(t, g) * g for t, g in zip(horizons, _coarse_grids(gamma)))
    return LevelSchedule(J=len(horizons) - 1, gamma=gamma, T=T, tau=tau, rho=rho)


def single_level_schedule(gamma0: float, horizon: float, tau: float = 0.0) -> LevelSchedule:
    """Degenerate schedule with no correcting levels (J = 0)."""
    return build_schedule(gamma0, [horizon], tau=tau, rho=0.0)


@contextmanager
def _within_float_range(epsilon: float):
    # Wraps formulas of validated inputs.  An underflowed epsilon^2 makes them
    # divide by zero, or take the ceiling or a power of an infinite ratio, or
    # the logarithm of zero (ValueError); a step or horizon out of range fails
    # the LevelSchedule validator (InvalidParameterError, also a ValueError).
    try:
        yield
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise InfeasibleCalibrationError(
            f"accuracy epsilon={epsilon} with the given constants puts the "
            f"calibration beyond float range ({exc})"
        ) from None


def calibrate_single_level(
    epsilon: float, sigma: float, d: int, gamma0: float
) -> LevelSchedule:
    """Schedule of the plain time-average baseline at step gamma0.

    One level over the horizon T = sigma^2 d max(1, log(1/gamma0)) epsilon^-2,
    sized like the level-0 horizon of the direct route.
    """

    _check_positive("epsilon", epsilon)
    _check_positive("sigma", sigma)
    _check_dimension(d)
    _check_positive("gamma0", gamma0)
    with _within_float_range(epsilon):
        horizon = sigma**2 * d * max(1.0, math.log(1.0 / gamma0)) / epsilon**2
        return single_level_schedule(gamma0, horizon)


@dataclass(frozen=True)
class PenalizedPlan:
    """Ridge strength and level schedule of a penalized multilevel run."""

    epsilon: float
    alpha: float
    m4: float
    m4_source: str
    schedule: LevelSchedule
    predicted_cost: float
    statement_mode: bool = False

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "m4": self.m4,
            "m4_source": self.m4_source,
            "predicted_cost": self.predicted_cost,
            "statement_mode": self.statement_mode,
            **self.schedule.to_dict(),
        }


def calibrate_penalized(
    epsilon: float,
    sigma: float,
    d: int,
    m4: float,
    L: float,
    statement_mode: bool = False,
    m4_source: str = "given",
) -> PenalizedPlan:
    """Choose the ridge strength and level schedule for a target accuracy.

    The ridge is alpha = 2 epsilon / sqrt(m4) where m4 is the fourth moment
    of the target law.  The default calibration uses the ridge-adjusted
    Lipschitz constant for the base step and horizons decaying by halves,

        gamma_0 = alpha / (2 (L + alpha)^2),
        J = ceil(2 log2(sigma^2 d / (alpha epsilon))),
        T_j = sigma^2 d log(1/gamma_0) alpha^-2 epsilon^-2 2^-j.

    With statement_mode the schedule instead uses gamma_0 = epsilon
    m4^{-1/2} L^{-2}, J = ceil(2 log2(sigma^2 d sqrt(m4) epsilon^-2)) and the
    level-independent horizon T = sigma^2 d log(1/gamma_0) m4 epsilon^-5
    J^2 2^-J.
    """

    _check_penalized_args(epsilon, sigma, d, m4, L)
    alpha = 2.0 * epsilon / math.sqrt(m4)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise InfeasibleCalibrationError(
            f"accuracy epsilon={epsilon} gives ridge alpha={alpha}, which is zero or "
            "not finite"
        )
    with _within_float_range(epsilon):
        if statement_mode:
            gamma0 = epsilon / (math.sqrt(m4) * L * L)
            J_raw = math.ceil(
                2.0 * math.log2(sigma * sigma * d * math.sqrt(m4) / epsilon**2)
            )
            rho = 1.0
        else:
            L_alpha = L + alpha
            gamma0 = alpha / (2.0 * L_alpha * L_alpha)
            J_raw = math.ceil(2.0 * math.log2(sigma * sigma * d / (alpha * epsilon)))
            rho = 0.0
    if gamma0 > 1.0:
        raise InfeasibleCalibrationError(
            f"base step gamma0={gamma0} exceeds 1; the accuracy target is infeasible"
        )
    J = max(J_raw, 1)
    if J_raw < 1:
        warnings.warn(
            f"accuracy epsilon={epsilon} is too loose for a multilevel schedule; "
            "clamping to J=1",
            RuntimeWarning,
            stacklevel=2,
        )

    with _within_float_range(epsilon):
        log_inv_gamma0 = math.log(1.0 / gamma0)
        base = sigma * sigma * d * log_inv_gamma0
        if statement_mode:
            T_flat = base * m4 * epsilon**-5 * J * J * 2.0 ** (-J)
            horizons = [T_flat] * (J + 1)
        else:
            T0 = base / (alpha * alpha * epsilon * epsilon)
            horizons = [T0 * 2.0 ** (-j) for j in range(J + 1)]
        schedule = build_schedule(gamma0, horizons, rho=rho)
    if schedule.T[J] < schedule.gamma[0]:
        raise InfeasibleCalibrationError(
            f"deepest horizon T_J={schedule.T[J]} fell below the base step "
            f"{schedule.gamma[0]} after rounding"
        )
    predicted = complexity_bound_penalized(epsilon, sigma, d, m4, L, gamma0)
    return PenalizedPlan(
        epsilon=epsilon,
        alpha=alpha,
        m4=m4,
        m4_source=m4_source,
        schedule=schedule,
        predicted_cost=predicted,
        statement_mode=statement_mode,
    )


def complexity_bound_penalized(
    epsilon: float, sigma: float, d: int, m4: float, L: float, gamma0: float
) -> float:
    """Predicted gradient-evaluation budget of the penalized route.

    The level count ceil(log2(sigma^2 d sqrt(m4) / (2 epsilon^3))) is clamped
    to one, as calibrate_penalized clamps J: a target loose enough for a
    single level is a valid target, not an error.
    """

    _check_penalized_args(epsilon, sigma, d, m4, L)
    if not 0.0 < gamma0 < 1.0:
        raise InvalidParameterError(f"gamma0 must lie in (0, 1), got {gamma0}")
    with _within_float_range(epsilon):
        levels = max(
            math.ceil(math.log2(0.5 * sigma * sigma * d * math.sqrt(m4) * epsilon**-3)), 1
        )
        cost = (
            (1.0 / 3.0)
            * math.log(1.0 / gamma0)
            * m4**1.5
            * L * L
            * sigma * sigma
            * d
            * epsilon**-5
            * levels**3
        )
    return cost


def _check_penalized_args(epsilon, sigma, d, m4, L):
    _check_positive("epsilon", epsilon)
    _check_positive("sigma", sigma)
    _check_dimension(d)
    _check_positive("m4", m4)
    _check_positive("L", L)


def _check_weak_args(epsilon, delta, gamma0, constants):
    _check_positive("epsilon", epsilon)
    _check_delta(delta)
    _check_positive("gamma0", gamma0)
    _check_admissible("gamma0", gamma0, constants.gamma_star)


def calibrate_weak_i(
    epsilon: float,
    profile: ConvexityProfile,
    constants: RegimeConstants,
    delta: float,
    gamma0: float,
) -> LevelSchedule:
    """Level schedule of the direct route, variant tuned for few assumptions.

    Uses horizon decay exponent rho = 1/2:

        J = ceil(log2( L / min(c^{2/(1-delta)}, c) * Psi^{1+(3+delta) r}
                       * gamma0 * epsilon^-2 )),  at least 1,
        T_0 = max(c^{-3/4}, c^{-5/2-delta}) * Psi^{3/2+(9/2+delta) r}
              * epsilon^-2,
        T_j = T_0 * 2^{-j/2},

    with c the curvature envelope constant and Psi the moment scale.
    """

    _require_parametric(profile)
    _check_weak_args(epsilon, delta, gamma0, constants)
    L, c_lo, r = profile.L, profile.c_lower, profile.r
    psi = constants.psi_bar

    with _within_float_range(epsilon):
        inner = (
            L
            / min(c_lo ** (2.0 / (1.0 - delta)), c_lo)
            * psi ** (1.0 + (3.0 + delta) * r)
            * gamma0
            / (epsilon * epsilon)
        )
        J = max(1, math.ceil(math.log2(inner)))
        T0 = (
            max(c_lo ** -0.75, c_lo ** (-2.5 - delta))
            * psi ** (1.5 + (4.5 + delta) * r)
            / (epsilon * epsilon)
        )
        horizons = [T0 * 2.0 ** (-0.5 * j) for j in range(J + 1)]
        return build_schedule(gamma0, horizons, rho=0.5)


def calibrate_weak_ii(
    epsilon: float,
    profile: ConvexityProfile,
    constants: RegimeConstants,
    delta: float,
    gamma0: float,
    rho: float = 0.5,
) -> LevelSchedule:
    """Level schedule of the direct route, variant using both envelopes.

    rho in (0, 1) trades horizon decay against level count:

        J = ceil(log2( c^{-2/(1-delta)} L^3 Psi^{1+2r/(1-delta)}
                       * gamma0 * epsilon^-1 )),  at least 1,
        T_0 = L^{rho/2} max(c^{-min(5/4-rho, 3 rho)+delta}, c^{-5/2-delta})
              * Psi^{1+(4-2 rho+delta) r} * epsilon^-2,
        T_j = T_0 * 2^{-(1-rho) j}.
    """

    _require_parametric(profile)
    _check_weak_args(epsilon, delta, gamma0, constants)
    _check_open_rho(rho)
    L, c_lo, r = profile.L, profile.c_lower, profile.r
    psi = constants.psi_bar

    with _within_float_range(epsilon):
        inner = (
            c_lo ** (-2.0 / (1.0 - delta))
            * L**3
            * psi ** (1.0 + 2.0 * r / (1.0 - delta))
            * gamma0
            / epsilon
        )
        J = max(1, math.ceil(math.log2(inner)))
        T0 = (
            L ** (0.5 * rho)
            * max(c_lo ** (-min(1.25 - rho, 3.0 * rho) + delta), c_lo ** (-2.5 - delta))
            * psi ** (1.0 + (4.0 - 2.0 * rho + delta) * r)
            / (epsilon * epsilon)
        )
        horizons = [T0 * 2.0 ** (-(1.0 - rho) * j) for j in range(J + 1)]
        return build_schedule(gamma0, horizons, rho=rho)


def complexity_bound_weak(
    variant: str,
    epsilon: float,
    profile: ConvexityProfile,
    constants: RegimeConstants,
    delta: float,
    rho: float = 0.5,
    gamma0: Optional[float] = None,
) -> float:
    """Predicted gradient-evaluation budget of the direct route."""

    _require_parametric(profile)
    _check_positive("epsilon", epsilon)
    _check_delta(delta)
    L, c_lo, r = profile.L, profile.c_lower, profile.r
    psi = constants.psi_bar
    if variant == "i":
        with _within_float_range(epsilon):
            return (
                math.sqrt(L)
                * min(c_lo**-1.25, c_lo ** (-3.5 - delta))
                * psi ** (1.5 + (4.5 + delta) * r)
                * epsilon**-3
            )
    if variant == "ii":
        _check_open_rho(rho)
        if gamma0 is None:
            raise InvalidParameterError("variant ii requires gamma0")
        _check_positive("gamma0", gamma0)
        with _within_float_range(epsilon):
            return (
                gamma0**-rho
                * L ** (2.0 * rho)
                * max(c_lo ** (min(1.25, 2.0 * rho) + delta), c_lo ** (-2.5 - delta))
                * psi ** (1.0 + 0.5 * rho + (4.0 - rho + delta) * r)
                * epsilon ** (-2.0 - rho)
            )
    raise InvalidParameterError(f"variant must be 'i' or 'ii', got {variant!r}")


@dataclass(frozen=True)
class BiasBounds:
    """Bias bounds on the penalized target: KL divergence and 1-Wasserstein."""

    kl: float
    w1: float


def penalization_bias_bounds(alpha: float, m4: float) -> BiasBounds:
    """Bias of replacing the target by its ridge-penalized version.

    KL(pi_alpha | pi) <= alpha^2 m4 / 8 and
    W1(pi, pi_alpha) <= alpha sqrt(m4) / (2 sqrt(2)); alpha = 0 means no
    penalization and no bias.
    """

    _check_nonnegative("alpha", alpha)
    _check_positive("m4", m4)
    return BiasBounds(
        kl=alpha * alpha * m4 / 8.0,
        w1=alpha * math.sqrt(m4) / (2.0 * math.sqrt(2.0)),
    )


def decreasing_penalization_gap(
    alpha: float, alpha_tilde: float, d: int, sigma: float, t: float, xy_dist2: float
) -> float:
    """Mean-square gap bound between chains run at ridges alpha > alpha_tilde.

    exp(-2 alpha t) * xy_dist2 + (alpha - alpha_tilde) d sigma^2 / alpha_tilde.
    """

    _check_positive("alpha", alpha)
    _check_positive("alpha_tilde", alpha_tilde)
    if not alpha > alpha_tilde:
        raise InvalidParameterError(
            f"need alpha > alpha_tilde > 0, got alpha={alpha}, alpha_tilde={alpha_tilde}"
        )
    _check_nonnegative("t", t)
    _check_nonnegative("xy_dist2", xy_dist2)
    _check_dimension(d)
    _check_nonnegative("sigma", sigma)
    return (
        math.exp(-2.0 * alpha * t) * xy_dist2
        + (alpha - alpha_tilde) * d * sigma * sigma / alpha_tilde
    )
