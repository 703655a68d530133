"""Reference oracles and empirical verification experiments.

Ground truth for tests comes from three sources, in order of preference:
closed-form Gaussian moments for quadratic potentials (with or without a
ridge), adaptive quadrature of the unnormalized density for one-dimensional
or radially reducible cases, and 32 long independent chains with a standard
error over those lanes when neither applies.  Every Monte Carlo quantity here
carries a standard error and comparisons are made at stated multiples of it.

Bounds proven for the continuous-time process are probed through fine-step
Euler proxies; SLACK_FRACTION is the slack multiplier those probes add.

The adaptive quadrature is QUADPACK's QAGS, transcribed bit for bit in
quadpack.py.  _quad imports it on first use: closed-form references,
calibration and the simulation never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import engine
from .calibration import (
    LevelSchedule,
    _check_step_size,
    decreasing_penalization_gap,
    grid_count_up,
    regime_constants,
    step_bound,
)
from .errors import (
    InvalidParameterError,
    NumericalOverflowError,
    OracleFailureError,
)
from .estimator import STREAM_LEVEL_SPAN, BatchResult, run_replicates, stream_id_for
from .observables import OBS_COORD, OBS_NORM, OBS_NORM2, OBS_NORM4, obs_code
from .potentials import (
    FAMILY_QUADRATIC, PotentialModel, _as_point, _check_positive, _sum_sq, penalize,
)

__all__ = [
    "SLACK_FRACTION",
    "MSE_CSV_HEADER",
    "ReferenceValue",
    "MseReport",
    "StrongErrorCurve",
    "ConfluenceCurve",
    "EnvelopeTrace",
    "LevelVarianceProfile",
    "PenalizationProbe",
    "reference_moment",
    "reference_for",
    "fourth_moment_reference",
    "w1_distance_1d",
    "long_run_reference",
    "run_mse_experiment",
    "strong_error_curve",
    "confluence_curve",
    "moment_envelope_check",
    "level_variance_profile",
    "decreasing_penalization_probe",
    "mse_csv_row",
]

SLACK_FRACTION = 0.25
"""Slack multiplier for continuous-time bounds probed with Euler proxies."""

_TRUNCATION = 1e-16
_QUAD_EPSREL = 1e-10  # relative tolerance of every quadrature oracle
_W1_REL_TOL = 1e-8  # w1_distance_1d stops doubling its grid at this relative change
_ORACLE_LANES = 32  # independent chains of the long-run oracle
_MAX_FAILED_FRACTION = 0.01

MSE_CSV_HEADER = (
    "method,potential,dim,sigma,epsilon,J,gamma0,T0,tau,R,seed,"
    "mean,bias,variance,rmse,mean_cost"
)


@dataclass(frozen=True)
class ReferenceValue:
    """A ground-truth expectation with its error bound.

    method is one of closed_form, quadrature_1d, long_run_oracle.  For the
    long-run oracle error_estimate is one standard error over 32 independent
    lanes, a statistical figure rather than a hard bound.
    """

    value: float
    method: str
    error_estimate: float

    def __post_init__(self):
        if self.method not in ("closed_form", "quadrature_1d", "long_run_oracle"):
            raise InvalidParameterError(f"unknown reference method {self.method!r}")
        if not (math.isfinite(self.error_estimate) and self.error_estimate >= 0.0):
            raise InvalidParameterError("error_estimate must be finite and nonnegative")


@dataclass(frozen=True)
class MseReport:
    """Bias-variance summary of replicated estimator runs.

    variance is the sample variance (ddof 1) over successful replicates and
    rmse the root mean squared error against the reference, so
    rmse^2 = bias^2 + variance * (R - 1) / R holds up to float roundoff.
    """

    replicates: int
    mean: float
    variance: float
    bias: float
    rmse: float
    mean_cost: float
    n_failed: int = 0

    def decomposition_residual(self) -> float:
        """Relative gap between rmse^2 and its bias-variance decomposition."""
        r = self.replicates
        lhs = self.rmse**2
        rhs = self.bias**2 + self.variance * (r - 1) / r
        return abs(lhs - rhs) / max(1e-300, abs(lhs), abs(rhs))


def mse_csv_row(
    method: str,
    potential: str,
    dim: int,
    sigma: float,
    epsilon: float,
    schedule: LevelSchedule,
    report: MseReport,
    seed: int,
) -> str:
    """One CSV row matching MSE_CSV_HEADER, full float precision."""
    cells = [
        method,
        potential,
        str(dim),
        repr(float(sigma)),
        repr(float(epsilon)),
        str(schedule.J),
        repr(float(schedule.gamma[0])),
        repr(float(schedule.T[0])),
        repr(float(schedule.tau)),
        str(report.replicates),
        str(seed),
        repr(float(report.mean)),
        repr(float(report.bias)),
        repr(float(report.variance)),
        repr(float(report.rmse)),
        repr(float(report.mean_cost)),
    ]
    return ",".join(cells)


def _scalar_observable(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt f to map a 1-D array of scalars to an array of values."""
    batched = engine._batched_observable(f, 1)
    return lambda xs: batched(np.asarray(xs, dtype=float)[:, None])


def _weight(model: PotentialModel, sigma: float) -> Callable:
    """Unnormalized Gibbs density along the first axis, as a map r -> w(r).

    w(r) = r^(d - 1) exp(-2 (U(r e_1) - U(x*)) / sigma^2) with x* the
    minimizer: the density of X itself when d = 1, of |X| when the model
    is radially symmetric about x* = 0, r^(d - 1) being the polar Jacobian.
    """
    d = model.dim
    u0 = float(model.value(model.minimizer[None, :])[0])
    inv = 2.0 / (sigma * sigma)

    def w(rs: np.ndarray) -> np.ndarray:
        rs = np.asarray(rs, dtype=float)
        pts = np.zeros((rs.size, d))
        pts[:, 0] = rs
        return rs ** (d - 1) * np.exp(-inv * (model.value(pts) - u0))

    return w


def _bracket(g: Callable, center: float, one_sided: bool = False) -> Tuple[float, float]:
    """Interval outside which |g| falls below _TRUNCATION of its peak."""
    h = 1.0
    for _ in range(80):
        lo = 0.0 if one_sided else center - h
        hi = (center + h) if not one_sided else h
        xs = np.linspace(lo, hi, 4097)
        vals = np.abs(np.asarray(g(xs), dtype=float))
        peak = vals.max()
        if not np.isfinite(peak) or peak <= 0.0:
            raise OracleFailureError("integrand peak is zero or non-finite")
        thresh = _TRUNCATION * peak
        tails_ok = vals[-1] <= thresh and (one_sided or vals[0] <= thresh)
        if tails_ok:
            idx = np.flatnonzero(vals > thresh)
            a = xs[max(idx[0] - 1, 0)]
            b = xs[min(idx[-1] + 1, xs.size - 1)]
            return (0.0 if one_sided else a), b
        h *= 2.0
    raise OracleFailureError("could not truncate the integration domain")


def _quad(g: Callable, a: float, b: float) -> Tuple[float, float]:
    from .quadpack import MESSAGES, qags

    # absolute floor keeps integrals of odd functions (true value 0)
    # convergent, where a pure relative tolerance can never be met; the
    # bounds may be numpy scalars, and QAGS must see Python floats
    val, err, ier = qags(g, float(a), float(b), 0.01 * _QUAD_EPSREL, _QUAD_EPSREL, 500)
    if ier != 0:
        raise OracleFailureError(f"quadrature did not converge: {MESSAGES[ier]} (ier={ier})")
    if not (math.isfinite(val) and math.isfinite(err)):
        raise OracleFailureError("quadrature returned a non-finite value")
    return val, err


def _quadrature_ratio(
    model: PotentialModel,
    sigma: float,
    f: Callable,
    f_at: Callable,
    radial: bool = False,
) -> ReferenceValue:
    """The mean of f under _weight, quad(f w) / quad(w), with its error bound.

    f maps an array of abscissae to values, f_at one float abscissa to a
    value; f_at is passed apart because numpy's array power need not round
    like Python's float power, and the numerator keeps its caller's
    arithmetic.  The domain, from 0 when radial, is truncated where (1 + |f|) w
    falls below _TRUNCATION of its peak; the error estimate propagates both
    quadrature error bounds through the ratio.
    """
    w = _weight(model, sigma)
    a, b = _bracket(
        lambda xs: (1.0 + np.abs(f(xs))) * w(xs), float(model.minimizer[0]), radial
    )
    num, err_n = _quad(lambda x: float(f_at(x) * w([x])[0]), a, b)
    den, err_d = _quad(lambda x: float(w([x])[0]), a, b)
    if den <= 0.0:
        raise OracleFailureError("density normalizer integrated to a nonpositive value")
    value = num / den
    err = (err_n + abs(value) * err_d) / den
    return ReferenceValue(value=value, method="quadrature_1d", error_estimate=err)


def reference_moment(model: PotentialModel, sigma: float, f: Callable) -> ReferenceValue:
    """Stationary expectation of f for a one-dimensional model by quadrature.

    Integrates f(x) exp(-2 U(x) / sigma^2) against the matching normalizer
    over a domain truncated where (1 + |f|) times the density falls below
    1e-16 of its peak.  The error estimate propagates both quadrature error
    bounds through the ratio.
    """

    if model.dim != 1:
        raise InvalidParameterError("reference_moment needs a one-dimensional model")
    _check_positive("sigma", sigma)
    fv = _scalar_observable(f)
    return _quadrature_ratio(model, sigma, fv, lambda x: fv([x])[0])


def _radial_moment(model: PotentialModel, sigma: float, power: int) -> ReferenceValue:
    """E |X|^power for a radially symmetric model via a radial integral."""
    return _quadrature_ratio(
        model, sigma, lambda rs: rs**power, lambda r: r**power, radial=True
    )


def _gaussian_params(model: PotentialModel, sigma: float):
    cf = model.closed_form
    if cf is None or cf.family != FAMILY_QUADRATIC:
        return None
    s_eff = cf.a + cf.ridge
    mean = cf.a * cf.center / s_eff
    return mean, sigma * sigma / (2.0 * s_eff)


def reference_for(
    model: PotentialModel, f: Callable, sigma: float, seed: int = 0
) -> ReferenceValue:
    """Best available ground truth for the stationary expectation of f.

    Quadratic potentials with recognized observables use closed-form
    Gaussian moments; one-dimensional or radially symmetric cases fall to
    quadrature; anything else runs the long-chain oracle under seed.
    """

    _check_positive("sigma", sigma)
    code = obs_code(f)
    d = model.dim
    g = _gaussian_params(model, sigma)
    if g is not None and code is not None:
        mean, v = g
        kind, k = code
        m2 = float(np.dot(mean, mean))
        if kind == OBS_COORD:
            return ReferenceValue(float(mean[k]), "closed_form", 0.0)
        if kind == OBS_NORM2:
            return ReferenceValue(m2 + d * v, "closed_form", 0.0)
        if kind == OBS_NORM4:
            value = (m2 + d * v) ** 2 + 4.0 * v * m2 + 2.0 * d * v * v
            return ReferenceValue(value, "closed_form", 0.0)
    if d == 1:
        return reference_moment(model, sigma, f)
    cf = model.closed_form
    centered = cf is not None and not np.any(cf.center)
    if centered and code is not None:
        kind, _ = code
        if kind == OBS_COORD:
            return ReferenceValue(0.0, "closed_form", 0.0)
        powers = {OBS_NORM: 1, OBS_NORM2: 2, OBS_NORM4: 4}
        if kind in powers:
            return _radial_moment(model, sigma, powers[kind])
    return long_run_reference(model, f, sigma, seed)


def fourth_moment_reference(
    model: PotentialModel, sigma: float, seed: int = 0
) -> ReferenceValue:
    """E |X|^4 under the stationary law; feeds ridge calibration."""
    from .observables import fourth_norm

    return reference_for(model, fourth_norm, sigma, seed)


def long_run_reference(
    model: PotentialModel, f: Callable, sigma: float, seed: int
) -> ReferenceValue:
    """32 independent chains in one driver call.  Statistical oracle.

    Each lane starts at the minimizer and steps at a sixty-fourth of the
    admissible step for 1e5 times that bound.  It burns in for a tenth of the
    horizon and averages f over a 32nd of the rest.  value and error_estimate
    are the mean and the standard error of the 32 lane means.  Lane k reads
    stream_id_for(k, STREAM_LEVEL_SPAN - 1) under seed.
    """

    _check_positive("sigma", sigma)
    bound = step_bound(model.profile)
    gamma = bound / 64.0
    n_total = grid_count_up(1e5 * bound, gamma)
    n_burn = n_total // 10
    n_keep = (n_total - n_burn) // _ORACLE_LANES
    if n_keep < 2:
        raise OracleFailureError("long-run oracle horizon too short to batch")

    # no run reads this level: LevelSchedule's gamma0 * 2**-j > 0 keeps J < 2100
    ids = [stream_id_for(k, STREAM_LEVEL_SPAN - 1) for k in range(_ORACLE_LANES)]
    acc, ok, _ = engine.occupation_sums(
        model, f, model.minimizer, gamma, sigma, n_burn + n_keep, n_burn,
        engine.make_streams(seed, ids, model.dim),
    )
    if not ok.all():
        raise OracleFailureError("long-run oracle chain diverged")
    means = acc / n_keep
    value = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(_ORACLE_LANES))
    return ReferenceValue(value=value, method="long_run_oracle", error_estimate=se)


def w1_distance_1d(model_a: PotentialModel, model_b: PotentialModel, sigma: float) -> float:
    """1-Wasserstein distance between two one-dimensional Gibbs laws.

    Integrates |F_A - F_B| over a shared truncated domain with both CDFs
    from normalized trapezoid integration, doubling the grid until the
    value changes by at most _W1_REL_TOL of max(1, value).
    """

    if model_a.dim != 1 or model_b.dim != 1:
        raise InvalidParameterError("w1_distance_1d needs one-dimensional models")
    _check_positive("sigma", sigma)
    wa = _weight(model_a, sigma)
    wb = _weight(model_b, sigma)
    a1, b1 = _bracket(wa, float(model_a.minimizer[0]))
    a2, b2 = _bracket(wb, float(model_b.minimizer[0]))
    lo, hi = min(a1, a2), max(b1, b2)

    prev = None
    n = 1 << 12
    while n <= (1 << 22):
        xs = np.linspace(lo, hi, n + 1)
        fa = _normalized_cdf(wa, xs)
        fb = _normalized_cdf(wb, xs)
        w1 = float(np.trapezoid(np.abs(fa - fb), xs))
        if prev is not None and abs(w1 - prev) <= _W1_REL_TOL * max(1.0, abs(w1)):
            return w1
        prev = w1
        n *= 2
    raise OracleFailureError("Wasserstein grid integration did not stabilize")


def _normalized_cdf(w: Callable, xs: np.ndarray) -> np.ndarray:
    dens = np.asarray(w(xs), dtype=float)
    # cumulative trapezoid, each area rounded as (width * (right + left)) / 2
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(xs) * (dens[1:] + dens[:-1]) / 2.0)))
    total = cdf[-1]
    if not (math.isfinite(total) and total > 0.0):
        raise OracleFailureError("density normalizer is nonpositive on the grid")
    return cdf / total


def _surviving_lanes(batch: BatchResult, what: str) -> np.ndarray:
    """Mask of the replicates that stayed finite; over 1% failed aborts."""
    ok = batch.ok
    n_failed = int(ok.size - ok.sum())
    if n_failed > _MAX_FAILED_FRACTION * ok.size:
        raise NumericalOverflowError(
            f"{n_failed} of {ok.size} replicates overflowed; aborting the {what}"
        )
    return ok


def run_mse_experiment(
    model: PotentialModel,
    f: Callable,
    schedule: LevelSchedule,
    sigma: float,
    reference: ReferenceValue,
    R: int,
    seed: int,
) -> MseReport:
    """R replicated estimator runs, ids range(R), summarized against a
    reference value.

    Lanes whose paths overflow are dropped from the summary; more than 1%
    of them failing aborts the experiment.
    """

    if R < 2:
        raise InvalidParameterError(f"need at least 2 replicates, got {R}")
    batch = run_replicates(model, f, schedule, sigma, model.minimizer, seed, range(R))
    values = batch.values[_surviving_lanes(batch, "experiment")]
    n_ok = values.size
    mean = float(np.mean(values))
    variance = float(np.var(values, ddof=1)) if n_ok > 1 else 0.0
    bias = mean - reference.value
    rmse = float(np.sqrt(np.mean((values - reference.value) ** 2)))
    return MseReport(
        replicates=n_ok,
        mean=mean,
        variance=variance,
        bias=bias,
        rmse=rmse,
        mean_cost=float(batch.gradient_evals),
        n_failed=R - n_ok,
    )


def _probe_steps(
    model: PotentialModel,
    sigma: float,
    gamma: float,
    horizon: float,
    R: int,
    min_lanes: int = 2,
) -> int:
    """Check a probe's lane count, sigma, step and horizon; return its steps.

    The horizon is rounded up to the step grid.
    """
    if R < min_lanes:
        raise InvalidParameterError(f"need at least {min_lanes} lanes, got {R}")
    _check_positive("sigma", sigma)
    _check_step_size(model, gamma)
    return grid_count_up(horizon, gamma)


def _probe_series(series: np.ndarray, gamma: float, what: str):
    """Times k * gamma and float values of a probe series, which must be finite."""
    if not np.all(np.isfinite(series)):
        raise NumericalOverflowError(f"{what} overflowed")
    return tuple(k * gamma for k in range(len(series))), tuple(float(v) for v in series)


@dataclass(frozen=True)
class StrongErrorCurve:
    """Terminal fine-coarse gap per step size, with log-log fits.

    mean_square_gaps holds the empirical E|fine - coarse|^2 values.  slope
    is the least-squares slope of the log root-mean-square gap against log
    gamma, the convention under which first-order strong convergence reads
    as slope 1; mean_square_slope is the fit on the squared gaps and equals
    twice that.
    """

    gammas: Tuple[float, ...]
    mean_square_gaps: Tuple[float, ...]
    standard_errors: Tuple[float, ...]
    slope: float
    mean_square_slope: float


def strong_error_curve(
    model: PotentialModel,
    sigma: float,
    x0,
    gammas: Sequence[float],
    horizon: float,
    R: int,
    seed: int,
) -> StrongErrorCurve:
    """Coupled-pair discretization error against the step size.

    For each gamma, runs R synchronously coupled (gamma, gamma/2) pairs to
    the horizon and records the empirical mean of |fine - coarse|^2 at the
    terminal time, plus the least-squares slopes of the gap (root mean
    square, and squared) against the step size on log-log axes.
    """

    if len(gammas) < 2:
        raise InvalidParameterError("need at least two step sizes for a slope")
    from .observables import squared_norm

    msds, ses = [], []
    for i, gamma in enumerate(gammas):
        n = _probe_steps(model, sigma, gamma, horizon, R)
        streams = engine.make_streams(
            seed, [stream_id_for(i, lane) for lane in range(R)], model.dim
        )
        # only the terminal positions are used, so a burn of n - 1 skips
        # summing the observable at every step but the last
        _, ok, posf, posc = engine.coupled_diff_sums(
            model, squared_norm, x0, gamma, sigma, n, n - 1, streams
        )
        if not np.all(ok):
            raise NumericalOverflowError(
                f"coupled pair overflowed at step size {gamma}"
            )
        gap2 = _sum_sq(posf - posc)
        msds.append(float(np.mean(gap2)))
        ses.append(float(np.std(gap2, ddof=1) / math.sqrt(R)))
    logs_g = np.log(np.asarray(gammas, dtype=float))
    logs_m = np.log(np.asarray(msds))
    ms_slope = float(np.polyfit(logs_g, logs_m, 1)[0])
    rms_slope = float(np.polyfit(logs_g, 0.5 * logs_m, 1)[0])
    return StrongErrorCurve(
        gammas=tuple(float(g) for g in gammas),
        mean_square_gaps=tuple(msds),
        standard_errors=tuple(ses),
        slope=rms_slope,
        mean_square_slope=ms_slope,
    )


@dataclass(frozen=True)
class ConfluenceCurve:
    """Mean squared distance between shared-noise chains over time."""

    times: Tuple[float, ...]
    mean_square_distances: Tuple[float, ...]

    @property
    def terminal(self) -> float:
        return self.mean_square_distances[-1]


def confluence_curve(
    model: PotentialModel,
    sigma: float,
    x,
    y,
    gamma: float,
    horizon: float,
    R: int,
    seed: int,
) -> ConfluenceCurve:
    """Track E|X^x_t - X^y_t|^2 for chains sharing their noise."""

    n = _probe_steps(model, sigma, gamma, horizon, R, min_lanes=1)
    x, y = _as_point(x, model.dim, "x"), _as_point(y, model.dim, "y")
    streams = engine.make_streams(seed, list(range(R)), model.dim)
    series, _, _ = engine.pair_distance_series(
        model, model, x, y, gamma, sigma, n, streams
    )
    times, values = _probe_series(series, gamma, "shared-noise pair")
    return ConfluenceCurve(times=times, mean_square_distances=values)


@dataclass(frozen=True)
class EnvelopeTrace:
    """Outcome of a running-moment envelope check."""

    passed: bool
    max_ratio: float
    envelope: float
    times: Tuple[float, ...]
    series: Tuple[float, ...]


def moment_envelope_check(
    model: PotentialModel,
    sigma: float,
    x0,
    gamma: float,
    p: float,
    horizon: float,
    R: int,
    seed: int,
    c_margin: float,
) -> EnvelopeTrace:
    """Check sup_n E[U^p(X_n)] <= c_margin (U(x0) + psi)^p along the chain.

    psi is the stationary moment scale of the parametric profile.  The
    trace records the worst ratio of the running empirical mean to the
    envelope.
    """

    if p < 0.0:
        raise InvalidParameterError(f"moment power must be nonnegative, got {p}")
    if c_margin <= 0.0:
        raise InvalidParameterError(f"c_margin must be positive, got {c_margin}")
    n = _probe_steps(model, sigma, gamma, horizon, R)
    psi = regime_constants(model.profile, model.dim, sigma).psi_bar
    x0 = _as_point(x0, model.dim, "x0")
    u0 = float(model.value(x0[None, :])[0])
    envelope = c_margin * (u0 + psi) ** p
    streams = engine.make_streams(seed, list(range(R)), model.dim)
    series = engine.value_power_series(model, x0, gamma, sigma, n, p, streams)
    times, values = _probe_series(series, gamma, "moment chain")
    max_val = max(values)
    return EnvelopeTrace(
        passed=max_val <= envelope,
        max_ratio=max_val / envelope,
        envelope=envelope,
        times=times,
        series=values,
    )


@dataclass(frozen=True)
class LevelVarianceProfile:
    """Per-level variances and cross-level correlations of the estimator."""

    levels: Tuple[Tuple[int, float, float, float], ...]
    correlations: np.ndarray
    replicates: int

    @property
    def variances(self) -> Tuple[float, ...]:
        return tuple(row[1] for row in self.levels)

    def max_cross_correlation(self) -> float:
        c = np.abs(np.asarray(self.correlations).copy())
        np.fill_diagonal(c, 0.0)
        return float(c.max()) if c.size else 0.0


def level_variance_profile(
    model: PotentialModel,
    f: Callable,
    schedule: LevelSchedule,
    sigma: float,
    x0,
    R: int,
    seed: int,
) -> LevelVarianceProfile:
    """Sample variances of each level's value across R replicates.

    Also reports the cross-level correlation matrix; levels with zero
    variance get zero correlation by convention.
    """

    if R < 100:
        raise InvalidParameterError(f"need at least 100 replicates, got {R}")
    batch = run_replicates(model, f, schedule, sigma, x0, seed, list(range(R)))
    ok = _surviving_lanes(batch, "profile")
    lv = batch.level_values[ok]
    variances = np.var(lv, axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(lv.T)
    corr = np.atleast_2d(np.nan_to_num(corr, nan=0.0))
    levels = tuple(
        (j, float(variances[j]), schedule.T[j], schedule.gamma[j])
        for j in range(schedule.J + 1)
    )
    return LevelVarianceProfile(
        levels=levels,
        correlations=corr,
        replicates=int(ok.sum()),
    )


@dataclass(frozen=True)
class PenalizationProbe:
    """Empirical gap between chains at two ridge strengths, with its bound."""

    gap: float
    bound: float
    times: Tuple[float, ...]
    series: Tuple[float, ...]


def decreasing_penalization_probe(
    model: PotentialModel,
    alpha: float,
    alpha_tilde: float,
    sigma: float,
    x,
    y,
    gamma: float,
    horizon: float,
    R: int,
    seed: int,
) -> PenalizationProbe:
    """Shared-noise chains under ridges alpha > alpha_tilde, gap vs bound.

    The analytic bound exp(-2 alpha t) |x - y|^2 + (alpha - alpha_tilde)
    d sigma^2 / alpha_tilde holds for the continuous dynamics; run with a
    small step and compare with SLACK_FRACTION slack.
    """

    n = _probe_steps(model, sigma, gamma, horizon, R)
    x, y = _as_point(x, model.dim, "x"), _as_point(y, model.dim, "y")
    dist0 = float(_sum_sq(x - y))
    t_end = n * gamma
    bound = decreasing_penalization_gap(
        alpha, alpha_tilde, model.dim, sigma, t_end, dist0
    )
    streams = engine.make_streams(seed, list(range(R)), model.dim)
    series, _, _ = engine.pair_distance_series(
        penalize(model, alpha), penalize(model, alpha_tilde),
        x, y, gamma, sigma, n, streams,
    )
    times, values = _probe_series(series, gamma, "penalized pair")
    return PenalizationProbe(gap=values[-1], bound=float(bound), times=times, series=values)
