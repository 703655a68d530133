"""Command-line front end: calibrate, run, sweep, diag.

Configuration is strict JSON; unknown fields are rejected so typos cannot
silently change an experiment.  All randomness flows from the single config
seed (the MLGIBBS_SEED environment variable overrides it), and output is
deterministic byte for byte.

Exit codes: 0 success, 1 failed diagnostic or overflow, 2 invalid config,
3 infeasible calibration (a failed minimizer search included) or a run over
its gradient-evaluation budget, 4 accuracy assertion failed, 5 reference
oracle failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import diag_suites
from .calibration import (
    LevelSchedule,
    PenalizedPlan,
    _check_admissible,
    _check_delta,
    _check_open_rho,
    _require_parametric,
    build_schedule,
    calibrate_penalized,
    calibrate_single_level,
    calibrate_weak_i,
    calibrate_weak_ii,
    complexity_bound_weak,
    regime_constants,
    step_bound,
)
from .diagnostics import (
    MSE_CSV_HEADER,
    fourth_moment_reference,
    mse_csv_row,
    reference_for,
    run_mse_experiment,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleCalibrationError,
    InvalidParameterError,
    NumericalOverflowError,
    OracleFailureError,
)
from .estimator import cost_of
from .observables import _ascii_int, parse_observable
from .potentials import (
    _PARAMETRIC,
    PotentialModel,
    _check_nonnegative,
    _check_positive,
    make_power,
    make_quadratic,
    penalize,
)

__all__ = ["ExperimentConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_EPS_ASSERT = 4
EXIT_ORACLE = 5

# gradient evaluations that run and sweep start without --max-grad-evals
MAX_GRAD_EVALS = 10**10

_METHODS = ("penalized", "weak_i", "weak_ii", "single_level")
_TOP_FIELDS = {
    "potential", "sigma", "epsilon", "epsilons", "method", "delta", "rho",
    "c_r", "tau", "gamma0", "statement_mode", "f", "replicates", "seed",
    "safety_T_multiplier",
}
_POTENTIAL_FIELDS = {"name", "dim", "p", "scale", "center", "penalty_alpha"}
# methods that read each method-specific field; any other method rejects it
_READ_BY = {
    "gamma0": ("weak_i", "weak_ii", "single_level"),
    "statement_mode": ("penalized",),
    "delta": ("weak_i", "weak_ii"),
    "rho": ("weak_ii",),
    "c_r": ("weak_i", "weak_ii"),
}
# potential families that read each family-specific field; the other rejects it
_READ_BY_FAMILY = {
    "p": ("power",),
    "scale": ("quadratic",),
    "center": ("quadratic",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description, its target model built once."""

    family: str
    target: PotentialModel
    sigma: float
    epsilon: Optional[float]
    epsilons: Optional[Tuple[float, ...]]
    method: str
    delta: float
    rho: float
    c_r: float
    tau: float
    gamma0: Optional[float]
    statement_mode: bool
    f: Callable
    replicates: int
    seed: int
    safety_T_multiplier: float


def _need(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"missing required config field {key!r}", field=key)
    return raw[key]


def _checked(field: str, check: Callable, *args, **kwargs):
    """check(*args, **kwargs), with its InvalidParameterError reported against field."""
    try:
        return check(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), field=field) from None


def _real(value, key: str) -> float:
    """A JSON number as a float; true, false, strings and null are no numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {key!r} must be a number", field=key)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf


def _positive_real(value, key: str) -> float:
    value = _real(value, key)
    _checked(key, _check_positive, key, value)
    return value


def _int_at_least(value, key: str, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {key!r} must be an integer", field=key)
    if value < least:
        raise ConfigError(f"config field {key!r} must be at least {least}", field=key)
    return value


def _seed_from_env(seed: int) -> int:
    """The MLGIBBS_SEED environment variable if set, else seed."""
    env_seed = os.environ.get("MLGIBBS_SEED")
    if env_seed is None:
        return seed
    seed = _ascii_int(env_seed)
    if seed is None or seed >= 2**64:
        raise ConfigError(
            f"MLGIBBS_SEED must be an integer in [0, 2^64) in ASCII digits, got {env_seed!r}",
            field="seed",
        )
    return seed


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for key in raw:
        if key not in _TOP_FIELDS:
            raise ConfigError(f"unknown config field {key!r}", field=key)

    pot = _need(raw, "potential")
    if not isinstance(pot, dict):
        raise ConfigError("config field 'potential' must be an object", field="potential")
    for key in pot:
        if key not in _POTENTIAL_FIELDS:
            raise ConfigError(f"unknown config field 'potential.{key}'", field=f"potential.{key}")
    name = pot.get("name")
    if name not in ("quadratic", "power"):
        raise ConfigError(
            f"config field 'potential.name' must be 'quadratic' or 'power', got {name!r}",
            field="potential.name",
        )
    for key, families in _READ_BY_FAMILY.items():
        if key in pot and name not in families:
            raise ConfigError(
                f"config field 'potential.{key}' is not read by potential {name!r}",
                field=f"potential.{key}",
            )

    method = _need(raw, "method")
    if method not in _METHODS:
        raise ConfigError(
            f"config field 'method' must be one of {_METHODS}, got {method!r}",
            field="method",
        )
    for key, readers in _READ_BY.items():
        if key in raw and method not in readers:
            raise ConfigError(
                f"config field {key!r} is not read by method {method!r}", field=key
            )

    epsilons = None
    if "epsilons" in raw:
        eps_list = raw["epsilons"]
        if isinstance(eps_list, list):
            epsilons = tuple(_positive_real(e, "epsilons") for e in eps_list)
        if not isinstance(eps_list, list) or len(set(epsilons)) < max(3, len(epsilons)):
            raise ConfigError(
                "config field 'epsilons' must be a list of at least 3 distinct values",
                field="epsilons",
            )
    epsilon = None
    if "epsilon" in raw:
        epsilon = _positive_real(raw["epsilon"], "epsilon")
    if epsilon is None and epsilons is None:
        raise ConfigError("missing required config field 'epsilon'", field="epsilon")

    seed = _need(raw, "seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(
            "config field 'seed' must be an integer in [0, 2^64)", field="seed"
        )
    seed = _seed_from_env(seed)

    statement_mode = raw.get("statement_mode", False)
    if not isinstance(statement_mode, bool):
        raise ConfigError(
            "config field 'statement_mode' must be a boolean", field="statement_mode"
        )
    tau = _real(raw.get("tau", 0.0), "tau")
    _checked("tau", _check_nonnegative, "tau", tau)

    sigma = _positive_real(_need(raw, "sigma"), "sigma")
    # the invariant density exp(-2 U / sigma^2) needs a usable sigma^2
    _checked("sigma", _check_positive, "sigma^2", sigma * sigma)
    dim = _int_at_least(pot.get("dim", 1), "potential.dim", 1)
    try:
        np.empty(dim)  # numpy refuses a point it cannot describe or allocate
    except (MemoryError, ValueError) as exc:
        raise ConfigError(
            f"config field 'potential.dim' is too large: {exc}", field="potential.dim"
        ) from None

    if name == "quadratic":
        center = pot.get("center", 0.0)
        if isinstance(center, list):
            center = [_real(c, "potential.center") for c in center]
        else:
            center = _real(center, "potential.center")
        scale = _positive_real(pot.get("scale", 1.0), "potential.scale")
        target = _checked("potential.center", make_quadratic, dim, center, scale)
    else:
        if "p" not in pot:
            raise ConfigError("power potential requires 'potential.p'", field="potential.p")
        target = _checked("potential.p", make_power, dim, _real(pot["p"], "potential.p"))
    if "penalty_alpha" in pot:
        alpha = _positive_real(pot["penalty_alpha"], "potential.penalty_alpha")
        target = _checked("potential.penalty_alpha", penalize, target, alpha)

    # the ranges are calibration's; a default is always in range, and only a
    # method that reads a field may set it
    delta = _real(raw.get("delta", 0.25), "delta")
    _checked("delta", _check_delta, delta)
    rho = _real(raw.get("rho", 0.5), "rho")
    _checked("rho", _check_open_rho, rho)
    c_r = _positive_real(raw.get("c_r", 1.0), "c_r")
    if method in ("weak_i", "weak_ii"):
        _checked("method", _require_parametric, target.profile)
        # at the default c_r first, so an overflow sigma alone causes names sigma
        _checked("sigma", regime_constants, target.profile, dim, sigma)
        _checked("c_r", regime_constants, target.profile, dim, sigma, c_r)
    gamma0 = _positive_real(raw["gamma0"], "gamma0") if "gamma0" in raw else None
    if gamma0 is not None and target.profile.kind in _PARAMETRIC:
        _checked("gamma0", _check_admissible, "gamma0", gamma0, step_bound(target.profile))

    return ExperimentConfig(
        family=name,
        target=target,
        sigma=sigma,
        epsilon=epsilon,
        epsilons=epsilons,
        method=method,
        delta=delta,
        rho=rho,
        c_r=c_r,
        tau=tau,
        gamma0=gamma0,
        statement_mode=statement_mode,
        f=parse_observable(_need(raw, "f"), dim),
        replicates=_int_at_least(_need(raw, "replicates"), "replicates", 2),
        seed=seed,
        safety_T_multiplier=_positive_real(
            raw.get("safety_T_multiplier", 1.0), "safety_T_multiplier"
        ),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)


@dataclass(frozen=True)
class RunSetup:
    """Everything needed to execute one configuration at one accuracy."""

    sim_model: PotentialModel
    schedule: LevelSchedule
    plan: Optional[PenalizedPlan]
    predicted_cost: Optional[float]
    epsilon: float


def prepare_run(config: ExperimentConfig, epsilon: Optional[float] = None) -> RunSetup:
    """Calibrate the configured method at one accuracy target."""

    epsilon = epsilon if epsilon is not None else config.epsilon
    if epsilon is None:
        raise ConfigError("missing required config field 'epsilon'", field="epsilon")
    target = config.target
    sim_model = target
    plan = None
    predicted = None

    if config.method == "penalized":
        m4_ref = fourth_moment_reference(target, config.sigma, seed=config.seed)
        plan = calibrate_penalized(
            epsilon,
            config.sigma,
            target.dim,
            m4_ref.value,
            target.profile.L,
            statement_mode=config.statement_mode,
            m4_source=m4_ref.method,
        )
        sim_model = penalize(target, plan.alpha)
        schedule = plan.schedule
        predicted = plan.predicted_cost
    elif config.method in ("weak_i", "weak_ii"):
        constants = regime_constants(
            target.profile, target.dim, config.sigma, config.c_r
        )
        gamma0 = config.gamma0 if config.gamma0 is not None else constants.gamma_star
        if config.method == "weak_i":
            schedule = calibrate_weak_i(
                epsilon, target.profile, constants, config.delta, gamma0
            )
            predicted = complexity_bound_weak(
                "i", epsilon, target.profile, constants, config.delta
            )
        else:
            schedule = calibrate_weak_ii(
                epsilon, target.profile, constants, config.delta, gamma0,
                rho=config.rho,
            )
            predicted = complexity_bound_weak(
                "ii", epsilon, target.profile, constants, config.delta,
                rho=config.rho, gamma0=gamma0,
            )
    else:
        # baseline comparator: step bounded by the admissible range and the
        # accuracy
        bound = step_bound(target.profile)
        gamma0 = config.gamma0 if config.gamma0 is not None else min(bound, epsilon)
        schedule = calibrate_single_level(epsilon, config.sigma, target.dim, gamma0)

    schedule = build_schedule(
        schedule.gamma[0],
        [config.safety_T_multiplier * t for t in schedule.T],
        rho=schedule.rho,
    )
    # the horizons depend on epsilon, so tau is checked against them only here
    schedule = _checked("tau", replace, schedule, tau=config.tau)
    return RunSetup(
        sim_model=sim_model,
        schedule=schedule,
        plan=plan,
        predicted_cost=predicted,
        epsilon=epsilon,
    )


def _plan_json(config: ExperimentConfig, setup: RunSetup) -> str:
    payload = {
        "method": config.method,
        "potential": config.family,
        "dim": config.target.dim,
        "sigma": config.sigma,
        "epsilon": setup.epsilon,
    }
    if setup.plan is not None:
        payload.update(setup.plan.to_dict())
    payload.update(setup.schedule.to_dict())
    payload["cost_exact"] = cost_of(setup.schedule)
    if setup.predicted_cost is not None:
        payload["predicted_cost"] = setup.predicted_cost
    return json.dumps(payload, indent=2, sort_keys=True)


def _check_out(out_path: Optional[str]):
    """Refuse an --out path that cannot be written, before any work is done.

    The file itself is not opened, so an existing one keeps its bytes until
    the result is written.
    """

    if not out_path:
        return
    if os.path.isdir(out_path):
        reason = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(os.path.abspath(out_path))):
        reason = errno.ENOENT
    else:
        return
    raise ConfigError(f"cannot write {out_path!r}: {os.strerror(reason)}", field="out")


def _emit(text: str, out_path: Optional[str]):
    print(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc.strerror}", field="out") from None


def cmd_calibrate(config: ExperimentConfig, out_path: Optional[str] = None) -> int:
    setup = prepare_run(config)
    _emit(_plan_json(config, setup), out_path)
    return EXIT_OK


def run_ladder(
    config: ExperimentConfig,
    epsilons: Sequence[Optional[float]],
    max_grad_evals: int = MAX_GRAD_EVALS,
):
    """Calibrate every target of the ladder, refuse a ladder over budget,
    then run each target against one reference.  Returns the reports and
    the CSV text."""

    setups = [prepare_run(config, epsilon=eps) for eps in epsilons]
    # the exact gradient-evaluation count, checked before any oracle call
    total = sum(cost_of(setup.schedule) for setup in setups) * config.replicates
    if total > max_grad_evals:
        raise InfeasibleCalibrationError(
            f"the schedule needs {total} gradient evaluations over "
            f"{config.replicates} replicates, above the budget of {max_grad_evals}; "
            "raise it with --max-grad-evals"
        )
    reference = reference_for(config.target, config.f, config.sigma, seed=config.seed)
    reports = []
    rows = [MSE_CSV_HEADER]
    for setup in setups:
        report = run_mse_experiment(
            setup.sim_model,
            config.f,
            setup.schedule,
            config.sigma,
            reference,
            config.replicates,
            config.seed,
        )
        if report.n_failed:
            print(f"dropped {report.n_failed} of {config.replicates} replicate lanes: "
                  "non-finite path", file=sys.stderr)
        reports.append(report)
        rows.append(mse_csv_row(
            config.method,
            config.family,
            config.target.dim,
            config.sigma,
            setup.epsilon,
            setup.schedule,
            report,
            config.seed,
        ))
    return reports, "\n".join(rows)


def cmd_run(
    config: ExperimentConfig,
    out_path: Optional[str] = None,
    assert_eps: Optional[float] = None,
    max_grad_evals: int = MAX_GRAD_EVALS,
) -> int:
    (report,), text = run_ladder(config, [config.epsilon], max_grad_evals)
    _emit(text, out_path)
    if assert_eps is not None and report.rmse > config.epsilon * assert_eps:
        print(
            f"accuracy assertion failed: rmse {report.rmse} > "
            f"{config.epsilon} * {assert_eps}",
            file=sys.stderr,
        )
        return EXIT_EPS_ASSERT
    return EXIT_OK


def cmd_sweep(
    config: ExperimentConfig,
    out_path: Optional[str] = None,
    max_grad_evals: int = MAX_GRAD_EVALS,
) -> int:
    if config.epsilons is None:
        raise ConfigError(
            "sweep requires config field 'epsilons' (>= 3 values)", field="epsilons"
        )
    reports, text = run_ladder(config, config.epsilons, max_grad_evals)
    costs = [report.mean_cost for report in reports]
    slope = float(
        np.polyfit(np.log(np.asarray(config.epsilons)), np.log(np.asarray(costs)), 1)[0]
    )
    _emit(text + f"\n# fitted_cost_slope={slope!r}", out_path)
    return EXIT_OK


def cmd_diag(suite: str, seed: int, out_path: Optional[str] = None) -> int:
    if suite not in diag_suites.SUITES:
        known = ", ".join(sorted(diag_suites.SUITES))
        print(f"unknown diagnostic suite {suite!r}; choose from: {known}", file=sys.stderr)
        return EXIT_CONFIG
    result = diag_suites.run_suite(suite, seed)
    _emit("\n".join(result.lines), out_path)
    return EXIT_OK if result.passed else EXIT_FAIL


def _budget(text: str) -> int:
    value = _ascii_int(text)
    if not value:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
        _check_positive("--assert-eps", value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}"
        ) from None
    return value


def _parse_args(argv: Optional[Sequence[str]]):
    parser = argparse.ArgumentParser(
        prog="mlgibbs",
        description="Multilevel Langevin estimators for Gibbs expectations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("calibrate", "run", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="also write output to this file")
        if name == "run":
            p.add_argument(
                "--assert-eps",
                type=_tolerance,
                default=None,
                help="exit 4 unless rmse <= epsilon * this tolerance",
            )
        if name != "calibrate":
            p.add_argument(
                "--max-grad-evals",
                type=_budget,
                default=MAX_GRAD_EVALS,
                help="exit 3 before any simulation if the exact gradient "
                f"evaluations exceed this (default {MAX_GRAD_EVALS})",
            )
    p = sub.add_parser("diag")
    p.add_argument("suite", help="diagnostic suite name")
    p.add_argument("--out", default=None)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        _check_out(args.out)
        if args.command == "diag":
            return cmd_diag(args.suite, _seed_from_env(0), args.out)
        config = load_config(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(config, args.out)
        if args.command == "run":
            return cmd_run(config, args.out, args.assert_eps, args.max_grad_evals)
        return cmd_sweep(config, args.out, args.max_grad_evals)
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleCalibrationError, ConvergenceError) as exc:
        print(f"infeasible calibration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OracleFailureError as exc:
        print(f"reference oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except NumericalOverflowError as exc:
        print(f"numerical overflow: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except InvalidParameterError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
