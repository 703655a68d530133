"""Command-line front end: calibrate, run, sweep, diag.

Configuration is strict JSON; unknown fields are rejected so typos cannot
silently change an experiment.  All randomness flows from the single config
seed (the MLGIBBS_SEED environment variable overrides it), and output is
deterministic byte for byte.

Exit codes: 0 success, 1 failed diagnostic or overflow, 2 invalid config,
3 infeasible calibration, 4 accuracy assertion failed, 5 reference oracle
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import diag_suites
from .calibration import (
    LevelSchedule,
    PenalizedPlan,
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
    InfeasibleCalibrationError,
    InvalidParameterError,
    NumericalOverflowError,
    OracleFailureError,
)
from .estimator import cost_of
from .observables import parse_observable
from .potentials import (
    PotentialModel,
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed and validated experiment description."""

    potential: dict
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
    f_spec: str
    replicates: int
    seed: int
    safety_T_multiplier: float


def _need(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"missing required config field {key!r}", field=key)
    return raw[key]


def _positive_real(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {key!r} must be a number", field=key)
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ConfigError(f"config field {key!r} must be positive and finite", field=key)
    return value


def _positive_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field {key!r} must be an integer", field=key)
    if value < 1:
        raise ConfigError(f"config field {key!r} must be positive", field=key)
    return value


def _seed_from_env(seed: int) -> int:
    """The MLGIBBS_SEED environment variable if set, else seed."""
    env_seed = os.environ.get("MLGIBBS_SEED")
    if env_seed is None:
        return seed
    try:
        seed = int(env_seed)
    except ValueError:
        raise ConfigError(
            f"MLGIBBS_SEED must be an integer, got {env_seed!r}", field="seed"
        ) from None
    if not 0 <= seed < 2**64:
        raise ConfigError("MLGIBBS_SEED must lie in [0, 2^64)", field="seed")
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
        if not isinstance(eps_list, list) or len(eps_list) < 3:
            raise ConfigError(
                "config field 'epsilons' must be a list of at least 3 values",
                field="epsilons",
            )
        epsilons = tuple(_positive_real(e, "epsilons") for e in eps_list)
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
    tau = raw.get("tau", 0.0)
    if isinstance(tau, bool) or not isinstance(tau, (int, float)) or not 0 <= tau < math.inf:
        raise ConfigError(
            "config field 'tau' must be a nonnegative, finite number", field="tau"
        )

    sigma = _positive_real(_need(raw, "sigma"), "sigma")
    if not (sigma * sigma > 0.0 and math.isfinite(sigma * sigma)):
        # the invariant density exp(-2 U / sigma^2) needs a usable sigma^2
        raise ConfigError(
            f"config field 'sigma' must have a positive, finite square, got {sigma!r}",
            field="sigma",
        )

    return ExperimentConfig(
        potential=dict(pot),
        sigma=sigma,
        epsilon=epsilon,
        epsilons=epsilons,
        method=method,
        delta=_positive_real(raw.get("delta", 0.25), "delta"),
        rho=_positive_real(raw.get("rho", 0.5), "rho"),
        c_r=_positive_real(raw.get("c_r", 1.0), "c_r"),
        tau=float(tau),
        gamma0=_positive_real(raw["gamma0"], "gamma0") if "gamma0" in raw else None,
        statement_mode=statement_mode,
        f_spec=str(_need(raw, "f")),
        replicates=_positive_int(_need(raw, "replicates"), "replicates"),
        seed=seed,
        safety_T_multiplier=_positive_real(
            raw.get("safety_T_multiplier", 1.0), "safety_T_multiplier"
        ),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)


def build_model(config: ExperimentConfig) -> PotentialModel:
    pot = config.potential
    name = pot["name"]
    dim = pot.get("dim", 1)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ConfigError(
            "config field 'potential.dim' must be a positive integer",
            field="potential.dim",
        )
    try:
        if name == "quadratic":
            model = make_quadratic(
                dim, center=pot.get("center", 0.0), scale=pot.get("scale", 1.0)
            )
        else:
            if "p" not in pot:
                raise ConfigError(
                    "power potential requires 'potential.p'", field="potential.p"
                )
            model = make_power(dim, pot["p"])
        if "penalty_alpha" in pot:
            model = penalize(model, pot["penalty_alpha"])
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), field="potential") from exc
    return model


@dataclass(frozen=True)
class RunSetup:
    """Everything needed to execute one configuration at one accuracy."""

    target: PotentialModel
    sim_model: PotentialModel
    schedule: LevelSchedule
    plan: Optional[PenalizedPlan]
    predicted_cost: Optional[float]
    epsilon: float


def _single_level_setup(config, model, epsilon) -> LevelSchedule:
    # baseline comparator: step bounded by the admissible range and the
    # accuracy
    bound = step_bound(model.profile)
    gamma0 = config.gamma0 if config.gamma0 is not None else min(bound, epsilon)
    return calibrate_single_level(epsilon, config.sigma, model.dim, gamma0)


def prepare_run(config: ExperimentConfig, epsilon: Optional[float] = None) -> RunSetup:
    """Calibrate the configured method at one accuracy target."""

    epsilon = epsilon if epsilon is not None else config.epsilon
    if epsilon is None:
        raise ConfigError("missing required config field 'epsilon'", field="epsilon")
    target = build_model(config)
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
        try:
            _require_parametric(target.profile)
        except InvalidParameterError as exc:
            raise ConfigError(f"method {config.method!r}: {exc}", field="c_lower") from exc
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
        schedule = _single_level_setup(config, target, epsilon)

    schedule = build_schedule(
        schedule.gamma[0],
        [config.safety_T_multiplier * t for t in schedule.T],
        tau=config.tau,
        rho=schedule.rho,
    )
    return RunSetup(
        target=target,
        sim_model=sim_model,
        schedule=schedule,
        plan=plan,
        predicted_cost=predicted,
        epsilon=epsilon,
    )


def _plan_json(config: ExperimentConfig, setup: RunSetup) -> str:
    payload = {
        "method": config.method,
        "potential": config.potential["name"],
        "dim": setup.target.dim,
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


def _emit(text: str, out_path: Optional[str]):
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def cmd_calibrate(config: ExperimentConfig, out_path: Optional[str] = None) -> int:
    setup = prepare_run(config)
    _emit(_plan_json(config, setup), out_path)
    return EXIT_OK


def _run_row(config: ExperimentConfig, setup: RunSetup):
    f = parse_observable(config.f_spec, setup.target.dim)
    reference = reference_for(setup.target, f, config.sigma, seed=config.seed)
    report = run_mse_experiment(
        setup.sim_model,
        f,
        setup.schedule,
        config.sigma,
        reference,
        config.replicates,
        config.seed,
        epsilon_target=setup.epsilon,
    )
    row = mse_csv_row(
        config.method,
        config.potential["name"],
        setup.target.dim,
        config.sigma,
        setup.epsilon,
        setup.schedule,
        report,
        config.seed,
    )
    return report, row


def cmd_run(
    config: ExperimentConfig,
    out_path: Optional[str] = None,
    assert_eps: Optional[float] = None,
) -> int:
    setup = prepare_run(config)
    report, row = _run_row(config, setup)
    _emit(MSE_CSV_HEADER + "\n" + row, out_path)
    if assert_eps is not None and report.rmse > setup.epsilon * assert_eps:
        print(
            f"accuracy assertion failed: rmse {report.rmse} > "
            f"{setup.epsilon} * {assert_eps}",
            file=sys.stderr,
        )
        return EXIT_EPS_ASSERT
    return EXIT_OK


def cmd_sweep(config: ExperimentConfig, out_path: Optional[str] = None) -> int:
    if config.epsilons is None:
        raise ConfigError(
            "sweep requires config field 'epsilons' (>= 3 values)", field="epsilons"
        )
    rows = []
    costs = []
    for eps in config.epsilons:
        setup = prepare_run(config, epsilon=eps)
        report, row = _run_row(config, setup)
        rows.append(row)
        costs.append(report.mean_cost)
    slope = float(
        np.polyfit(np.log(np.asarray(config.epsilons)), np.log(np.asarray(costs)), 1)[0]
    )
    text = MSE_CSV_HEADER + "\n" + "\n".join(rows) + f"\n# fitted_cost_slope={slope!r}"
    _emit(text, out_path)
    return EXIT_OK


def cmd_diag(suite: str, seed: int, out_path: Optional[str] = None) -> int:
    if suite not in diag_suites.SUITES:
        known = ", ".join(sorted(diag_suites.SUITES))
        print(f"unknown diagnostic suite {suite!r}; choose from: {known}", file=sys.stderr)
        return EXIT_CONFIG
    result = diag_suites.run_suite(suite, seed)
    _emit("\n".join(result.lines), out_path)
    return EXIT_OK if result.passed else EXIT_FAIL


def _check_threads(n: Optional[int]):
    # --threads is accepted so existing command lines keep working; the numpy
    # engine runs single-threaded whatever its value
    if n is not None and n < 1:
        raise ConfigError("--threads must be positive", field="threads")


_THREADS_HELP = "accepted for compatibility; has no effect"


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
        p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
        if name == "run":
            p.add_argument(
                "--assert-eps",
                type=float,
                default=None,
                help="exit 4 unless rmse <= epsilon * this tolerance",
            )
    p = sub.add_parser("diag")
    p.add_argument("suite", help="diagnostic suite name")
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        _check_threads(getattr(args, "threads", None))
        if args.command == "diag":
            return cmd_diag(args.suite, _seed_from_env(0), args.out)
        config = load_config(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(config, args.out)
        if args.command == "run":
            return cmd_run(config, args.out, args.assert_eps)
        return cmd_sweep(config, args.out)
    except ConfigError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"config error: {exc}{field}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleCalibrationError as exc:
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
