"""Acceptance gate: ten headline checks, one verdict line each.

Each test prints a single pass or fail line through the captured-output
escape hatch so the verdict survives in plain pytest logs.  Statistical
checks run at pinned seeds; formula checks are exact.
"""

import json

import numpy as np
import pytest

from mlgibbs import (
    calibrate_penalized,
    cost_of,
    make_power,
    regime_constants,
)
from mlgibbs import diag_suites
from mlgibbs.cli import (
    EXIT_OK,
    cmd_diag,
    cmd_run,
    cmd_sweep,
    parse_config,
    prepare_run,
    run_ladder,
)

SEED = 20260822


def verdict(capsys, label, passed, detail):
    with capsys.disabled():
        print(f"[{label}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{label}: {detail}"


def experiment_config(**overrides):
    raw = {
        "potential": {"name": "quadratic", "dim": 1},
        "method": "penalized",
        "sigma": 1.0,
        "epsilon": 0.2,
        "f": "coord:0",
        "replicates": 100,
        "seed": SEED,
        "safety_T_multiplier": 4.0,
    }
    raw.update(overrides)
    return parse_config(raw)


def test_calibration_formula_goldens(capsys):
    plan = calibrate_penalized(0.1, 1.0, 1, 0.75, 1.0)
    rc = regime_constants(make_power(1, 0.75).profile, 1, 1.0)
    alpha_ok = abs(plan.alpha - 0.23094010767585033) <= 1e-12 * plan.alpha
    j_ok = plan.schedule.J == 11
    gamma_ok = abs(rc.gamma_star - 1.0 / 9.0) <= 1e-12 * rc.gamma_star
    psi_ok = rc.psi_bar == 4.0
    verdict(
        capsys,
        " 1/10 calibration goldens",
        alpha_ok and j_ok and gamma_ok and psi_ok,
        f"alpha={plan.alpha!r} J={plan.schedule.J} "
        f"gamma_star={rc.gamma_star!r} psi_bar={rc.psi_bar!r}",
    )


def test_ridge_bias_within_the_quadrature_bound(capsys):
    result = diag_suites.run_suite("penalization_bias", 0)
    verdict(
        capsys,
        " 2/10 ridge bias bound",
        result.passed,
        "; ".join(result.lines[:-1]) or result.lines[-1],
    )


# the suite's printed gaps and slope at seed 0, recorded while the suite still
# summed the observable at every coarse step; skipping those sums changes nothing
STRONG_ERROR_LINES = (
    "gamma=0.0625 gap=0.000253053 se=7.56e-06",
    "gamma=0.03125 gap=6.35582e-05 se=1.97e-06",
    "gamma=0.015625 gap=1.60741e-05 se=5.02e-07",
    "gamma=0.0078125 gap=4.08003e-06 se=1.35e-07",
    "gamma=0.00390625 gap=9.13538e-07 se=2.85e-08",
    "gamma=0.00195312 gap=2.37934e-07 se=7.11e-09",
    "slope=1.0088 band=[0.7, 1.3] (mean-square slope 2.0175)",
)


def test_coupling_gap_slope(capsys):
    result = diag_suites.run_suite("strong_error", 0)
    verdict(capsys, " 3/10 coupling gap slope", result.passed, result.lines[-2])
    assert result.lines[:-1] == STRONG_ERROR_LINES


def test_shared_noise_contraction(capsys):
    result = diag_suites.run_suite("confluence", 0)
    verdict(capsys, " 4/10 shared-noise contraction", result.passed, result.lines[0])


def test_running_moment_envelope(capsys):
    result = diag_suites.run_suite("moments", 0)
    verdict(capsys, " 5/10 moment envelope", result.passed, result.lines[0])


def test_end_to_end_accuracy_on_quadratics(capsys):
    details = []
    ok = True
    for dim in (1, 2):
        cfg = experiment_config(potential={"name": "quadratic", "dim": dim})
        (report,), _ = run_ladder(cfg, [cfg.epsilon])
        ok = ok and report.rmse <= 0.3
        details.append(f"d={dim} rmse={report.rmse:.4f}")
    verdict(capsys, " 6/10 quadratic accuracy", ok, " ".join(details) + " (target 0.3)")


def test_end_to_end_accuracy_on_the_power_family(capsys):
    details = []
    ok = True
    for method in ("weak_i", "weak_ii"):
        cfg = experiment_config(
            potential={"name": "power", "dim": 1, "p": 0.75}, method=method
        )
        (report,), _ = run_ladder(cfg, [cfg.epsilon])
        ok = ok and report.rmse <= 0.3
        details.append(f"{method} rmse={report.rmse:.4f}")
    verdict(capsys, " 7/10 weak-convex accuracy", ok, " ".join(details) + " (target 0.3)")


def test_cost_scaling_slopes_and_dimension_monotonicity(capsys):
    def sweep_slope(cfg):
        assert cmd_sweep(cfg) == EXIT_OK
        out = capsys.readouterr().out
        return float(out.strip().splitlines()[-1].split("=")[1])

    raw = {
        "potential": {"name": "quadratic", "dim": 1},
        "method": "penalized",
        "sigma": 1.0,
        "epsilons": [0.4, 0.2, 0.1],
        "f": "coord:0",
        "replicates": 20,
        "seed": SEED,
    }
    pen_slope = sweep_slope(parse_config(raw))

    raw_weak = dict(raw, potential={"name": "power", "dim": 1, "p": 0.75},
                    method="weak_ii", rho=0.5)
    weak_slope = sweep_slope(parse_config(raw_weak))

    costs = {}
    for method, pot in (
        ("penalized", lambda d: {"name": "quadratic", "dim": d}),
        ("weak_ii", lambda d: {"name": "power", "dim": d, "p": 0.75}),
    ):
        ladder = []
        for d in (1, 4, 16):
            cfg = experiment_config(
                potential=pot(d), method=method, safety_T_multiplier=1.0, replicates=2
            )
            ladder.append(cost_of(prepare_run(cfg).schedule))
        costs[method] = ladder

    pen_ok = -6.0 <= pen_slope <= -4.0
    weak_ok = -3.2 <= weak_slope <= -1.8
    mono_ok = all(
        ladder[0] <= ladder[1] <= ladder[2] for ladder in costs.values()
    )
    verdict(
        capsys,
        " 8/10 cost scaling",
        pen_ok and weak_ok and mono_ok,
        f"penalized_slope={pen_slope:.3f} (band [-6,-4]) "
        f"weak_ii_slope={weak_slope:.3f} (band [-3.2,-1.8]) "
        f"d-ladders={costs}",
    )


def test_level_independence_and_variance_decay(capsys):
    result = diag_suites.run_suite("level_variance", 0)
    verdict(
        capsys,
        " 9/10 level independence",
        result.passed,
        "; ".join(result.lines[:-1]) or result.lines[-1],
    )


def test_reruns_are_byte_identical(capsys, tmp_path):
    outputs = {}

    def capture(tag, fn):
        fn()
        first = capsys.readouterr().out
        fn()
        second = capsys.readouterr().out
        outputs[tag] = first == second and len(first) > 0

    run_cfg = experiment_config(replicates=30)
    capture("run", lambda: cmd_run(run_cfg))

    raw = {
        "potential": {"name": "quadratic", "dim": 1},
        "method": "penalized",
        "sigma": 1.0,
        "epsilons": [0.6, 0.4, 0.2],
        "f": "coord:0",
        "replicates": 5,
        "seed": SEED,
    }
    capture("sweep", lambda: cmd_sweep(parse_config(raw)))
    capture("diag", lambda: cmd_diag("confluence", 0))

    verdict(
        capsys,
        "10/10 byte-identical reruns",
        all(outputs.values()),
        " ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in outputs.items()),
    )
