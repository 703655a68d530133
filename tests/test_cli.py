"""Config parsing, calibration planning, and the command line surface."""

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from mlgibbs import ConfigError, cli, diagnostics
from mlgibbs.cli import (
    EXIT_CONFIG,
    EXIT_EPS_ASSERT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    cmd_calibrate,
    cmd_diag,
    cmd_run,
    cmd_sweep,
    load_config,
    main,
    parse_config,
    prepare_run,
)
from mlgibbs.diagnostics import MSE_CSV_HEADER
from mlgibbs.estimator import cost_of


def base_config(**overrides):
    raw = {
        "potential": {"name": "quadratic", "dim": 1},
        "method": "penalized",
        "sigma": 1.0,
        "epsilon": 0.3,
        "f": "coord:0",
        "replicates": 10,
        "seed": 0,
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


POWER = {"name": "power", "dim": 1, "p": 0.75}
# well-typed fields that the calibration or the potential's constructor rejects
INVALID_IN_RANGE = [
    ({"replicates": 1}, "replicates"),
    ({"method": "single_level", "potential": POWER, "gamma0": 5.0}, "gamma0"),
    ({"method": "weak_ii", "potential": POWER, "gamma0": 5.0}, "gamma0"),
    ({"method": "weak_ii", "potential": POWER, "rho": 1.5}, "rho"),
    ({"method": "weak_ii", "potential": POWER, "delta": 0.5}, "delta"),
    ({"method": "weak_i", "potential": POWER, "c_r": 1e-300}, "c_r"),
    ({"potential": {"name": "power", "dim": 1, "p": 0.3}}, "potential.p"),
    ({"potential": {"name": "quadratic", "dim": 2, "center": [0.0] * 3}}, "potential.center"),
    ({"method": "weak_i"}, "method"),
]


class TestParseConfig:
    def test_minimal_config_parses(self):
        cfg = parse_config(base_config())
        assert cfg.method == "penalized"
        assert cfg.epsilon == 0.3
        assert cfg.replicates == 10
        assert cfg.safety_T_multiplier == 1.0

    @pytest.mark.parametrize(
        "mutation, field",
        [
            ({"turbo": True}, "turbo"),
            ({"method": "magic"}, "method"),
            ({"potential": {"name": "cubic", "dim": 1}}, "potential.name"),
            ({"potential": {"name": "quadratic", "dim": 1, "spin": 2}}, "potential.spin"),
            ({"epsilon": -0.5}, "epsilon"),
            ({"epsilon": "soon"}, "epsilon"),
            ({"sigma": 0.0}, "sigma"),
            ({"replicates": 0}, "replicates"),
            ({"replicates": 2.5}, "replicates"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"seed": True}, "seed"),
            ({"statement_mode": "yes"}, "statement_mode"),
            ({"tau": -1.0}, "tau"),
            ({"tau": float("nan")}, "tau"),
            ({"tau": float("inf")}, "tau"),
            ({"tau": 10**400}, "tau"),
            ({"tau": True}, "tau"),
            ({"sigma": 10**400}, "sigma"),
            ({"epsilons": [0.4, 0.2]}, "epsilons"),
            ({"epsilons": [0.5, 0.5, 0.5]}, "epsilons"),
            ({"method": "single_level", "gamma0": 0.0}, "gamma0"),
            ({"potential": {"name": "quadratic", "dim": 1, "p": 0.75}}, "potential.p"),
            (
                {"potential": {"name": "power", "dim": 1, "p": 0.75, "scale": 5.0}},
                "potential.scale",
            ),
            (
                {"potential": {"name": "power", "dim": 1, "p": 0.75, "center": 3.0}},
                "potential.center",
            ),
            (
                {"potential": {"name": "power", "dim": 1, "p": 0.75, "center": 0.0}},
                "potential.center",
            ),
            ({"potential": {"name": "quadratic", "dim": 0}}, "potential.dim"),
            ({"f": "garbage"}, "f"),
            ({"f": "coord:5", "potential": {"name": "quadratic", "dim": 2}}, "f"),
            ({"f": 5}, "f"),
            # int() would read each of these as 0
            ({"f": "coord:0_0"}, "f"),
            ({"f": "coord: 0"}, "f"),
            ({"f": "coord:+0"}, "f"),
            ({"f": "coord:\u0660"}, "f"),
            *INVALID_IN_RANGE,
        ],
    )
    def test_rejections_name_the_offending_field(self, mutation, field):
        raw = base_config()
        raw.update(mutation)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == field
        # a field of the config, not of an object built from it; an unknown
        # field is named as it was given
        top, _, key = field.partition(".")
        known = field in cli._TOP_FIELDS or (
            top == "potential" and key in cli._POTENTIAL_FIELDS
        )
        assert known or str(err.value).startswith("unknown config field")

    @pytest.mark.parametrize("key", ["potential", "method", "sigma", "f", "replicates", "seed"])
    def test_missing_required_fields(self, key):
        raw = base_config()
        del raw[key]
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_epsilon_or_epsilons_must_be_present(self):
        raw = base_config()
        del raw["epsilon"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "epsilon"
        raw["epsilons"] = [0.4, 0.2, 0.1]
        cfg = parse_config(raw)
        assert cfg.epsilons == (0.4, 0.2, 0.1)
        assert cfg.epsilon is None

    def test_environment_seed_override(self, monkeypatch):
        monkeypatch.setenv("MLGIBBS_SEED", "999")
        assert parse_config(base_config()).seed == 999
        monkeypatch.setenv("MLGIBBS_SEED", "banana")
        with pytest.raises(ConfigError) as err:
            parse_config(base_config())
        assert err.value.field == "seed"

    @pytest.mark.parametrize(
        "method, field",
        [
            ("penalized", "gamma0"),
            ("penalized", "delta"),
            ("penalized", "rho"),
            ("penalized", "c_r"),
            ("weak_i", "rho"),
            ("weak_i", "statement_mode"),
            ("weak_ii", "statement_mode"),
            ("single_level", "c_r"),
            ("single_level", "delta"),
            ("single_level", "rho"),
            ("single_level", "statement_mode"),
        ],
    )
    def test_field_the_method_does_not_read_is_rejected(self, method, field):
        value = False if field == "statement_mode" else 0.1
        with pytest.raises(ConfigError, match="not read by") as err:
            parse_config(base_config(method=method, **{field: value}))
        assert err.value.field == field

    def test_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.delta == 0.25
        assert cfg.rho == 0.5
        assert cfg.c_r == 1.0
        assert cfg.tau == 0.0
        assert cfg.statement_mode is False


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nowhere.json"))

    def test_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xb8\x00{}")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.sigma == 1.0


class TestBuildModel:
    def test_power_requires_an_exponent(self):
        raw = base_config(potential={"name": "power", "dim": 1}, method="weak_i")
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "potential.p"

    @pytest.mark.parametrize("dim", [0, -1, 1.5, True, "2"])
    def test_dim_must_be_a_positive_integer(self, dim):
        raw = base_config(potential={"name": "quadratic", "dim": dim})
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == "potential.dim"

    # numpy refuses both lengths before it allocates: 8 PiB, and beyond intp
    @pytest.mark.parametrize("dim", [10**15, 10**20])
    @pytest.mark.parametrize("potential", [{"name": "quadratic"}, POWER])
    def test_a_dim_numpy_cannot_hold_is_a_config_exit(self, potential, dim, tmp_path, capsys):
        path = write_config(tmp_path, base_config(potential=dict(potential, dim=dim)))
        assert main(["calibrate", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: config field 'potential.dim'")
        assert captured.err.endswith("(field: potential.dim)\n")

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("quadratic", "scale", "2"),
            ("quadratic", "scale", None),
            ("quadratic", "scale", True),
            ("quadratic", "scale", -1.0),
            ("quadratic", "center", "a"),
            ("quadratic", "center", None),
            ("quadratic", "center", True),
            ("quadratic", "center", [0.0, False]),
            ("quadratic", "center", [0.0, [1.0]]),
            ("quadratic", "center", 10**400),
            ("quadratic", "penalty_alpha", "0.5"),
            ("quadratic", "penalty_alpha", None),
            ("quadratic", "penalty_alpha", True),
            ("quadratic", "penalty_alpha", 0),
            ("power", "p", "0.75"),
            ("power", "p", None),
            ("power", "p", True),
            ("power", "penalty_alpha", True),
        ],
    )
    def test_potential_fields_must_be_numbers(self, name, field, value, tmp_path, capsys):
        potential = {"name": name, "dim": 2, field: value}
        if name == "power" and field != "p":
            potential["p"] = 0.75
        raw = base_config(potential=potential, method="single_level")
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == f"potential.{field}"
        path = write_config(tmp_path, raw)
        assert main(["calibrate", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.endswith(f"(field: potential.{field})\n")

    def test_quadratic_with_options(self):
        raw = base_config(
            potential={"name": "quadratic", "dim": 2, "center": 0.5, "scale": 2.0}
        )
        model = parse_config(raw).target
        assert model.dim == 2
        assert model.value(np.full(2, 0.5)) == 0.0

    def test_ridge_option_penalizes_the_target(self):
        raw = base_config(potential={"name": "quadratic", "dim": 1, "penalty_alpha": 0.5})
        model = parse_config(raw).target
        # the ridge is the guaranteed convexity floor; smoothness adds up
        assert model.profile.alpha == 0.5
        assert model.profile.L == 1.5


class TestPrepareRun:
    def test_weak_method_on_a_quadratic_is_a_config_error(self):
        with pytest.raises(ConfigError) as err:
            prepare_run(parse_config(base_config(method="weak_i", epsilon=0.2)))
        assert err.value.field == "method"

    def test_single_level_plans_one_level(self):
        cfg = parse_config(base_config(method="single_level", epsilon=0.5))
        setup = prepare_run(cfg)
        assert setup.schedule.J == 0
        assert setup.plan is None

    def test_safety_multiplier_stretches_horizons(self):
        short = prepare_run(parse_config(base_config(method="single_level", epsilon=0.5)))
        long = prepare_run(
            parse_config(
                base_config(method="single_level", epsilon=0.5, safety_T_multiplier=4.0)
            )
        )
        np.testing.assert_allclose(
            long.schedule.T[0], 4.0 * short.schedule.T[0], rtol=1e-9
        )

    def test_penalized_setup_ridges_the_simulated_model(self):
        cfg = parse_config(base_config(epsilon=0.3))
        setup = prepare_run(cfg)
        assert setup.plan is not None
        assert setup.sim_model is not cfg.target
        assert setup.sim_model.profile.alpha == pytest.approx(setup.plan.alpha)


class TestCalibrateCommand:
    def test_plan_json_golden(self, tmp_path, capsys):
        cfg = parse_config(base_config(epsilon=0.3))
        assert cmd_calibrate(cfg) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["alpha"], 0.6928203230275509, rtol=1e-12)
        assert payload["J"] == 5
        assert payload["cost_exact"] == 3450
        assert payload["m4"] == 0.75

    def test_accuracy_golden_at_the_headline_target(self, capsys):
        cfg = parse_config(base_config(epsilon=0.1))
        assert cmd_calibrate(cfg) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(payload["alpha"], 0.23094010767585033, rtol=1e-12)
        assert payload["J"] == 11

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        cfg = parse_config(base_config(epsilon=0.3))
        out = tmp_path / "plan.json"
        cmd_calibrate(cfg, str(out))
        stdout_text = capsys.readouterr().out
        assert out.read_text() == stdout_text


class TestRunCommand:
    def run_cfg(self, **overrides):
        return parse_config(
            base_config(method="single_level", epsilon=0.5, replicates=20, **overrides)
        )

    def test_emits_header_and_one_row(self, capsys):
        assert cmd_run(self.run_cfg()) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == MSE_CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("single_level,quadratic,1,")

    def test_rerun_is_byte_identical(self, capsys):
        cmd_run(self.run_cfg())
        first = capsys.readouterr().out
        cmd_run(self.run_cfg())
        second = capsys.readouterr().out
        assert first == second

    def test_accuracy_assertion_exit_codes(self, capsys):
        assert cmd_run(self.run_cfg(), assert_eps=50.0) == EXIT_OK
        capsys.readouterr()
        assert cmd_run(self.run_cfg(), assert_eps=1e-9) == EXIT_EPS_ASSERT

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_assert_eps_must_be_positive_and_finite(self, value, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", path, "--assert-eps", value])
        assert err.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--assert-eps" in captured.err

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        cmd_run(self.run_cfg(), out_path=str(out))
        stdout_text = capsys.readouterr().out
        assert out.read_text() == stdout_text


class TestSweepCommand:
    def test_requires_a_ladder(self):
        cfg = parse_config(base_config(method="single_level", epsilon=0.5))
        with pytest.raises(ConfigError) as err:
            cmd_sweep(cfg)
        assert err.value.field == "epsilons"

    def test_appends_a_fitted_slope(self, capsys):
        raw = base_config(method="single_level", replicates=5)
        del raw["epsilon"]
        raw["epsilons"] = [0.8, 0.4, 0.2]
        assert cmd_sweep(parse_config(raw)) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == MSE_CSV_HEADER
        assert len(lines) == 5
        tag, value = lines[-1].split("=")
        assert tag == "# fitted_cost_slope"
        assert float(value) < 0.0


class TestDiagCommand:
    def test_unknown_suite_is_a_config_exit(self, capsys):
        assert cmd_diag("nonsense", 0) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["abc", "-1", " 7", "+7", "\u0667", "7_0"])
    def test_malformed_environment_seed_is_a_config_exit(self, value, monkeypatch, capsys):
        monkeypatch.setenv("MLGIBBS_SEED", value)
        assert main(["diag", "moments"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: MLGIBBS_SEED")
        assert "(field: seed)" in err

    def test_fast_suite_passes(self, capsys):
        assert cmd_diag("decreasing_penalty", 0) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().endswith("decreasing_penalty: pass")


class TestMainEntry:
    def test_config_errors_exit_two_with_a_message(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(method="magic"))
        assert main(["calibrate", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "(field: method)" in err

    def test_infeasible_calibration_exits_three(self, tmp_path, capsys):
        raw = base_config(
            potential={"name": "quadratic", "dim": 1, "scale": 0.01}, epsilon=0.05
        )
        path = write_config(tmp_path, raw)
        assert main(["calibrate", "--config", path]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", [0.5, 0.6])
    def test_penalized_target_clamped_to_one_level_calibrates(self, sigma, tmp_path, capsys):
        # the schedule clamps J to 1; the complexity bound accepts the same
        # target instead of calling it too loose
        raw = base_config(
            potential={"name": "power", "dim": 1, "p": 0.75}, epsilon=0.4, sigma=sigma
        )
        path = write_config(tmp_path, raw)
        with pytest.warns(RuntimeWarning, match="clamping to J=1"):
            assert main(["calibrate", "--config", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["J"] == 1
        assert payload["predicted_cost"] > 0.0

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-150])
    @pytest.mark.parametrize("method", ["penalized", "weak_i", "weak_ii", "single_level"])
    def test_epsilon_beyond_float_range_exits_three(self, method, epsilon, tmp_path, capsys):
        # epsilon^2 underflows: schedule formulas divide by zero, or their
        # horizons and step counts come out infinite
        raw = base_config(
            potential={"name": "power", "dim": 1, "p": 0.75},
            method=method,
            epsilon=epsilon,
        )
        path = write_config(tmp_path, raw)
        assert main(["calibrate", "--config", path]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible calibration:")

    @pytest.mark.parametrize("sigma", [1e-200, 1e200])
    @pytest.mark.parametrize("command", ["calibrate", "run"])
    def test_sigma_whose_square_leaves_float_range_is_a_config_exit(
        self, command, sigma, tmp_path, capsys
    ):
        # sigma^2 underflows to 0 or overflows to inf; the quadrature oracle
        # divides by it
        raw = base_config(potential={"name": "power", "dim": 1, "p": 0.75}, sigma=sigma)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(field: sigma)" in captured.err

    def test_run_round_trip_through_main(self, tmp_path, capsys):
        raw = base_config(method="single_level", epsilon=0.5, replicates=5)
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path]) == EXIT_OK
        assert MSE_CSV_HEADER in capsys.readouterr().out

    def test_threads_is_no_longer_an_option(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", path, "--threads", "2"])
        assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "run", "sweep"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_out_is_a_config_exit(
        self, command, target, tmp_path, monkeypatch, capsys
    ):
        # the path is refused before any work: nothing is simulated or printed
        def never(*args):
            raise AssertionError("simulated despite an unwritable --out")

        monkeypatch.setattr(diagnostics, "run_replicates", never)
        raw = base_config(method="single_level", epsilon=0.5, epsilons=[0.8, 0.4, 0.2])
        path = write_config(tmp_path, raw)
        out = tmp_path / "nowhere" / "x.txt" if target == "missing" else tmp_path
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write")
        assert captured.err.count("\n") == 1
        assert "(field: out)" in captured.err
        assert "Traceback" not in captured.err

    def test_failed_run_leaves_an_existing_out_file_untouched(self, tmp_path, capsys):
        # the check does not open the file; a run that fails later writes nothing
        out = tmp_path / "kept.csv"
        out.write_text("earlier result\n")
        raw = base_config(potential={"name": "quadratic", "dim": 1, "scale": "2"})
        path = write_config(tmp_path, raw)
        assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert "(field: potential.scale)" in capsys.readouterr().err
        assert out.read_text() == "earlier result\n"

    @pytest.mark.parametrize("f", ["garbage", "coord:5", 5])
    @pytest.mark.parametrize("command", ["calibrate", "run", "sweep"])
    def test_a_bad_observable_exits_two_before_any_work(
        self, command, f, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("calibrated despite an invalid f")

        monkeypatch.setattr(cli, "prepare_run", never)
        raw = base_config(
            potential={"name": "quadratic", "dim": 2}, epsilons=[0.8, 0.4, 0.2], f=f
        )
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.endswith("(field: f)\n")

    @pytest.mark.parametrize("mutation, field", INVALID_IN_RANGE)
    @pytest.mark.parametrize("command", ["calibrate", "run", "sweep"])
    def test_an_out_of_range_field_exits_two_before_any_work(
        self, command, mutation, field, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("calibrated or ran the oracle despite an invalid config")

        monkeypatch.setattr(cli, "prepare_run", never)
        monkeypatch.setattr(cli, "reference_for", never)
        raw = base_config(epsilons=[0.8, 0.4, 0.2], **mutation)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert captured.err.endswith(f"(field: {field})\n")

    @pytest.mark.parametrize("command", ["calibrate", "run"])
    def test_tau_beyond_the_shortest_horizon_names_its_field(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # the horizons depend on epsilon, so this is found while calibrating
        def never(*args, **kwargs):
            raise AssertionError("ran the oracle despite an invalid tau")

        monkeypatch.setattr(cli, "reference_for", never)
        raw = base_config(method="single_level", epsilon=0.5, tau=1e6)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: tau=1000000.0 must lie in [0, min_j T[j]) (field: tau)\n"
        )

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_the_reference_is_built_once_per_command(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # the target, f, sigma and seed do not depend on epsilon; calibration
        # and simulation do, and the target is built as the config is parsed
        calls = {}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            return wrapper

        names = ("make_quadratic", "prepare_run", "reference_for",
                 "fourth_moment_reference", "run_mse_experiment")
        for name in names:
            monkeypatch.setattr(cli, name, counted(name))
        raw = base_config(replicates=5)
        if command == "sweep":
            del raw["epsilon"]
            raw["epsilons"] = [0.5, 0.4, 0.3]
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_OK
        n_eps = 3 if command == "sweep" else 1
        assert calls == {
            "make_quadratic": 1,
            "prepare_run": n_eps,
            "reference_for": 1,
            "fourth_moment_reference": n_eps,
            "run_mse_experiment": n_eps,
        }
        assert MSE_CSV_HEADER in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_dropped_lanes_are_reported_on_stderr(self, command, tmp_path, monkeypatch, capsys):
        # one lane in 100 is the most a run may drop without aborting
        raw = base_config(method="single_level", replicates=100)
        if command == "sweep":
            del raw["epsilon"]
            raw["epsilons"] = [0.8, 0.4, 0.2]
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path]) == EXIT_OK
        clean = capsys.readouterr()
        assert clean.err == ""
        run_replicates = diagnostics.run_replicates

        def one_failed_lane(*args):
            batch = run_replicates(*args)
            level_ok = batch.level_ok.copy()
            level_ok[2, 0] = False
            return dataclasses.replace(batch, level_ok=level_ok)

        monkeypatch.setattr(diagnostics, "run_replicates", one_failed_lane)
        assert main([command, "--config", path]) == EXIT_OK
        dropped = capsys.readouterr()
        line = "dropped 1 of 100 replicate lanes: non-finite path\n"
        assert dropped.err == line * (3 if command == "sweep" else 1)
        assert "dropped" not in dropped.out
        assert dropped.out != clean.out
        header = MSE_CSV_HEADER.split(",")
        assert dropped.out.splitlines()[1].split(",")[header.index("R")] == "99"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_a_schedule_beyond_the_budget_exits_three_before_any_work(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # weak_i at epsilon 1e-20 calibrates to about 2.2e64 gradient
        # evaluations per replicate
        def never(*args, **kwargs):
            raise AssertionError("ran the oracle or a simulation over budget")

        monkeypatch.setattr(cli, "reference_for", never)
        monkeypatch.setattr(diagnostics, "run_replicates", never)
        raw = base_config(
            potential={"name": "power", "dim": 1, "p": 0.75}, method="weak_i",
            f="norm2",
        )
        if command == "sweep":
            del raw["epsilon"]
            raw["epsilons"] = [1e-18, 1e-19, 1e-20]
        else:
            raw["epsilon"] = 1e-20
        config = parse_config(raw)
        setups = [prepare_run(config, eps) for eps in config.epsilons or [config.epsilon]]
        total = sum(cost_of(s.schedule) for s in setups) * raw["replicates"]
        assert total > 10**64
        path = write_config(tmp_path, raw)
        start = time.perf_counter()
        assert main([command, "--config", path]) == EXIT_INFEASIBLE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible calibration:")
        assert f" {total} gradient evaluations" in captured.err
        assert "--max-grad-evals" in captured.err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_max_grad_evals_sets_the_budget(self, command, tmp_path, capsys):
        raw = base_config(method="single_level", epsilons=[0.8, 0.4, 0.2], replicates=5)
        config = parse_config(raw)
        epsilons = config.epsilons if command == "sweep" else [config.epsilon]
        total = 5 * sum(cost_of(prepare_run(config, eps).schedule) for eps in epsilons)
        path = write_config(tmp_path, raw)
        assert main([command, "--config", path, "--max-grad-evals", str(total)]) == EXIT_OK
        assert MSE_CSV_HEADER in capsys.readouterr().out
        assert main([command, "--config", path, "--max-grad-evals", str(total - 1)]) == (
            EXIT_INFEASIBLE
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"above the budget of {total - 1}" in captured.err

    @pytest.mark.parametrize("value", ["0", "-5", "1e9", "many", "\u0663" + "\u0660" * 6])
    def test_max_grad_evals_must_be_a_positive_integer(self, value, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", path, "--max-grad-evals", value])
        assert err.value.code == EXIT_CONFIG
        assert "--max-grad-evals" in capsys.readouterr().err

    def test_benchmark_configs_fit_the_default_budget(self):
        for potential, method, epsilon in [
            ({"name": "quadratic", "dim": 1}, "penalized", 0.18),
            ({"name": "power", "dim": 3, "p": 0.75}, "weak_ii", 2.0),
        ]:
            config = parse_config(base_config(
                potential=potential, method=method, epsilon=epsilon, replicates=100
            ))
            assert 100 * cost_of(prepare_run(config).schedule) <= cli.MAX_GRAD_EVALS

    def test_installed_script_smoke(self, tmp_path):
        path = write_config(tmp_path, base_config(epsilon=0.3))
        proc = subprocess.run(
            ["mlgibbs", "calibrate", "--config", path],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["J"] == 5
