"""Config parsing, calibration planning, and the command line surface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mlgibbs import ConfigError
from mlgibbs.cli import (
    EXIT_CONFIG,
    EXIT_EPS_ASSERT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    build_model,
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
            ({"epsilons": [0.4, 0.2]}, "epsilons"),
            ({"method": "single_level", "gamma0": 0.0}, "gamma0"),
        ],
    )
    def test_rejections_name_the_offending_field(self, mutation, field):
        raw = base_config()
        raw.update(mutation)
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == field

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

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        assert cfg.sigma == 1.0


class TestBuildModel:
    def test_power_requires_an_exponent(self):
        raw = base_config(potential={"name": "power", "dim": 1}, method="weak_i")
        with pytest.raises(ConfigError) as err:
            build_model(parse_config(raw))
        assert err.value.field == "potential.p"

    def test_quadratic_with_options(self):
        raw = base_config(
            potential={"name": "quadratic", "dim": 2, "center": 0.5, "scale": 2.0}
        )
        model = build_model(parse_config(raw))
        assert model.dim == 2
        assert model.value(np.full(2, 0.5)) == 0.0

    def test_ridge_option_penalizes_the_target(self):
        raw = base_config(potential={"name": "quadratic", "dim": 1, "penalty_alpha": 0.5})
        model = build_model(parse_config(raw))
        # the ridge is the guaranteed convexity floor; smoothness adds up
        assert model.profile.alpha == 0.5
        assert model.profile.L == 1.5


class TestPrepareRun:
    def test_weak_method_on_a_quadratic_is_a_config_error(self):
        cfg = parse_config(base_config(method="weak_i", epsilon=0.2))
        with pytest.raises(ConfigError) as err:
            prepare_run(cfg)
        assert err.value.field == "c_lower"

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
        assert setup.sim_model is not setup.target
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

    @pytest.mark.parametrize("value", ["abc", "-1"])
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

    @pytest.mark.parametrize("command", ["calibrate", "run", "sweep", "diag"])
    def test_threads_below_one_is_a_config_exit(self, command, tmp_path, capsys):
        if command == "diag":
            target = ["strong_error"]
        else:
            target = ["--config", write_config(tmp_path, base_config())]
        assert main([command, *target, "--threads", "0"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(field: threads)" in captured.err

    def test_threads_leaves_the_run_output_unchanged(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        outputs = []
        for extra in ([], ["--threads", "2"]):
            assert main(["run", "--config", path, *extra]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0].startswith(MSE_CSV_HEADER)
        assert outputs[1] == outputs[0]

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
