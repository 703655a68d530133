"""Every exported name resolves, and scipy never loads: the quadrature
oracles run on the package's own QAGS.

pytest's own process may have scipy loaded by other tests or plugins, so the
scipy checks run in a fresh interpreter.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mlgibbs

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(mlgibbs.__path__))


@pytest.mark.parametrize("name", ["mlgibbs"] + [f"mlgibbs.{m}" for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_and_its_modules_export_names():
    # guards the test above against passing on modules it cannot see
    modules = [importlib.import_module(f"mlgibbs.{m}") for m in SUBMODULES]
    with_all = [m.__name__ for m in modules if hasattr(m, "__all__")]
    assert "mlgibbs.estimator" in with_all and "mlgibbs.diagnostics" in with_all
    assert "run_replicates" in mlgibbs.__all__


_PROBE = r"""
import contextlib
import io
import json
import sys

config_path = sys.argv[1]
state = {}
import mlgibbs
import mlgibbs.cli

state["after_import"] = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    state["calibrate_rc"] = mlgibbs.cli.main(["calibrate", "--config", config_path])
    state["run_rc"] = mlgibbs.cli.main(["run", "--config", config_path])
state["after_closed_form_run"] = "scipy" in sys.modules

from mlgibbs import diagnostics
from mlgibbs.observables import squared_norm
from mlgibbs.potentials import make_power, make_quadratic

ref = diagnostics.reference_for(make_power(3, 0.75), squared_norm, 1.0)
state["after_radial_quadrature"] = "scipy" in sys.modules
state["method"] = ref.method
state["value_hex"] = float(ref.value).hex()
diagnostics.w1_distance_1d(make_quadratic(1), make_power(1, 0.75), 1.0)
state["after_w1_distance"] = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    state["power_calibrate_rc"] = mlgibbs.cli.main(["calibrate", "--config", sys.argv[2]])
state["after_quadrature_fourth_moment"] = "scipy" in sys.modules
print(json.dumps(state))
"""


def test_scipy_never_loads_not_even_for_a_quadrature_oracle(tmp_path):
    # penalized quadratic with coord:0: the fourth moment and the reference
    # are both closed form, so neither calibrate nor run integrates
    config = {
        "potential": {"name": "quadratic", "dim": 1},
        "method": "penalized",
        "sigma": 1.0,
        "epsilon": 0.5,
        "f": "coord:0",
        "replicates": 4,
        "seed": 0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # penalized power d=1: the fourth moment behind calibrate is a quadrature
    power = dict(config, potential={"name": "power", "dim": 1, "p": 0.75})
    power_path = tmp_path / "power.json"
    power_path.write_text(json.dumps(power))
    src = str(Path(mlgibbs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(path), str(power_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout)
    assert state["after_import"] is False
    assert state["calibrate_rc"] == 0
    assert state["run_rc"] == 0
    assert state["after_closed_form_run"] is False
    # the radial quadrature's value is the one recorded while scipy's quad
    # computed it
    assert state["after_radial_quadrature"] is False
    assert state["method"] == "quadrature_1d"
    assert state["value_hex"] == "0x1.4f5d25341ef4ep+0"
    assert state["after_w1_distance"] is False
    assert state["power_calibrate_rc"] == 0
    assert state["after_quadrature_fourth_moment"] is False
