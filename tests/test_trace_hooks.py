"""The benchmark tracer's hooks into the package.

perfbench/child.py wraps package functions by module and attribute name and
reads each driver's step count from its positional argument 5; a rename or a
reordered signature would break ``perfbench/run.py --trace 1`` silently.
"""

import inspect
import json
import types
from pathlib import Path

from mlgibbs import cli, diagnostics, engine, sde

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
HOOKS = [
    (cli, "prepare_run"),
    (cli, "reference_for"),
    (cli, "fourth_moment_reference"),
    (cli, "run_mse_experiment"),
    (diagnostics, "run_replicates"),
    (engine, "make_streams"),
    (engine, "occupation_sums"),
    (engine, "coupled_diff_sums"),
    (sde.NoiseStream, "normals"),
]


def _load_child():
    # executed from source, so no bytecode is written next to it
    child = types.ModuleType("perfbench_child")
    exec(compile(CHILD.read_text(encoding="utf-8"), str(CHILD), "exec"), vars(child))
    return child


def test_the_drivers_take_their_step_count_as_argument_5():
    assert list(inspect.signature(engine.occupation_sums).parameters)[5] == "n_steps"
    assert list(inspect.signature(engine.coupled_diff_sums).parameters)[5] == "n_coarse"


def test_a_traced_run_succeeds_and_unpatch_restores_every_hook(tmp_path):
    child = _load_child()
    originals = [getattr(owner, name) for owner, name in HOOKS]
    config = {
        "potential": {"name": "quadratic", "dim": 1},
        "method": "penalized",
        "sigma": 1.0,
        "epsilon": 0.3,
        "f": "coord:0",
        "replicates": 2,
        "seed": 0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    tracer = child.Tracer()
    child.install(tracer)
    try:
        assert len(tracer._undo) == len(HOOKS)
        assert all(getattr(o, n) is not f for (o, n), f in zip(HOOKS, originals))
        assert cli.main(["run", "--config", str(path)]) == 0
    finally:
        tracer.unpatch()
    assert all(getattr(o, n) is f for (o, n), f in zip(HOOKS, originals))
    spans = {s["name"]: s for s in tracer.spans}
    for driver in ("engine.occupation_sums", "engine.coupled_diff_sums"):
        assert spans[driver]["size"] > 0
        assert {"potentials.drift", "sde.normals"} <= set(spans[driver]["leaves"])
