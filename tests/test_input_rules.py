"""The shared input rules: start points, dimensions and the averaging window."""

import dataclasses
import math

import numpy as np
import pytest

from mlgibbs import (
    InvalidParameterError,
    NoiseStream,
    PotentialModel,
    build_schedule,
    make_power,
    make_quadratic,
    run_replicates,
    simulate_coupled,
    simulate_path,
    squared_norm,
)
from mlgibbs import engine
from mlgibbs.diagnostics import (
    confluence_curve,
    decreasing_penalization_probe,
    moment_envelope_check,
    strong_error_curve,
)

D = 2
QUAD = make_quadratic(D, center=0.2, scale=1.5)
POWER = make_power(D, 0.75)
OTHER = np.full(D, -0.5)  # the second start of a two-start entry


def _streams():
    return engine.make_streams(3, [0, 1], D)


# entry -> (call with the start under test, the argument's name)
START_ENTRIES = {
    "occupation_sums": (
        lambda p: engine.occupation_sums(QUAD, squared_norm, p, 0.05, 1.0, 8, 2, _streams()),
        "x0",
    ),
    "coupled_diff_sums": (
        lambda p: engine.coupled_diff_sums(QUAD, squared_norm, p, 0.1, 1.0, 8, 2, _streams()),
        "x0",
    ),
    "pair_distance_series-a": (
        lambda p: engine.pair_distance_series(QUAD, POWER, p, OTHER, 0.05, 1.0, 8, _streams()),
        "x0_a",
    ),
    "pair_distance_series-b": (
        lambda p: engine.pair_distance_series(QUAD, POWER, OTHER, p, 0.05, 1.0, 8, _streams()),
        "x0_b",
    ),
    "value_power_series": (
        lambda p: engine.value_power_series(POWER, p, 0.05, 1.0, 8, 1.5, _streams()),
        "x0",
    ),
    "simulate_path": (
        lambda p: simulate_path(QUAD, p, 0.05, 1.0, 8, NoiseStream(3, 0, D)),
        "x0",
    ),
    "simulate_coupled": (
        lambda p: simulate_coupled(QUAD, p, 0.1, 1.0, 8, NoiseStream(3, 0, D)),
        "x0",
    ),
    "run_replicates": (
        lambda p: run_replicates(
            QUAD, squared_norm, build_schedule(0.1, [0.8, 0.8]), 1.0, p, 3, [0, 1]
        ),
        "x0",
    ),
    "strong_error_curve": (
        lambda p: strong_error_curve(QUAD, 1.0, p, [0.1, 0.05], 0.4, 2, 3),
        "x0",
    ),
    "confluence_curve-x": (
        lambda p: confluence_curve(QUAD, 1.0, p, OTHER, 0.05, 0.4, 2, 3),
        "x",
    ),
    "confluence_curve-y": (
        lambda p: confluence_curve(QUAD, 1.0, OTHER, p, 0.05, 0.4, 2, 3),
        "y",
    ),
    "moment_envelope_check": (
        lambda p: moment_envelope_check(POWER, 1.0, p, 0.05, 1.0, 0.4, 2, 3, 1.0),
        "x0",
    ),
    "decreasing_penalization_probe-x": (
        lambda p: decreasing_penalization_probe(QUAD, 0.5, 0.25, 1.0, p, OTHER, 0.05, 0.4, 2, 3),
        "x",
    ),
    "decreasing_penalization_probe-y": (
        lambda p: decreasing_penalization_probe(QUAD, 0.5, 0.25, 1.0, OTHER, p, 0.05, 0.4, 2, 3),
        "y",
    ),
    "PotentialModel-minimizer": (
        lambda p: PotentialModel(D, QUAD.value_fn, QUAD.gradient_fn, QUAD.profile, p).minimizer,
        "minimizer",
    ),
}


def _bits(out):
    """Every array and number in a result, as (shape, bytes) pairs."""
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    if isinstance(out, (tuple, list)):
        return [leaf for item in out for leaf in _bits(item)]
    a = np.asarray(out)
    return [(a.shape, a.dtype.str, a.tobytes())]


@pytest.mark.parametrize("call, name", START_ENTRIES.values(), ids=list(START_ENTRIES))
class TestStartPoints:
    def test_a_nan_start_is_refused_by_name(self, call, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
            call(np.array([0.3, math.nan]))

    def test_a_scalar_start_fills_every_coordinate(self, call, name):
        assert _bits(call(0.3)) == _bits(call(np.full(D, 0.3)))


@pytest.mark.parametrize("dim", [True, 2.0, 0])
def test_a_potential_model_needs_an_integer_dimension(dim):
    with pytest.raises(InvalidParameterError, match="^dim must be a positive integer"):
        PotentialModel(dim, QUAD.value_fn, QUAD.gradient_fn, QUAD.profile, np.zeros(1))


@pytest.mark.parametrize("dim", [2.7, True, 0])
def test_a_noise_stream_needs_an_integer_dimension(dim):
    with pytest.raises(InvalidParameterError, match="^dim must be a positive integer"):
        NoiseStream(0, 0, dim)


@pytest.mark.parametrize("driver", [engine.occupation_sums, engine.coupled_diff_sums])
@pytest.mark.parametrize("n_burn", [-1, 8, 9])
def test_both_window_drivers_refuse_an_empty_window_alike(driver, n_burn):
    message = f"^empty averaging window: burn {n_burn} of 8 steps$"
    with pytest.raises(InvalidParameterError, match=message):
        driver(QUAD, squared_norm, OTHER, 0.1, 1.0, 8, n_burn, _streams())
