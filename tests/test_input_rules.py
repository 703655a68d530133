"""The shared input rules: start points, dimensions, seeds and stream ids, and the
averaging window."""

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


@pytest.mark.parametrize("dim", [True, 2.0, 0])
@pytest.mark.parametrize(
    "build",
    [make_quadratic, lambda dim: make_power(dim, 0.75), lambda dim: NoiseStream(0, 0, dim),
     lambda dim: engine.make_streams(3, [0, 1], dim)],
    ids=["make_quadratic", "make_power", "NoiseStream", "make_streams"],
)
def test_every_dimension_rule_refuses_a_bool_a_float_and_zero(build, dim):
    with pytest.raises(InvalidParameterError, match="^dim must be a positive integer"):
        build(dim)


def test_a_numpy_integer_dimension_gives_the_bits_of_the_python_int():
    wide, plain = np.int64(D), D
    for make in (lambda d: make_quadratic(d, center=0.2, scale=1.5), lambda d: make_power(d, 0.75)):
        model, want = make(wide), make(plain)
        assert type(model.dim) is int and model.dim == D
        x = np.linspace(-1.0, 2.0, 4 * D).reshape(4, D)
        assert model.gradient_fn(x).tobytes() == want.gradient_fn(x).tobytes()
        assert model.value(x).tobytes() == want.value(x).tobytes()
    stream = NoiseStream(4, 7, wide)
    assert type(stream.dim) is int
    assert stream.normals(5).tobytes() == NoiseStream(4, 7, plain).normals(5).tobytes()
    got, want = engine.make_streams(3, [0, 1], wide), engine.make_streams(3, [0, 1], plain)
    assert all(type(s.dim) is int for s in got)
    assert [s.normals(5).tobytes() for s in got] == [s.normals(5).tobytes() for s in want]


@pytest.mark.parametrize("dim", [2.7, True, 0])
def test_a_noise_stream_needs_an_integer_dimension(dim):
    with pytest.raises(InvalidParameterError, match="^dim must be a positive integer"):
        NoiseStream(0, 0, dim)


@pytest.mark.parametrize(
    "seed, stream_id, name",
    [(1.5, 0, "seed"), (True, 2, "seed"), (-1, 0, "seed"),
     (1, 2.9, "stream_id"), (1, np.float64(2.0), "stream_id"), (1, False, "stream_id"),
     (0, -2, "stream_id")],
)
def test_a_noise_stream_needs_nonnegative_integer_seed_and_stream_id(seed, stream_id, name):
    # int() would truncate a float or bool: NoiseStream(True, 2.9, 1) is not stream 2 of seed 1
    with pytest.raises(InvalidParameterError, match=f"^{name} must be a nonnegative integer"):
        NoiseStream(seed, stream_id, 1)


def test_numpy_integer_seed_and_stream_id_draw_the_python_ints_bits():
    got = NoiseStream(np.int64(4), np.uint32(7), D)
    assert (got.seed, got.stream_id) == (4, 7)
    assert got.normals(5).tobytes() == NoiseStream(4, 7, D).normals(5).tobytes()


def test_run_replicates_refuses_a_float_seed():
    with pytest.raises(InvalidParameterError, match="^seed must be a nonnegative integer"):
        run_replicates(QUAD, squared_norm, build_schedule(0.1, [0.8]), 1.0, OTHER, 1.5, [0])


@pytest.mark.parametrize("driver", [engine.occupation_sums, engine.coupled_diff_sums])
@pytest.mark.parametrize("n_burn", [-1, 8, 9])
def test_both_window_drivers_refuse_an_empty_window_alike(driver, n_burn):
    message = f"^empty averaging window: burn {n_burn} of 8 steps$"
    with pytest.raises(InvalidParameterError, match=message):
        driver(QUAD, squared_norm, OTHER, 0.1, 1.0, 8, n_burn, _streams())
