"""The shared input rules: start points, dimensions, seeds and stream ids, the
averaging window, and the arguments every path simulation checks on entry."""

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


def _lanes(dim=D, lanes=2):
    return engine.make_streams(3, list(range(lanes)), dim)


# entry -> (call(gamma, sigma, count, streams) with every other argument
# valid, the count's name); the scalar reference takes the first stream
PATH_ENTRIES = {
    "occupation_sums": (
        lambda g, s, n, st: engine.occupation_sums(QUAD, squared_norm, OTHER, g, s, n, 0, st),
        "n_steps",
    ),
    "coupled_diff_sums": (
        lambda g, s, n, st: engine.coupled_diff_sums(QUAD, squared_norm, OTHER, g, s, n, 0, st),
        "n_coarse",
    ),
    "pair_distance_series": (
        lambda g, s, n, st: engine.pair_distance_series(QUAD, POWER, OTHER, 0.3, g, s, n, st),
        "n_steps",
    ),
    "value_power_series": (
        lambda g, s, n, st: engine.value_power_series(POWER, OTHER, g, s, n, 1.5, st),
        "n_steps",
    ),
    "simulate_path": (lambda g, s, n, st: simulate_path(QUAD, OTHER, g, s, n, st[0]), "n_steps"),
    "simulate_coupled": (
        lambda g, s, n, st: simulate_coupled(QUAD, OTHER, g, s, n, st[0]),
        "n_coarse_steps",
    ),
}
DRIVERS = [name for name in PATH_ENTRIES if not name.startswith("simulate_")]

# case -> (gamma, sigma, count, stream dimension, message); {count} is the count's name
NARROW, WIDE = D - 1, D + 1
PATH_CASES = {
    "streams-narrower": (
        0.05, 1.0, 8, NARROW, f"noise stream dimension {NARROW} does not match model dimension {D}"
    ),
    "streams-wider": (
        0.05, 1.0, 8, WIDE, f"noise stream dimension {WIDE} does not match model dimension {D}"
    ),
    "gamma-nan": (math.nan, 1.0, 8, D, "gamma must be positive and finite, got nan"),
    "gamma-negative": (-0.05, 1.0, 8, D, "gamma must be positive and finite, got -0.05"),
    "sigma-nan": (0.05, math.nan, 8, D, "sigma must be positive and finite, got nan"),
    "sigma-negative": (0.05, -1.0, 8, D, "sigma must be positive and finite, got -1.0"),
    "count-bool": (0.05, 1.0, True, D, "{count} must be a nonnegative integer, got True"),
    "count-float": (0.05, 1.0, 10.0, D, "{count} must be a nonnegative integer, got 10.0"),
}


def test_every_path_simulation_is_in_the_argument_matrix():
    # a driver added to engine.__all__ must take the shared check too
    drivers = set(engine.__all__) - {"BACKEND", "make_streams"}
    assert set(PATH_ENTRIES) == drivers | {"simulate_path", "simulate_coupled"}


@pytest.mark.parametrize("case", PATH_CASES.values(), ids=list(PATH_CASES))
@pytest.mark.parametrize("call, count", PATH_ENTRIES.values(), ids=list(PATH_ENTRIES))
def test_a_path_simulation_refuses_a_bad_argument_by_name(call, count, case):
    gamma, sigma, n, dim, message = case
    with pytest.raises(InvalidParameterError, match=f"^{message.format(count=count)}$"):
        call(gamma, sigma, n, _lanes(dim))


@pytest.mark.parametrize("name", DRIVERS)
def test_a_driver_refuses_an_empty_stream_list(name):
    call, _ = PATH_ENTRIES[name]
    with pytest.raises(InvalidParameterError, match="^need at least one noise stream$"):
        call(0.05, 1.0, 8, [])


def test_pair_distance_series_needs_two_models_of_one_dimension():
    with pytest.raises(
        InvalidParameterError, match="^model_b dimension 2 does not match model_a dimension 1$"
    ):
        engine.pair_distance_series(
            make_power(1, 0.75), make_power(2, 0.75), 0.3, 0.3, 0.05, 1.0, 8, _lanes(1)
        )


@pytest.mark.parametrize("models", [(QUAD, POWER), (POWER, QUAD)], ids=["b", "a"])
def test_pair_distance_series_checks_the_step_against_both_models(models):
    # 0.2 is a valid step for QUAD and above POWER's admissible step 1/9
    with pytest.raises(InvalidParameterError, match="^gamma=0.2 exceeds the admissible step"):
        engine.pair_distance_series(*models, OTHER, 0.3, 0.2, 1.0, 8, _lanes())


@pytest.mark.parametrize("driver", [engine.occupation_sums, engine.coupled_diff_sums])
@pytest.mark.parametrize("n_burn", [True, 2.0])
def test_both_window_drivers_refuse_a_bool_or_float_burn(driver, n_burn):
    message = f"^n_burn must be a nonnegative integer, got {n_burn}$"
    with pytest.raises(InvalidParameterError, match=message):
        driver(QUAD, squared_norm, OTHER, 0.1, 1.0, 8, n_burn, _streams())


@pytest.mark.parametrize("count", [True, 1.5, -1])
def test_a_noise_stream_draws_an_integer_count(count):
    message = f"^count must be a nonnegative integer, got {count}$"
    with pytest.raises(InvalidParameterError, match=message):
        NoiseStream(3, 0, D).normals(count)


def test_a_numpy_integer_count_draws_the_python_ints_bits():
    got = NoiseStream(3, 0, D).normals(np.int64(4))
    assert got.tobytes() == NoiseStream(3, 0, D).normals(4).tobytes()


@pytest.mark.parametrize("gammas", [[0.1, 0.1, 0.1], [0.1, 0.05, 0.1], [0.1]])
def test_strong_error_curve_needs_distinct_step_sizes(gammas):
    with pytest.raises(InvalidParameterError, match="^gammas must be two or more distinct steps"):
        strong_error_curve(QUAD, 1.0, OTHER, gammas, 0.4, 2, 3)
