"""Single paths, coupled pairs, noise streams, and the time grid."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlgibbs import (
    Convexity,
    ConvexityProfile,
    InvalidParameterError,
    NoiseStream,
    NumericalOverflowError,
    PotentialModel,
    euler_step,
    make_power,
    make_quadratic,
    occupation_average,
    simulate_coupled,
    simulate_path,
)
from mlgibbs.sde import grid_count_up


def zero_potential(dim=1):
    """Flat potential; the chain is a pure Gaussian random walk."""
    return PotentialModel(
        dim,
        lambda x: 0.0 * np.sum(np.atleast_2d(x), axis=-1).squeeze(),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ConvexityProfile(Convexity.WEAKLY_CONVEX, L=1.0),
        np.zeros(dim),
    )


class TestTimeGrid:
    def test_grid_count_up_examples(self):
        assert grid_count_up(1.0, 0.1) == 10
        assert grid_count_up(1.05, 0.1) == 11
        assert grid_count_up(0.0, 0.5) == 0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_grid_count_up_rejects_a_bad_horizon(self, t):
        with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
            grid_count_up(t, 0.1)

    @given(
        k=st.integers(min_value=0, max_value=10_000),
        gamma=st.sampled_from([0.5, 0.25, 0.1, 1.0 / 3.0, 0.05, 1.0 / 9.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_grid_points_round_trip(self, k, gamma):
        t = k * gamma
        assert grid_count_up(t, gamma) == k

    @given(
        t=st.floats(min_value=0.0, max_value=1e4),
        gamma=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_up_covers_the_horizon(self, t, gamma):
        n = grid_count_up(t, gamma)
        assert n * gamma >= t - 1e-9 * max(1.0, t)
        assert (n - 1) * gamma < t or n == 0


class TestNoiseStream:
    def test_shapes_and_cursor(self):
        s = NoiseStream(0, 3, 2)
        block = s.normals(5)
        assert block.shape == (5, 2)
        assert s.cursor == 5

    def test_chunked_draws_match_one_shot(self):
        a = NoiseStream(7, 1, 3)
        first = a.normals(5)
        rest = a.normals(3)
        b = NoiseStream(7, 1, 3)
        whole = b.normals(8)
        np.testing.assert_array_equal(np.vstack([first, rest]), whole)

    def test_draws_into_a_buffer_match_fresh_draws(self):
        a, b = NoiseStream(7, 1, 3), NoiseStream(7, 1, 3)
        buf = np.full((2, 5, 3), np.nan)
        got = b.normals(5, buf[1])
        assert np.shares_memory(got, buf[1])
        np.testing.assert_array_equal(buf[1], a.normals(5))
        assert np.isnan(buf[0]).all()
        assert b.cursor == a.cursor == 5
        np.testing.assert_array_equal(b.normals(2, np.empty((2, 3))), a.normals(2))
        assert b.cursor == a.cursor == 7

    def test_streams_with_distinct_ids_differ(self):
        a = NoiseStream(7, 0, 1).normals(100)
        b = NoiseStream(7, 1, 1).normals(100)
        assert not np.array_equal(a, b)

    def test_replay_is_bitwise(self):
        a = NoiseStream(42, 9, 4).normals(1000)
        b = NoiseStream(42, 9, 4).normals(1000)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_marginals_look_standard_normal(self, seed):
        n = 1_000_000
        z = NoiseStream(seed, 0, 1).normals(n)[:, 0]
        root_n = math.sqrt(n)
        assert abs(z.mean()) * root_n < 4.0
        assert abs(z.var() - 1.0) * root_n < 5.0

    def test_invalid_arguments_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseStream(-1, 0, 1)
        with pytest.raises(InvalidParameterError):
            NoiseStream(0, -2, 1)
        with pytest.raises(InvalidParameterError):
            NoiseStream(0, 0, 0)


def test_the_reference_imports_none_of_the_code_it_checks():
    """The scalar reference stays apart from the batched engine it verifies."""
    source = Path(__file__).resolve().parents[1] / "src" / "mlgibbs" / "sde.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert "potentials" in parts
    assert not parts & {"engine", "estimator", "diagnostics"}


class TestEulerStep:
    def test_one_step_arithmetic_is_exact(self, quad1):
        new = euler_step(quad1, np.array([1.0]), 0.5, 1.0, np.array([1.0]))
        # x - gamma x + sigma sqrt(gamma) z with x=1, gamma=0.5, z=1
        assert new[0] == 0.5 + math.sqrt(0.5)

    def test_overflow_reports_the_failing_step(self, quad1):
        # x_n = (-7)^n 1e300 (the noise is far below its spacing) first
        # leaves float range at n = 10
        with pytest.warns(RuntimeWarning), pytest.raises(NumericalOverflowError) as err:
            simulate_path(quad1, np.array([1e300]), 8.0, 1.0, 20, NoiseStream(0, 0, 1))
        assert err.value.step_index == 10


class TestSimulatePath:
    def test_returns_initial_state_plus_n_steps(self, quad1):
        path = simulate_path(quad1, np.array([0.3]), 0.1, 1.0, 7, NoiseStream(0, 0, 1))
        assert path.shape == (8, 1)
        assert path[0, 0] == 0.3

    def test_consumes_one_vector_per_step(self, quad3):
        noise = NoiseStream(0, 0, 3)
        simulate_path(quad3, np.zeros(3), 0.1, 1.0, 7, noise)
        assert noise.cursor == 7

    def test_zero_steps_is_just_the_start(self, quad1):
        path = simulate_path(quad1, np.array([0.3]), 0.1, 1.0, 0, NoiseStream(0, 0, 1))
        assert path.shape == (1, 1)

    def test_rerun_is_bitwise_identical(self, power1):
        a = simulate_path(power1, np.array([0.5]), 0.05, 1.0, 200, NoiseStream(3, 8, 1))
        b = simulate_path(power1, np.array([0.5]), 0.05, 1.0, 200, NoiseStream(3, 8, 1))
        np.testing.assert_array_equal(a, b)

    def test_large_step_on_smooth_model_warns(self, quad1):
        with pytest.warns(RuntimeWarning):
            simulate_path(quad1, np.zeros(1), 0.6, 1.0, 3, NoiseStream(0, 0, 1))

    def test_parametric_step_bound_is_enforced(self, power1):
        # gamma_star for this profile is 1/9
        with pytest.raises(InvalidParameterError):
            simulate_path(power1, np.zeros(1), 0.2, 1.0, 3, NoiseStream(0, 0, 1))

    def test_long_run_variance_matches_the_invariant_law(self, quad1):
        """Second moment of the chain settles near sigma^2 / 2 for unit scale."""
        path = simulate_path(
            quad1, np.zeros(1), 0.01, 1.0, 100_000, NoiseStream(0, 0, 1)
        )
        tail = path[50_000:, 0]
        assert abs(np.mean(tail**2) - 0.5) < 0.05


class TestSimulateCoupled:
    def test_flat_potential_pair_coincides_bitwise(self):
        """With no drift the two resolutions see identical increment sums."""
        model = zero_potential()
        fine, coarse = simulate_coupled(
            model, np.array([0.7]), 0.2, 1.0, 50, NoiseStream(5, 2, 1)
        )
        assert fine.shape == coarse.shape == (51, 1)
        np.testing.assert_array_equal(fine, coarse)

    def test_fine_chain_runs_at_twice_the_resolution(self, quad3):
        """Two draws per coarse step: the fine path steps twice as often."""
        noise = NoiseStream(5, 2, 3)
        fine, _ = simulate_coupled(quad3, np.zeros(3), 0.1, 1.0, 30, noise)
        assert noise.cursor == 60
        path = simulate_path(quad3, np.zeros(3), 0.05, 1.0, 60, NoiseStream(5, 2, 3))
        np.testing.assert_array_equal(fine, path[::2])

    def test_rerun_is_bitwise_identical(self, power1):
        a = simulate_coupled(power1, np.array([0.3]), 0.1, 1.0, 60, NoiseStream(9, 4, 1))
        b = simulate_coupled(power1, np.array([0.3]), 0.1, 1.0, 60, NoiseStream(9, 4, 1))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestOccupationAverage:
    def test_plain_mean_over_the_window(self):
        path = np.arange(10.0)[:, None]
        out = occupation_average(path, lambda x: float(x[0]), 0.5, 1.0, 3.0)
        # window covers grid indices 2, 3, 4, 5
        assert out == np.mean([2.0, 3.0, 4.0, 5.0])

    def test_zero_burn_in_starts_at_the_initial_state(self):
        path = np.arange(5.0)[:, None]
        assert occupation_average(path, lambda x: float(x[0]), 1.0, 0.0, 3.0) == 1.0

    def test_window_endpoints_must_sit_on_the_grid(self):
        path = np.zeros((10, 1))
        with pytest.raises(InvalidParameterError):
            occupation_average(path, lambda x: 0.0, 0.5, 0.3, 3.0)
        with pytest.raises(InvalidParameterError):
            occupation_average(path, lambda x: 0.0, 0.5, 0.0, 2.7)

    def test_empty_window_rejected(self):
        path = np.zeros((10, 1))
        with pytest.raises(InvalidParameterError):
            occupation_average(path, lambda x: 0.0, 0.5, 2.0, 2.0)

    def test_short_path_rejected(self):
        path = np.zeros((3, 1))
        with pytest.raises(InvalidParameterError):
            occupation_average(path, lambda x: 0.0, 0.5, 0.0, 5.0)

    def test_ergodic_average_approaches_the_invariant_moment(self, quad1):
        path = simulate_path(
            quad1, np.zeros(1), 0.01, 1.0, 200_000, NoiseStream(0, 1, 1)
        )
        out = occupation_average(
            path, lambda x: float(x[0] ** 2), 0.01, 100.0, 2000.0
        )
        assert abs(out - 0.5) < 0.05

    @given(offset=st.integers(min_value=0, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_shifting_the_window_shifts_the_mean(self, offset):
        path = np.arange(20.0)[:, None]
        tau = float(offset)
        out = occupation_average(path, lambda x: float(x[0]), 1.0, tau, tau + 4.0)
        assert out == pytest.approx(offset + 1.5)
