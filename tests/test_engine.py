"""Batched lane simulation against the reference single-path routines."""

import importlib.util
import math

import numpy as np
import pytest

from mlgibbs import (
    InvalidParameterError,
    NoiseStream,
    make_power,
    make_quadratic,
    occupation_average,
    simulate_coupled,
    simulate_path,
    squared_norm,
)
from mlgibbs import engine


def uncoded(f):
    """Wrap a recognized observable so the compiled fast path cannot engage."""
    return lambda x: f(x)


@pytest.fixture
def kernels(monkeypatch):
    """Send closed-form models with coded observables to the kernels.

    Without numba, njit is the identity, so the kernels run as interpreted
    Python: a comparison with the numpy fallback then checks the kernels'
    arithmetic, though not their compiled form.
    """
    if engine.BACKEND == "numpy":
        monkeypatch.setattr(engine, "HAVE_NUMBA", True)


def test_backend_names_the_path_that_runs():
    have = importlib.util.find_spec("numba") is not None
    assert engine.BACKEND == ("numba" if have else "numpy")
    assert engine.HAVE_NUMBA == have


def test_make_streams_assigns_ids_in_order():
    streams = engine.make_streams(3, [0, 5, 9], 2)
    assert [s.stream_id for s in streams] == [0, 5, 9]
    assert all(s.dim == 2 for s in streams)


class TestInitPositions:
    def test_scalar_broadcasts(self):
        pos = engine._init_positions(0.5, 3, 2)
        np.testing.assert_array_equal(pos, np.full((3, 2), 0.5))

    def test_vector_tiles_across_lanes(self):
        pos = engine._init_positions(np.array([1.0, 2.0]), 3, 2)
        np.testing.assert_array_equal(pos, np.tile([1.0, 2.0], (3, 1)))

    def test_full_matrix_passes_through(self):
        want = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(engine._init_positions(want, 3, 2), want)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidParameterError):
            engine._init_positions(np.zeros((2, 3)), 3, 2)


class TestOccupationSums:
    def test_each_lane_matches_a_solo_path(self, power1):
        """A lane of the batched run reproduces simulate_path bit for bit."""
        n, burn = 200, 20
        streams = engine.make_streams(11, [4, 7], 1)
        sums, ok, pos = engine.occupation_sums(
            power1, squared_norm, np.array([0.4]), 0.05, 1.0, n, burn, streams
        )
        assert ok.all()
        for lane, sid in enumerate([4, 7]):
            path = simulate_path(
                power1, np.array([0.4]), 0.05, 1.0, n, NoiseStream(11, sid, 1)
            )
            solo = 0.0
            for k in range(burn, n):
                solo += float(squared_norm(path[k].position))
            assert sums[lane] == solo
            np.testing.assert_array_equal(pos[lane], path[-1].position)

    def test_compiled_and_fallback_sums_agree(self, kernels, power1):
        """Positions are bitwise equal; the accumulated sums may sit one
        ulp apart because the compiled kernel fuses the square-and-add of
        the observable into a single rounding."""
        streams = lambda: engine.make_streams(2, [0, 1, 2], 1)
        fast, ok_f, pos_f = engine.occupation_sums(
            power1, squared_norm, np.array([0.3]), 0.05, 1.0, 150, 10, streams()
        )
        slow, ok_s, pos_s = engine.occupation_sums(
            power1, uncoded(squared_norm), np.array([0.3]), 0.05, 1.0, 150, 10, streams()
        )
        np.testing.assert_array_equal(pos_f, pos_s)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_compiled_and_fallback_agree_in_three_dimensions(self, kernels):
        model = make_quadratic(3, center=0.2, scale=1.5)
        streams = lambda: engine.make_streams(8, [0, 1], 3)
        fast, _, pos_f = engine.occupation_sums(
            model, squared_norm, np.zeros(3), 0.1, 1.0, 150, 10, streams()
        )
        slow, _, pos_s = engine.occupation_sums(
            model, uncoded(squared_norm), np.zeros(3), 0.1, 1.0, 150, 10, streams()
        )
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(pos_f, pos_s)


class TestCoupledDiffSums:
    def test_each_lane_matches_the_solo_coupled_pair(self, power1):
        n = 100
        streams = engine.make_streams(11, [9], 1)
        sums, ok, pos_f, pos_c = engine.coupled_diff_sums(
            power1, squared_norm, np.array([0.4]), 0.1, 1.0, n, 0, streams
        )
        assert ok.all()
        states, _ = simulate_coupled(
            power1, np.array([0.4]), 0.1, 1.0, n, NoiseStream(11, 9, 1)
        )
        np.testing.assert_array_equal(pos_f[0], states[-1].fine.position)
        np.testing.assert_array_equal(pos_c[0], states[-1].coarse.position)

    def test_compiled_and_fallback_coupled_runs_agree(self, kernels, power1):
        """Positions match bitwise; sums may differ in the last ulp.

        The compiled kernel contracts the observable difference into fused
        multiply adds, so the per step f(fine) - f(coarse) values can land
        one ulp away from the interpreted arithmetic once the pair
        decouples.  Positions never touch that code path and stay exact.
        """
        streams = lambda: engine.make_streams(11, [9, 12], 1)
        fast, _, pf_a, pc_a = engine.coupled_diff_sums(
            power1, squared_norm, np.array([0.4]), 0.1, 1.0, 100, 0, streams()
        )
        slow, _, pf_b, pc_b = engine.coupled_diff_sums(
            power1, uncoded(squared_norm), np.array([0.4]), 0.1, 1.0, 100, 0, streams()
        )
        np.testing.assert_array_equal(pf_a, pf_b)
        np.testing.assert_array_equal(pc_a, pc_b)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_compiled_and_fallback_coupled_runs_agree_on_a_quadratic(self, kernels):
        model = make_quadratic(2, center=0.2, scale=1.5)
        streams = lambda: engine.make_streams(11, [9, 12], 2)
        fast, _, pf_a, pc_a = engine.coupled_diff_sums(
            model, squared_norm, np.zeros(2), 0.1, 1.0, 100, 0, streams()
        )
        slow, _, pf_b, pc_b = engine.coupled_diff_sums(
            model, uncoded(squared_norm), np.zeros(2), 0.1, 1.0, 100, 0, streams()
        )
        np.testing.assert_array_equal(pf_a, pf_b)
        np.testing.assert_array_equal(pc_a, pc_b)
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)

    def test_rerun_is_bitwise_identical(self, power1):
        out = []
        for _ in range(2):
            streams = engine.make_streams(11, [9], 1)
            sums, _, pf, pc = engine.coupled_diff_sums(
                power1, squared_norm, np.array([0.4]), 0.1, 1.0, 100, 0, streams
            )
            out.append((sums.copy(), pf.copy(), pc.copy()))
        np.testing.assert_array_equal(out[0][0], out[1][0])
        np.testing.assert_array_equal(out[0][1], out[1][1])
        np.testing.assert_array_equal(out[0][2], out[1][2])

    def test_halving_the_step_shrinks_the_coupling_gap(self, power1):
        """Terminal mean square gap scales like gamma^2 between resolutions."""
        gaps = {}
        for gamma in (0.1, 0.05):
            n = int(round(20.0 / gamma))
            streams = engine.make_streams(99, list(range(200)), 1)
            _, _, pf, pc = engine.coupled_diff_sums(
                power1, squared_norm, np.array([0.3]), gamma, 1.0, n, 0, streams
            )
            gaps[gamma] = float(np.mean(np.sum((pf - pc) ** 2, axis=-1)))
        ratio = gaps[0.1] / gaps[0.05]
        assert gaps[0.05] < gaps[0.1]
        assert 2.0 < ratio < 8.0


class TestSeriesHelpers:
    def test_pair_distance_starts_at_the_initial_separation(self, quad1):
        streams = engine.make_streams(4, [0, 1], 1)
        series, _, _ = engine.pair_distance_series(
            quad1, np.array([3.0]), np.array([-3.0]), 0.05, 1.0, 10, streams
        )
        assert len(series) == 11
        assert series[0] == 36.0

    def test_quadratic_pair_distance_contracts_deterministically(self, quad1):
        """Shared noise cancels, leaving the exact linear contraction."""
        n = 40
        streams = engine.make_streams(4, [0, 1, 2], 1)
        series, _, _ = engine.pair_distance_series(
            quad1, np.array([2.0]), np.array([-1.0]), 0.05, 1.0, n, streams
        )
        want = 9.0 * (1.0 - 0.05) ** (2 * np.arange(n + 1))
        np.testing.assert_allclose(series, want, rtol=1e-10)

    def test_ridge_offsets_apply_to_each_chain(self, quad1):
        # same chain, one ridged lane: distances must move apart from zero
        streams = engine.make_streams(4, [0], 1)
        series, _, _ = engine.pair_distance_series(
            quad1, np.array([1.0]), np.array([1.0]), 0.05, 1.0, 30, streams,
            ridge_a=0.5, ridge_b=0.0,
        )
        assert series[0] == 0.0
        assert series[-1] > 0.0

    def test_value_power_series_starts_at_the_initial_value(self, power1):
        streams = engine.make_streams(4, [0, 1], 1)
        series = engine.value_power_series(
            power1, np.array([2.0]), 0.05, 1.0, 10, 2.0, streams
        )
        assert len(series) == 11
        np.testing.assert_allclose(series[0], power1.value(np.array([2.0])) ** 2.0)


def _per_step_occupation(model, f, x0, gamma, sigma, n, burn, streams):
    """Reference: the numpy loop with one observable call per step."""
    pos = engine._init_positions(x0, len(streams), model.dim)
    noise = np.stack([s.normals(n) for s in streams]) * (sigma * math.sqrt(gamma))
    acc = np.zeros(len(streams))
    for k in range(n):
        if k >= burn:
            acc += f(pos)
        pos -= gamma * np.asarray(model.gradient_fn(pos), dtype=float)
        pos += noise[:, k, :]
    return acc, pos


def _per_step_coupled(model, f, x0, gamma, sigma, n, burn, streams):
    """Reference: the coupled pair as two chains, one observable call per chain
    and step."""
    R, d = len(streams), model.dim
    fine = engine._init_positions(x0, R, d)
    coarse = fine.copy()
    noise = np.stack([s.normals(2 * n) for s in streams]) * (sigma * math.sqrt(0.5 * gamma))
    noise = noise.reshape(R, n, 2, d)
    grad = lambda x: np.asarray(model.gradient_fn(x), dtype=float)
    acc = np.zeros(R)
    for m in range(n):
        if m >= burn:
            acc += f(fine) - f(coarse)
        fine = (fine - 0.5 * gamma * grad(fine)) + noise[:, m, 0, :]
        fine = (fine - 0.5 * gamma * grad(fine)) + noise[:, m, 1, :]
        coarse = ((coarse - gamma * grad(coarse)) + noise[:, m, 0, :]) + noise[:, m, 1, :]
    return acc, fine, coarse


def scalar_norm2(x):
    """An observable that takes one position at a time."""
    if np.ndim(x) != 1:
        raise TypeError("one position at a time")
    return float(x[0] * x[0] + x[1] * x[1])


def rows_of(f):
    return lambda x: np.asarray([f(row) for row in x])


# step counts off the block grid, burn-in ending inside a block, at a block
# edge, past the first block, and on the last step
WINDOWS = [(150, 0), (150, 70), (150, 75), (150, 149), (13, 5)]


class TestBlockedNumpyLoop:
    """The numpy loop evaluates the observable once per block of steps; its
    sums and positions equal the per-step loop's bit for bit."""

    @pytest.fixture(params=[1, 7, 64], ids=lambda b: f"block{b}")
    def blocks(self, request, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK", request.param)

    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n, burn", WINDOWS)
    def test_occupation_sums(self, blocks, chunk, n, burn, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        model = make_power(2, 0.75)
        x0 = np.array([0.4, -0.2])
        f = uncoded(squared_norm)
        sums, ok, pos = engine.occupation_sums(
            model, f, x0, 0.05, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], 2)
        )
        want, want_pos = _per_step_occupation(
            model, f, x0, 0.05, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], 2)
        )
        assert ok.all()
        np.testing.assert_array_equal(sums, want)
        np.testing.assert_array_equal(pos, want_pos)

    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n, burn", WINDOWS)
    def test_coupled_diff_sums(self, blocks, chunk, n, burn, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        model = make_power(2, 0.75)
        x0 = np.array([0.4, -0.2])
        f = uncoded(squared_norm)
        sums, ok, pf, pc = engine.coupled_diff_sums(
            model, f, x0, 0.1, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], 2)
        )
        want, want_f, want_c = _per_step_coupled(
            model, f, x0, 0.1, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], 2)
        )
        assert ok.all()
        np.testing.assert_array_equal(sums, want)
        np.testing.assert_array_equal(pf, want_f)
        np.testing.assert_array_equal(pc, want_c)

    def test_row_wise_observable(self, blocks):
        model = make_power(2, 0.75)
        x0 = np.array([0.4, -0.2])
        streams = lambda: engine.make_streams(3, [0, 4, 9], 2)
        with pytest.warns(RuntimeWarning, match="scalar_norm2") as record:
            sums, ok, _ = engine.occupation_sums(
                model, scalar_norm2, x0, 0.05, 1.0, 150, 75, streams()
            )
        assert len(record) == 1
        want, _ = _per_step_occupation(
            model, rows_of(scalar_norm2), x0, 0.05, 1.0, 150, 75, streams()
        )
        np.testing.assert_array_equal(sums, want)
        with pytest.warns(RuntimeWarning, match="scalar_norm2") as record:
            sums, ok, _, _ = engine.coupled_diff_sums(
                model, scalar_norm2, x0, 0.1, 1.0, 150, 75, streams()
            )
        assert len(record) == 1
        want, _, _ = _per_step_coupled(
            model, rows_of(scalar_norm2), x0, 0.1, 1.0, 150, 75, streams()
        )
        np.testing.assert_array_equal(sums, want)


class TestObservableProbe:
    def test_an_error_of_a_vectorised_observable_propagates(self):
        def fragile(x):
            if np.ndim(x) == 2:
                raise ZeroDivisionError("batch evaluation failed")
            return float(x @ x)

        with pytest.raises(ZeroDivisionError, match="batch evaluation failed"):
            engine.occupation_sums(
                make_power(2, 0.75), fragile, np.zeros(2), 0.05, 1.0, 10, 0,
                engine.make_streams(3, [0], 2),
            )

    def test_a_vectorised_observable_runs_without_warning(self, recwarn):
        engine._batched_observable(squared_norm, 3)
        assert len(recwarn) == 0


def test_draw_chunk_fills_each_lane_row_with_one_draw(monkeypatch):
    calls = []
    normals = NoiseStream.normals

    def spy(self, *args):  # positional only: a keyword argument fails here
        calls.append((self.stream_id, args))
        return normals(self, *args)

    monkeypatch.setattr(NoiseStream, "normals", spy)
    noise = engine._draw_chunk(engine.make_streams(5, [0, 3, 8], 2), 11)
    assert [(sid, args[0]) for sid, args in calls] == [(0, 11), (3, 11), (8, 11)]
    for lane, (_, args) in enumerate(calls):
        assert len(args) == 2 and np.shares_memory(args[1], noise[lane])
    want = np.stack([NoiseStream(5, sid, 2).normals(11) for sid in (0, 3, 8)])
    np.testing.assert_array_equal(noise, want)
