"""Batched lane simulation against the reference single-path routines."""

import math
import threading

import numpy as np
import pytest

from mlgibbs import (
    Convexity,
    ConvexityProfile,
    InvalidParameterError,
    NoiseStream,
    PotentialModel,
    build_schedule,
    make_power,
    make_quadratic,
    occupation_average,
    penalize,
    run_replicates,
    simulate_coupled,
    simulate_path,
    squared_norm,
)
from mlgibbs import engine, sde


def uncoded(f):
    """Wrap a named observable as a plain callable without its observable code,
    as a user-supplied observable arrives."""
    return lambda x: f(x)


@pytest.fixture(params=[1, 2, 3], ids=["power1", "quad2", "quad3"])
def model(request, power1):
    """The power reference model in one dimension, and off-center quadratics."""
    d = request.param
    return power1 if d == 1 else make_quadratic(d, center=0.2, scale=1.5)


def test_backend_names_the_path_that_runs():
    assert engine.BACKEND == "numpy"
    assert engine.HAVE_NUMBA is False


def test_make_streams_assigns_ids_in_order():
    streams = engine.make_streams(3, [0, 5, 9], 2)
    assert [s.stream_id for s in streams] == [0, 5, 9]
    assert all(s.dim == 2 for s in streams)


# ids of one, two and three 32-bit words in one call, and seeds of one to four:
# seeds and ids below 2**64 fill at most numpy's 4-word entropy pool and take
# the vectorized hash, wider ones take SeedSequence itself
MIXED_IDS = [0, 2**32 - 1, 2**32, 2**33 + 7] + [2**20 * r + j for r in (1, 3, 99) for j in (0, 5)]


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**100])
@pytest.mark.parametrize("ids", [MIXED_IDS, [2**64, 5, 2**96 + 1]], ids=["mixed", "wide"])
def test_make_streams_draws_the_bits_of_noise_stream(seed, ids):
    streams = engine.make_streams(seed, ids, 2)
    assert len(streams) == len(ids)
    for stream, sid in zip(streams, ids):
        assert (stream.seed, stream.stream_id, stream.dim, stream.cursor) == (seed, sid, 2, 0)
        want = NoiseStream(seed, sid, 2)
        for count in (3, 1, 8):
            assert stream.normals(count).tobytes() == want.normals(count).tobytes()


def test_make_streams_of_no_ids_is_empty():
    assert engine.make_streams(7, [], 2) == []
    assert engine.make_streams(7, range(0), 2) == []


# seeds and ids of one and two 32-bit words, at the edges of each width and
# in the stream layout r * 2**20 + j
HASH_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1] + [
    int(s) for s in np.random.default_rng(2027).integers(0, 2**63, size=20)
]
HASH_IDS = [0, 2**32 - 1, 2**32, 2**33 + 7, 2**64 - 1] + [
    2**20 * r + j for r in (0, 1, 99, 4095, 4096, 2**40) for j in (0, 5, 2**20 - 1)
]


def test_seed_words_are_seed_sequences_words():
    for seed in HASH_SEEDS:
        words = sde._seed_words(seed, HASH_IDS)
        assert words.shape == (len(HASH_IDS), 4) and words.dtype == np.uint64
        for row, sid in zip(words, HASH_IDS):
            want = np.random.SeedSequence([seed, sid]).generate_state(4, np.uint64)
            assert row.tolist() == want.tolist(), (seed, sid)


@pytest.mark.parametrize("seed, sid", [(7, 3), (2**32 + 7, 2**33 + 3), (2**64 - 1, 2**64 - 1)])
def test_preset_seed_words_serve_only_pcg64s_request(seed, sid):
    seed_seq = engine.make_streams(seed, [sid], 2)[0]._gen.bit_generator.seed_seq
    assert seed_seq.generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence([seed, sid]).generate_state(4, np.uint64).tolist()
    )
    for n_words, dtype in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError, match="^preset seed words are 4 uint64"):
            seed_seq.generate_state(n_words, dtype)


@pytest.mark.parametrize(
    "seed, ids, dim, message",
    [(1.5, [0], 2, "seed must be a nonnegative integer, got 1.5"),
     (True, [0], 2, "seed must be a nonnegative integer, got True"),
     (-1, [0], 2, "seed must be a nonnegative integer, got -1"),
     (1, [0, 2.9], 2, "stream_id must be a nonnegative integer, got 2.9"),
     (1, [False], 2, "stream_id must be a nonnegative integer, got False"),
     (1, [0, -2], 2, "stream_id must be a nonnegative integer, got -2"),
     (1, [0], 2.7, "dim must be a positive integer, got 2.7"),
     (1, [0], True, "dim must be a positive integer, got True"),
     (1, [0], 0, "dim must be a positive integer, got 0")],
)
def test_make_streams_refuses_what_noise_stream_refuses(seed, ids, dim, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        NoiseStream(seed, ids[-1], dim)
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        engine.make_streams(seed, ids, dim)


class TestInitPositions:
    def test_vector_tiles_across_lanes(self):
        pos = engine._init_positions(np.array([1.0, 2.0]), 3, 2)
        np.testing.assert_array_equal(pos, np.tile([1.0, 2.0], (3, 1)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidParameterError):
            engine._init_positions(np.zeros((2, 3)), 3, 2)


class TestOccupationSums:
    def test_each_lane_matches_a_solo_path(self, model):
        """A lane of the batched run reproduces simulate_path bit for bit."""
        n, burn, d = 200, 20, model.dim
        x0 = np.full(d, 0.4)
        streams = engine.make_streams(11, [4, 7], d)
        sums, ok, pos = engine.occupation_sums(
            model, squared_norm, x0, 0.05, 1.0, n, burn, streams
        )
        assert ok.all()
        for lane, sid in enumerate([4, 7]):
            path = simulate_path(model, x0, 0.05, 1.0, n, NoiseStream(11, sid, d))
            solo = 0.0
            for k in range(burn, n):
                solo += float(squared_norm(path[k]))
            assert sums[lane] == solo
            np.testing.assert_array_equal(pos[lane], path[-1])


class TestCoupledDiffSums:
    def test_each_lane_matches_the_solo_coupled_pair(self, model):
        n, d = 100, model.dim
        x0 = np.full(d, 0.4)
        streams = engine.make_streams(11, [9], d)
        sums, ok, pos_f, pos_c = engine.coupled_diff_sums(
            model, squared_norm, x0, 0.1, 1.0, n, 0, streams
        )
        assert ok.all()
        fine, coarse = simulate_coupled(model, x0, 0.1, 1.0, n, NoiseStream(11, 9, d))
        np.testing.assert_array_equal(pos_f[0], fine[-1])
        np.testing.assert_array_equal(pos_c[0], coarse[-1])

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
            quad1, quad1, np.array([3.0]), np.array([-3.0]), 0.05, 1.0, 10, streams
        )
        assert len(series) == 11
        assert series[0] == 36.0

    def test_quadratic_pair_distance_contracts_deterministically(self, quad1):
        """Shared noise cancels, leaving the exact linear contraction."""
        n = 40
        streams = engine.make_streams(4, [0, 1, 2], 1)
        series, _, _ = engine.pair_distance_series(
            quad1, quad1, np.array([2.0]), np.array([-1.0]), 0.05, 1.0, n, streams
        )
        want = 9.0 * (1.0 - 0.05) ** (2 * np.arange(n + 1))
        np.testing.assert_allclose(series, want, rtol=1e-10)

    def test_ridge_offsets_apply_to_each_chain(self, quad1):
        # same chain, one ridged lane: distances must move apart from zero
        streams = engine.make_streams(4, [0], 1)
        series, _, _ = engine.pair_distance_series(
            penalize(quad1, 0.5), quad1, np.array([1.0]), np.array([1.0]),
            0.05, 1.0, 30, streams,
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


def _per_step_value_power(model, x0, gamma, sigma, n, p_mom, streams):
    """Reference: the series loop with one value call per step."""
    pos = engine._init_positions(x0, len(streams), model.dim)
    noise = np.stack([s.normals(n) for s in streams])
    snoise = sigma * math.sqrt(gamma)
    series = np.empty(n + 1)
    series[0] = float(np.mean(model.value(pos) ** p_mom))
    for m in range(n):
        g = np.asarray(model.gradient_fn(pos), dtype=float)
        pos = pos - gamma * g + snoise * noise[:, m, :]
        series[m + 1] = float(np.mean(model.value(pos) ** p_mom))
    return series


def _per_step_pair_distance(model_a, model_b, x0_a, x0_b, gamma, sigma, n, streams):
    """Reference: two chains on shared noise, one distance per step."""
    R, d = len(streams), model_a.dim
    posa = engine._init_positions(x0_a, R, d)
    posb = engine._init_positions(x0_b, R, d)
    noise = np.stack([s.normals(n) for s in streams])
    snoise = sigma * math.sqrt(gamma)
    series = np.empty(n + 1)
    series[0] = float(np.mean(np.sum((posa - posb) ** 2, axis=1)))
    for m in range(n):
        ga = np.asarray(model_a.gradient_fn(posa), dtype=float)
        gb = np.asarray(model_b.gradient_fn(posb), dtype=float)
        posa = posa - gamma * ga + snoise * noise[:, m, :]
        posb = posb - gamma * gb + snoise * noise[:, m, :]
        series[m + 1] = float(np.mean(np.sum((posa - posb) ** 2, axis=1)))
    return series, posa, posb


def aliasing_model(d):
    """No closed form; the gradient returns its own input array."""
    return PotentialModel(
        d,
        lambda x: 0.5 * np.sum(x * x, axis=-1),
        lambda x: x,
        ConvexityProfile(Convexity.STRONGLY_CONVEX, L=1.0, alpha=1.0),
        np.zeros(d),
    )


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

    # 130 lanes: the lane means go past numpy's 128-element pairwise block
    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n", [150, 13])
    def test_value_power_series(self, blocks, chunk, n, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        model = make_power(2, 0.75)
        x0 = np.array([0.4, -0.2])
        series = engine.value_power_series(
            model, x0, 0.05, 1.0, n, 1.5, engine.make_streams(3, range(130), 2)
        )
        want = _per_step_value_power(
            model, x0, 0.05, 1.0, n, 1.5, engine.make_streams(3, range(130), 2)
        )
        np.testing.assert_array_equal(series, want)

    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n", [150, 13])
    def test_pair_distance_series(self, blocks, chunk, n, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        base = make_quadratic(2, center=np.array([0.3, -0.2]), scale=1.5)
        models = (penalize(base, 1.0), penalize(base, 0.25))
        starts = (np.array([1.0, -1.0]), np.array([-0.5, 0.5]))
        got = engine.pair_distance_series(
            *models, *starts, 0.05, 1.0, n, engine.make_streams(3, range(130), 2)
        )
        want = _per_step_pair_distance(
            *models, *starts, 0.05, 1.0, n, engine.make_streams(3, range(130), 2)
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    # 8- and 24-byte noise vectors; d = 2 is the cases above
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n, burn", WINDOWS)
    def test_occupation_sums_in_other_dimensions(self, blocks, chunk, n, burn, d, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        model = make_power(d, 0.75)
        x0 = np.array([0.4, -0.2, 0.1][:d])
        f = uncoded(squared_norm)
        sums, ok, pos = engine.occupation_sums(
            model, f, x0, 0.05, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], d)
        )
        want, want_pos = _per_step_occupation(
            model, f, x0, 0.05, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], d)
        )
        assert ok.all()
        np.testing.assert_array_equal(sums, want)
        np.testing.assert_array_equal(pos, want_pos)

    # the aliasing model's gradient returns its own input: the drivers keep
    # scratch buffers beside the state, and none may write into a gradient's
    # result
    @pytest.mark.parametrize("aliasing", [False, True], ids=["power", "aliasing"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n, burn", WINDOWS)
    def test_coupled_diff_sums_in_other_dimensions(
        self, blocks, chunk, n, burn, d, aliasing, monkeypatch
    ):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        model = aliasing_model(d) if aliasing else make_power(d, 0.75)
        x0 = np.array([0.4, -0.2, 0.1][:d])
        f = uncoded(squared_norm)
        sums, ok, pf, pc = engine.coupled_diff_sums(
            model, f, x0, 0.1, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], d)
        )
        want, want_f, want_c = _per_step_coupled(
            model, f, x0, 0.1, 1.0, n, burn, engine.make_streams(3, [0, 4, 9], d)
        )
        assert ok.all()
        np.testing.assert_array_equal(sums, want)
        np.testing.assert_array_equal(pf, want_f)
        np.testing.assert_array_equal(pc, want_c)

    @pytest.mark.parametrize("aliasing", [False, True], ids=["ridges", "aliasing"])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("chunk", [20, None])
    @pytest.mark.parametrize("n", [150, 13])
    def test_pair_distance_series_in_other_dimensions(
        self, blocks, chunk, n, d, aliasing, monkeypatch
    ):
        if chunk is not None:
            monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: chunk)
        base = make_quadratic(d, center=np.array([0.3, -0.2, 0.5][:d]), scale=1.5)
        models = ((aliasing_model(d),) * 2 if aliasing
                  else (penalize(base, 1.0), penalize(base, 0.25)))
        starts = (np.array([1.0, -1.0, 0.5][:d]), np.array([-0.5, 0.5, 2.0][:d]))
        got = engine.pair_distance_series(
            *models, *starts, 0.05, 1.0, n, engine.make_streams(3, range(5), d)
        )
        want = _per_step_pair_distance(
            *models, *starts, 0.05, 1.0, n, engine.make_streams(3, range(5), d)
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

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
    monkeypatch.setattr(engine, "_DRAW_GROUPS", 1)  # one thread: a global call order
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


class TestParallelDraw:
    """_draw_chunk fills contiguous lane groups on as many threads."""

    @pytest.fixture(autouse=True)
    def split_any_chunk(self, monkeypatch):
        monkeypatch.setattr(engine, "_DRAW_SPLIT_MIN", 1)

    @pytest.mark.parametrize("count, d, started", [(1023, 1, 0), (341, 3, 0),
                                                   (1024, 1, 2), (342, 3, 2)])
    def test_short_lane_fills_stay_on_the_caller(self, count, d, started, monkeypatch):
        monkeypatch.setattr(engine, "_DRAW_SPLIT_MIN", 1024)
        monkeypatch.setattr(engine, "_DRAW_GROUPS", 3)
        starts = []
        start = threading.Thread.start

        def counted(self):
            starts.append(self)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", counted)
        noise = engine._draw_chunk(engine.make_streams(2, [0, 1, 2], d), count)
        assert len(starts) == started
        want = np.stack([NoiseStream(2, sid, d).normals(count) for sid in range(3)])
        assert noise.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    @pytest.mark.parametrize("groups", [2, 3, 4])
    def test_each_lane_row_gets_one_draw_in_any_order(self, groups, monkeypatch):
        monkeypatch.setattr(engine, "_DRAW_GROUPS", groups)
        calls = []
        normals = NoiseStream.normals

        def spy(self, *args):  # positional only: a keyword argument fails here
            calls.append((self.stream_id, args))
            return normals(self, *args)

        monkeypatch.setattr(NoiseStream, "normals", spy)
        ids = [0, 3, 8, 2, 9]
        noise = engine._draw_chunk(engine.make_streams(5, ids, 2), 11)
        assert sorted(sid for sid, _ in calls) == sorted(ids)
        for sid, args in calls:
            assert len(args) == 2 and args[0] == 11
            assert np.shares_memory(args[1], noise[ids.index(sid)])
        want = np.stack([NoiseStream(5, sid, 2).normals(11) for sid in ids])
        assert noise.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    @pytest.mark.parametrize("groups", [1, 2, 3, 4])
    @pytest.mark.parametrize("R", [1, 2, 3, 5, 100])
    @pytest.mark.parametrize("d", [1, 3])
    def test_chunk_bits_do_not_depend_on_the_group_count(self, groups, R, d, monkeypatch):
        monkeypatch.setattr(engine, "_DRAW_GROUPS", groups)
        ids = [7 * r + 1 for r in range(R)]
        threads = threading.active_count()
        noise = engine._draw_chunk(engine.make_streams(4, ids, d), 13)
        assert threading.active_count() == threads
        want = np.stack([NoiseStream(4, sid, d).normals(13) for sid in ids])
        np.testing.assert_array_equal(noise.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("route", ["penalized", "weak_ii"])
    def test_level_values_do_not_depend_on_the_group_count(self, route, monkeypatch):
        if route == "penalized":
            model = penalize(make_quadratic(1), 0.1)
            sch = build_schedule(0.1, [8.0, 8.0, 8.0], tau=1.0, rho=0.0)
        else:
            model = make_power(3, 0.75)
            sch = build_schedule(0.05, [6.0, 4.0, 3.0], tau=0.5, rho=0.5)
        d, ids = model.dim, [0, 1, 2, 5, 6]

        def level_values(groups):
            monkeypatch.setattr(engine, "_DRAW_GROUPS", groups)
            return run_replicates(model, squared_norm, sch, 1.0, np.zeros(d), 11,
                                  ids).level_values.tobytes()

        solo = level_values(1)
        for groups in (2, 3, 4):
            assert level_values(groups) == solo

    def test_a_failed_thread_start_draws_on_the_caller(self, monkeypatch):
        starts = []

        def no_thread(self):
            starts.append(self)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(engine, "_DRAW_GROUPS", 3)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        # a seed no other test draws, so no freed buffer that np.empty may
        # hand back already holds these values
        ids = [4, 1, 7, 6, 5]
        noise = engine._draw_chunk(engine.make_streams(13, ids, 2), 11)
        assert len(starts) == 2
        want = np.stack([NoiseStream(13, sid, 2).normals(11) for sid in ids])
        assert noise.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    def test_an_error_in_a_worker_group_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(engine, "_DRAW_GROUPS", 2)
        normals = NoiseStream.normals

        def failing(self, *args):
            if self.stream_id == 3:  # the last lane: group 1, off the caller
                raise MemoryError("stream 3")
            return normals(self, *args)

        monkeypatch.setattr(NoiseStream, "normals", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="stream 3"):
            engine._draw_chunk(engine.make_streams(5, [0, 1, 2, 3], 1), 4)
        with pytest.raises(MemoryError, match="stream 3"):
            engine.occupation_sums(make_quadratic(1), squared_norm, np.zeros(1), 0.1,
                                   1.0, 10, 0, engine.make_streams(5, [0, 1, 2, 3], 1))
        assert threading.active_count() == threads


@pytest.mark.parametrize("copies", [1, 2], ids=["chain", "pair"])
@pytest.mark.parametrize("draws", [1, 2])
@pytest.mark.parametrize("d", [1, 3])
def test_each_step_adds_contiguous_lane_slabs(copies, draws, d, monkeypatch):
    # a step reads its state as C-contiguous (copies * R, d) rows and its
    # draws as slabs of that shape, one per draw, in stream order, each lane's
    # draw repeated in every copy of the lane; blocks of 7 steps straddle
    # chunks of 20
    monkeypatch.setattr(engine, "_BLOCK", 7)
    monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: 20)
    R, n, scale = 3, 45, 0.3
    rows = (copies * R, d)
    seen = []

    def step(x, y, noise, k):
        assert x.shape == y.shape == rows and x.flags.c_contiguous and y.flags.c_contiguous
        for j in range(draws):
            slab = noise[draws * k + j]
            assert slab.shape == rows and slab.flags.c_contiguous
            seen.append(slab.reshape(copies, R, d).copy())
        y[...] = x

    state = np.zeros((2, R, d) if copies == 2 else (R, d))
    engine._advance(state, engine.make_streams(5, [0, 3, 8], d), n, draws, scale,
                    step, lambda traj, k, b: None)
    want = np.stack([NoiseStream(5, sid, d).normals(draws * n) for sid in (0, 3, 8)], axis=1)
    for c in range(copies):
        np.testing.assert_array_equal(np.stack(seen)[:, c], want * scale)
