"""The multilevel estimator: stream layout, exact costs, reproducibility."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mlgibbs import (
    Convexity,
    ConvexityProfile,
    InvalidParameterError,
    NoiseStream,
    PotentialModel,
    build_schedule,
    calibrate_penalized,
    cost_of,
    engine,
    gaussians_of,
    make_quadratic,
    occupation_average,
    penalize,
    run_replicates,
    simulate_path,
    single_level_schedule,
    squared_norm,
)
from mlgibbs.cli import parse_config, prepare_run
from mlgibbs.estimator import STREAM_LEVEL_SPAN, LevelJob, level_jobs, stream_id_for


class TestStreamLayout:
    def test_id_packing(self):
        assert stream_id_for(0, 0) == 0
        assert stream_id_for(3, 2) == 3 * STREAM_LEVEL_SPAN + 2
        assert stream_id_for(1, 0) == STREAM_LEVEL_SPAN

    def test_distinct_pairs_get_distinct_ids(self):
        seen = {stream_id_for(r, j) for r in range(50) for j in range(12)}
        assert len(seen) == 50 * 12

    def test_invalid_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            stream_id_for(-1, 0)
        with pytest.raises(InvalidParameterError):
            stream_id_for(0, -1)
        with pytest.raises(InvalidParameterError):
            stream_id_for(0, STREAM_LEVEL_SPAN)

    @pytest.mark.parametrize("bad", [True, 1.5, -1], ids=["bool", "float", "negative"])
    def test_a_replicate_id_or_level_is_a_nonnegative_integer(self, bad):
        # True * 2**20 + 3 is replicate 1's stream id, and a refused float is
        # named as the caller gave it, not as the stream id derived from it
        with pytest.raises(
            InvalidParameterError, match=f"^replicate_id must be a nonnegative integer, got {bad}$"
        ):
            stream_id_for(bad, 3)
        with pytest.raises(
            InvalidParameterError, match=f"^level must be a nonnegative integer, got {bad}$"
        ):
            stream_id_for(3, bad)

    def test_run_replicates_names_a_bad_replicate_id(self, quad1):
        with pytest.raises(
            InvalidParameterError, match="^replicate_id must be a nonnegative integer, got 1.5$"
        ):
            run_replicates(
                quad1, squared_norm, build_schedule(0.1, [0.8, 0.8]), 1.0, 0.0, 3, [0, 1.5]
            )

    def test_level_values_equal_direct_driver_calls(self, power1):
        """Level j of replicate r reads stream r * 2**20 + j; level 0 is the
        chain on gamma[0], level j >= 1 the pair on coarse step gamma[j-1]."""
        sch = build_schedule(0.05, [20.0, 10.0, 5.0], tau=1.0)
        ids = [0, 1, 5]
        batch = run_replicates(power1, squared_norm, sch, 1.0, np.zeros(1), 17, ids)
        counts, burns = sch.step_counts, sch.burn_counts()
        assert min(burns) > 0
        for j in range(3):
            streams = engine.make_streams(17, [rid * 2**20 + j for rid in ids], 1)
            if j == 0:
                sums = engine.occupation_sums(
                    power1, squared_norm, np.zeros(1), sch.gamma[0], 1.0,
                    counts[0], burns[0], streams,
                )[0]
            else:
                sums = engine.coupled_diff_sums(
                    power1, squared_norm, np.zeros(1), sch.gamma[j - 1], 1.0,
                    counts[j], burns[j], streams,
                )[0]
            want = sums / (counts[j] - burns[j])
            assert batch.level_values[:, j].tobytes() == want.tobytes()


class TestLevelJobs:
    def test_single_level_schedule_is_one_chain_job(self):
        sch = single_level_schedule(0.1, 10.0, tau=2.0)
        assert level_jobs(sch) == (LevelJob(0, 0.1, 100, 20),)
        (job,) = level_jobs(sch)
        assert (job.gradient_evals, job.gaussians) == (100, 100)

    def test_pairs_run_on_the_coarse_step(self):
        sch = build_schedule(0.25, [8.0, 4.0, 2.0])
        assert level_jobs(sch) == (
            LevelJob(0, 0.25, 32, 0),
            LevelJob(1, 0.25, 16, 0),
            LevelJob(2, 0.125, 16, 0),
        )
        assert [job.gradient_evals for job in level_jobs(sch)] == [32, 48, 48]
        assert [job.gaussians for job in level_jobs(sch)] == [32, 32, 32]

    @pytest.mark.parametrize(
        "config, grads, draws",
        [
            (
                {"potential": {"name": "quadratic", "dim": 1}, "method": "penalized",
                 "epsilon": 0.18, "f": "coord:0"},
                50752,
                35136,
            ),
            (
                {"potential": {"name": "power", "dim": 3, "p": 0.75}, "method": "weak_ii",
                 "epsilon": 2.0, "f": "norm2"},
                35854,
                24227,
            ),
        ],
    )
    def test_benchmark_schedules_sum_to_their_counted_work(self, config, grads, draws):
        raw = dict(config, sigma=1.0, replicates=100, seed=7)
        jobs = level_jobs(prepare_run(parse_config(raw)).schedule)
        assert sum(job.gradient_evals for job in jobs) == grads
        assert sum(job.gaussians for job in jobs) == draws


def _counting_model(counted):
    """Unit quadratic in one dimension, without closed form, whose gradient
    counts its calls and the points it is evaluated at."""

    def grad(x):
        x = np.asarray(x, dtype=float)
        counted["calls"] += 1
        counted["points"] += x.shape[0] if x.ndim == 2 else 1
        return x

    return PotentialModel(
        1,
        lambda x: 0.5 * float(np.sum(np.asarray(x) ** 2)),
        grad,
        ConvexityProfile(Convexity.STRONGLY_CONVEX, L=1.0, alpha=1.0),
        np.zeros(1),
    )


class TestExactCosts:
    def test_single_level(self):
        sch = single_level_schedule(0.1, 10.0)
        assert cost_of(sch) == 100
        assert gaussians_of(sch) == 100

    def test_two_levels(self):
        sch = build_schedule(1.0, [8.0, 4.0])
        assert cost_of(sch) == 8 + 3 * 4
        assert gaussians_of(sch) == 8 + 2 * 4

    def test_reported_counters_match_the_formulas(self, quad1):
        sch = build_schedule(0.25, [8.0, 4.0, 2.0])
        out = run_replicates(quad1, squared_norm, sch, 1.0, np.zeros(1), 3, [0])
        assert out.gradient_evals == cost_of(sch)
        assert out.gaussians_drawn == gaussians_of(sch)

    def test_gradient_calls_are_counted_exactly(self):
        """Gradient evaluations, one per point of each call, equal the
        advertised cost per lane."""
        counted = {"calls": 0, "points": 0}
        model = _counting_model(counted)
        sch = build_schedule(0.25, [8.0, 4.0])
        counts = sch.step_counts
        # the fine half-step and the coarse step share one call
        calls = counts[0] + 2 * sum(counts[1:])

        def count(run):
            counted.update(calls=0, points=0)
            run()
            return counted["calls"], counted["points"]

        solo = count(
            lambda: run_replicates(model, squared_norm, sch, 1.0, np.zeros(1), 3, [0])
        )
        assert solo == (calls, cost_of(sch))
        batch = count(
            lambda: run_replicates(model, squared_norm, sch, 1.0, np.zeros(1), 3, [0, 1, 2])
        )
        assert batch == (calls, 3 * cost_of(sch))

    @given(
        J=st.integers(0, 3),
        rho=st.floats(0.0, 1.0),
        tau_share=st.floats(0.0, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_counted_work_of_a_run_equals_the_formulas(self, J, rho, tau_share):
        """Any schedule that validates runs, and the gradient points and
        Gaussian vectors a three-lane run consumes, counted as it consumes
        them, equal three times cost_of and gaussians_of."""
        counted = {"calls": 0, "points": 0, "vectors": 0}
        model = _counting_model(counted)
        horizons = [2.0 * 2.0 ** (-(1.0 - rho) * j) for j in range(J + 1)]
        try:
            sch = build_schedule(0.25, horizons, tau=tau_share * min(horizons), rho=rho)
        except InvalidParameterError:
            reject()  # the burn-in fills some level
        normals = NoiseStream.normals

        def counting_normals(self, *args):
            out = normals(self, *args)
            counted["vectors"] += out.shape[0]
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(NoiseStream, "normals", counting_normals)
            run_replicates(model, squared_norm, sch, 1.0, np.zeros(1), 3, [0, 1, 2])
        assert counted["points"] == 3 * cost_of(sch)
        assert counted["vectors"] == 3 * gaussians_of(sch)


class TestReproducibility:
    def test_batch_rows_equal_solo_runs_bitwise(self, power1):
        sch = build_schedule(0.05, [20.0, 10.0, 5.0])
        batch = run_replicates(
            power1, squared_norm, sch, 1.0, np.zeros(1), 17, [0, 1, 5]
        )
        for row, rid in enumerate([0, 1, 5]):
            solo = run_replicates(power1, squared_norm, sch, 1.0, np.zeros(1), 17, [rid])
            assert solo.values[0] == batch.values[row]
            assert np.array_equal(solo.level_values[0], batch.level_values[row])

    def test_repeated_replicate_id_repeats_its_noise(self, power1):
        sch = build_schedule(0.05, [10.0, 5.0])
        batch = run_replicates(power1, squared_norm, sch, 1.0, np.zeros(1), 17, [7, 7])
        assert batch.values[0] == batch.values[1]
        assert np.var(batch.values) == 0.0

    def test_single_level_reduces_to_the_occupation_average(self, quad1):
        """With one level the estimator is a plain time average, and the
        stream layout makes it bit-identical to a hand-run path."""
        sch = single_level_schedule(0.1, 50.0, tau=5.0)
        out = run_replicates(quad1, squared_norm, sch, 1.0, np.zeros(1), 23, [0])
        noise = NoiseStream(23, stream_id_for(0, 0), 1)
        path = simulate_path(quad1, np.zeros(1), 0.1, 1.0, sch.step_counts[0], noise)
        manual = occupation_average(path, lambda x: float(np.dot(x, x)), 0.1, 5.0, 50.0)
        assert out.values[0] == manual

    def test_distinct_replicates_differ(self, power1):
        sch = build_schedule(0.05, [10.0, 5.0])
        batch = run_replicates(power1, squared_norm, sch, 1.0, np.zeros(1), 17, [0, 1])
        assert batch.values[0] != batch.values[1]


class TestStatisticalSanity:
    def test_constant_observable_is_estimated_exactly(self, quad1):
        sch = build_schedule(0.1, [20.0, 10.0, 5.0])
        out = run_replicates(quad1, lambda x: 3.25, sch, 1.0, np.zeros(1), 2, [0])
        assert out.values[0] == 3.25
        assert out.level_values[0].tolist() == [3.25, 0.0, 0.0]

    def test_mean_tracks_the_ridged_invariant_moment(self, quad1):
        """The penalized chain targets the ridged law, whose second moment
        is sigma^2 / (2 (scale + alpha)) for a centered quadratic."""
        plan = calibrate_penalized(0.2, 1.0, 1, 0.75, 1.0)
        ridged = penalize(quad1, plan.alpha)
        batch = run_replicates(
            ridged, squared_norm, plan.schedule, 1.0, np.zeros(1), 77, range(200)
        )
        mean = float(np.mean(batch.values))
        sem = float(np.std(batch.values, ddof=1) / math.sqrt(200))
        want = 0.5 / (1.0 + plan.alpha)
        assert abs(mean - want) <= 5.0 * sem + 0.01

    def test_longer_horizons_shrink_the_burn_in_bias(self, quad1):
        """Starting far from the minimizer, the level zero bias decays
        roughly like 1/T as the averaging window grows."""
        biases = []
        for horizon in (25.0, 50.0, 100.0):
            sch = single_level_schedule(0.01, horizon)
            batch = run_replicates(
                quad1, squared_norm, sch, 1.0, np.full(1, 2.0), 5, range(400)
            )
            biases.append(abs(float(np.mean(batch.values)) - 0.5))
        assert biases[0] > biases[1] > biases[2]
        assert biases[0] / biases[2] > 2.5


class TestFailureHandling:
    def test_batch_marks_failed_lanes_instead_of_raising(self, quad1):
        sch = single_level_schedule(3.0, 3300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batch = run_replicates(
                quad1, squared_norm, sch, 1.0, np.full(1, 1.0), 0, [0, 1]
            )
        assert not batch.ok.any()

    def test_validation(self, quad1):
        sch = single_level_schedule(0.1, 5.0)
        with pytest.raises(InvalidParameterError):
            run_replicates(quad1, squared_norm, sch, 0.0, np.zeros(1), 0, [0])
        with pytest.raises(InvalidParameterError):
            run_replicates(quad1, squared_norm, sch, 1.0, np.zeros(1), 0, [])
        with pytest.raises(InvalidParameterError):
            run_replicates(quad1, squared_norm, sch, 1.0, np.zeros(3), 0, [0])
