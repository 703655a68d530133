"""Reference oracles, error curves, and the MSE experiment harness."""

import numpy as np
import pytest

from mlgibbs import (
    InvalidParameterError,
    MseReport,
    OracleFailureError,
    ReferenceValue,
    build_schedule,
    calibrate_penalized,
    confluence_curve,
    coordinate,
    engine,
    euclidean_norm,
    fourth_moment_reference,
    fourth_norm,
    long_run_reference,
    make_power,
    make_quadratic,
    moment_envelope_check,
    penalize,
    reference_for,
    reference_moment,
    run_mse_experiment,
    single_level_schedule,
    squared_norm,
    strong_error_curve,
    w1_distance_1d,
)
from mlgibbs.diagnostics import (
    MSE_CSV_HEADER,
    decreasing_penalization_probe,
    level_variance_profile,
    mse_csv_row,
    quadratic_confluence_theory,
)
from mlgibbs.estimator import STREAM_LEVEL_SPAN, stream_id_for


@pytest.fixture(scope="module")
def power1_oracle():
    """The long-run oracle of E|X|^2 on the power1 target, computed once."""
    return long_run_reference(make_power(1, 0.75), squared_norm, 1.0, seed=0)


class TestReferenceValue:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReferenceValue(1.0, "guesswork", 0.0)

    def test_negative_error_rejected(self):
        with pytest.raises(InvalidParameterError):
            ReferenceValue(1.0, "closed_form", -1e-3)


class TestClosedFormReferences:
    def test_centered_gaussian_moments(self, quad1):
        assert reference_for(quad1, squared_norm, 1.0).value == 0.5
        assert reference_for(quad1, fourth_norm, 1.0).value == 0.75
        assert reference_for(quad1, coordinate(0), 1.0).value == 0.0

    def test_two_dimensional_moments(self):
        m = make_quadratic(2)
        assert reference_for(m, squared_norm, 1.0).value == 1.0
        assert reference_for(m, fourth_norm, 1.0).value == 2.0

    def test_shifted_gaussian_moments(self):
        m = make_quadratic(2, center=0.7)
        ref = reference_for(m, squared_norm, 1.0)
        assert ref.method == "closed_form"
        np.testing.assert_allclose(ref.value, 2 * 0.49 + 1.0, rtol=1e-14)
        assert reference_for(m, coordinate(1), 1.0).value == 0.7

    def test_fourth_moment_helper_matches(self, quad1):
        ref = fourth_moment_reference(quad1, 1.0)
        assert ref.method == "closed_form"
        assert ref.value == 0.75


class TestQuadratureReferences:
    def test_one_dimensional_fallback(self, power1):
        ref = reference_for(power1, squared_norm, 1.0)
        assert ref.method == "quadrature_1d"
        assert 0.0 < ref.value < 1.0

    def test_odd_observable_with_tiny_mean(self):
        """Absolute tolerance handling keeps near zero integrals stable."""
        m = make_quadratic(1, center=0.5)
        ref = reference_moment(m, 1.0, lambda x: float(np.ravel(x)[0] - 0.5))
        assert abs(ref.value) < 1e-8

    def test_radial_reduction_in_higher_dimension(self):
        m = make_power(3, 0.75)
        ref = reference_for(m, squared_norm, 1.0)
        assert ref.method == "quadrature_1d"
        np.testing.assert_allclose(ref.value, 1.3100150348900175, rtol=1e-8)

    def test_centered_coordinate_is_exactly_zero(self):
        m = make_power(3, 0.75)
        ref = reference_for(m, coordinate(2), 1.0)
        assert ref.value == 0.0

    def test_quadrature_agrees_with_the_gaussian_closed_form(self, quad1):
        ref = reference_moment(quad1, 1.0, lambda x: float(np.ravel(x)[0] ** 2))
        np.testing.assert_allclose(ref.value, 0.5, rtol=1e-9)


class TestLongRunReference:
    def test_cross_checked_against_exact_sampling(self):
        """Shifted two dimensional norm has no closed form here; the chain
        oracle must agree with direct Monte Carlo from the exact law."""
        m = make_quadratic(2, center=0.7)
        ref = reference_for(m, euclidean_norm, 1.0)
        assert ref.method == "long_run_oracle"
        rng = np.random.default_rng(123)
        draws = rng.normal(0.0, np.sqrt(0.5), size=(4_000_000, 2)) + 0.7
        exact = float(np.mean(np.linalg.norm(draws, axis=1)))
        assert abs(ref.value - exact) < 0.03
        assert ref.error_estimate > 0.0

    def test_batch_means_error_is_reported(self, power1):
        ref = long_run_reference(power1, squared_norm, 1.0, seed=0)
        assert ref.method == "long_run_oracle"
        assert ref.error_estimate > 0.0

    def test_lane_oracle_agrees_with_quadrature(self, power1, power1_oracle):
        exact = reference_for(power1, squared_norm, 1.0)
        assert exact.method == "quadrature_1d"
        assert abs(power1_oracle.value - exact.value) <= 4.0 * power1_oracle.error_estimate

    def test_rerun_is_bitwise_identical(self, power1, power1_oracle):
        again = long_run_reference(power1, squared_norm, 1.0, seed=0)
        assert again.value.hex() == power1_oracle.value.hex()
        assert again.error_estimate.hex() == power1_oracle.error_estimate.hex()

    def test_one_driver_call_on_streams_no_run_reads(self, power1, monkeypatch):
        ids, calls = [], []
        make_streams = engine.make_streams

        def recording(seed, stream_ids, dim):
            ids.extend(stream_ids)
            return make_streams(seed, stream_ids, dim)

        def driver(model, f, x0, gamma, sigma, n_steps, n_burn, streams):
            calls.append((len(streams), n_burn, n_steps - n_burn))
            lanes = len(streams)
            return np.arange(lanes, dtype=float), np.ones(lanes, dtype=bool), None

        monkeypatch.setattr(engine, "make_streams", recording)
        monkeypatch.setattr(engine, "occupation_sums", driver)
        long_run_reference(power1, squared_norm, 1.0, seed=0)
        # a tenth of 6.4M steps burned, the rest split over the 32 lanes
        assert calls == [(32, 640_000, 180_000)]
        assert len(set(ids)) == 32
        # stream_id_for(r, j) = r * STREAM_LEVEL_SPAN + j, so these are the
        # ids of no (replicate, level) pair with j < STREAM_LEVEL_SPAN - 1
        assert all(sid % STREAM_LEVEL_SPAN == STREAM_LEVEL_SPAN - 1 for sid in ids)
        run_ids = {stream_id_for(r, j) for r in range(64) for j in range(64)}
        assert run_ids.isdisjoint(ids)

    def test_a_diverged_lane_fails_the_oracle(self, power1, monkeypatch):
        def driver(model, f, x0, gamma, sigma, n_steps, n_burn, streams):
            ok = np.ones(len(streams), dtype=bool)
            ok[7] = False
            return np.zeros(len(streams)), ok, None

        monkeypatch.setattr(engine, "occupation_sums", driver)
        with pytest.raises(OracleFailureError):
            long_run_reference(power1, squared_norm, 1.0, seed=0)


class TestW1Distance:
    def test_identical_models_have_zero_distance(self, quad1):
        assert w1_distance_1d(quad1, quad1, 1.0) < 1e-10

    def test_translation_distance_is_the_shift(self):
        a = make_quadratic(1)
        b = make_quadratic(1, center=0.3)
        np.testing.assert_allclose(w1_distance_1d(a, b, 1.0), 0.3, rtol=1e-6)

    def test_symmetry(self, quad1, power1):
        ab = w1_distance_1d(quad1, power1, 1.0)
        ba = w1_distance_1d(power1, quad1, 1.0)
        np.testing.assert_allclose(ab, ba, rtol=1e-9)

    def test_ridge_distance_within_the_analytic_bound(self, quad1):
        from mlgibbs import penalization_bias_bounds

        alpha = 0.1
        bound = penalization_bias_bounds(alpha, 0.75).w1
        dist = w1_distance_1d(quad1, penalize(quad1, alpha), 1.0)
        assert dist <= bound


class TestMseExperiment:
    def test_report_decomposition_is_consistent(self, quad1):
        sch = single_level_schedule(0.1, 50.0)
        ref = ReferenceValue(0.5, "closed_form", 0.0)
        report = run_mse_experiment(
            quad1, squared_norm, sch, 1.0, ref, R=50, seed=9
        )
        assert report.replicates == 50
        assert report.decomposition_residual() <= 1e-12
        assert report.mean_cost == 500.0

    def test_constant_observable_gives_a_zero_report(self, quad1):
        sch = single_level_schedule(0.1, 10.0)
        ref = ReferenceValue(2.0, "closed_form", 0.0)
        report = run_mse_experiment(
            quad1, lambda x: 2.0, sch, 1.0, ref, R=10, seed=9
        )
        assert report.bias == 0.0
        assert report.variance == 0.0
        assert report.rmse == 0.0

    def test_needs_at_least_two_replicates(self, quad1):
        sch = single_level_schedule(0.1, 10.0)
        ref = ReferenceValue(0.5, "closed_form", 0.0)
        with pytest.raises(InvalidParameterError):
            run_mse_experiment(
                quad1, squared_norm, sch, 1.0, ref, R=1, seed=9
            )

    def test_doubling_replicates_leaves_the_estimate_stable(self, quad1):
        plan = calibrate_penalized(0.2, 1.0, 1, 0.75, 1.0)
        ridged = penalize(quad1, plan.alpha)
        ref = ReferenceValue(0.5, "closed_form", 0.0)
        sch = plan.schedule
        small = run_mse_experiment(ridged, squared_norm, sch, 1.0, ref, R=100, seed=3)
        large = run_mse_experiment(ridged, squared_norm, sch, 1.0, ref, R=200, seed=3)
        sem = np.sqrt(small.variance / 100 + large.variance / 200)
        assert abs(small.mean - large.mean) <= 4.0 * sem + 1e-12
        assert 0.5 < small.variance / large.variance < 2.0


class TestCsvRow:
    def test_field_count_matches_the_header(self, quad1):
        sch = single_level_schedule(0.1, 10.0)
        ref = ReferenceValue(0.5, "closed_form", 0.0)
        report = run_mse_experiment(
            quad1, squared_norm, sch, 1.0, ref, R=5, seed=9
        )
        row = mse_csv_row("single_level", "quadratic", 1, 1.0, 0.5, sch, report, 9)
        assert len(row.split(",")) == len(MSE_CSV_HEADER.split(","))
        assert row.startswith("single_level,quadratic,1,")

    def test_floats_round_trip_through_repr(self, quad1):
        sch = single_level_schedule(0.1, 10.0)
        ref = ReferenceValue(0.5, "closed_form", 0.0)
        report = run_mse_experiment(
            quad1, squared_norm, sch, 1.0, ref, R=5, seed=9
        )
        row = mse_csv_row("single_level", "quadratic", 1, 1.0, 0.5, sch, report, 9)
        fields = row.split(",")
        mean_field = fields[MSE_CSV_HEADER.split(",").index("mean")]
        assert float(mean_field) == report.mean


class TestStrongErrorCurve:
    def test_slope_conventions_are_consistent(self, power1):
        curve = strong_error_curve(
            power1, 1.0, np.array([0.3]), [0.1, 0.05, 0.025], 5.0, R=100, seed=2
        )
        np.testing.assert_allclose(curve.mean_square_slope, 2.0 * curve.slope, rtol=1e-12)
        assert 0.5 < curve.slope < 1.5
        assert all(v > 0 for v in curve.mean_square_gaps)

    def test_gaps_shrink_with_the_step(self, power1):
        curve = strong_error_curve(
            power1, 1.0, np.array([0.3]), [0.1, 0.05, 0.025], 5.0, R=100, seed=2
        )
        gaps = curve.mean_square_gaps
        assert gaps[0] > gaps[1] > gaps[2]

    def test_step_sizes_beyond_the_regime_bound_are_rejected(self, power1):
        with pytest.raises(InvalidParameterError):
            strong_error_curve(
                power1, 1.0, np.array([0.3]), [0.2, 0.1], 5.0, R=10, seed=2
            )

    def test_needs_two_steps_and_two_pairs(self, power1):
        with pytest.raises(InvalidParameterError):
            strong_error_curve(power1, 1.0, np.array([0.3]), [0.1], 5.0, R=10, seed=2)
        with pytest.raises(InvalidParameterError):
            strong_error_curve(
                power1, 1.0, np.array([0.3]), [0.1, 0.05], 5.0, R=1, seed=2
            )

    def test_more_pairs_than_the_stream_span_are_rejected(self, power1, monkeypatch):
        # pair k at step size i reads stream_id_for(i, k); a k at or past the
        # span would read the streams of step size i + 1
        built = []
        monkeypatch.setattr(engine, "make_streams", lambda *args: built.append(args))
        with pytest.raises(InvalidParameterError, match="span"):
            strong_error_curve(
                power1, 1.0, np.array([0.3]), [0.1, 0.05], 5.0,
                R=STREAM_LEVEL_SPAN + 1, seed=2,
            )
        assert built == []


class TestConfluence:
    def test_matches_the_quadratic_closed_form(self, quad1):
        curve = confluence_curve(
            quad1, 1.0, np.array([3.0]), np.array([-3.0]), 0.05, 5.0, R=50, seed=4
        )
        n = len(curve.mean_square_distances) - 1
        theory = quadratic_confluence_theory(1.0, 0.05, 36.0, n)
        np.testing.assert_allclose(curve.mean_square_distances, theory, atol=1e-9)

    def test_terminal_is_the_last_entry(self, quad1):
        curve = confluence_curve(
            quad1, 1.0, np.array([1.0]), np.array([-1.0]), 0.05, 2.0, R=10, seed=4
        )
        assert curve.terminal == curve.mean_square_distances[-1]

    def test_theory_starts_at_the_initial_distance(self):
        th = quadratic_confluence_theory(2.0, 0.1, 9.0, 5)
        assert th[0] == 9.0
        np.testing.assert_allclose(th[1] / th[0], (1.0 - 0.2) ** 2, rtol=1e-15)


class TestMomentEnvelope:
    def test_power_chain_stays_inside_the_envelope(self, power1):
        trace = moment_envelope_check(
            power1, 1.0, np.zeros(1), 1.0 / 9.0, 2.0, 20.0, R=50, seed=6, c_margin=8.0
        )
        assert trace.passed
        assert trace.max_ratio <= 1.0
        assert trace.envelope > 0.0
        assert len(trace.series) == len(trace.times)

    def test_validation(self, power1):
        with pytest.raises(InvalidParameterError):
            moment_envelope_check(
                power1, 1.0, np.zeros(1), 0.05, -1.0, 5.0, R=10, seed=6, c_margin=8.0
            )
        with pytest.raises(InvalidParameterError):
            moment_envelope_check(
                power1, 1.0, np.zeros(1), 0.05, 2.0, 5.0, R=10, seed=6, c_margin=0.0
            )


class TestLevelVariance:
    def test_profile_reports_each_level(self, power1):
        sch = build_schedule(1.0 / 9.0, [40.0, 20.0, 10.0])
        profile = level_variance_profile(
            power1, squared_norm, sch, 1.0, np.zeros(1), 200, 8
        )
        assert profile.replicates == 200
        assert len(profile.levels) == 3
        assert all(v >= 0.0 for v in profile.variances)
        assert 0.0 <= profile.max_cross_correlation() <= 1.0

    def test_demands_a_real_sample(self, power1):
        sch = build_schedule(1.0 / 9.0, [10.0, 5.0])
        with pytest.raises(InvalidParameterError):
            level_variance_profile(power1, squared_norm, sch, 1.0, np.zeros(1), 50, 8)


class TestPenalizationProbe:
    def test_gap_respects_the_analytic_bound(self, quad1):
        probe = decreasing_penalization_probe(
            quad1, 0.4, 0.2, 1.0, np.array([1.0]), np.array([-1.0]), 0.01, 0.5,
            R=50, seed=3,
        )
        assert probe.gap <= probe.bound
        assert probe.series[0] == 4.0
        assert len(probe.series) == len(probe.times)

    def test_equal_ridges_rejected(self, quad1):
        with pytest.raises(InvalidParameterError):
            decreasing_penalization_probe(
                quad1, 0.2, 0.2, 1.0, np.array([1.0]), np.array([-1.0]), 0.01, 0.5,
                R=10, seed=3,
            )


def run_diagnostic(name, x, y, sigma=1.0, horizon=1.0):
    """One short run of a start-point-taking diagnostic in three dimensions."""
    power3 = make_power(3, 0.75)
    if name == "strong_error":
        return strong_error_curve(power3, sigma, x, [0.1, 0.05], horizon, R=4, seed=2)
    if name == "confluence":
        return confluence_curve(power3, sigma, x, y, 0.1, horizon, R=4, seed=2)
    if name == "moments":
        return moment_envelope_check(
            power3, sigma, x, 0.1, 2.0, horizon, R=4, seed=2, c_margin=8.0
        )
    return decreasing_penalization_probe(
        make_quadratic(3), 0.4, 0.2, sigma, x, y, 0.05, horizon, R=4, seed=2
    )


DIAGNOSTICS = ["strong_error", "confluence", "moments", "probe"]


class TestStartPoints:
    @pytest.mark.parametrize("name", DIAGNOSTICS)
    def test_scalar_starts_broadcast(self, name):
        scalar = run_diagnostic(name, 1.0, -1.0)
        full = run_diagnostic(name, np.full(3, 1.0), np.full(3, -1.0))
        assert scalar == full

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", DIAGNOSTICS)
    def test_non_finite_starts_are_invalid(self, name, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            run_diagnostic(name, np.array([0.5, bad, 0.0]), np.zeros(3))


class TestProbeArguments:
    @pytest.mark.parametrize(
        "bad",
        [
            {"horizon": np.nan},
            {"horizon": np.inf},
            {"sigma": np.nan},
            {"sigma": np.inf},
            {"sigma": 0.0},
            {"sigma": -1.0},
        ],
        ids=["horizon-nan", "horizon-inf", "sigma-nan", "sigma-inf", "sigma-0", "sigma-neg"],
    )
    @pytest.mark.parametrize("name", DIAGNOSTICS)
    def test_non_finite_or_nonpositive_arguments_are_invalid(self, name, bad):
        with pytest.raises(InvalidParameterError):
            run_diagnostic(name, 1.0, -1.0, **bad)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("oracle", ["reference_for", "moment", "long_run", "w1"])
    def test_oracles_reject_a_bad_sigma(self, quad1, oracle, sigma):
        with pytest.raises(InvalidParameterError, match="sigma"):
            if oracle == "reference_for":
                reference_for(quad1, squared_norm, sigma)
            elif oracle == "moment":
                reference_moment(quad1, sigma, squared_norm)
            elif oracle == "long_run":
                long_run_reference(quad1, squared_norm, sigma, seed=0)
            else:
                w1_distance_1d(quad1, quad1, sigma)
