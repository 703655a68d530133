"""Step-size and horizon calibration: goldens, validation, invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlgibbs import (
    Convexity,
    ConvexityProfile,
    InfeasibleCalibrationError,
    InvalidParameterError,
    LevelSchedule,
    build_schedule,
    calibrate_penalized,
    calibrate_single_level,
    calibrate_weak_i,
    calibrate_weak_ii,
    complexity_bound_penalized,
    complexity_bound_weak,
    cost_of,
    decreasing_penalization_gap,
    gaussians_of,
    make_power,
    penalization_bias_bounds,
    regime_constants,
    single_level_schedule,
)
from mlgibbs.calibration import step_bound

POWER_PROFILE = make_power(1, 0.75).profile


class TestRegimeConstants:
    def test_reference_power_family_constants(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        np.testing.assert_allclose(rc.gamma_star, 1.0 / 9.0, rtol=1e-12)
        assert rc.psi_bar == 4.0

    def test_two_sided_profile_golden(self):
        pr = ConvexityProfile(
            Convexity.PARAMETRIC_TWO_SIDED, L=1.0, c_lower=1.0, c_upper=1.0, r=0.5
        )
        rc = regime_constants(pr, 1, 1.0)
        assert rc.gamma_star == 0.125
        assert rc.psi_bar == 2.0

    def test_lower_only_profile_golden(self):
        pr = ConvexityProfile(Convexity.PARAMETRIC_LOWER, L=1.0, c_lower=1.0, r=0.5)
        rc = regime_constants(pr, 1, 1.0)
        assert rc.gamma_star == 0.25
        assert rc.psi_bar == 10.0

    def test_lower_only_profile_accepts_only_the_default_c_r(self):
        # its moment scale has no c_r term, so any other c_r would be ignored
        pr = ConvexityProfile(Convexity.PARAMETRIC_LOWER, L=2.0, c_lower=0.5, r=0.4)
        assert regime_constants(pr, 3, 1.0, c_r=1.0).psi_bar == 155.7481451556507
        with pytest.raises(InvalidParameterError, match="^c_r "):
            regime_constants(pr, 3, 1.0, c_r=50.0)

    def test_moment_scale_grows_linearly_with_dimension(self):
        one = regime_constants(POWER_PROFILE, 1, 1.0).psi_bar
        four = regime_constants(POWER_PROFILE, 4, 1.0).psi_bar
        np.testing.assert_allclose(four, 4.0 * one, rtol=1e-12)

    def test_non_parametric_profile_rejected(self):
        pr = ConvexityProfile(Convexity.STRONGLY_CONVEX, L=1.0, alpha=1.0)
        with pytest.raises(InvalidParameterError, match="c_lower"):
            regime_constants(pr, 1, 1.0)

    def test_step_bound_is_gamma_star_or_a_quarter_of_one_over_L(self):
        two_sided = ConvexityProfile(
            Convexity.PARAMETRIC_TWO_SIDED, L=1.0, c_lower=1.0, c_upper=1.0, r=0.5
        )
        assert step_bound(two_sided) == 0.125
        assert step_bound(POWER_PROFILE) == regime_constants(
            POWER_PROFILE, 3, 2.0, 0.5
        ).gamma_star
        strong = ConvexityProfile(Convexity.STRONGLY_CONVEX, L=2.0, alpha=1.0)
        assert step_bound(strong) == 0.125


class TestBiasBounds:
    def test_golden_values(self):
        b = penalization_bias_bounds(0.5, 2.0)
        assert b.kl == 0.0625
        assert b.w1 == 0.25

    def test_zero_ridge_means_zero_bias(self):
        b = penalization_bias_bounds(0.0, 2.0)
        assert b.kl == 0.0
        assert b.w1 == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            penalization_bias_bounds(-0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            penalization_bias_bounds(0.5, 0.0)


class TestLevelSchedule:
    def test_fields_and_counts(self):
        sch = LevelSchedule(J=1, gamma=(1.0, 0.5), T=(8.0, 4.0), tau=0.0, rho=0.5)
        assert sch.step_counts == (8, 4)
        assert cost_of(sch) == 8 + 3 * 4
        assert gaussians_of(sch) == 8 + 2 * 4
        assert sch.burn_counts() == (0, 0)

    def test_single_level_cost(self):
        sch = single_level_schedule(0.1, 10.0)
        assert sch.J == 0
        assert sch.rho == 0.0
        assert cost_of(sch) == 100
        assert gaussians_of(sch) == 100

    def test_build_schedule_rounds_horizons_up(self):
        sch = build_schedule(0.1, [0.95])
        assert sch.T == (1.0,)
        assert sch.step_counts == (10,)

    def test_gammas_must_halve_exactly(self):
        with pytest.raises(InvalidParameterError):
            LevelSchedule(J=1, gamma=(1.0, 0.4), T=(8.0, 4.0), tau=0.0, rho=0.5)

    def test_horizons_must_sit_on_the_coarse_grid(self):
        with pytest.raises(InvalidParameterError):
            LevelSchedule(J=1, gamma=(1.0, 0.5), T=(8.0, 4.3), tau=0.0, rho=0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            LevelSchedule(J=2, gamma=(1.0, 0.5), T=(8.0, 4.0), tau=0.0, rho=0.5)

    def test_burn_in_must_precede_every_horizon(self):
        with pytest.raises(InvalidParameterError):
            LevelSchedule(J=1, gamma=(1.0, 0.5), T=(8.0, 4.0), tau=4.0, rho=0.5)
        # below the horizon, but rounded up to the grid it fills every step
        with pytest.raises(InvalidParameterError, match="no averaging window"):
            build_schedule(0.25, [2.0], tau=1.8)
        with pytest.raises(InvalidParameterError, match="level 1 no averaging window"):
            build_schedule(0.25, [4.0, 1.0], tau=0.9)

    def test_mixing_weight_range(self):
        with pytest.raises(InvalidParameterError):
            LevelSchedule(J=0, gamma=(1.0,), T=(8.0,), tau=0.0, rho=1.5)

    def test_burn_counts_follow_tau(self):
        sch = build_schedule(0.5, [10.0, 5.0], tau=2.0)
        assert sch.burn_counts() == (4, 4)

    def test_round_trip_to_dict(self):
        sch = build_schedule(0.5, [10.0, 5.0], tau=1.0, rho=0.25)
        d = sch.to_dict()
        assert d["J"] == 1
        assert tuple(d["gamma"]) == sch.gamma
        assert tuple(d["T"]) == sch.T
        assert d["tau"] == 1.0
        assert d["rho"] == 0.25


class TestPenalizedCalibration:
    def test_golden_plan(self):
        plan = calibrate_penalized(0.1, 1.0, 1, 0.75, 1.0)
        np.testing.assert_allclose(plan.alpha, 0.23094010767585033, rtol=1e-12)
        np.testing.assert_allclose(plan.schedule.gamma[0], 0.07620711545124112, rtol=1e-12)
        assert plan.schedule.J == 11
        np.testing.assert_allclose(plan.schedule.T[0], 4826.882485566161, rtol=1e-12)
        assert plan.epsilon == 0.1
        assert not plan.statement_mode

    def test_ridge_strength_formula(self):
        for eps, m4 in [(0.1, 0.75), (0.3, 2.0), (0.05, 1.0)]:
            plan = calibrate_penalized(eps, 1.0, 1, m4, 1.0)
            np.testing.assert_allclose(plan.alpha, 2.0 * eps / math.sqrt(m4), rtol=1e-14)

    def test_horizons_halve_down_the_levels(self):
        plan = calibrate_penalized(0.1, 1.0, 1, 0.75, 1.0)
        T = plan.schedule.T
        for j in range(1, len(T)):
            # rounding to the grid can only nudge the exact halving
            assert T[j] == pytest.approx(T[j - 1] / 2.0, rel=1e-3)

    def test_statement_mode_golden(self):
        plan = calibrate_penalized(0.5, 1.0, 1, 0.75, 1.0, statement_mode=True)
        assert plan.statement_mode
        np.testing.assert_allclose(plan.schedule.gamma[0], 0.5773502691896258, rtol=1e-12)
        assert plan.schedule.J == 4
        np.testing.assert_allclose(plan.schedule.T[0], 13.279056191361395, rtol=1e-12)
        # flat horizons: the first two levels share the coarse grid rounding
        assert plan.schedule.T[0] == plan.schedule.T[1]

    def test_level_count_clamps_to_one_with_a_warning(self):
        # a loose target with a small fourth moment drives the raw level
        # count below one; the plan clamps it and says so
        with pytest.warns(RuntimeWarning):
            plan = calibrate_penalized(0.4, 1.0, 1, 0.08, 1.0)
        assert plan.schedule.J == 1

    def test_step_size_above_one_is_infeasible(self):
        with pytest.raises(InfeasibleCalibrationError):
            calibrate_penalized(0.05, 1.0, 1, 100.0, 0.01)

    def test_vanishing_top_horizon_is_infeasible(self):
        with pytest.raises(InfeasibleCalibrationError):
            calibrate_penalized(0.01, 1.0, 4000, 1e-8, 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            calibrate_penalized(0.0, 1.0, 1, 0.75, 1.0)
        with pytest.raises(InvalidParameterError):
            calibrate_penalized(0.1, -1.0, 1, 0.75, 1.0)
        with pytest.raises(InvalidParameterError):
            calibrate_penalized(0.1, 1.0, 0, 0.75, 1.0)

    def test_plan_serializes(self):
        plan = calibrate_penalized(0.2, 1.0, 1, 0.75, 1.0)
        d = plan.to_dict()
        assert d["alpha"] == plan.alpha
        assert d["epsilon"] == 0.2
        assert d["m4"] == 0.75

    @given(eps=st.floats(min_value=0.02, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_tighter_targets_cost_more(self, eps):
        loose = calibrate_penalized(eps, 1.0, 1, 0.75, 1.0)
        tight = calibrate_penalized(eps / 2.0, 1.0, 1, 0.75, 1.0)
        assert tight.alpha < loose.alpha
        assert tight.schedule.J >= loose.schedule.J
        assert cost_of(tight.schedule) > cost_of(loose.schedule)


class TestWeakCalibration:
    def test_variant_i_golden(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        sch = calibrate_weak_i(0.2, POWER_PROFILE, rc, 0.25, rc.gamma_star)
        assert sch.J == 8
        np.testing.assert_allclose(sch.T[0], 3961.666666666667, rtol=1e-12)
        assert sch.step_counts[0] == 35655

    def test_variant_ii_golden(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        sch = calibrate_weak_ii(0.2, POWER_PROFILE, rc, 0.1, rc.gamma_star)
        assert sch.J == 6
        np.testing.assert_allclose(sch.T[0], 979.5555555555557, rtol=1e-12)

    def test_delta_cap(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        for bad in (0.0, -0.1, 0.3, 1.0):
            with pytest.raises(InvalidParameterError):
                calibrate_weak_i(0.2, POWER_PROFILE, rc, bad, rc.gamma_star)

    def test_step_size_cannot_exceed_the_regime_bound(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            calibrate_weak_i(0.2, POWER_PROFILE, rc, 0.25, rc.gamma_star * 1.01)

    def test_variant_ii_mixing_weight_range(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidParameterError):
                calibrate_weak_ii(0.2, POWER_PROFILE, rc, 0.1, rc.gamma_star, rho=bad)


class TestComplexityBounds:
    def test_penalized_golden(self):
        val = complexity_bound_penalized(0.1, 1.0, 1, 0.75, 1.0, 0.1155)
        np.testing.assert_allclose(val, 34068040.36491615, rtol=1e-12)

    def test_penalized_needs_a_level(self):
        # a loose enough target drives the raw level count to zero or below;
        # the bound counts one level, as the schedule clamps J to 1
        val = complexity_bound_penalized(2.0, 1.0, 1, 0.75, 1.0, 0.1)
        one_level = (1.0 / 3.0) * math.log(10.0) * 0.75**1.5 * 2.0**-5
        assert val == pytest.approx(one_level, rel=1e-12)

    def test_penalized_step_size_range(self):
        with pytest.raises(InvalidParameterError):
            complexity_bound_penalized(0.1, 1.0, 1, 0.75, 1.0, 1.5)

    def test_weak_goldens(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        vi = complexity_bound_weak("i", 0.2, POWER_PROFILE, rc, 0.25)
        np.testing.assert_allclose(vi, 15757.260077924162, rtol=1e-12)
        vii = complexity_bound_weak(
            "ii", 0.2, POWER_PROFILE, rc, 0.25, rho=0.5, gamma0=rc.gamma_star
        )
        np.testing.assert_allclose(vii, 17756.97685456135, rtol=1e-12)

    def test_weak_variant_ii_requires_a_step_size(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            complexity_bound_weak("ii", 0.2, POWER_PROFILE, rc, 0.25)

    def test_unknown_variant_rejected(self):
        rc = regime_constants(POWER_PROFILE, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            complexity_bound_weak("iii", 0.2, POWER_PROFILE, rc, 0.25)


_NAN, _INF = math.nan, math.inf
ARGUMENT_FAULTS = {
    "regime-sigma-nan": lambda: regime_constants(POWER_PROFILE, 1, _NAN),
    "penalized-sigma-nan": lambda: calibrate_penalized(0.1, _NAN, 1, 0.75, 1.0),
    "penalized-sigma-inf": lambda: calibrate_penalized(0.1, _INF, 1, 0.75, 1.0),
    "penalized-m4-nan": lambda: calibrate_penalized(0.1, 1.0, 1, _NAN, 1.0),
    "penalized-m4-inf": lambda: calibrate_penalized(0.1, 1.0, 1, _INF, 1.0),
    "penalized-L-inf": lambda: calibrate_penalized(0.1, 1.0, 1, 0.75, _INF),
    "penalized-d-fraction": lambda: calibrate_penalized(0.1, 1.0, 1.5, 0.75, 1.0),
    "single-level-gamma0-inf": lambda: calibrate_single_level(0.2, 1.0, 1, _INF),
    "schedule-T-inf": lambda: LevelSchedule(J=0, gamma=(1.0,), T=(_INF,), tau=0.0, rho=0.0),
}


@pytest.mark.parametrize("call", ARGUMENT_FAULTS.values(), ids=list(ARGUMENT_FAULTS))
def test_bad_argument_is_an_invalid_parameter(call):
    with pytest.raises(InvalidParameterError):
        call()


class TestDecreasingPenalizationGap:
    def test_golden_value(self):
        val = decreasing_penalization_gap(0.4, 0.2, 1, 1.0, 1.0, 4.0)
        np.testing.assert_allclose(val, 2.7973158564688863, rtol=1e-12)

    def test_ridges_must_strictly_decrease(self):
        with pytest.raises(InvalidParameterError):
            decreasing_penalization_gap(0.2, 0.2, 1, 1.0, 1.0, 4.0)
        with pytest.raises(InvalidParameterError):
            decreasing_penalization_gap(0.1, 0.2, 1, 1.0, 1.0, 4.0)
