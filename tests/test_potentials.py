"""Potential models: values, gradients, curvature envelopes, validation."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlgibbs import (
    Convexity,
    ConvexityProfile,
    InvalidParameterError,
    PotentialModel,
    check_gradient,
    make_power,
    make_quadratic,
    penalize,
)
from mlgibbs.potentials import _sum_sq


def hessian_fd(model: PotentialModel, x, h: float = 1e-5) -> np.ndarray:
    """Symmetrized finite-difference Hessian from the exact gradient."""

    x = np.asarray(x, dtype=float)
    d = model.dim
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        H[:, j] = (model.gradient(x + e) - model.gradient(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)


def test_quadratic_value_and_gradient_at_known_points():
    m = make_quadratic(2, center=0.5, scale=2.0)
    c = np.full(2, 0.5)
    assert m.value(c) == 0.0
    assert np.all(m.gradient(c) == 0.0)
    assert m.value(np.array([1.5, 0.5])) == 1.0
    np.testing.assert_allclose(m.gradient(np.array([1.5, 0.5])), [2.0, 0.0])


def test_quadratic_profile_is_strongly_convex_with_scale():
    m = make_quadratic(3, scale=2.0)
    assert m.profile.kind is Convexity.STRONGLY_CONVEX
    assert m.profile.L == 2.0
    assert m.profile.alpha == 2.0
    np.testing.assert_array_equal(m.minimizer, np.zeros(3))


def test_power_value_and_gradient_at_known_points():
    m = make_power(1, 0.75)
    assert m.value(np.zeros(1)) == 1.0
    np.testing.assert_allclose(m.value(np.ones(1)), 2.0**0.75, rtol=1e-15)
    # gradient is 2 p (1 + |x|^2)^(p-1) x
    np.testing.assert_allclose(
        m.gradient(np.ones(1)), [1.5 * 2.0 ** (-0.25)], rtol=1e-15
    )


def test_power_profile_constants():
    m = make_power(2, 0.75)
    pr = m.profile
    assert pr.kind is Convexity.PARAMETRIC_TWO_SIDED
    np.testing.assert_allclose(pr.r, 1.0 / 3.0, rtol=1e-15)
    assert pr.c_lower == 0.75
    assert pr.c_upper == 1.5
    assert pr.L == 1.5


def test_power_at_unit_exponent_has_zero_curvature_decay():
    pr = make_power(1, 1.0).profile
    assert pr.r == 0.0
    assert pr.c_lower == 2.0
    assert pr.c_upper == 2.0
    assert pr.L == 2.0


@pytest.mark.parametrize("p", [0.5, 0.2, 1.2, 0.0, -1.0])
def test_power_exponent_outside_half_one_rejected(p):
    with pytest.raises(InvalidParameterError):
        make_power(1, p)


def test_finite_difference_gradient_agrees_everywhere():
    for model in (make_quadratic(3, center=0.2), make_power(3, 0.6), make_power(1, 1.0)):
        worst = check_gradient(model, points=30, seed=2)
        assert worst < 1e-5


def test_check_gradient_flags_an_inconsistent_model():
    lying = PotentialModel(
        1,
        lambda x: float(np.sum(x * x)),
        lambda x: 3.0 * np.asarray(x),
        ConvexityProfile(Convexity.WEAKLY_CONVEX, L=3.0),
        np.zeros(1),
    )
    with pytest.raises(InvalidParameterError):
        check_gradient(lying)


def test_hessian_eigenvalues_stay_inside_the_parametric_envelope(rng):
    """Sampled Hessians of the power family respect c * U^(-r) bounds.

    The profile promises every eigenvalue lies between c_lower * U^(-r)
    and c_upper * U^(-r); check that numerically over a spread of radii.
    """

    model = make_power(3, 0.75)
    pr = model.profile
    pts = rng.normal(size=(200, 3)) * rng.uniform(0.1, 6.0, size=(200, 1))
    for x in pts:
        u = model.value(x)
        eigs = np.linalg.eigvalsh(hessian_fd(model, x))
        lo = pr.c_lower * u ** (-pr.r)
        hi = pr.c_upper * u ** (-pr.r)
        assert np.all(eigs >= 0.99 * lo)
        assert np.all(eigs <= 1.01 * hi)


def test_penalize_adds_the_ridge_exactly(rng):
    base = make_power(2, 0.75)
    alpha = 0.3
    ridged = penalize(base, alpha)
    for x in rng.normal(size=(20, 2)):
        np.testing.assert_allclose(
            ridged.value(x), base.value(x) + 0.5 * alpha * np.dot(x, x), rtol=1e-14
        )
        np.testing.assert_allclose(
            ridged.gradient(x), base.gradient(x) + alpha * x, rtol=1e-13, atol=1e-15
        )


def test_penalize_profile_and_minimizer():
    base = make_power(2, 0.75)
    ridged = penalize(base, 0.5)
    assert ridged.profile.kind is Convexity.STRONGLY_CONVEX
    assert ridged.profile.alpha == 0.5
    assert ridged.profile.L == base.profile.L + 0.5
    # centered base keeps its minimizer at the origin
    assert np.linalg.norm(ridged.minimizer) < 1e-8


@pytest.mark.parametrize("center", [1e8, 1e12])
def test_minimizer_search_ends_where_float_spacing_stops_it(center):
    """|g| <= 1e-10 is out of reach at these centers; the search returns the
    point it can no longer move instead of iterating to max_iter."""
    start = time.perf_counter()
    ridged = penalize(make_quadratic(1, center=center), 0.5)
    assert time.perf_counter() - start < 1.0
    m = ridged.minimizer
    assert np.all(np.abs(ridged.gradient(m)) < ridged.profile.L * np.spacing(np.abs(m)))


@pytest.mark.parametrize("scale, alpha", [(4.0, 3.0), (0.25, 3.0), (4.0, 0.01)])
def test_minimizer_search_ends_a_cycle_of_equal_values(scale, alpha):
    """Here the iterates stall after a halved step or alternate between two
    neighbouring floats; the search returns at the first repeated state."""
    start = time.perf_counter()
    ridged = penalize(make_quadratic(1, center=1e6, scale=scale), alpha)
    assert time.perf_counter() - start < 1.0
    assert ridged.minimizer[0] == pytest.approx(scale * 1e6 / (scale + alpha), rel=1e-14)


def test_penalized_gradient_is_strongly_monotone(rng):
    base = make_power(2, 0.75)
    alpha = 0.4
    ridged = penalize(base, alpha)
    for _ in range(50):
        x, y = rng.normal(size=(2, 2)) * 3.0
        gap = np.dot(ridged.gradient(x) - ridged.gradient(y), x - y)
        assert gap >= alpha * np.dot(x - y, x - y) - 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind=Convexity.WEAKLY_CONVEX, L=0.0),
        dict(kind=Convexity.WEAKLY_CONVEX, L=-1.0),
        dict(kind=Convexity.WEAKLY_CONVEX, L=float("inf")),
        dict(kind=Convexity.PARAMETRIC_LOWER, L=1.0),
        dict(kind=Convexity.PARAMETRIC_LOWER, L=1.0, c_lower=-0.1, r=0.5),
        dict(kind=Convexity.PARAMETRIC_LOWER, L=0.5, c_lower=1.0, r=0.5),
        dict(kind=Convexity.PARAMETRIC_LOWER, L=1.0, c_lower=1.0, r=1.0),
        dict(kind=Convexity.PARAMETRIC_TWO_SIDED, L=1.0, c_lower=1.0, c_upper=0.5, r=0.5),
        dict(kind=Convexity.STRONGLY_CONVEX, L=1.0),
        dict(kind=Convexity.WEAKLY_CONVEX, L=1.0, alpha=0.3),
    ],
)
def test_profile_validation_rejects_inconsistent_constants(kwargs):
    with pytest.raises(InvalidParameterError):
        ConvexityProfile(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["c_lower", "c_upper", "alpha"])
def test_a_non_finite_profile_constant_is_refused_by_name(name, value):
    # a NaN c_upper satisfies no comparison with c_lower, and would make the
    # step bound NaN, which no step size exceeds
    if name == "alpha":
        base = dict(kind=Convexity.STRONGLY_CONVEX, L=2.0, alpha=1.0)
    else:
        base = dict(
            kind=Convexity.PARAMETRIC_TWO_SIDED, L=1.5, c_lower=0.75, c_upper=1.0, r=1 / 3
        )
    with pytest.raises(InvalidParameterError, match=f"^{name} must be positive and finite"):
        ConvexityProfile(**{**base, name: value})


def test_profile_accepts_the_boundary_cases():
    ConvexityProfile(Convexity.PARAMETRIC_LOWER, L=1.0, c_lower=1.0, r=0.0)
    ConvexityProfile(
        Convexity.PARAMETRIC_TWO_SIDED, L=2.0, c_lower=1.0, c_upper=1.0, r=0.5
    )
    ConvexityProfile(Convexity.STRONGLY_CONVEX, L=2.0, alpha=2.0)


def test_model_rejects_minimizer_of_wrong_shape():
    with pytest.raises(InvalidParameterError):
        PotentialModel(
            2,
            lambda x: float(np.sum(x * x)),
            lambda x: 2.0 * np.asarray(x),
            ConvexityProfile(Convexity.WEAKLY_CONVEX, L=2.0),
            np.zeros(3),
        )


@given(
    p=st.floats(min_value=0.51, max_value=1.0),
    x=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_power_family_is_convex_along_rays(p, x):
    """One dimensional convexity: gradient is nondecreasing in x."""
    m = make_power(1, p)
    g_lo = m.gradient(np.array([x]))[0]
    g_hi = m.gradient(np.array([x + 0.125]))[0]
    assert g_hi >= g_lo - 1e-12


# Row sums of |x|^2: _sum_sq must carry the bits of np.add.reduce(x * x,
# axis=-1) on both of its branches (columns added in order below 8, the
# reduce itself from 8 on), and a 1-D point gives the reduce's numpy scalar.
# 1e-160 squares to a subnormal.
_SPECIALS = np.array(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, np.inf, -np.inf, np.nan, np.exp(20.0),
     -np.exp(-20.0)]
)


def _row_sum_cases(d):
    rng = np.random.default_rng(d)
    for shape in [(d,), (7, d), (100, d), (200, d), (64, 2, 5, d)]:
        normal = rng.standard_normal(shape)
        wide = rng.choice([-1.0, 1.0], size=shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        special = wide.copy()
        flat = special.reshape(-1)
        where = rng.choice(flat.size, size=min(flat.size, 3 * _SPECIALS.size), replace=False)
        flat[where] = np.resize(_SPECIALS, where.size)
        yield from (normal, wide, special)
    for v in _SPECIALS:
        yield np.full(d, v)


@pytest.mark.parametrize("d", range(1, 13))
def test_sum_sq_has_the_bits_of_the_reduce(d):
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _row_sum_cases(d):
            want = np.add.reduce(x * x, axis=-1)
            got = _sum_sq(x)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(
                np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)
            ), (x.shape, x)


@pytest.mark.parametrize("dtype", [bool, np.int16, np.int32, np.float16, np.float32])
def test_sum_sq_of_other_dtypes_is_the_reduce(dtype):
    x = np.array([[200, 1, 0], [3, 200, 1]]).astype(dtype)
    want = np.add.reduce(x * x, axis=-1)
    got = _sum_sq(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# Drift bits: a scalar center and the ridge gradient, built in one owned
# array, must keep the bits of the array formulas, also on signed zeros,
# huge and subnormal entries.
def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _drift_rows(d):
    rng = np.random.default_rng(40 + d)
    x = rng.standard_normal((200, d)) * np.exp(rng.uniform(-30.0, 30.0, (200, d)))
    x[:8] = np.resize([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 1.7e308, -2.2e-308], (8, d))
    return x


@pytest.mark.parametrize("center", [0.0, -0.0, 0.5, -1e-300, 3e100])
@pytest.mark.parametrize("d", [1, 3])
def test_scalar_center_has_the_bits_of_the_full_vector(center, d):
    scalar = make_quadratic(d, center=center, scale=1.7)
    vector = make_quadratic(d, center=np.full(d, center), scale=1.7)
    with np.errstate(over="ignore"):
        for x in (_drift_rows(d), _drift_rows(d)[5]):
            assert _same_bits(scalar.gradient_fn(x), vector.gradient_fn(x))
            assert _same_bits(scalar.value_fn(x), vector.value_fn(x))


def test_signed_zero_center_is_no_scalar():
    # [0.0, -0.0] holds equal values, but at x = -0.0 its entries give drifts
    # of opposite sign; a center judged uniform by value would lose that
    c = np.array([0.0, -0.0])
    x = np.array([[-0.0, -0.0]])
    m = make_quadratic(2, center=c, scale=2.0)
    want = 2.0 * (x - c)
    assert np.signbit(want).tolist() == [[True, False]]
    assert _same_bits(m.gradient_fn(x), want)
    assert _same_bits(m.value_fn(x), 0.5 * 2.0 * _sum_sq(x - c))


def _identity_model(d):
    return PotentialModel(
        d,
        lambda x: 0.5 * np.sum(x * x, axis=-1),
        lambda x: x,
        ConvexityProfile(Convexity.STRONGLY_CONVEX, L=1.0, alpha=1.0),
        np.zeros(d),
    )


@pytest.mark.parametrize(
    "make_base",
    [lambda d: make_quadratic(d, center=0.25, scale=1.5), lambda d: make_power(d, 0.75),
     _identity_model],
    ids=["quadratic", "power", "identity"],
)
@pytest.mark.parametrize("d", [1, 3])
def test_penalized_gradient_has_the_bits_of_the_sum(make_base, d):
    base = make_base(d)
    alpha = 0.37
    ridged = penalize(base, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (_drift_rows(d), _drift_rows(d)[5]):
            kept = x.copy()
            got = ridged.gradient_fn(x)
            assert _same_bits(got, base.gradient_fn(x) + alpha * x)
            assert _same_bits(x, kept)
            assert got is not x and not np.shares_memory(got, x)


# make_power's gradient squares x into a buffer it owns, turns the row sums
# into the weight in place and multiplies the buffer by x; IEEE + and *
# commute, so it must keep the bits of the formula below.  d runs over both
# branches of the row sum (columns below 8, the reduce from 8 on).  Infinite
# entries make 0 * inf = NaN for p < 1, compared by isnan.
_POWER_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2e-308, 1e150, -1e150, 1e-150, -1e-150,
     np.inf, -np.inf]
)


def _power_formula(x, p):
    return (2.0 * p * (1.0 + np.add.reduce(x * x, axis=-1)) ** (p - 1.0))[..., None] * x


def _power_points(d):
    rng = np.random.default_rng(70 + d)
    for shape in [(d,), (1, d), (100, d), (2, 50, d)]:
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
        special = x.copy()
        mask = rng.random(shape) < 0.3
        special[mask] = rng.choice(_POWER_VALUES, size=int(mask.sum()))
        yield from (x, special)
    for v in _POWER_VALUES:
        yield np.full(d, v)
        yield np.full((1, d), v)


def _same_bits_or_nan(got, want):
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and _same_bits(got[~nan], want[~nan])
    )


@pytest.mark.parametrize("p", [0.51, 0.75, 1.0])
@pytest.mark.parametrize("d", range(1, 10))
def test_power_gradient_has_the_bits_of_the_formula(d, p):
    power = make_power(d, p)
    alpha = 0.37
    ridged = penalize(power, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _power_points(d):
            kept = x.copy()
            want = _power_formula(x, p)
            for got, expected in (
                (power.gradient_fn(x), want),
                (ridged.gradient_fn(x), want + alpha * x),
            ):
                assert type(got) is np.ndarray and got.dtype == np.float64
                assert _same_bits_or_nan(got, expected), (x.shape, x)
                assert not np.shares_memory(got, x)
                assert _same_bits(x, kept)


# make_quadratic's gradient is its input when every center entry is +0.0 and
# the scale is 1.0, for x - (+0.0) and x * 1.0 are x bit for bit.  -0.0 keeps
# the formula: -0.0 - (-0.0) is +0.0, so a rule by value (center == 0) fails
# the -0.0 cases at x = -0.0.
_RULE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2e-308, np.inf, -np.inf,
                np.exp(20.0), -np.exp(20.0), np.exp(-20.0), -np.exp(-20.0)]


@pytest.mark.parametrize("scale", [1.0, 2.0, np.nextafter(1.0, 2.0)])
@pytest.mark.parametrize(
    "center", [0.0, -0.0, [0.0, 0.0], [0.0, -0.0], 0.5],
    ids=["+0", "-0", "+0+0", "+0-0", "0.5"],
)
def test_quadratic_gradient_has_the_bits_of_the_formula(center, scale):
    m = make_quadratic(2, center=center, scale=scale)
    c = np.asarray(center, dtype=float)
    x = np.array([[a, b] for a in _RULE_VALUES for b in _RULE_VALUES])
    assert _same_bits(m.gradient_fn(x), (x - c) * scale)
    for row in (x[0], x[len(_RULE_VALUES) + 1], x[-1]):  # 1-D: (0, 0), (-0, -0), last
        assert _same_bits(m.gradient_fn(row), (row - c) * scale)
    nan = np.array([[np.nan, 0.0], [-0.0, np.nan], [np.nan, np.nan]])
    got, want = m.gradient_fn(nan), (nan - c) * scale
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert _same_bits(got[~np.isnan(got)], want[~np.isnan(want)])


def test_centered_unit_quadratic_gradient_is_its_input():
    x = np.array([[1.5, -0.0]])
    assert make_quadratic(2).gradient_fn(x) is x
    assert make_quadratic(2, center=[0.0, 0.0]).gradient_fn(x) is x
    assert make_quadratic(2, center=-0.0).gradient_fn(x) is not x


@pytest.mark.parametrize(
    "model", [make_quadratic(2), _identity_model(2)], ids=["quadratic", "identity"]
)
def test_gradient_method_returns_an_array_it_owns(model):
    # gradient_fn hands back x itself; gradient() must not
    for x in (np.array([[1.5, -0.0], [2.0, 3.0]]), np.array([1.5, -0.0])):
        kept = x.copy()
        assert np.shares_memory(model.gradient_fn(x), x)
        got = model.gradient(x)
        assert not np.shares_memory(got, x)
        assert _same_bits(got, kept)
        got += 1.0
        assert _same_bits(x, kept)
