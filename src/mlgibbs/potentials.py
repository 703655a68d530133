"""Potential models for Langevin sampling of Gibbs laws.

A potential U is represented by its value and gradient maps together with a
convexity profile describing what curvature guarantees the rest of the package
may rely on.  Throughout the package the invariant law of the diffusion

    dX_t = -grad U(X_t) dt + sigma dB_t

is the Gibbs measure with density proportional to exp(-2 U(x) / sigma^2).

Value and gradient maps are vectorized: they accept arrays of shape (..., d)
and return shapes (...) and (..., d) respectively, so batches of points can be
evaluated in one call.  Every |x|^2 row sum in the package goes through
_row_sums, most through _sum_sq, and gives the bits of
np.add.reduce(x * x, axis=-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

__all__ = [
    "Convexity",
    "ConvexityProfile",
    "PotentialModel",
    "make_quadratic",
    "make_power",
    "penalize",
    "check_gradient",
]


# The package's input rules; name is the argument's name in the error messages.


def _check_positive(name: str, value: float):
    if not (value > 0.0 and math.isfinite(value)):
        raise InvalidParameterError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value: float):
    if not (value >= 0.0 and math.isfinite(value)):
        raise InvalidParameterError(f"{name} must be nonnegative and finite, got {value}")


def _check_dimension(d: int, name: str = "d"):
    # numpy integers pass, as the Python ints they convert to
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise InvalidParameterError(f"{name} must be a positive integer, got {d}")


def _check_nonnegative_integer(value: int, name: str):
    # numpy integers pass, as the Python ints they convert to
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise InvalidParameterError(f"{name} must be a nonnegative integer, got {value}")


def _as_point(value, dim: int, name: str) -> np.ndarray:
    """value as a finite float (dim,) array; a scalar fills every coordinate."""
    x = np.asarray(value, dtype=float)
    if x.ndim == 0:
        x = np.full(dim, float(x))
    if x.shape != (dim,):
        raise InvalidParameterError(f"{name} must be scalar or length-{dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError(f"{name} must be finite")
    return x


class Convexity(Enum):
    """How much curvature a potential guarantees.

    WEAKLY_CONVEX: convex with Lipschitz gradient, nothing more.
    PARAMETRIC_LOWER: smallest Hessian eigenvalue at x is at least
        c_lower * U(x)**(-r), so curvature degrades polynomially in U.
    PARAMETRIC_TWO_SIDED: additionally the largest Hessian eigenvalue is at
        most c_upper * U(x)**(-r).
    STRONGLY_CONVEX: uniform curvature lower bound alpha > 0.
    """

    WEAKLY_CONVEX = "weakly_convex"
    PARAMETRIC_LOWER = "parametric_lower"
    PARAMETRIC_TWO_SIDED = "parametric_two_sided"
    STRONGLY_CONVEX = "strongly_convex"


_PARAMETRIC = (Convexity.PARAMETRIC_LOWER, Convexity.PARAMETRIC_TWO_SIDED)


@dataclass(frozen=True)
class ConvexityProfile:
    """Curvature contract attached to a potential.

    L is the gradient Lipschitz constant.  c_lower, c_upper and r quantify the
    parametric envelopes (present only for the parametric kinds, with
    r in [0, 1)); alpha is the strong convexity modulus (positive exactly when
    kind is STRONGLY_CONVEX).
    """

    kind: Convexity
    L: float
    c_lower: Optional[float] = None
    c_upper: Optional[float] = None
    r: Optional[float] = None
    alpha: float = 0.0

    def __post_init__(self):
        _check_positive("L", self.L)
        if self.kind in _PARAMETRIC:
            if self.L < 1.0:
                raise InvalidParameterError(
                    f"parametric profiles require L >= 1, got L={self.L}"
                )
            if self.c_lower is None:
                raise InvalidParameterError("c_lower must be present for parametric profiles")
            _check_positive("c_lower", self.c_lower)
            if self.r is None or not 0.0 <= self.r < 1.0:
                raise InvalidParameterError(f"r must lie in [0, 1), got {self.r}")
        if self.kind is Convexity.PARAMETRIC_TWO_SIDED:
            if self.c_upper is None:
                raise InvalidParameterError("c_upper must be present for two-sided profiles")
            _check_positive("c_upper", self.c_upper)
            if self.c_upper < self.c_lower:
                raise InvalidParameterError(
                    f"c_upper must be >= c_lower, got {self.c_upper} < {self.c_lower}"
                )
        if self.kind is Convexity.STRONGLY_CONVEX:
            _check_positive("alpha", self.alpha)
        elif self.alpha != 0.0:
            raise InvalidParameterError("alpha must be 0 unless the profile is strongly convex")


# Closed-form families the reference oracle recognizes.
FAMILY_QUADRATIC = 0  # U(x) = 0.5 * a * |x - center|^2 + 0.5 * ridge * |x|^2
FAMILY_POWER = 1      # U(x) = (1 + |x|^2)^a            + 0.5 * ridge * |x|^2


@dataclass(frozen=True, eq=False)
class ClosedFormDrift:
    """Parameters of a closed-form family, for the reference oracle."""

    family: int
    a: float
    ridge: float
    center: np.ndarray

    def with_ridge(self, extra: float) -> "ClosedFormDrift":
        return ClosedFormDrift(self.family, self.a, self.ridge + extra, self.center)


@dataclass(frozen=True, eq=False)
class PotentialModel:
    """A potential together with its dimension, curvature profile and minimizer.

    value_fn maps (..., d) arrays to (...) nonnegative values, gradient_fn maps
    a float64 (..., d) array to a float64 ndarray of the same shape; the engine
    uses its result as is, without a conversion.  That result may be the
    input itself or a view of it (lambda x: x is a valid gradient, and
    make_quadratic's gradient returns its input when the center is +0.0 and
    the scale 1.0), so callers of gradient_fn must not write into it; the
    gradient method returns an array the caller owns.  closed_form, when
    present, names the family and parameters, so the reference oracle can
    use exact or quadrature values.
    """

    dim: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    profile: ConvexityProfile
    minimizer: np.ndarray
    closed_form: Optional[ClosedFormDrift] = field(default=None)

    def __post_init__(self):
        _check_dimension(self.dim, "dim")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "minimizer", _as_point(self.minimizer, self.dim, "minimizer"))

    def value(self, x) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(x, dtype=float)), dtype=float)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        g = self.gradient_fn(x)
        # gradient_fn may hand back its input: copy only then
        if np.may_share_memory(g, x):
            return np.array(g, dtype=float)
        return np.asarray(g, dtype=float)


def _sum_sq(x: np.ndarray):
    """Sum of x * x over the last axis, bit for bit np.add.reduce(x * x, axis=-1)."""
    return _row_sums(x * x)


def _row_sums(xx: np.ndarray):
    """Sum of xx over the last axis, bit for bit np.add.reduce(xx, axis=-1).

    numpy's reduce adds fewer than 8 float64 terms strictly left to right, one
    inner loop per row; adding whole columns in the same order gives the same
    bits in d - 1 vectorized calls.  From 8 terms on numpy sums pairwise, and
    it widens bools and small integers, so there the reduce itself runs.  A
    1-D input gives a numpy scalar, as the reduce does.
    """

    d = xx.shape[-1]
    if xx.dtype != np.float64 or not 0 < d < 8:
        return np.add.reduce(xx, axis=-1)
    s = xx[..., 0].copy() if d == 1 else xx[..., 0] + xx[..., 1]
    for k in range(2, d):
        s += xx[..., k]
    return s[()]


def make_quadratic(dim: int, center=0.0, scale: float = 1.0) -> PotentialModel:
    """Quadratic bowl U(x) = (scale / 2) |x - center|^2.

    Strongly convex with modulus scale; its Gibbs law at noise level sigma is
    Gaussian with mean center and variance sigma^2 / (2 scale) per coordinate.
    """

    _check_dimension(dim, "dim")
    _check_positive("scale", scale)
    c = _as_point(center, dim, "center")
    # x - (+0.0) and x * 1.0 are x bit for bit for every float64, -0.0
    # included, so the default bowl's gradient is its input, chosen here once.
    # -0.0 is no identity: -0.0 - (-0.0) is +0.0, so the sign bit decides,
    # not ==.
    identity = scale == 1.0 and not np.any(c) and not np.any(np.signbit(c))

    def value(x):
        return 0.5 * scale * _sum_sq(x - c)

    if identity:

        def gradient(x):
            return x

    else:
        factor = np.array(scale, dtype=float)

        def gradient(x):
            g = x - c
            g *= factor
            return g

    profile = ConvexityProfile(kind=Convexity.STRONGLY_CONVEX, L=scale, alpha=scale)
    return PotentialModel(
        dim=dim,
        value_fn=value,
        gradient_fn=gradient,
        profile=profile,
        minimizer=c.copy(),
        closed_form=ClosedFormDrift(FAMILY_QUADRATIC, scale, 0.0, c.copy()),
    )


def make_power(dim: int, p: float) -> PotentialModel:
    """Flattening radial potential U(x) = (1 + |x|^2)^p with p in (1/2, 1].

    Convex but not strongly convex for p < 1: the curvature decays like
    U^{-r} with r = (1 - p) / p.  The profile carries the two-sided envelope
    constants c_lower = 2p(2p - 1) and c_upper = 2p, and L = max(2p, 1).
    U attains its minimum value 1 at the origin.
    """

    _check_dimension(dim, "dim")
    if not (0.5 < p <= 1.0):
        raise InvalidParameterError(f"p must lie in (1/2, 1], got {p}")

    def value(x):
        return (1.0 + _sum_sq(x)) ** p

    one, exponent, twice_p = (np.array(v) for v in (1.0, p - 1.0, 2.0 * p))

    def gradient(x):
        # the bits of (2p (1 + |x|^2)^(p-1)) x, built in the squares' buffer:
        # IEEE + and * commute, so w + 1.0 and w * 2p are 1.0 + w and 2p * w,
        # and the last multiply is same-shape rather than a row broadcast.
        # A point's w is a numpy scalar, whose ** with a float is libm's pow,
        # and ** with a 0-d array numpy's own, which can differ in the last bit
        g = x * x
        w = _row_sums(g)
        w += one
        w **= exponent if w.ndim else p - 1.0
        w *= twice_p
        g[...] = w[..., np.newaxis]
        g *= x
        return g

    profile = ConvexityProfile(
        kind=Convexity.PARAMETRIC_TWO_SIDED,
        L=max(2.0 * p, 1.0),
        c_lower=2.0 * p * (2.0 * p - 1.0),
        c_upper=2.0 * p,
        r=(1.0 - p) / p,
    )
    zero = np.zeros(dim)
    return PotentialModel(
        dim=dim,
        value_fn=value,
        gradient_fn=gradient,
        profile=profile,
        minimizer=zero,
        closed_form=ClosedFormDrift(FAMILY_POWER, p, 0.0, np.zeros(dim)),
    )


def _descend(value_fn, gradient_fn, x0, lipschitz, grad_tol=1e-10, max_iter=10**6):
    # Damped gradient descent: base step 1/L, halved whenever the value rises.
    # Float spacing can put grad_tol out of reach: the iterates then cycle through
    # states (x, step) of one value, and the search returns at the first repeat.
    # Only the states seen since the value last fell are kept.
    x = np.asarray(x0, dtype=float).copy()
    base = 1.0 / lipschitz
    step = base
    g = np.asarray(gradient_fn(x), dtype=float)
    best, level = math.inf, set()
    for _ in range(max_iter):
        if np.linalg.norm(g) <= grad_tol:
            return x
        fx = float(value_fn(x))
        if fx < best:
            best, level = fx, set()
        state = (x.tobytes(), step)
        if state in level:
            return x
        level.add(state)
        y = x - step * g
        halvings = 0
        while float(value_fn(y)) > fx and halvings < 200:
            step *= 0.5
            y = x - step * g
            halvings += 1
        x = y
        g = np.asarray(gradient_fn(x), dtype=float)
        step = min(step * 2.0, base)
    raise ConvergenceError(
        f"minimizer search did not reach gradient norm {grad_tol} in {max_iter} iterations"
    )


def penalize(base: PotentialModel, alpha: float) -> PotentialModel:
    """Add the ridge (alpha / 2) |x|^2 to a convex base potential.

    The sum is strongly convex with modulus at least alpha and gradient
    Lipschitz constant base.L + alpha.  Its minimizer is located by damped
    gradient descent started from the base minimizer.
    """

    _check_positive("alpha", alpha)

    base_value = base.value_fn
    base_gradient = base.gradient_fn
    ridge = np.array(alpha, dtype=float)

    def value(x):
        return base_value(x) + 0.5 * alpha * _sum_sq(x)

    def gradient(x):
        # the bits of base_gradient(x) + alpha * x in one owned array; the base
        # result may be x itself, so it is never written into
        g = ridge * x
        g += base_gradient(x)
        return g

    L = base.profile.L + alpha
    minimizer = _descend(value, gradient, base.minimizer, L)
    closed = base.closed_form.with_ridge(alpha) if base.closed_form is not None else None
    return PotentialModel(
        dim=base.dim,
        value_fn=value,
        gradient_fn=gradient,
        profile=ConvexityProfile(kind=Convexity.STRONGLY_CONVEX, L=L, alpha=alpha),
        minimizer=minimizer,
        closed_form=closed,
    )


def check_gradient(model: PotentialModel, points: int = 20, h: float = 1e-5, seed: int = 0):
    """Compare gradient_fn against central differences of value_fn.

    Returns the worst absolute deviation observed; raises if any component
    deviates by more than 1e-5 * (1 + |component|).
    """

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        x = 2.0 * rng.standard_normal(model.dim)
        g = model.gradient(x)
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = h
            fd = (float(model.value(x + e)) - float(model.value(x - e))) / (2.0 * h)
            dev = abs(fd - g[j])
            worst = max(worst, dev)
            if dev > 1e-5 * (1.0 + abs(g[j])):
                raise InvalidParameterError(
                    f"gradient mismatch at {x}: component {j} differs by {dev:.3e}"
                )
    return worst
