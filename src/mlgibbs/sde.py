"""Euler discretization of the overdamped Langevin diffusion.

The scheme for dX_t = -grad U(X_t) dt + sigma dB_t with step gamma is

    X_{(n+1) gamma} = X_{n gamma} - gamma grad U(X_{n gamma})
                      + sigma sqrt(gamma) Z_{n+1},

driven by an explicit reproducible Gaussian stream.  Coupled fine/coarse pairs
share their Brownian increments: each coarse step of size gamma consumes two
fine vectors z1, z2, the fine path advances twice with step gamma / 2, and the
coarse path receives the same two noise increments in the same order, so the
coarse Brownian increment is exactly the sum of the two fine ones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import InvalidParameterError, NumericalOverflowError
from .potentials import _PARAMETRIC, PotentialModel

__all__ = [
    "NoiseStream",
    "PathState",
    "CoupledPathState",
    "euler_step",
    "simulate_path",
    "simulate_coupled",
    "occupation_average",
]

# Relative slack when snapping times to a step grid; absorbs float
# representation error in quantities like 0.3 / 0.1.
_GRID_SNAP = 1e-9


def grid_count_up(t: float, gamma: float) -> int:
    """Number of gamma-steps covering t, rounding t up to the grid."""

    if not gamma > 0.0:
        raise InvalidParameterError(f"gamma must be positive, got {gamma}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise InvalidParameterError(f"t must be finite and nonnegative, got {t}")
    q = t / gamma
    if not math.isfinite(q):
        raise InvalidParameterError(f"t={t} spans more steps of {gamma} than a float holds")
    return math.ceil(q - _GRID_SNAP * max(1.0, q))


class NoiseStream:
    """Reproducible stream of i.i.d. standard Gaussian vectors.

    A stream is fully determined by (seed, stream_id, dim); distinct
    stream_ids under one seed are statistically independent.  The cursor
    counts vectors emitted so far.  Chunked draws are equivalent to repeated
    single draws, so consumers may batch freely.
    """

    def __init__(self, seed: int, stream_id: int, dim: int):
        if seed < 0 or stream_id < 0:
            raise InvalidParameterError("seed and stream_id must be nonnegative")
        if dim < 1:
            raise InvalidParameterError(f"dim must be positive, got {dim}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.dim = int(dim)
        self.cursor = 0
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )

    def normals(self, count: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw ``count`` vectors, shape (count, dim).

        With ``out`` the draws are written into it, which must be a float64
        array of that shape, and it is returned; the values are those a
        draw without ``out`` would give.
        """
        if count < 0:
            raise InvalidParameterError(f"count must be nonnegative, got {count}")
        out = self._gen.standard_normal((count, self.dim), out=out)
        self.cursor += count
        return out

    def next_vector(self) -> np.ndarray:
        """Draw a single vector, shape (dim,)."""
        out = self._gen.standard_normal(self.dim)
        self.cursor += 1
        return out

    def __repr__(self):
        return (
            f"NoiseStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"dim={self.dim}, cursor={self.cursor})"
        )


@dataclass(frozen=True)
class PathState:
    """Position of a discrete path at step_index steps of size gamma."""

    position: np.ndarray
    step_index: int
    gamma: float

    @property
    def time(self) -> float:
        return self.step_index * self.gamma


@dataclass(frozen=True)
class CoupledPathState:
    """Synchronously coupled pair at a coarse grid time.

    fine runs at half the coarse step; both components sit at the same
    physical time coarse.step_index * coarse.gamma.
    """

    fine: PathState
    coarse: PathState


def _check_sigma(sigma: float):
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidParameterError(f"sigma must be positive and finite, got {sigma}")


def _check_step_size(model: PotentialModel, gamma: float):
    # Parametric profiles carry an admissible step bound; exceeding it is an
    # error.  Outside the parametric regime only warn on a stability heuristic.
    if not (gamma > 0.0 and math.isfinite(gamma)):
        raise InvalidParameterError(f"gamma must be positive and finite, got {gamma}")
    profile = model.profile
    if profile.kind in _PARAMETRIC:
        from .calibration import _check_admissible, step_bound

        _check_admissible("gamma", gamma, step_bound(profile))
    elif gamma * profile.L > 0.5:
        warnings.warn(
            f"gamma={gamma} is large for gradient Lipschitz constant L={profile.L}; "
            "the Euler chain may be unstable",
            RuntimeWarning,
            stacklevel=3,
        )


def euler_step(
    model: PotentialModel, state: PathState, sigma: float, noise_vec: np.ndarray
) -> PathState:
    """One Euler update from ``state`` driven by the given Gaussian vector."""

    x = np.asarray(state.position, dtype=float)
    z = np.asarray(noise_vec, dtype=float)
    if x.shape != (model.dim,) or z.shape != (model.dim,):
        raise InvalidParameterError(
            f"position and noise must have shape ({model.dim},), "
            f"got {x.shape} and {z.shape}"
        )
    gamma = state.gamma
    y = x - gamma * model.gradient(x) + sigma * math.sqrt(gamma) * z
    if not np.all(np.isfinite(y)):
        raise NumericalOverflowError(
            f"non-finite position after step {state.step_index + 1}",
            step_index=state.step_index + 1,
        )
    return PathState(position=y, step_index=state.step_index + 1, gamma=gamma)


def simulate_path(
    model: PotentialModel,
    x0,
    gamma: float,
    sigma: float,
    n_steps: int,
    noise: NoiseStream,
) -> List[PathState]:
    """Simulate n_steps Euler updates; returns the n_steps + 1 visited states.

    Consumes exactly n_steps vectors from ``noise``.
    """

    _check_step_size(model, gamma)
    if n_steps < 0:
        raise InvalidParameterError(f"n_steps must be nonnegative, got {n_steps}")
    if noise.dim != model.dim:
        raise InvalidParameterError(
            f"noise stream dimension {noise.dim} does not match model dimension {model.dim}"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise InvalidParameterError(f"x0 must have shape ({model.dim},), got {x0.shape}")

    state = PathState(position=x0.copy(), step_index=0, gamma=gamma)
    out = [state]
    for _ in range(n_steps):
        state = euler_step(model, state, sigma, noise.next_vector())
        out.append(state)
    return out


def simulate_coupled(
    model: PotentialModel,
    x0,
    gamma: float,
    sigma: float,
    n_coarse_steps: int,
    noise: NoiseStream,
) -> List[CoupledPathState]:
    """Simulate a synchronously coupled fine/coarse pair from a common start.

    ``gamma`` is the coarse step; the fine path uses gamma / 2 and is reported
    at the coarse grid times only.  Each coarse step draws two vectors z1, z2
    from ``noise``; the fine path receives sigma sqrt(gamma/2) z1 then
    sigma sqrt(gamma/2) z2, and the coarse path receives the identical two
    increments after its single drift update, which makes the coarse Brownian
    increment the exact float sum of the fine pair.
    """

    _check_step_size(model, gamma)
    if n_coarse_steps < 0:
        raise InvalidParameterError(f"n_coarse_steps must be nonnegative, got {n_coarse_steps}")
    if noise.dim != model.dim:
        raise InvalidParameterError(
            f"noise stream dimension {noise.dim} does not match model dimension {model.dim}"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise InvalidParameterError(f"x0 must have shape ({model.dim},), got {x0.shape}")

    gamma_fine = 0.5 * gamma
    s_fine = sigma * math.sqrt(gamma_fine)
    xf = x0.copy()
    xc = x0.copy()
    states = [
        CoupledPathState(
            fine=PathState(xf.copy(), 0, gamma_fine),
            coarse=PathState(xc.copy(), 0, gamma),
        )
    ]
    for m in range(n_coarse_steps):
        z1 = noise.next_vector()
        z2 = noise.next_vector()
        inc1 = s_fine * z1
        inc2 = s_fine * z2
        xf = xf - gamma_fine * model.gradient(xf) + inc1
        xf = xf - gamma_fine * model.gradient(xf) + inc2
        xc = (xc - gamma * model.gradient(xc) + inc1) + inc2
        if not (np.all(np.isfinite(xf)) and np.all(np.isfinite(xc))):
            raise NumericalOverflowError(
                f"non-finite position after coarse step {m + 1}", step_index=m + 1
            )
        states.append(
            CoupledPathState(
                fine=PathState(xf.copy(), 2 * (m + 1), gamma_fine),
                coarse=PathState(xc.copy(), m + 1, gamma),
            )
        )
    return states


def occupation_average(
    path: List[PathState],
    f: Callable[[np.ndarray], float],
    gamma: float,
    tau: float,
    T: float,
) -> float:
    """Time average (gamma / (T - tau)) sum of f over grid times in [tau, T).

    tau and T must be grid multiples of gamma; the divisor uses the grid
    counts, so the result is the plain mean of f over the included states.
    """

    k0 = grid_count_up(tau, gamma)
    k1 = grid_count_up(T, gamma)
    if abs(k0 * gamma - tau) > _GRID_SNAP * max(1.0, abs(tau)) + 1e-300:
        raise InvalidParameterError(f"tau={tau} is not a multiple of gamma={gamma}")
    if abs(k1 * gamma - T) > _GRID_SNAP * max(1.0, abs(T)):
        raise InvalidParameterError(f"T={T} is not a multiple of gamma={gamma}")
    if k1 <= k0:
        raise InvalidParameterError(f"empty averaging window [tau={tau}, T={T})")
    if len(path) < k1:
        raise InvalidParameterError(
            f"path has {len(path)} states but the window needs {k1}"
        )
    acc = 0.0
    for k in range(k0, k1):
        acc += float(f(path[k].position))
    return acc / (k1 - k0)
