"""Noise streams and the scalar Euler reference of the overdamped Langevin diffusion.

The scheme for dX_t = -grad U(X_t) dt + sigma dB_t with step gamma is

    X_{(n+1) gamma} = X_{n gamma} - gamma grad U(X_{n gamma})
                      + sigma sqrt(gamma) Z_{n+1},

driven by an explicit reproducible Gaussian stream.  Coupled fine/coarse pairs
share their Brownian increments: each coarse step of size gamma consumes two
fine vectors z1, z2, the fine path advances twice with step gamma / 2, and the
coarse path receives the same two noise increments in the same order, so the
coarse Brownian increment is exactly the sum of the two fine ones.

simulate_path and simulate_coupled step one point at a time and return position
arrays: the batched engine is tested bit for bit against them, so this module
imports none of engine, estimator or diagnostics.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .calibration import _GRID_SNAP, _check_step_size, grid_count_up
from .errors import InvalidParameterError, NumericalOverflowError
from .potentials import PotentialModel, _as_point, _check_dimension

__all__ = [
    "NoiseStream",
    "euler_step",
    "simulate_path",
    "simulate_coupled",
    "occupation_average",
]


class NoiseStream:
    """Reproducible stream of i.i.d. standard Gaussian vectors.

    A stream is fully determined by (seed, stream_id, dim); distinct
    stream_ids under one seed are statistically independent.  The cursor
    counts vectors emitted so far.  Chunked draws are equivalent to repeated
    single draws, so consumers may batch freely.  A stream must be drawn
    from by one thread at a time: ``cursor += count`` is not atomic.
    """

    def __init__(self, seed: int, stream_id: int, dim: int):
        if seed < 0 or stream_id < 0:
            raise InvalidParameterError("seed and stream_id must be nonnegative")
        _check_dimension(dim, "dim")
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

    def __repr__(self):
        return (
            f"NoiseStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"dim={self.dim}, cursor={self.cursor})"
        )


def euler_step(model: PotentialModel, x, gamma: float, sigma: float, z) -> np.ndarray:
    """The Euler successor of the point x with step gamma, driven by the Gaussian vector z."""

    return x - gamma * model.gradient(x) + sigma * math.sqrt(gamma) * z


def _check_path_args(model: PotentialModel, x0, gamma: float, n_steps: int, noise: NoiseStream):
    """The argument checks of both loops; returns x0 as a finite float array of shape (d,)."""

    _check_step_size(model, gamma)
    if n_steps < 0:
        raise InvalidParameterError(f"step count must be nonnegative, got {n_steps}")
    if noise.dim != model.dim:
        raise InvalidParameterError(
            f"noise stream dimension {noise.dim} does not match model dimension {model.dim}"
        )
    return _as_point(x0, model.dim, "x0")


def simulate_path(
    model: PotentialModel,
    x0,
    gamma: float,
    sigma: float,
    n_steps: int,
    noise: NoiseStream,
) -> np.ndarray:
    """Simulate n_steps Euler updates; returns the visited positions.

    Row k of the (n_steps + 1, d) result is the position at time k * gamma,
    row 0 the start.  Consumes exactly n_steps vectors from ``noise``, one per
    step; a non-finite position raises NumericalOverflowError with the index
    of the step that made it.
    """

    x = _check_path_args(model, x0, gamma, n_steps, noise)
    path = np.empty((n_steps + 1, model.dim))
    path[0] = x
    for n in range(n_steps):
        x = euler_step(model, x, gamma, sigma, noise.normals(1)[0])
        if not np.all(np.isfinite(x)):
            raise NumericalOverflowError(
                f"non-finite position after step {n + 1}", step_index=n + 1
            )
        path[n + 1] = x
    return path


def simulate_coupled(
    model: PotentialModel,
    x0,
    gamma: float,
    sigma: float,
    n_coarse_steps: int,
    noise: NoiseStream,
) -> Tuple[np.ndarray, np.ndarray]:
    """Simulate a synchronously coupled fine/coarse pair from a common start.

    ``gamma`` is the coarse step; the fine path uses gamma / 2.  Returns
    (fine, coarse), two (n_coarse_steps + 1, d) arrays whose row m is the
    position at the coarse grid time m * gamma.  Each coarse step draws two
    vectors z1, z2 from ``noise``, so 2 * n_coarse_steps in all; the fine path
    receives sigma sqrt(gamma/2) z1 then sigma sqrt(gamma/2) z2, and the
    coarse path receives the identical two increments after its single drift
    update, which makes the coarse Brownian increment the exact float sum of
    the fine pair.
    """

    xf = xc = _check_path_args(model, x0, gamma, n_coarse_steps, noise)
    fine, coarse = np.empty((2, n_coarse_steps + 1, model.dim))
    fine[0] = coarse[0] = xf
    gamma_fine = 0.5 * gamma
    s_fine = sigma * math.sqrt(gamma_fine)
    for m in range(n_coarse_steps):
        inc1, inc2 = s_fine * noise.normals(2)
        xf = xf - gamma_fine * model.gradient(xf) + inc1
        xf = xf - gamma_fine * model.gradient(xf) + inc2
        xc = (xc - gamma * model.gradient(xc) + inc1) + inc2
        if not (np.all(np.isfinite(xf)) and np.all(np.isfinite(xc))):
            raise NumericalOverflowError(
                f"non-finite position after coarse step {m + 1}", step_index=m + 1
            )
        fine[m + 1] = xf
        coarse[m + 1] = xc
    return fine, coarse


def occupation_average(
    path: np.ndarray,
    f: Callable[[np.ndarray], float],
    gamma: float,
    tau: float,
    T: float,
) -> float:
    """Time average (gamma / (T - tau)) sum of f over grid times in [tau, T).

    ``path`` holds one position per row at the grid times k * gamma, as
    simulate_path returns it.  tau and T must be grid multiples of gamma;
    the divisor uses the grid counts, so the result is the plain mean of f
    over the included rows.
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
        raise InvalidParameterError(f"path has {len(path)} rows but the window needs {k1}")
    acc = 0.0
    for k in range(k0, k1):
        acc += float(f(path[k]))
    return acc / (k1 - k0)
