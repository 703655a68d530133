"""Batched simulation drivers behind the estimator and the diagnostics.

Each driver advances R independent replicate lanes through the same Euler
recursion, one noise stream per lane, drawing noise in chunks.  Chunk size is
a pure performance knob: stream draws are sequential per lane, so results are
bit-identical for any chunking, and every lane's arithmetic is elementwise and
therefore identical to a single-lane run.

The drivers are plain numpy, so a rerun gives the same bytes in every
environment.  The loop is bound by the per-call overhead of numpy on small
arrays, so it keeps the number of calls per step low without changing a
single float operation.  Each lane's Gaussians are drawn straight into its
row of the chunk buffer, and the chunk is scaled once, in place.  The coupled
pair lives in one (2, R, d) array, fine lanes first: the fine half-step and
the coarse step start from the same time, so one drift call on its (2R, d)
view serves both chains, and a shared noise increment is added to both with
one call.
Steps run in blocks of _BLOCK: each step writes its positions into the next
slot of a small trajectory buffer, and the observable is evaluated once per
block on the slots past burn-in.  Its values are added into the sums with
np.add.accumulate, which adds strictly in step order, so the sums carry the
bits of one addition per step.  Like the lane batching, this relies on drift
and observable maps acting on each row alone.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError
from .potentials import PotentialModel
from .sde import NoiseStream

BACKEND = "numpy"
HAVE_NUMBA = False  # always False; perfbench/child.py still reads it

__all__ = [
    "BACKEND",
    "occupation_sums",
    "coupled_diff_sums",
    "pair_distance_series",
    "value_power_series",
    "make_streams",
]

# target lane-steps per noise chunk; bounds keep noise chunks in memory
_CHUNK_TARGET = 1 << 19
_CHUNK_MIN = 256
_CHUNK_MAX = 65536
# steps per observable call
_BLOCK = 64


def _chunk_steps(R: int, d: int) -> int:
    return max(_CHUNK_MIN, min(_CHUNK_MAX, _CHUNK_TARGET // max(1, R * d)))


def make_streams(seed: int, stream_ids: Sequence[int], dim: int) -> List[NoiseStream]:
    return [NoiseStream(seed, sid, dim) for sid in stream_ids]


def _draw_chunk(streams: List[NoiseStream], count: int) -> np.ndarray:
    # (R, count, d), each lane drawn straight into its row; per-lane draws
    # are sequential so chunking is neutral
    noise = np.empty((len(streams), count, streams[0].dim))
    for s, row in zip(streams, noise):
        s.normals(count, row)
    return noise


def _batched_observable(f: Callable, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap f so it maps (R, d) -> (R,), probing whether it is vectorized."""

    probe = np.zeros((2, dim))
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == (2,):
            return lambda x: np.asarray(f(x), dtype=float)
    except (TypeError, ValueError, IndexError):
        pass  # the errors a scalar-only f raises on a batch
    name = getattr(f, "__name__", repr(f))
    warnings.warn(
        f"observable {name} does not map (n, {dim}) arrays to (n,) values; "
        "evaluating it one row at a time",
        RuntimeWarning,
        stacklevel=3,
    )

    def rowwise(x):
        return np.asarray([float(f(row)) for row in x], dtype=float)

    return rowwise


# ---------------------------------------------------------------------------
# numpy steps


def _np_gradient(model: PotentialModel, pos: np.ndarray) -> np.ndarray:
    return np.asarray(model.gradient_fn(pos), dtype=float)


def _add_in_step_order(acc: np.ndarray, v: np.ndarray) -> None:
    # acc += v[0]; acc += v[1]; ... in one call: accumulate adds strictly in
    # sequence, so the result has the bits of the per-step additions
    vals = np.empty((v.shape[0] + 1,) + acc.shape)
    vals[0] = acc
    vals[1:] = v
    np.add.accumulate(vals, axis=0, out=vals)
    acc[...] = vals[-1]


def _np_occ_chunk(model, f_batch, pos, noise, gamma, k0, burn, acc):
    # noise arrives scaled by snoise; pos is updated in place.  Slot 0 of traj
    # holds a block's start and slot i + 1 the position after its step i.
    R, d = pos.shape
    traj = np.empty((_BLOCK + 1, R, d))
    slots = list(traj)
    n = noise.shape[1]
    slots[0][...] = pos
    for b0 in range(0, n, _BLOCK):
        b = min(_BLOCK, n - b0)
        for i in range(b):
            x, y = slots[i], slots[i + 1]
            np.subtract(x, gamma * _np_gradient(model, x), out=y)
            y += noise[:, b0 + i, :]
        s = min(b, max(0, burn - k0 - b0))  # first slot past burn-in
        if s < b:
            v = f_batch(traj[s:b].reshape(-1, d))
            _add_in_step_order(acc, v.reshape(b - s, R))
        slots[0][...] = slots[b]
    pos[...] = slots[0]


def _np_coupled_chunk(model, f_batch, pair, noise, gamma, m0, burn, acc):
    # pair is (2, R, d), fine lanes then coarse lanes, updated in place;
    # noise arrives scaled by sfine.  Per coarse step this is the fine recursion
    # (x - (gamma/2) g + inc1) - (gamma/2) g' + inc2 and the coarse one
    # ((y - gamma g) + inc1) + inc2, operation for operation.  The pair walks
    # through the slots of traj as in _np_occ_chunk.
    R, d = pair.shape[1:]
    traj = np.empty((_BLOCK + 1, 2, R, d))
    slots = list(traj)
    rows = [t.reshape(2 * R, d) for t in slots]
    fines = [t[0] for t in slots]
    gfine = 0.5 * gamma
    steps = np.array([gfine, gamma]).reshape(2, 1, 1)
    n = noise.shape[1]
    slots[0][...] = pair
    for b0 in range(0, n, _BLOCK):
        b = min(_BLOCK, n - b0)
        for i in range(b):
            y, fine = slots[i + 1], fines[i + 1]
            g = _np_gradient(model, rows[i]).reshape(2, R, d)
            np.subtract(slots[i], steps * g, out=y)
            y += noise[:, b0 + i, 0, :]
            fine -= gfine * _np_gradient(model, fine)
            y += noise[:, b0 + i, 1, :]
        s = min(b, max(0, burn - m0 - b0))
        if s < b:
            v = f_batch(traj[s:b].reshape(-1, d)).reshape(b - s, 2, R)
            _add_in_step_order(acc, v[:, 0] - v[:, 1])
        slots[0][...] = slots[b]
    pair[...] = slots[0]


# ---------------------------------------------------------------------------
# drivers


def _init_positions(x0, R: int, d: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        return np.full((R, d), float(x0))
    if x0.shape == (d,):
        return np.tile(x0, (R, 1))
    if x0.shape == (R, d):
        return x0.astype(float).copy()
    raise InvalidParameterError(f"x0 must have shape ({d},) or ({R}, {d}), got {x0.shape}")


def occupation_sums(
    model: PotentialModel,
    f: Callable,
    x0,
    gamma: float,
    sigma: float,
    n_steps: int,
    n_burn: int,
    streams: List[NoiseStream],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum of f over grid points [n_burn, n_steps) for each lane.

    Returns (sums, ok, final_positions); a lane with any non-finite position
    has ok False.  Each lane consumes exactly n_steps vectors from its stream.
    """

    R, d = len(streams), model.dim
    if not 0 <= n_burn < n_steps:
        raise InvalidParameterError(
            f"empty averaging window: burn {n_burn} of {n_steps} steps"
        )
    pos = _init_positions(x0, R, d)
    acc = np.zeros(R)
    snoise = sigma * math.sqrt(gamma)
    f_batch = _batched_observable(f, d)
    chunk = _chunk_steps(R, d)
    k0 = 0
    while k0 < n_steps:
        n = min(chunk, n_steps - k0)
        noise = _draw_chunk(streams, n)
        noise *= snoise
        _np_occ_chunk(model, f_batch, pos, noise, gamma, k0, n_burn, acc)
        k0 += n
    ok = np.isfinite(acc) & np.all(np.isfinite(pos), axis=1)
    return acc, ok, pos


def coupled_diff_sums(
    model: PotentialModel,
    f: Callable,
    x0,
    gamma: float,
    sigma: float,
    n_coarse: int,
    n_burn: int,
    streams: List[NoiseStream],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum of f(fine) - f(coarse) over coarse grid points [n_burn, n_coarse).

    The fine chain runs at step gamma / 2 and is sampled at the coarse grid.
    Returns (sums, ok, fine_positions, coarse_positions).  Each lane consumes
    exactly 2 * n_coarse vectors from its stream.
    """

    R, d = len(streams), model.dim
    if not 0 <= n_burn < n_coarse:
        raise InvalidParameterError(
            f"empty averaging window: burn {n_burn} of {n_coarse} coarse steps"
        )
    start = _init_positions(x0, R, d)
    pair = np.stack((start, start))  # fine, coarse
    acc = np.zeros(R)
    sfine = sigma * math.sqrt(0.5 * gamma)
    f_batch = _batched_observable(f, d)
    chunk = _chunk_steps(R, 2 * d)
    m0 = 0
    while m0 < n_coarse:
        n = min(chunk, n_coarse - m0)
        noise = _draw_chunk(streams, 2 * n).reshape(R, n, 2, d)
        noise *= sfine
        _np_coupled_chunk(model, f_batch, pair, noise, gamma, m0, n_burn, acc)
        m0 += n
    ok = np.isfinite(acc) & np.all(np.isfinite(pair), axis=(0, 2))
    return acc, ok, pair[0], pair[1]


def pair_distance_series(
    model: PotentialModel,
    x0_a,
    x0_b,
    gamma: float,
    sigma: float,
    n_steps: int,
    streams: List[NoiseStream],
    ridge_a: float = 0.0,
    ridge_b: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared distance between two chains driven by shared noise.

    Optional extra ridges (alpha / 2) |x|^2 are added to the drift of each
    chain separately.  Returns (series, final_a, final_b) where series[k] is
    the lane average of |A_k - B_k|^2 at grid time k * gamma, length
    n_steps + 1.
    """

    R, d = len(streams), model.dim
    posa = _init_positions(x0_a, R, d)
    posb = _init_positions(x0_b, R, d)
    series = np.empty(n_steps + 1)
    series[0] = float(np.mean(np.sum((posa - posb) ** 2, axis=1)))
    snoise = sigma * math.sqrt(gamma)
    chunk = _chunk_steps(R, d)
    k0 = 0
    while k0 < n_steps:
        n = min(chunk, n_steps - k0)
        noise = _draw_chunk(streams, n)
        for m in range(n):
            ga = _np_gradient(model, posa) + ridge_a * posa
            gb = _np_gradient(model, posb) + ridge_b * posb
            posa = posa - gamma * ga + snoise * noise[:, m, :]
            posb = posb - gamma * gb + snoise * noise[:, m, :]
            series[k0 + m + 1] = float(np.mean(np.sum((posa - posb) ** 2, axis=1)))
        k0 += n
    return series, posa, posb


def value_power_series(
    model: PotentialModel,
    x0,
    gamma: float,
    sigma: float,
    n_steps: int,
    p_mom: float,
    streams: List[NoiseStream],
) -> np.ndarray:
    """Lane average of U(X)^p_mom along the chain; length n_steps + 1."""

    R, d = len(streams), model.dim
    pos = _init_positions(x0, R, d)
    series = np.empty(n_steps + 1)
    series[0] = float(np.mean(model.value(pos) ** p_mom))
    snoise = sigma * math.sqrt(gamma)
    chunk = _chunk_steps(R, d)
    k0 = 0
    while k0 < n_steps:
        n = min(chunk, n_steps - k0)
        noise = _draw_chunk(streams, n)
        for m in range(n):
            g = _np_gradient(model, pos)
            pos = pos - gamma * g + snoise * noise[:, m, :]
            series[k0 + m + 1] = float(np.mean(model.value(pos) ** p_mom))
        k0 += n
    return series
