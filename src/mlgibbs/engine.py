"""Batched simulation drivers behind the estimator and the diagnostics.

Each driver advances R independent replicate lanes through the same Euler
recursion, one noise stream per lane.  All four drivers share one loop,
_advance, which draws noise in chunks and runs steps in blocks of _BLOCK; a
driver supplies only its step (one chain, or the fine/coarse pair) and a
recorder that reads each block.  Chunk size is a pure performance knob:
stream draws are sequential per lane, so results are bit-identical for any
chunking, and every lane's arithmetic is elementwise and therefore identical
to a single-lane run.

The drivers are plain numpy, so a rerun gives the same bytes for one numpy
build on one set of CPU features: numpy picks its SIMD loops by the CPU, and
its AVX512 pow differs from the plain one in the last bit, so the power
family's runs differ between the two.  The loop is bound by the per-call
overhead of numpy on small arrays, so it keeps the number of calls per step
low without changing a single float operation.  numpy takes its fast path
only when all operands have the same shape or one is a 0-d array, so every
per-step call takes same-shape operands or a 0-d float64 array, built once
per driver call or per model: a Python float operand is converted on every
call, which nearly doubles the cost of a call on a few hundred floats.  The
one exception is the power gradient's pow at a single point (sde.py's
scalar reference and the minimizer search), whose base is a numpy scalar:
there ** takes a Python float and runs libm's pow, where a 0-d exponent
would run numpy's, whose last bit can differ; + and * give the same bits
either way.  A step sees the state as one (rows, d) array: R rows for a
chain, 2R for a pair (the two chains of a pair-distance series, or the fine
rows then the coarse rows of a coupled pair).  The coupled step scales its
drift by a (2R, d) array of per-row step sizes built once per driver call,
and each of a step's draws arrives as one (rows, d) slab.

Each lane's Gaussians are drawn straight into its row of the (R, count, d)
chunk buffer.  The draws are the one bulk layer, and numpy fills them with
the GIL released, so the chunk's lanes are split into contiguous groups,
one per CPU the process may use, when each lane's fill is long enough to
pay for handing the GIL between threads: the caller fills the first group,
a thread started and joined within the call fills each other one.  A lane
is drawn by one thread only, into its own row, so the bits do not depend on
the number of groups.  At each block boundary one call copies the block's
vectors into a reused step-major buffer of shape (draws * _BLOCK, R, d),
moving each d-vector as one opaque 8d-byte element, and one more scales
that block in place while it is in cache.  A pair driver then copies the
scaled block into a second buffer of (2R, d) slabs, so it keeps each draw
twice: a lane's fine row and coarse row get the same vector.  A step adds
one contiguous slab instead of rows a chunk apart; memory is the chunk plus
these block buffers.

Each step writes its state into the next slot of a small trajectory buffer,
and the recorder reads the block's slots, shaped like the state, in one
call: the window sums evaluate the observable on the slots past burn-in and
add its values with np.add.accumulate, which adds strictly in step order,
so the sums carry the bits of one addition per step; the series helpers
take one lane mean per slot.  Like the lane batching, this relies on drift
and observable maps acting on each row alone.  A gradient may return its
own input, so no step writes into a gradient's result.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .potentials import (
    PotentialModel,
    _as_point,
    _check_dimension,
    _check_nonnegative_integer,
    _sum_sq,
)
from .sde import NoiseStream, _check_path_args, _seed_words

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
# lane groups drawn in parallel per noise chunk: one per usable CPU
_DRAW_GROUPS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
# floats per lane below which a chunk is drawn on the caller alone: each
# lane's call takes the GIL, and a shorter fill than this does not pay for
# handing it between threads (on a 2-vCPU machine, 2,000 lanes of 256
# floats drew 1.8x slower on two threads, of 1,024 floats 1.6x faster)
_DRAW_SPLIT_MIN = 1024


def _chunk_steps(R: int, d: int) -> int:
    return max(_CHUNK_MIN, min(_CHUNK_MAX, _CHUNK_TARGET // max(1, R * d)))


def make_streams(seed: int, stream_ids: Sequence[int], dim: int) -> List[NoiseStream]:
    """NoiseStream(seed, sid, dim) for each sid, bit for bit, with the seeding
    hash of all the ids computed in one vectorized pass; a seed or id of
    2**64 or more, which the hash does not cover, takes NoiseStream itself."""

    _check_nonnegative_integer(seed, "seed")
    ids = list(stream_ids)
    for sid in ids:
        _check_nonnegative_integer(sid, "stream_id")
    _check_dimension(dim, "dim")
    seed, ids = int(seed), [int(sid) for sid in ids]
    if (seed | max(ids, default=0)) >> 64:
        return [NoiseStream(seed, sid, dim) for sid in ids]
    words = _seed_words(seed, ids)
    return [NoiseStream._from_words(seed, sid, dim, w) for sid, w in zip(ids, words)]


def _draw_chunk(streams: List[NoiseStream], count: int) -> np.ndarray:
    # (R, count, d), each lane drawn straight into its row by one thread;
    # per-lane draws are sequential, so neither chunking nor grouping
    # changes a bit
    R, d = len(streams), streams[0].dim
    noise = np.empty((R, count, d))
    groups = min(_DRAW_GROUPS, R) if count * d >= _DRAW_SPLIT_MIN else 1
    bounds = [R * g // groups for g in range(groups + 1)]
    errors = [None] * groups

    def fill(g):
        lanes = slice(bounds[g], bounds[g + 1])
        try:
            for s, row in zip(streams[lanes], noise[lanes]):
                s.normals(count, row)
        except BaseException as exc:  # raised in the caller after the join
            errors[g] = exc

    threads = []
    for g in range(1, groups):
        t = threading.Thread(target=fill, args=(g,))
        try:
            t.start()
        except RuntimeError:  # no thread can be started: same rows, same bits
            fill(g)
        else:
            threads.append(t)
    fill(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
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
# the step loop


def _add_in_step_order(acc: np.ndarray, v: np.ndarray) -> None:
    # acc += v[0]; acc += v[1]; ... in one call: accumulate adds strictly in
    # sequence, so the result has the bits of the per-step additions
    vals = np.empty((v.shape[0] + 1,) + acc.shape)
    vals[0] = acc
    vals[1:] = v
    np.add.accumulate(vals, axis=0, out=vals)
    acc[...] = vals[-1]


def _advance(state, streams, n_steps, draws, scale, step, record) -> None:
    """Advance state, an (R, d) chain or a (2, R, d) pair, by n_steps steps in place.

    The step sees the state as one (rows, d) array, rows R for a chain and 2R
    for a pair, the rows of state[0] first.  step(x, y, noise, k) writes the
    successor of the rows x into y.  noise is a list of (rows, d) slabs,
    step-major: noise[draws * k] to noise[draws * (k + 1) - 1] are the step's
    draws, already multiplied by scale, each lane's draw repeated in every
    copy of the lane, and k counts steps from the start of the block.
    record(traj, k, b) runs after each block of b steps from grid point k;
    traj is shaped like state behind a slot axis: slot 0 holds the state at
    k and slot i + 1 the state at k + i + 1.
    """

    R, d = len(streams), state.shape[-1]
    copies = state.size // (R * d)
    traj = np.empty((_BLOCK + 1,) + state.shape)
    traj[0] = state
    slots = list(traj.reshape(_BLOCK + 1, copies * R, d))
    # each d-vector moves as one opaque 8d-byte element: a copy, no arithmetic
    vec = np.dtype((np.void, 8 * d))
    block = np.empty((draws * _BLOCK, R, d))
    block_vecs = block.view(vec)[..., 0]
    rows = block if copies == 1 else np.empty((draws * _BLOCK, copies, R, d))
    slabs = list(rows.reshape(draws * _BLOCK, copies * R, d))
    chunk = _chunk_steps(R, draws * d)
    k0 = 0
    while k0 < n_steps:
        n = min(chunk, n_steps - k0)
        noise_vecs = _draw_chunk(streams, draws * n).view(vec)[..., 0]
        for b0 in range(0, n, _BLOCK):
            b = min(_BLOCK, n - b0)
            block_vecs[:draws * b] = noise_vecs[:, draws * b0:draws * (b0 + b)].T
            block[:draws * b] *= scale
            if copies > 1:
                rows[:draws * b] = block[:draws * b, None]
            for i in range(b):
                step(slots[i], slots[i + 1], slabs, i)
            record(traj, k0 + b0, b)
            slots[0][...] = slots[b]
        k0 += n
    state[...] = traj[0]


def _chain_step(model: PotentialModel, gamma: float, R: int) -> Callable:
    """The Euler step (x - gamma grad U(x)) + noise of a chain of R rows; the
    product goes to a scratch buffer."""

    grad, step_size = model.gradient_fn, np.array(gamma, dtype=float)
    scratch = np.empty((R, model.dim))

    def step(x, y, noise, k):
        np.multiply(step_size, grad(x), out=scratch)
        np.subtract(x, scratch, out=y)
        y += noise[k]

    return step


def _coupled_step(model: PotentialModel, gamma: float, R: int) -> Callable:
    """One coarse step of a pair's 2R rows, R fine rows then R coarse rows.

    Noise arrives scaled for the fine step.  This is the fine recursion
    (x - (gamma/2) g + inc1) - (gamma/2) g' + inc2 and the coarse one
    ((y - gamma g) + inc1) + inc2, operation for operation; the fine half-step
    and the coarse step start from the same point, so one drift call on all
    2R rows serves both, scaled by a per-row step size, and one call adds
    each shared increment to both.  The products go to a scratch buffer:
    a gradient may return its own input, so nothing writes into its result.
    """

    grad, gfine = model.gradient_fn, np.array(0.5 * gamma)
    steps = np.empty((2 * R, model.dim))
    steps[:R], steps[R:] = gfine, gamma
    scratch = np.empty_like(steps)
    scratch_fine = scratch[:R]

    def step(x, y, noise, k):
        np.multiply(steps, grad(x), out=scratch)
        np.subtract(x, scratch, out=y)
        y += noise[2 * k]
        fine = y[:R]
        np.multiply(gfine, grad(fine), out=scratch_fine)
        fine -= scratch_fine
        y += noise[2 * k + 1]

    return step


def _window_sum(f_batch: Callable, n_burn: int, acc: np.ndarray) -> Callable:
    """Recorder adding f at the grid points past n_burn into acc, per lane;
    for a coupled pair, f(fine) - f(coarse)."""

    def record(traj, k, b):
        s = min(b, max(0, n_burn - k))  # first slot past burn-in
        if s < b:
            block = traj[s:b]
            v = f_batch(block.reshape(-1, block.shape[-1])).reshape(block.shape[:-1])
            _add_in_step_order(acc, v[:, 0] - v[:, 1] if v.ndim == 3 else v)

    return record


def _lane_mean_series(state, streams, n_steps, scale, step, stat) -> np.ndarray:
    """Lane mean of stat at grid points 0..n_steps; stat maps a block of
    states to (block, R) values."""

    series = np.empty(n_steps + 1)
    series[0] = np.mean(stat(state[None]), axis=1)[0]

    def record(traj, k, b):
        series[k + 1:k + b + 1] = np.mean(stat(traj[1:b + 1]), axis=1)

    _advance(state, streams, n_steps, 1, scale, step, record)
    return series


# ---------------------------------------------------------------------------
# drivers


def _init_positions(x0, R: int, d: int, name: str = "x0") -> np.ndarray:
    return np.tile(_as_point(x0, d, name), (R, 1))


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

    R, d = _check_path_args(model, gamma, sigma, n_steps, streams, n_burn)
    pos = _init_positions(x0, R, d)
    acc = np.zeros(R)
    record = _window_sum(_batched_observable(f, d), n_burn, acc)
    _advance(pos, streams, n_steps, 1, sigma * math.sqrt(gamma),
             _chain_step(model, gamma, R), record)
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

    R, d = _check_path_args(model, gamma, sigma, n_coarse, streams, n_burn, steps_name="n_coarse")
    start = _init_positions(x0, R, d)
    pair = np.stack((start, start))  # fine, coarse
    acc = np.zeros(R)
    record = _window_sum(_batched_observable(f, d), n_burn, acc)
    _advance(pair, streams, n_coarse, 2, sigma * math.sqrt(0.5 * gamma),
             _coupled_step(model, gamma, R), record)
    ok = np.isfinite(acc) & np.all(np.isfinite(pair), axis=(0, 2))
    return acc, ok, pair[0], pair[1]


def pair_distance_series(
    model_a: PotentialModel,
    model_b: PotentialModel,
    x0_a,
    x0_b,
    gamma: float,
    sigma: float,
    n_steps: int,
    streams: List[NoiseStream],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared distance between two chains driven by shared noise.

    Chain A follows model_a and chain B model_b.  Returns (series, final_a,
    final_b) where series[k] is the lane average of |A_k - B_k|^2 at grid
    time k * gamma, length n_steps + 1.
    """

    R, d = _check_path_args(model_a, gamma, sigma, n_steps, streams, model_b=model_b)
    pair = np.stack((_init_positions(x0_a, R, d, "x0_a"), _init_positions(x0_b, R, d, "x0_b")))
    grad_a, grad_b = model_a.gradient_fn, model_b.gradient_fn
    step_size, scratch = np.array(gamma, dtype=float), np.empty((R, d))

    def step(x, y, noise, k):
        # both drift updates, then one add of the shared draw to all 2R rows
        np.multiply(step_size, grad_a(x[:R]), out=scratch)
        np.subtract(x[:R], scratch, out=y[:R])
        np.multiply(step_size, grad_b(x[R:]), out=scratch)
        np.subtract(x[R:], scratch, out=y[R:])
        y += noise[k]

    series = _lane_mean_series(
        pair, streams, n_steps, sigma * math.sqrt(gamma), step,
        lambda t: _sum_sq(t[:, 0] - t[:, 1]),
    )
    return series, pair[0], pair[1]


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

    R, d = _check_path_args(model, gamma, sigma, n_steps, streams)
    return _lane_mean_series(
        _init_positions(x0, R, d), streams, n_steps, sigma * math.sqrt(gamma),
        _chain_step(model, gamma, R),
        lambda t: model.value(t.reshape(-1, d)).reshape(t.shape[:-1]) ** p_mom,
    )
