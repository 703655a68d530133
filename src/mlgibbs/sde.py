"""Noise streams and the scalar Euler reference of the overdamped Langevin diffusion.

The scheme for dX_t = -grad U(X_t) dt + sigma dB_t with step gamma is

    X_{(n+1) gamma} = X_{n gamma} - gamma grad U(X_{n gamma})
                      + sigma sqrt(gamma) Z_{n+1},

driven by an explicit reproducible Gaussian stream.  Coupled fine/coarse pairs
share their Brownian increments: each coarse step of size gamma consumes two
fine vectors z1, z2, the fine path advances twice with step gamma / 2, and the
coarse path receives the same two noise increments in the same order, so the
coarse Brownian increment is exactly the sum of the two fine ones.

A stream is PCG64 seeded by SeedSequence([seed, stream_id]).  _seed_words
computes those seeds for many ids in one vectorized pass, for seeds and ids
below 2**64, which fill at most SeedSequence's 4-word entropy pool;
engine.make_streams gives a wider seed or id to SeedSequence itself.

simulate_path and simulate_coupled step one point at a time and return position
arrays: the batched engine is tested bit for bit against them, so this module
imports none of engine, estimator or diagnostics.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from .calibration import _GRID_SNAP, _check_step_size, grid_count_up
from .errors import InvalidParameterError, NumericalOverflowError
from .potentials import (
    PotentialModel, _as_point, _check_dimension, _check_nonnegative_integer, _check_positive,
)

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
        _check_nonnegative_integer(seed, "seed")
        _check_nonnegative_integer(stream_id, "stream_id")
        _check_dimension(dim, "dim")
        self._start(seed, stream_id, dim, np.random.SeedSequence([int(seed), int(stream_id)]))

    @classmethod
    def _from_words(cls, seed: int, stream_id: int, dim: int, words: np.ndarray) -> "NoiseStream":
        """The stream NoiseStream(seed, stream_id, dim), its PCG64 seeded with
        words, the row of _seed_words for stream_id; the arguments are not checked."""
        stream = cls.__new__(cls)
        stream._start(seed, stream_id, dim, _preset_words_type()(words))
        return stream

    def _start(self, seed, stream_id, dim, seed_seq):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.dim = int(dim)
        self.cursor = 0
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))

    def normals(self, count: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw ``count`` vectors, shape (count, dim).

        With ``out`` the draws are written into it, which must be a float64
        array of that shape, and it is returned; the values are those a
        draw without ``out`` would give.
        """
        _check_nonnegative_integer(count, "count")
        out = self._gen.standard_normal((count, self.dim), out=out)
        self.cursor += count
        return out

    def __repr__(self):
        return (
            f"NoiseStream(seed={self.seed}, stream_id={self.stream_id}, "
            f"dim={self.dim}, cursor={self.cursor})"
        )


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), all uint32: the
# successive constants init, init * mult, ... of mix_entropy (4 to fill the
# pool, 12 to cross-mix it, one more as the last multiplier) and of
# generate_state (8 words, one more), as read-only columns
_MASK32 = 0xFFFFFFFF
_POOL = 4
_HASH_A = np.cumprod([0x43B0D7E5] + [0x931E8875] * 16, dtype=np.uint32)[:, None]
_HASH_B = np.cumprod([0x8B51F9DD] + [0x58F38DED] * 8, dtype=np.uint32)[:, None]
_HASH_A.flags.writeable = _HASH_B.flags.writeable = False
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # numpy's hashmix of each row of v with the successive constants consts
    v = v ^ consts[:-1]
    v *= consts[1:]
    v ^= v >> 16
    return v


def _seed_words(seed: int, stream_ids: List[int]) -> np.ndarray:
    """SeedSequence([seed, sid]).generate_state(4, np.uint64) for every sid.

    Returns an (n, 4) uint64 array, row i for stream_ids[i], bit for bit
    numpy's words, computed for all the ids at once: SeedSequence hashes its
    entropy words with constants that do not depend on the data, so each of
    its uint32 operations runs on a column of all the ids.  seed and the ids
    are Python ints in [0, 2**64), so the seed's one or two 32-bit words and
    the id's low and high words fill at most the 4-word pool, where a word
    past the entropy hashes as a zero word; wider entropy is left to
    SeedSequence itself.
    """

    ids = np.array(stream_ids, dtype=np.uint64)
    head = 2 if seed > _MASK32 else 1
    entropy = np.zeros((_POOL, len(ids)), dtype=np.uint32)
    entropy[:head] = np.array([seed & _MASK32, seed >> 32][:head], dtype=np.uint32)[:, None]
    entropy[head] = ids & _MASK32
    entropy[head + 1] = ids >> 32
    # mix_entropy: pool word i hashes entropy word i, then each pool word in
    # turn mixes into the three others
    pool = _hashmix(entropy, _HASH_A[:_POOL + 1])
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        c = _POOL + 3 * src
        mixed = pool[dst] * _MIX_MULT_L - _hashmix(pool[src], _HASH_A[c:c + 4]) * _MIX_MULT_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # paired little-endian
    state = _hashmix(np.concatenate([pool, pool]), _HASH_B)
    words = state[1::2].astype(np.uint64) << np.uint64(32) | state[0::2]
    return np.ascontiguousarray(words.T)


@functools.cache
def _preset_words_type() -> type:
    # built on first use: numpy imports numpy.random lazily, and importing it
    # with this module would add its load time to every import of the package
    from numpy.random.bit_generator import ISeedSequence

    class PresetWords(ISeedSequence):
        """A seed sequence that hands PCG64 the four uint64 words it was built with."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"preset seed words are 4 uint64, asked for {n_words} {np.dtype(dtype)}"
                )
            return self.words

    return PresetWords


def euler_step(model: PotentialModel, x, gamma: float, sigma: float, z) -> np.ndarray:
    """The Euler successor of the point x with step gamma, driven by the Gaussian vector z."""

    return x - gamma * model.gradient(x) + sigma * math.sqrt(gamma) * z


def _check_path_args(model: PotentialModel, gamma: float, sigma: float, n_steps: int, streams,
                     n_burn=None, steps_name="n_steps", model_b=None) -> Tuple[int, int]:
    """The argument checks of every path simulation, made once on entry: the
    step, for model and for model_b, a pair's second chain of the same
    dimension; sigma; the count named steps_name and a burn-in that leaves a
    nonempty window; and one or more noise streams of the model's dimension.
    Returns the number of streams and the dimension."""

    for m in (model,) if model_b is None else (model, model_b):
        _check_step_size(m, gamma)
    _check_positive("sigma", sigma)
    _check_nonnegative_integer(n_steps, steps_name)
    if n_burn is not None:
        if not 0 <= n_burn < n_steps:
            raise InvalidParameterError(f"empty averaging window: burn {n_burn} of {n_steps} steps")
        _check_nonnegative_integer(n_burn, "n_burn")
    if model_b is not None and model_b.dim != model.dim:
        raise InvalidParameterError(
            f"model_b dimension {model_b.dim} does not match model_a dimension {model.dim}"
        )
    if len(streams) == 0:
        raise InvalidParameterError("need at least one noise stream")
    for stream in streams:
        if stream.dim != model.dim:
            raise InvalidParameterError(
                f"noise stream dimension {stream.dim} does not match model dimension {model.dim}"
            )
    return len(streams), model.dim


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

    _check_path_args(model, gamma, sigma, n_steps, [noise])
    x = _as_point(x0, model.dim, "x0")
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

    _check_path_args(model, gamma, sigma, n_coarse_steps, [noise], steps_name="n_coarse_steps")
    xf = xc = _as_point(x0, model.dim, "x0")
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
