"""Multilevel occupation-measure estimator with exact cost accounting.

The estimate is a sum over levels.  Level 0 is the time average of the
observable along a single path at the base step.  Each correcting level j
runs a synchronously coupled pair (fine step gamma_j, coarse step
gamma_{j-1}) and time-averages f(fine) - f(coarse) at the coarse grid times.
Levels use fresh paths started from x0 on disjoint noise streams.

Cost convention: one Euler step costs one gradient evaluation, so a run
consumes exactly T_0/gamma_0 + sum_j (T_j/gamma_j + T_j/gamma_{j-1})
gradient evaluations with the rounded horizons.  ``cost_of`` computes this
before running anything.

Stream ids are stable across versions: replicate r, level j reads the
stream with id r * 2**20 + j under the run seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import engine
from .calibration import LevelSchedule
from .errors import InvalidParameterError, NumericalOverflowError
from .potentials import PotentialModel
from .sde import _check_sigma, _check_step_size

__all__ = [
    "STREAM_LEVEL_SPAN",
    "EstimatorOutput",
    "BatchResult",
    "stream_id_for",
    "cost_of",
    "gaussians_of",
    "multilevel_estimate",
    "run_replicates",
]

STREAM_LEVEL_SPAN = 1 << 20


def stream_id_for(replicate_id: int, level: int) -> int:
    """Noise-stream id of one (replicate, level) pair.  Stable contract."""
    if replicate_id < 0 or level < 0:
        raise InvalidParameterError(
            f"replicate_id and level must be nonnegative, got {replicate_id}, {level}"
        )
    if level >= STREAM_LEVEL_SPAN:
        raise InvalidParameterError(f"level {level} exceeds the stream id span")
    return replicate_id * STREAM_LEVEL_SPAN + level


@dataclass(frozen=True)
class EstimatorOutput:
    """One multilevel estimate with its exact simulation cost."""

    value: float
    level_values: Tuple[float, ...]
    gradient_evals: int
    gaussians_drawn: int


@dataclass(frozen=True)
class BatchResult:
    """Replicated multilevel estimates, one row per replicate.

    level_values has shape (R, J + 1); values[i] is the row sum.  level_ok
    flags lanes whose paths stayed finite.  Costs are per replicate and
    identical across replicates by construction.
    """

    values: np.ndarray
    level_values: np.ndarray
    level_ok: np.ndarray
    gradient_evals: int
    gaussians_drawn: int

    @property
    def ok(self) -> np.ndarray:
        return np.all(self.level_ok, axis=1)


def cost_of(schedule: LevelSchedule) -> int:
    """Gradient evaluations one replicate will consume, counted exactly."""
    counts = schedule.step_counts
    return counts[0] + 3 * sum(counts[1:])


def gaussians_of(schedule: LevelSchedule) -> int:
    """Gaussian vectors one replicate will draw, counted exactly."""
    counts = schedule.step_counts
    return counts[0] + 2 * sum(counts[1:])


def _point(x0, d: int) -> np.ndarray:
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0:
        x = np.full(d, float(x))
    if x.shape != (d,):
        raise InvalidParameterError(f"x0 must have shape ({d},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x0 must be finite")
    return x


def run_replicates(
    model: PotentialModel,
    f: Callable,
    schedule: LevelSchedule,
    sigma: float,
    x0,
    seed: int,
    replicate_ids: Sequence[int],
) -> BatchResult:
    """Run the estimator once per id in replicate_ids, sharing level sweeps.

    Replicates are independent lanes of one batched simulation per level, so
    a row here is bit-identical to a solo multilevel_estimate run with the
    same replicate id.  Passing a repeated id repeats its noise exactly,
    which is useful for degenerate-variance checks.
    """

    _check_sigma(sigma)
    R = len(replicate_ids)
    if R < 1:
        raise InvalidParameterError("need at least one replicate id")
    x0 = _point(x0, model.dim)
    _check_step_size(model, schedule.gamma[0])

    counts = schedule.step_counts
    burns = schedule.burn_counts()
    J = schedule.J
    level_values = np.zeros((R, J + 1))
    level_ok = np.zeros((R, J + 1), dtype=bool)

    streams0 = engine.make_streams(
        seed, [stream_id_for(rid, 0) for rid in replicate_ids], model.dim
    )
    sums, ok, _ = engine.occupation_sums(
        model, f, x0, schedule.gamma[0], sigma, counts[0], burns[0], streams0
    )
    level_values[:, 0] = sums / (counts[0] - burns[0])
    level_ok[:, 0] = ok

    for j in range(1, J + 1):
        streams = engine.make_streams(
            seed, [stream_id_for(rid, j) for rid in replicate_ids], model.dim
        )
        sums, ok, _, _ = engine.coupled_diff_sums(
            model, f, x0, schedule.gamma[j - 1], sigma, counts[j], burns[j], streams
        )
        level_values[:, j] = sums / (counts[j] - burns[j])
        level_ok[:, j] = ok

    values = np.array([math.fsum(row) for row in level_values])
    return BatchResult(
        values=values,
        level_values=level_values,
        level_ok=level_ok,
        gradient_evals=cost_of(schedule),
        gaussians_drawn=gaussians_of(schedule),
    )


def multilevel_estimate(
    model: PotentialModel,
    f: Callable,
    schedule: LevelSchedule,
    sigma: float,
    x0,
    seed: int,
    replicate_id: int = 0,
) -> EstimatorOutput:
    """One multilevel estimate of the stationary expectation of f.

    Raises NumericalOverflowError with the failing level attached if any
    path leaves the finite float range.
    """

    batch = run_replicates(model, f, schedule, sigma, x0, seed, [replicate_id])
    bad = np.flatnonzero(~batch.level_ok[0])
    if bad.size:
        raise NumericalOverflowError(
            f"path diverged at level {bad[0]} (step {schedule.gamma[0]:g} base)",
            level=int(bad[0]),
        )
    return EstimatorOutput(
        value=float(batch.values[0]),
        level_values=tuple(float(v) for v in batch.level_values[0]),
        gradient_evals=batch.gradient_evals,
        gaussians_drawn=batch.gaussians_drawn,
    )
