"""Multilevel occupation-measure estimator with exact cost accounting.

The estimate is a sum over levels.  Level 0 is the time average of the
observable along a single path at the base step.  Each correcting level j
runs a synchronously coupled pair (fine step gamma_j, coarse step
gamma_{j-1}) and time-averages f(fine) - f(coarse) at the coarse grid times.
Levels use fresh paths started from x0 on disjoint noise streams.

Cost convention: one Euler step costs one gradient evaluation, so a run
consumes exactly T_0/gamma_0 + sum_j (T_j/gamma_j + T_j/gamma_{j-1})
gradient evaluations with the rounded horizons.  ``run_replicates`` runs
the ``level_jobs`` list, which ``cost_of`` sums before running anything.

Stream ids are stable across versions: replicate r, level j reads the
stream with id r * 2**20 + j under the run seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from . import engine
from .calibration import LevelSchedule, _check_step_size, _coarse_grids
from .errors import InvalidParameterError
from .potentials import PotentialModel, _check_positive

__all__ = [
    "STREAM_LEVEL_SPAN",
    "BatchResult",
    "LevelJob",
    "level_jobs",
    "stream_id_for",
    "cost_of",
    "gaussians_of",
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


@dataclass(frozen=True)
class LevelJob:
    """Level 0: the chain on gamma.  Level j >= 1: the coupled pair whose
    coarse step gamma spans two fine half steps.  Both average over coarse
    grid points [n_burn, n_steps); the counts below are per lane."""

    level: int
    gamma: float
    n_steps: int
    n_burn: int

    @property
    def gradient_evals(self) -> int:
        return 3 * self.n_steps if self.level else self.n_steps

    @property
    def gaussians(self) -> int:
        return 2 * self.n_steps if self.level else self.n_steps


def level_jobs(schedule: LevelSchedule) -> Tuple[LevelJob, ...]:
    grids, counts = _coarse_grids(schedule.gamma), schedule.step_counts
    return tuple(map(LevelJob, range(len(counts)), grids, counts, schedule.burn_counts()))


def cost_of(schedule: LevelSchedule) -> int:
    """Gradient evaluations one replicate will consume, counted exactly."""
    return sum(job.gradient_evals for job in level_jobs(schedule))


def gaussians_of(schedule: LevelSchedule) -> int:
    """Gaussian vectors one replicate will draw, counted exactly."""
    return sum(job.gaussians for job in level_jobs(schedule))


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
    a row here is bit-identical to a solo run, run_replicates(..., [rid]),
    with the same replicate id.  Passing a repeated id repeats its noise
    exactly, which is useful for degenerate-variance checks.
    """

    _check_positive("sigma", sigma)
    R = len(replicate_ids)
    if R < 1:
        raise InvalidParameterError("need at least one replicate id")
    _check_step_size(model, schedule.gamma[0])

    jobs = level_jobs(schedule)
    level_values = np.zeros((R, len(jobs)))
    level_ok = np.zeros((R, len(jobs)), dtype=bool)
    for job in jobs:
        streams = engine.make_streams(
            seed, [stream_id_for(rid, job.level) for rid in replicate_ids], model.dim
        )
        driver = engine.coupled_diff_sums if job.level else engine.occupation_sums
        sums, ok = driver(model, f, x0, job.gamma, sigma, job.n_steps, job.n_burn, streams)[:2]
        level_values[:, job.level] = sums / (job.n_steps - job.n_burn)
        level_ok[:, job.level] = ok

    values = np.array([math.fsum(row) for row in level_values])
    return BatchResult(
        values=values,
        level_values=level_values,
        level_ok=level_ok,
        gradient_evals=cost_of(schedule),
        gaussians_drawn=gaussians_of(schedule),
    )
