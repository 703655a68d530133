"""Output checks computed apart from the program.

Nothing here imports mlgibbs: every expected value is derived from the
workload's inputs by the formulas below, so a fault in the program's own
oracles or cost accounting cannot make its output look right.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def parse_run_csv(text: str) -> Dict[str, str]:
    """The single data row of ``mlgibbs run`` keyed by the CSV header."""
    lines = text.strip().splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected a header and one row, got {len(lines)} lines")
    header, row = lines[0].split(","), lines[1].split(",")
    if len(header) != len(row):
        raise ValueError("CSV row and header differ in length")
    return dict(zip(header, row))


def schedule_counts(gamma: Sequence[float], T: Sequence[float]) -> Tuple[int, int, int]:
    """(loop steps, gradient evaluations, Gaussian vectors) of one replicate.

    Level 0 runs T0/gamma0 steps of one path.  Level j >= 1 runs T_j/gamma_{j-1}
    coarse steps of a coupled pair, whose fine path takes T_j/gamma_j steps.
    One Euler step is one gradient evaluation and one Gaussian vector, except
    that the coarse path reuses the fine path's vectors.
    """
    steps = round(T[0] / gamma[0])
    grads = steps
    draws = steps
    for j in range(1, len(gamma)):
        coarse = round(T[j] / gamma[j - 1])
        fine = round(T[j] / gamma[j])
        steps += coarse
        grads += fine + coarse
        draws += fine
    return steps, grads, draws


def gaussian_m4(dim: int, sigma: float, scale: float = 1.0) -> float:
    """E|X|^4 for X ~ N(0, v I_d), v = sigma^2 / (2 scale): (d^2 + 2d) v^2."""
    v = sigma * sigma / (2.0 * scale)
    return (dim * dim + 2.0 * dim) * v * v


def check_penalized_quadratic(
    row: Dict[str, str], calib: dict, epsilon: float, sigma: float, dim: int
) -> List[str]:
    """Centred quadratic, coord:0, penalized route.

    The exact mean is 0 (the Gibbs law, its ridge-penalized version and
    every Euler chain started at 0 are symmetric).  J is recomputed from the
    closed-form fourth moment and mean_cost from the calibrated schedule.
    """
    problems = []
    R = int(row["R"])
    mean, variance, rmse = float(row["mean"]), float(row["variance"]), float(row["rmse"])
    se = math.sqrt(variance / R)
    if not abs(mean) <= 3.0 * se:
        problems.append(f"mean {mean!r} is not within 3 standard errors ({se!r}) of 0")
    if not rmse <= epsilon:
        problems.append(f"rmse {rmse!r} exceeds epsilon {epsilon!r}")
    alpha = 2.0 * epsilon / math.sqrt(gaussian_m4(dim, sigma))
    J = math.ceil(2.0 * math.log2(sigma * sigma * dim / (alpha * epsilon)))
    if int(row["J"]) != J or calib["J"] != J:
        problems.append(f"J is {row['J']} (calibrate {calib['J']}), expected {J}")
    _, grads, _ = schedule_counts(calib["gamma"], calib["T"])
    if float(row["mean_cost"]) != grads:
        problems.append(f"mean_cost {row['mean_cost']} differs from the schedule's {grads}")
    if float(row["gamma0"]) != calib["gamma"][0] or float(row["T0"]) != calib["T"][0]:
        problems.append("gamma0 or T0 differs between run and calibrate")
    return problems


def power_norm2_reference(p: float, dim: int, sigma: float) -> float:
    """E|X|^2 under exp(-2 (1 + |x|^2)^p / sigma^2) on R^dim, by radial quadrature."""
    from scipy.integrate import quad

    def w(r):
        return r ** (dim - 1) * math.exp(-2.0 * ((1.0 + r * r) ** p - 1.0) / (sigma * sigma))

    num, _ = quad(lambda r: r * r * w(r), 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    den, _ = quad(w, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return num / den


def check_weak_power(row: Dict[str, str], epsilon: float, reference: float) -> List[str]:
    """Power family, norm2, direct route, against the benchmark's own reference."""
    problems = []
    R = int(row["R"])
    mean, bias, variance = float(row["mean"]), float(row["bias"]), float(row["variance"])
    program_ref = mean - bias
    if not abs(program_ref - reference) <= 1e-6 * abs(reference):
        problems.append(
            f"program reference {program_ref!r} differs from quadrature {reference!r}"
        )
    rmse = math.sqrt((mean - reference) ** 2 + variance * (R - 1) / R)
    if not rmse <= epsilon:
        problems.append(f"rmse {rmse!r} against the quadrature exceeds epsilon {epsilon!r}")
    return problems
