"""Positive and negative controls for perfbench/checks.py.

Run with ``python3 perfbench/selftest.py``; exits 1 if a control fails.
The fixtures are real outputs of the two workloads at seed 0.  Each
checker must accept its fixture and reject it after one perturbation of
a mean, a cost, J or the reference.
"""

from __future__ import annotations

import json
import sys

import checks

PENALIZED_CSV = (
    "method,potential,dim,sigma,epsilon,J,gamma0,T0,tau,R,seed,"
    "mean,bias,variance,rmse,mean_cost\n"
    "penalized,quadratic,1,1.0,0.18,8,0.10370607524476888,404.8685177555777,"
    "0.0,100,0,-0.003083595947168538,-0.003083595947168538,"
    "0.0012069808440132543,0.03470474894792521,50752.0\n"
)
PENALIZED_CALIBRATE = json.loads(
    '{"J": 8, "gamma": [0.10370607524476888, 0.05185303762238444, '
    '0.02592651881119222, 0.01296325940559611, 0.006481629702798055, '
    '0.0032408148513990275, 0.0016204074256995138, 0.0008102037128497569, '
    '0.00040510185642487844], '
    '"T": [404.8685177555777, 202.43425887778886, 101.21712943889443, '
    '50.608564719447216, 25.304282359723608, 12.652141179861804, '
    '6.326070589930902, 3.163035294965451, 1.5815176474827255]}'
)
WEAK_CSV = (
    "method,potential,dim,sigma,epsilon,J,gamma0,T0,tau,R,seed,"
    "mean,bias,variance,rmse,mean_cost\n"
    "weak_ii,power,3,1.0,2.0,6,0.11111111111111112,108.11111111111111,0.0,100,0,"
    "1.286186876828631,-0.023828158061386384,0.00996726615421129,"
    "0.10215368132998238,35854.0\n"
)
WEAK_REFERENCE = 1.3100150348900177


def _penalized(csv=PENALIZED_CSV, calib=PENALIZED_CALIBRATE):
    return checks.check_penalized_quadratic(checks.parse_run_csv(csv), calib, 0.18, 1.0, 1)


def _weak(csv=WEAK_CSV, reference=WEAK_REFERENCE):
    return checks.check_weak_power(checks.parse_run_csv(csv), 2.0, reference)


def _swap_field(csv, field, value):
    header, row = csv.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    cells[field] = value
    return header + "\n" + ",".join(cells[k] for k in header.split(",")) + "\n"


def controls():
    """(name, problems, should_pass) for every control."""
    yield "penalized fixture", _penalized(), True
    yield "penalized mean shifted by 4 se", _penalized(
        _swap_field(PENALIZED_CSV, "mean", repr(4.0 * (0.0012069808440132543 / 100) ** 0.5))
    ), False
    yield "penalized cost off by one", _penalized(
        _swap_field(PENALIZED_CSV, "mean_cost", "50753.0")
    ), False
    yield "penalized J off by one", _penalized(
        _swap_field(PENALIZED_CSV, "J", "9"), dict(PENALIZED_CALIBRATE, J=9)
    ), False
    yield "penalized rmse above epsilon", _penalized(
        _swap_field(PENALIZED_CSV, "rmse", "0.181")
    ), False
    yield "weak fixture", _weak(), True
    yield "weak program reference off by 1e-5", _weak(
        _swap_field(WEAK_CSV, "bias", repr(-0.023828158061386384 - 1.4e-5))
    ), False
    # mean and bias moved together: the reference still agrees, only the rmse fails
    yield "weak mean and bias off by more than epsilon", _weak(
        _swap_field(
            _swap_field(WEAK_CSV, "mean", repr(1.286186876828631 + 2.1)),
            "bias", repr(-0.023828158061386384 + 2.1),
        )
    ), False


def main() -> int:
    bad = 0
    for name, problems, should_pass in controls():
        ok = (not problems) == should_pass
        bad += not ok
        detail = "; ".join(problems) if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    ref = checks.power_norm2_reference(0.75, 3, 1.0)
    ok = abs(ref - WEAK_REFERENCE) <= 1e-12 * WEAK_REFERENCE
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} radial quadrature reproduces {WEAK_REFERENCE}: {ref!r}")
    print(json.dumps({"controls_failed": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
