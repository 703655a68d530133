"""Benchmark of ``mlgibbs run`` through ``mlgibbs.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in fresh child interpreters (perfbench/child.py), one at
a time, with BLAS and OpenMP limited to one thread.  A run first starts
SETUP_PROBES import-only children, then starts children for as long as the
next one is expected to end within S seconds (at least one).  Each child
repeats the workload's call for CHILD_SECONDS.  Every call at one seed must
print byte-identical output, and that output is checked by
perfbench/checks.py against values computed apart from the program.

--trace 0 reports the end-to-end metrics:
  setup_s           import of mlgibbs in a child at the reference speed,
                    median over the children
  run_s             one mlgibbs.cli.main call at the reference speed (below)
  ns_per_grad_eval  run_s over the gradient evaluations the call performs,
                    counted here from the schedule
  peak_rss_mb       peak resident memory of a child, median over the children
--trace 1 alternates untraced and traced children and reports the per-layer
metrics of the traced calls (medians), plus the tracing overhead (traced
run_s minus untraced run_s).

The reference speed.  On a 2-vCPU virtual machine whose cores are shared
with other machines, a fixed loop ran up to 2x slower from one second or
minute to the next, so raw wall times did not repeat from run to run.  Each child therefore times a
fixed numpy loop (child.reference) right after the import and after each
call.  A call's ratio is its wall time over the mean of the two loops that
bracket it; run_s is the median ratio of the run times REF_S, the loop's
nominal time.  It reads as the call's wall time on a host where the loop
takes REF_S.  setup_s is scaled by the loop that follows the import, and
per-layer times by the loops that bracket their call.
Raw wall times are printed in the lines before the JSON.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  An operation is one replicate lane; a lane the program drops for
overflow is failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 3
CHILD_SECONDS = 8.0
DEADLINE_S = 170.0
# nominal time of child.reference(), close to its fastest on a 2-vCPU machine
REF_S = 0.010


class Workload:
    """One pinned ``mlgibbs run`` config, its expected work and its output check."""

    def __init__(self, name, config):
        self.name, self.config = name, config

    def ops_per_call(self):
        return self.config["replicates"]

    def expected_counts(self, calib):
        """Per call: driver steps, gradient evaluations, Gaussian vectors."""
        R = self.config["replicates"]
        steps, grads, draws = checks.schedule_counts(calib["gamma"], calib["T"])
        return steps, R * grads, R * draws

    def check(self, stdout, calib):
        """(problems, failed operations) for one call's output."""
        cfg = self.config
        row = checks.parse_run_csv(stdout)
        failed = cfg["replicates"] - int(row["R"])
        if cfg["method"] == "penalized":
            problems = checks.check_penalized_quadratic(
                row, calib, cfg["epsilon"], cfg["sigma"], cfg["potential"]["dim"]
            )
        else:
            ref = checks.power_norm2_reference(
                cfg["potential"]["p"], cfg["potential"]["dim"], cfg["sigma"]
            )
            problems = checks.check_weak_power(row, cfg["epsilon"], ref)
        return problems, failed


WORKLOADS = {
    w.name: w
    for w in (
        # flat step counts over J=8 levels: the per-step loop and the nested
        # penalized-gradient closures dominate, so level stacking shows here
        Workload(
            "penalized-quad-d1",
            {
                "potential": {"name": "quadratic", "dim": 1},
                "method": "penalized", "sigma": 1.0, "epsilon": 0.18,
                "f": "coord:0", "replicates": 100,
            },
        ),
        # step counts growing as 2^(rho j) over J=6 levels: the deepest level,
        # the power gradient and the norm2 observable dominate
        Workload(
            "weak-ii-power-d3",
            {
                "potential": {"name": "power", "dim": 3, "p": 0.75},
                "method": "weak_ii", "sigma": 1.0, "epsilon": 2.0,
                "f": "norm2", "replicates": 100,
            },
        ),
    )
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("ns_per_grad_eval", "ns"),
              ("peak_rss_mb", "MB"))

# span or leaf name -> (self-time metric, call-count metric, size metric);
# a span's size is its loop steps (drivers) or streams built, a leaf's size
# the rows or vectors it was handed
SPAN_METRICS = {
    "cli.prepare_run": ("cli.calibrate_s", None, None),
    "diagnostics.reference_for": ("diagnostics.oracle_s", "diagnostics.oracle_calls", None),
    "diagnostics.fourth_moment_reference":
        ("diagnostics.oracle_s", "diagnostics.oracle_calls", None),
    "diagnostics.run_mse_experiment": ("diagnostics.summary_s", None, None),
    "estimator.run_replicates": ("estimator.run_replicates_s", None, None),
    "engine.occupation_sums":
        ("engine.driver_self_s", "engine.driver_calls", "engine.driver_steps"),
    "engine.coupled_diff_sums":
        ("engine.driver_self_s", "engine.driver_calls", "engine.driver_steps"),
    "engine.make_streams": ("engine.make_streams_s", None, "engine.streams_built"),
}
LEAF_METRICS = {
    "sde.normals": ("sde.draw_s", "sde.draw_calls", "sde.draw_vectors"),
    "potentials.drift": ("potentials.drift_s", "potentials.drift_calls", "potentials.drift_rows"),
    "observables": ("observables.s", "observables.calls", None),
}

PER_LAYER = (
    ("cli.calibrate_s", "s"),
    ("diagnostics.oracle_calls", "count"), ("diagnostics.oracle_s", "s"),
    ("diagnostics.summary_s", "s"),
    ("estimator.run_replicates_s", "s"),
    ("engine.driver_calls", "count"), ("engine.driver_steps", "count"),
    ("engine.driver_self_s", "s"),
    ("engine.streams_built", "count"), ("engine.make_streams_s", "s"),
    ("sde.draw_calls", "count"), ("sde.draw_vectors", "count"), ("sde.draw_s", "s"),
    ("potentials.drift_calls", "count"), ("potentials.drift_rows", "count"),
    ("potentials.drift_s", "s"),
    ("observables.calls", "count"), ("observables.s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans):
    """Per-layer counts and self times from one traced call's spans.

    A span's self time is its duration minus its child spans' durations and
    minus the leaf calls it aggregated.  The root span (cli.main) is not a
    layer of its own.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    m = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}

    def add(names, seconds, calls, size):
        time_name, calls_name, size_name = names
        m[time_name] += seconds
        if calls_name:
            m[calls_name] += calls
        if size_name:
            m[size_name] += size

    for s in spans:
        leaves = s["leaves"]
        leaf_s = sum(v[2] for v in leaves.values())
        if s["name"] in SPAN_METRICS:
            self_s = s["end"] - s["start"] - covered[s["id"]] - leaf_s
            add(SPAN_METRICS[s["name"]], self_s, 1, s["size"])
        for leaf, (calls, rows, seconds) in leaves.items():
            add(LEAF_METRICS[leaf], seconds, calls, rows)
    return m


def child_env(seed):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["MLGIBBS_SEED"] = str(seed)
    return env


def spawn(args, env, deadline):
    """Run perfbench/child.py; returns its result dict, or raises RuntimeError."""
    t0 = time.monotonic()
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")] + args,
            cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child exceeded the run's deadline ({timeout:.0f} s)") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"child printed no result: {proc.stdout[-2000:]!r}") from None
    result["wall_s"] = time.monotonic() - t0
    return result


def run_workload(w: Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns (result dict, human-readable lines)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    env = child_env(seed)
    config_path = OUT / f"{w.name}-seed{seed}.json"
    config_path.write_text(json.dumps(dict(w.config, seed=seed)))
    args = [
        "--argv", json.dumps(["run", "--config", str(config_path)]),
        "--calibrate", json.dumps(["calibrate", "--config", str(config_path)]),
        "--seconds", str(CHILD_SECONDS),
    ]

    problems, attempted, failed = [], 0, 0
    setups, walls, rss, layers = [], [], [], []
    # per call: (wall time, wall time over its bracketing reference loops)
    untraced, traced = [], []
    first = None
    try:
        for _ in range(SETUP_PROBES):
            r = spawn(["--import-only"], env, deadline)
            setups.append((r["setup_s"], r["setup_s"] / r["ref_s"][0]))
        while True:
            if walls and time.monotonic() - start + statistics.median(walls) > seconds:
                if not trace or traced:
                    break
            tracing = trace and len(walls) % 2 == 1
            extra = []
            if tracing:
                trace_path = OUT / f"trace-{w.name}-seed{seed}-{len(walls)}.json"
                extra = ["--trace-out", str(trace_path)]
            try:
                r = spawn(args + extra, env, deadline)
            except RuntimeError:
                attempted += w.ops_per_call()
                failed += w.ops_per_call()
                raise
            n_calls = len(r["run_s"])
            attempted += n_calls * w.ops_per_call()
            if r["rc"] != 0:
                failed += n_calls * w.ops_per_call()
                raise RuntimeError(f"mlgibbs exited {r['rc']}")
            if not r["stdout_identical"]:
                problems.append("stdout differs between calls at one seed")
            if first is None:
                # every later call must print the same bytes, so one check covers them
                if r["calibrate"] is None:
                    raise RuntimeError("mlgibbs calibrate failed")
                calib = json.loads(r["calibrate"])
                try:
                    first_problems, call_failed = w.check(r["stdout"], calib)
                    expected = w.expected_counts(calib)
                except (ValueError, KeyError) as exc:
                    raise RuntimeError(f"unreadable output: {exc!r}") from None
                problems += first_problems
                first = r
            elif r["stdout"] != first["stdout"]:
                problems.append("stdout differs between children at one seed")
            failed += n_calls * call_failed
            setups.append((r["setup_s"], r["setup_s"] / r["ref_s"][0]))
            walls.append(r["wall_s"])
            refs = [(a + b) / 2 for a, b in zip(r["ref_s"], r["ref_s"][1:])]
            calls = [(t, t / ref) for t, ref in zip(r["run_s"], refs)]
            if tracing:
                with open(trace_path, encoding="utf-8") as fh:
                    for spans, ref in zip(json.load(fh)["calls"], refs):
                        m = layer_metrics(spans)
                        steps, grads, draws = expected
                        for key, want in (("engine.driver_steps", steps),
                                          ("potentials.drift_rows", grads),
                                          ("sde.draw_vectors", draws)):
                            if m[key] != want:
                                problems.append(f"traced {key} is {m[key]}, expected {want}")
                        for name, unit in PER_LAYER:
                            if unit == "s":
                                m[name] *= REF_S / ref
                        layers.append(m)
                traced += calls
            else:
                untraced += calls
                rss.append(r["peak_rss_mb"])
    except RuntimeError as exc:
        problems.append(str(exc))

    metrics = {}
    if untraced and not trace:
        run_s = statistics.median(q for _, q in untraced) * REF_S
        metrics = {
            "setup_s": statistics.median(q for _, q in setups) * REF_S,
            "run_s": run_s,
            "ns_per_grad_eval": run_s / expected[1] * 1e9,
            "peak_rss_mb": statistics.median(rss),
        }
        units = dict(END_TO_END)
    elif untraced and traced:
        metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(
                       m[name] for m in layers)
                   for name, unit in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = REF_S * (statistics.median(q for _, q in traced)
                                               - statistics.median(q for _, q in untraced))
        units = dict(PER_LAYER)
    if not metrics:
        problems.append("no call completed")
        units = {}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = first or {}
    lines = [
        f"workload {w.name}  seed {seed}  trace {int(trace)}  children {len(walls)}  "
        f"calls {len(untraced)} untraced + {len(traced)} traced  "
        f"backend {info.get('backend')}  numpy {info.get('numpy')}  nproc {os.cpu_count()}",
    ]
    lines += [f"  {k:28s} {v:>16.6f} {units[k]}" for k, v in metrics.items()]
    for label, calls in (("untraced", untraced), ("traced", traced)):
        for what, i in (("wall s", 0), ("wall / reference loop", 1)):
            v = [c[i] for c in calls]
            if v:
                q = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
                lines.append(f"  {label} {what}: min {min(v):.4g}  quartiles "
                             + " ".join(f"{x:.4g}" for x in q) + f"  max {max(v):.4g}")
    lines.append("  setup wall s per child: " + " ".join(f"{v:.3f}" for v, _ in setups))
    lines.append(f"  attempted {attempted}  failed {failed}")
    lines += [f"  CHECK FAILED: {p}" for p in problems]
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "mlgibbs" / "cli.py").is_file():
        print(f"no mlgibbs sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
