"""Workload executions in a fresh interpreter, launched by run.py.

Times the import of the package (set-up), then repeats one call of
``mlgibbs.cli.main`` with its stdout captured for as long as the next call
is expected to end within ``--seconds`` (at least one call), then reads the
peak resident memory of this process.  Every call must print the same bytes.
A fixed reference loop that does not use the package is timed right after
the import and after each call, so run.py can express each time relative to
the host's speed at that moment.
With ``--trace-out`` each call is traced: the package's public functions are
wrapped at their module boundaries and spans with parent links are recorded;
the spans stay in memory and are written to ``--trace-out``, one list per
call, when the calls are done.  High-frequency leaf calls (noise draws, the
drift map, the observable) are not stored one by one: each span aggregates
the count, the rows and the time of the leaf calls made while it was the
innermost open span, which keeps memory flat on runs with many draws.

After the timed calls, an optional ``--calibrate`` argv runs untimed and
untraced; its output feeds the benchmark's cost checks.

The last line on stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import statistics
import sys
import time

clock = time.perf_counter


class Tracer:
    """In-memory span recorder for calls into the package's layers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name: str, size):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": clock(),
            "end": None,
            "size": size,
            "leaves": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = clock()
        self._stack.pop()

    def span(self, name: str, fn, size_of=None, wrap_args=None):
        """Wrap fn so each call is one span named name.

        size_of maps the positional arguments to a work count recorded on
        the span (steps of a driver, streams built); wrap_args rewrites the
        arguments before the call (used to hand the engine a traced drift
        map and observable).
        """

        def traced(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            s = self._open(name, size_of(args) if size_of is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return traced

    def leaf(self, name: str, fn, rows_of):
        """Wrap fn so calls add (calls, rows, seconds) to the innermost span."""

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            agg = self._stack[-1]["leaves"].setdefault(name, [0, 0, 0.0])
            agg[0] += 1
            agg[1] += rows_of(args)
            agg[2] += dt
            return out

        return traced

    def patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _rows(args) -> int:
    x = args[0]
    return int(x.shape[0]) if getattr(x, "ndim", 0) == 2 else 1


def install(tracer: Tracer):
    """Wrap each layer where its callers look it up."""
    from mlgibbs import cli, diagnostics, engine, sde

    def traced_model_and_f(args):
        # (model, f, ...) as handed to a driver: trace the drift map and the
        # observable the engine will call, keep everything else
        model, f = args[0], args[1]
        grad = tracer.leaf("potentials.drift", model.gradient_fn, _rows)
        obs = tracer.leaf("observables", f, lambda a: 1)
        if hasattr(f, "_obs_code"):
            obs._obs_code = f._obs_code
        return (dataclasses.replace(model, gradient_fn=grad), obs) + tuple(args[2:])

    t = tracer
    t.patch(cli, "prepare_run", t.span("cli.prepare_run", cli.prepare_run))
    for name in ("reference_for", "fourth_moment_reference"):
        t.patch(cli, name, t.span("diagnostics." + name, getattr(cli, name)))
    t.patch(cli, "run_mse_experiment",
            t.span("diagnostics.run_mse_experiment", cli.run_mse_experiment))
    t.patch(diagnostics, "run_replicates",
            t.span("estimator.run_replicates", diagnostics.run_replicates))
    t.patch(engine, "make_streams", t.span("engine.make_streams", engine.make_streams,
                                           size_of=lambda a: len(a[1])))
    for name in ("occupation_sums", "coupled_diff_sums"):
        # argument 5 is n_steps, resp. n_coarse: the driver's loop iterations
        t.patch(engine, name, t.span("engine." + name, getattr(engine, name),
                                     size_of=lambda a: int(a[5]),
                                     wrap_args=traced_model_and_f))
    original_normals = sde.NoiseStream.normals
    t.patch(sde.NoiseStream, "normals",
            t.leaf("sde.normals", original_normals, lambda a: int(a[1])))


def reference() -> float:
    """Wall time of a fixed numpy loop shaped like an Euler sweep over 100 lanes.

    It uses numpy alone, never mlgibbs, so a change to the package cannot
    move it; only the host's speed does.
    """
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(12345))
    x = np.zeros((100, 3))
    t0 = clock()
    for _ in range(600):
        z = rng.standard_normal((100, 3))
        r2 = (x * x).sum(axis=1, keepdims=True)
        x = x - 0.015 * x * (1.0 + r2) ** -0.25 + 0.1 * z
    return clock() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--argv", help="JSON list passed to mlgibbs.cli.main")
    ap.add_argument("--seconds", type=float, default=0.0, help="time budget for the calls")
    ap.add_argument("--calibrate", default=None, help="JSON argv run untimed afterwards")
    ap.add_argument("--trace-out", default=None, help="trace each call, write spans here")
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args()

    t0 = clock()
    import mlgibbs.cli
    from mlgibbs import engine

    setup_s = clock() - t0
    reference()  # warm-up, not recorded
    ref_s = [reference()]
    result = {"setup_s": setup_s, "ref_s": ref_s}
    if args.import_only:
        print(json.dumps(result))
        return 0

    argv = json.loads(args.argv)
    run_s, outputs, traces = [], set(), []
    start = clock()
    while not run_s or clock() - start + statistics.median(run_s) <= args.seconds:
        tracer = None
        if args.trace_out:
            tracer = Tracer()
            install(tracer)
        buf = io.StringIO()
        t1 = clock()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = mlgibbs.cli.main(argv)
            else:
                rc = tracer.span("cli.main", mlgibbs.cli.main)(argv)
        run_s.append(clock() - t1)
        if tracer is not None:
            tracer.unpatch()
            traces.append(tracer.spans)
        ref_s.append(reference())
        outputs.add(buf.getvalue())
        if rc != 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump({"calls": traces}, fh)

    calibrate = None
    if args.calibrate:
        cbuf = io.StringIO()
        with contextlib.redirect_stdout(cbuf):
            crc = mlgibbs.cli.main(json.loads(args.calibrate))
        calibrate = cbuf.getvalue() if crc == 0 else None

    import numpy

    result.update(
        rc=rc,
        run_s=run_s,
        peak_rss_mb=peak_rss_mb,
        stdout=buf.getvalue(),
        stdout_identical=len(outputs) == 1,
        calibrate=calibrate,
        backend="numba" if engine.HAVE_NUMBA else "numpy",
        numpy=numpy.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
