"""One benchmark process: runs a workload and prints its numbers as JSON.

run.py starts this script in a fresh interpreter, with ``src`` on the
path and the BLAS pool pinned by environment.  Modes:

  setup   import keybound, run the workload's first op, print the time;
  timed   run whole cycles of ops, untraced: --cycles of them, or as
          many as take about --seconds on the baseline host;
  traced  the same with a span around each layer call.

The last stdout line of ``timed`` and ``traced`` is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


def _check_import():
    import keybound

    src = ROOT / "src"
    if src not in Path(keybound.__file__).resolve().parents:
        sys.exit(f"keybound was imported from {keybound.__file__}, "
                 f"not from {src}")


def blas_context():
    """BLAS libraries loaded by numpy and scipy and their thread counts."""
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[Path(lib).name] = fn()
                    break
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_ops(workload, op, n_cycles):
    """Closed loop, one client: each op starts when the previous ends.

    Runs ``n_cycles`` whole cycles of the workload's inputs, so the ops
    and their outcomes depend on the seed alone.  A ``hostspeed.Meter``
    runs its reference kernel between ops to correct their times.
    """
    times, outcomes, reasons = [], Counter(), Counter()
    meter = hostspeed.Meter()
    cycles = workload.cycles()
    start = time.perf_counter()
    for _ in range(n_cycles):
        for item in next(cycles):
            meter.before_op()
            t0 = time.perf_counter()
            try:
                out = op(len(times), item)
            except Exception as exc:  # a raising op is counted, not fatal
                t1 = time.perf_counter()
                outcome, why = "failed", f"{type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                outcome, why = workload.judge(item, out)
            times.append(t1 - t0)
            outcomes[outcome] += 1
            if why:
                reasons[f"{outcome}: {why[:100]}"] += 1
    meter.finish()
    return {
        "op_s": times,
        "op_s_corrected": meter.corrected(times),
        "kernel_ms_median": meter.kernel_ms_median(),
        "wall_s": time.perf_counter() - start,
        "outcomes": dict(outcomes),
        "reasons": dict(reasons.most_common(5)),
    }


def first_op(workload):
    """Run the first op of the workload's stream; failing also ends it."""
    try:
        workload.op(next(workload.cycles())[0])
    except Exception:  # counted in the timed loop, not here
        pass


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "timed", "traced"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    _check_import()
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "setup":
        first_op(workload)
        print("first-op-done", time.time_ns())
        return 0

    # Warm-up: the first op of another seed's stream (the same input on
    # workloads whose inputs the seed does not change).
    first_op(WORKLOADS[args.workload](args.seed + 1_000_003))

    n_cycles = args.cycles or workload.cycles_for(args.seconds)
    result = {"context": blas_context()}
    if args.mode == "timed":
        result.update(run_ops(workload, lambda i, item: workload.op(item),
                              n_cycles))
    else:
        tracer = spans.Tracer()
        tracer.install()
        result.update(run_ops(
            workload, lambda i, item: tracer.run_op(i, workload.op, item),
            n_cycles))
        n_ops = len(result["op_s"])
        layers = spans.layer_metrics(tracer.spans, n_ops)
        cost_ns = spans.span_cost_ns()
        layers["trace.overhead_share"] = (
            layers.pop("trace.spans_per_op") * cost_ns * 1e-6
            / layers["trace.op_ms_mean"])
        result["layers"] = layers
        if args.spans_out:
            out = Path(args.spans_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op", "info"],
                 "spans": tracer.dump()}))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
