"""The keybound benchmark.

    python3 perfbench/run.py --workload points-qubit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every workload process is a
fresh interpreter that imports ``keybound`` from ``src/`` with the BLAS
pool pinned to one thread.  One client drives the program in a closed
loop: each op starts when the previous one has ended.  A run does a fixed
number of whole cycles of inputs, as many as take about --seconds on the
baseline host (README), and op and set-up times are corrected for the host's
speed of the moment (hostspeed.py).

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1
is a separate run that wraps each layer's entry points in spans and
prints the per-layer metrics.  Either way the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the
line before it is the run's context (versions, BLAS, seed, src size).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("points-qubit", "cutoff-qubit", "extend-qutrit")

SETUP_SPAWNS = 5          # fresh processes timed for setup_s; median
SIDE_SPAWNS = 3           # fresh processes for import and CLI cold start
CHILD_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(pinned=True):
    """Environment of a workload process: ``src`` first on the path and,
    unless ``pinned`` is False, a one-thread BLAS pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in BLAS_ENV:
        if pinned:
            env[name] = "1"
        else:
            env.pop(name, None)
    return env


def spawn(cmd, pinned=True):
    """Run ``cmd`` in the checkout to completion; it must exit with 0."""
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(pinned),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc


def worker(mode, workload, seed, *extra, pinned=True):
    """Run worker.py; return its last stdout line as JSON."""
    proc = spawn([sys.executable, str(WORKER), mode, "--workload", workload,
                  "--seed", str(seed), *extra], pinned)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload, seed):
    """Median wall time from spawning a fresh interpreter to the end of
    the workload's first op, which the process stamps with the system
    clock.  One extra spawn first fills bytecode and file caches; it is
    not counted.  Returns the host-speed corrected median and the raw
    one: this process runs the hostspeed kernel between spawns and scales
    each spawn's time like an op's."""
    import hostspeed  # after BLAS_ENV is pinned in main()

    raw, corrected = [], []
    kernel_s = hostspeed.kernel_seconds()
    for i in range(SETUP_SPAWNS + 1):
        start_ns = time.time_ns()
        proc = spawn([sys.executable, str(WORKER), "setup", "--workload",
                      workload, "--seed", str(seed)])
        wall_s = (int(proc.stdout.split()[-1]) - start_ns) * 1e-9
        after_s = hostspeed.kernel_seconds()
        if i:
            raw.append(wall_s)
            corrected.append(wall_s * hostspeed.REFERENCE_S
                             / (0.5 * (kernel_s + after_s)))
        kernel_s = after_s
    return statistics.median(corrected), statistics.median(raw)


def import_seconds():
    """Cumulative ``-X importtime`` seconds of keybound and scipy.linalg."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import keybound"]
    found = {"keybound": [], "scipy.linalg": []}
    for _ in range(SIDE_SPAWNS):
        for line in spawn(cmd).stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {name: statistics.median(v) if v else 0.0 for name, v in found.items()}


def cli_cold_seconds():
    """Median wall time of a fresh ``keybound bound`` process."""
    cmd = [sys.executable, "-m", "keybound.cli", "bound", "--protocol",
           "six-state", "--e", "0.1"]
    samples = []
    for _ in range(SIDE_SPAWNS):
        start = time.perf_counter()
        out = spawn(cmd).stdout
        samples.append(time.perf_counter() - start)
        if "status: optimal" not in out:
            raise RuntimeError(f"keybound bound printed no optimal point:\n{out}")
    return statistics.median(samples)


def src_line_count():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def git_sha():
    """The checkout's commit from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the ``p`` quantile of ``values``.

    A weighted mean of all order statistics, with the weights of a
    Beta(p(n+1), (1-p)(n+1)) distribution over their ranks.  Where ops
    of a few kinds form clusters of times, the plain sample quantile
    jumps between neighbouring clusters from run to run; this one moves
    smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):  # midpoint rule over rank bin [i/n, (i+1)/n]
        weights.append(sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
            for x in (i / n + (j + 0.5) * h for j in range(steps))))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def counts(run):
    attempted = len(run["op_s"])
    outcomes = run["outcomes"]
    return attempted, outcomes.get("failed", 0) + outcomes.get("wrong", 0)


def end_to_end(workload, seed, seconds):
    """Op times are host-speed corrected (hostspeed.py); the raw wall
    clock figures go to the context line."""
    setup_s, wall_setup_s = setup_seconds(workload, seed)
    run = worker("timed", workload, seed, "--seconds", str(seconds))
    attempted, failed = counts(run)
    op_ms = [t * 1e3 for t in run["op_s_corrected"]]
    run["context"].update({
        "wall_setup_s": wall_setup_s,
        "wall_op_ms_p50": statistics.median(run["op_s"]) * 1e3,
        "wall_ops_per_s": attempted / sum(run["op_s"]),
        "kernel_ms_median": run["kernel_ms_median"],
    })
    return run, {
        "op_ms_p50": quantile(op_ms, 0.5),
        "op_ms_p90": quantile(op_ms, 0.9),
        "ops_per_s": attempted / sum(run["op_s_corrected"]),
        "ok_share": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(workload, seed, seconds):
    OUT_DIR.mkdir(exist_ok=True)
    spans_out = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    run = worker("traced", workload, seed, "--seconds", str(seconds),
                 "--spans-out", str(spans_out))
    metrics = dict(run["layers"])
    unpinned = worker("traced", workload, seed,
                      "--cycles", "1", pinned=False)
    metrics["sdp.solve_ms_default_blas"] = unpinned["layers"]["sdp.solve_ms"]
    imports = import_seconds()
    metrics["import.keybound_s"] = imports["keybound"]
    metrics["import.scipy_linalg_s"] = imports["scipy.linalg"]
    metrics["cli.bound_cold_s"] = cli_cold_seconds()
    run["context"]["spans_file"] = str(spans_out.relative_to(ROOT))
    run["context"]["default_blas_threads"] = unpinned["context"]["blas_threads"]
    return run, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "keybound" / "__init__.py").is_file():
        print(f"error: no keybound sources under {SRC}; run from the root "
              "of a keybound checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for name in BLAS_ENV:  # this process runs the hostspeed kernel too
        os.environ[name] = "1"

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    measure = per_layer if args.trace else end_to_end
    run, metrics = measure(args.workload, args.seed, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted, failed = counts(run)

    context = dict(run["context"])
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "src_lines": src_line_count(),
        "loop": "closed, 1 client, 1 process", "ops": attempted,
        "timed_wall_s": run["wall_s"], "outcomes": run["outcomes"],
        "failure_reasons": run["reasons"],
    })
    for name in units:
        print(f"{name:>36} {metrics[name]:14.6g} {units[name]}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": run["outcomes"].get("wrong", 0) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
