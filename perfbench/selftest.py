"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs each workload briefly twice, traced, for one cycle on the same seed,
and requires the counts that do not depend on timing to repeat exactly:
solves per op, iterations per solve, basis builds per op, SDP size and
the failure share.  On CPU these are deterministic, so any drift is a
bug in the benchmark.  It also checks that run.py refuses to run, with
no result line, in a directory holding only the benchmark.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import run

EXACT = ("sdp.solves_per_op", "sdp.iters_per_solve",
         "basis.build_basis_calls_per_op", "extendibility.sdp_vars")
SEED = 7


def fingerprint(workload):
    res = run.worker("traced", workload, SEED, "--cycles", "1")
    attempted, failed = run.counts(res)
    out = {name: res["layers"][name] for name in EXACT}
    out["fail_share"] = failed / attempted
    out["ops"] = attempted
    return out


def check_repeats():
    ok = True
    for workload in run.WORKLOAD_NAMES:
        first, second = fingerprint(workload), fingerprint(workload)
        same = first == second
        ok &= same
        print(f"{workload}: {'repeats' if same else 'DRIFTS'} {first}"
              + ("" if same else f" then {second}"))
    return ok


def check_bare_directory():
    """run.py must fail, printing no result, without the program's sources."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "points-qubit", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare directory: exit {proc.returncode}, "
          f"{'refused' if ok else 'DID NOT REFUSE'}")
    return ok


def main():
    ok = check_repeats()
    ok &= check_bare_directory()
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
