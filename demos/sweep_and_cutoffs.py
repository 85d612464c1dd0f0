"""Reproduce the headline numbers: bound curves and cutoff error rates.

Sweeps both built-in protocols over a grid of depolarizing error rates,
prints the certified upper bound on the one-way key rate at each point,
then solves one SDP for the error rate where the observed statistics
become reproducible by a two-copy-extendible state.  Past that point the
bound is zero and one-way key distillation is ruled out.
"""

import argparse
import math
import time

import numpy as np

from keybound import bound_points_to_csv, find_cutoff, sweep

# analytic references for the depolarized Bell family
REFERENCE_CUTOFF = {
    "four-state": 0.5 * (1.0 - 1.0 / math.sqrt(2.0)),
    "six-state": 1.0 / 6.0,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=15, help="grid size")
    ap.add_argument("--emax", type=float, default=0.25, help="grid endpoint")
    ap.add_argument("--csv", help="write the four-state curve here as CSV")
    args = ap.parse_args()

    grid = np.linspace(0.0, args.emax, args.points)
    curves = {}
    for name in ("four-state", "six-state"):
        t0 = time.time()
        points = sweep(name, grid)
        curves[name] = points
        print(f"\n{name} curve ({time.time() - t0:.1f}s):")
        print(f"  {'e':>8} {'lambda_max':>11} {'bound':>9}  status")
        for p in points:
            print(f"  {p.e:8.4f} {p.lambda_max:11.6f} {p.upper_bound:9.6f}"
                  f"  {p.status}")

        t0 = time.time()
        cut = find_cutoff(name, tol=1e-4)
        ref = REFERENCE_CUTOFF[name]
        print(f"  cutoff: e = {cut:.6f}  (analytic {ref:.6f}, "
              f"off by {abs(cut - ref):.1e}, {time.time() - t0:.1f}s)")

    # on this family the optimal split leaves a pure Bell state behind,
    # so the bound is simply 1 - lambda and falls linearly to the cutoff
    print("\nlinearity check (six-state, bound vs 1 - e/cutoff):")
    for p in curves["six-state"]:
        if 0.0 < p.e < REFERENCE_CUTOFF["six-state"]:
            model = 1.0 - p.e / REFERENCE_CUTOFF["six-state"]
            print(f"  e={p.e:.4f}  bound={p.upper_bound:.6f}"
                  f"  model={model:.6f}  diff={abs(p.upper_bound - model):.2e}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(bound_points_to_csv(curves["four-state"]))
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
