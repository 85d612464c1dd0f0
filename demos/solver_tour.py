"""Tour of the built-in semidefinite-program solver on small problems.

Three stops: a solve with the per-iteration trace printed, an
infeasible system and its certificates from solve and from
check_feasible, and an SDPA-sparse dump of the problem for
cross-checking with external solvers.
"""

import os
import tempfile

import numpy as np

from keybound import LmiBlock, SdpProblem, check_feasible, solve, write_sdpa


def lambda_min_problem(mat):
    """min -t  s.t.  mat - t I >= 0, i.e. the smallest eigenvalue."""
    dim = mat.shape[0]
    block = LmiBlock(const=mat, var_idx=(0,), mats=-np.eye(dim)[None])
    return SdpProblem(c=np.array([-1.0]), blocks=[block])


def main():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(5, 5))
    sym = 0.5 * (g + g.T)

    prob = lambda_min_problem(sym)
    sol = solve(prob)
    print("stop 1: smallest eigenvalue of a random symmetric 5x5")
    print(f"  {'it':>3} {'primal':>12} {'dual':>12} {'<S,Z>':>9}")
    for rec in sol.history:
        print(f"  {rec.iteration:3d} {rec.primal_obj:12.8f}"
              f" {rec.dual_obj:12.8f} {rec.inner:9.2e}")
    truth = float(np.linalg.eigvalsh(sym)[0])
    print(f"  solver {-sol.objective:.10f} vs eigvalsh {truth:.10f}"
          f"  (diff {abs(-sol.objective - truth):.1e})")

    # an infeasible pair of scalar constraints: x >= 1 and -x >= 0
    print("\nstop 2: infeasibility certificate")
    one = np.ones((1, 1))
    infeas = SdpProblem(c=np.array([1.0]), blocks=[
        LmiBlock(const=-one, var_idx=(0,), mats=one[None]),
        LmiBlock(const=0 * one, var_idx=(0,), mats=-one[None]),
    ])
    # solve reads the verdict from the embedding (tau -> 0, kappa > 0);
    # check_feasible reads it from the dual of a phase-I slack program
    for name, verdict in (("solve", solve(infeas)),
                          ("check_feasible", check_feasible(infeas))):
        print(f"  {name}: status {verdict.status}")
        if verdict.certificate:
            cert = verdict.certificate
            print(f"    certificate kind={cert['kind']}"
                  f"  violation={cert['violation']:.3e}"
                  f"  stationarity={cert['stationarity_residual']:.1e}")

    print("\nstop 3: SDPA-sparse dump")
    path = os.path.join(tempfile.mkdtemp(), "lambda_min.dat-s")
    write_sdpa(prob, path)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines()[:8]:
            print(f"  {line}")
    print(f"  ... written to {path}")


if __name__ == "__main__":
    main()
