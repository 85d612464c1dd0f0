"""Tour of the built-in semidefinite-program solver on small problems.

Two stops: a solve with the per-iteration trace printed, and an
infeasible system with the Farkas certificate solve returns for it.
Each block holds one matrix per variable of its program, so these
one-variable blocks hold one each.
"""

import numpy as np

from keybound import LmiBlock, SdpProblem, solve


def lambda_min_problem(mat):
    """min -t  s.t.  mat - t I >= 0, i.e. the smallest eigenvalue."""
    dim = mat.shape[0]
    block = LmiBlock(const=mat, mats=-np.eye(dim)[None])
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
        LmiBlock(const=-one, mats=one[None]),
        LmiBlock(const=0 * one, mats=-one[None]),
    ])
    # solve reads the verdict from the embedding (tau -> 0, kappa > 0)
    verdict = solve(infeas)
    cert = verdict.certificate
    print(f"  solve: status {verdict.status}")
    print(f"    certificate kind={cert['kind']}"
          f"  violation={cert['violation']:.3e}"
          f"  stationarity={cert['stationarity_residual']:.1e}")


if __name__ == "__main__":
    main()
