"""Inspect one certified decomposition rho = (1-l) rho_ne + l sigma.

At e = 0.10 the six-state statistics still keep a finite distance from
the two-copy-extendible set.  The solver returns the weight-maximizing
decomposition together with the symmetric extension of sigma; this
script re-checks every claimed property directly on the matrices rather
than trusting the solver's own residuals.

The second part takes the rank-2 state 0.7 Phi+ + 0.3 |01><01|, pinned
completely by class_from_state.  The full program has no strictly
feasible point there; the solver works on the face that chi must live
on, and the same hand checks apply to the decomposition it returns.
"""

import numpy as np

from keybound import (DensityOperator, ProtocolSpec, assemble_class,
                      bell_psi_plus, best_extendible_decomposition,
                      class_from_state, partial_trace_matrix,
                      realize_protocol, solve, swap_last_two, verify_extension)
from keybound.extendibility import extension_sdp

E = 0.10


def main():
    spec = ProtocolSpec("six-state", e=E)
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    res = best_extendible_decomposition(cls)

    lam = res.lambda_max
    print(f"six-state at e = {E}")
    print(f"  lambda_max       = {lam:.9f}   (6e = {6 * E:.6f})")
    print(f"  certified bound  = {1 - lam:.9f}")
    print(f"  solver status    = {res.solution.status}, "
          f"{res.solution.iterations} iterations, "
          f"gap {res.solution.duality_gap:.1e}")

    # library residuals first
    rep = verify_extension(res)
    print("\nverify_extension residuals:")
    print(f"  decomposition {rep.decomposition_residual:.2e}"
          f"   swap {rep.swap_residual:.2e}")
    print(f"  partial trace {rep.partial_trace_residual:.2e}"
          f"   marginal {rep.marginal_residual:.2e}")

    # now the same claims by hand
    rho = res.rho_star.matrix
    mix = (1 - lam) * res.rho_ne.matrix + lam * res.sigma_ext.matrix
    chi = res.chi.matrix
    swap = swap_last_two((2, 2))
    print("\ndirect matrix checks:")
    print(f"  |rho - (1-l) rho_ne - l sigma| = {np.abs(rho - mix).max():.2e}")
    print(f"  |chi - V chi V|                = "
          f"{np.abs(chi - swap @ chi @ swap).max():.2e}")
    print(f"  |Tr_B' chi - sigma|            = "
          f"{np.abs(partial_trace_matrix(chi, (2, 2, 2), (0, 1)) - res.sigma_ext.matrix).max():.2e}")

    # the non-extendible part is still the pure Bell state
    psi = bell_psi_plus().matrix
    fid = float(np.real(np.trace(psi @ res.rho_ne.matrix)))
    print(f"  Bell fidelity of rho_ne        = {fid:.9f}")

    # extendibility flips across the cutoff at 1/6
    print()
    for e_probe in (0.16, 0.17):
        probe = ProtocolSpec("six-state", e=e_probe)
        p_povms, p_data = realize_protocol(probe)
        flag = best_extendible_decomposition(
            assemble_class(p_povms, p_data, probe)).extendible
        print(f"extendible(six-state, e={e_probe}) = {flag}")

    rank_deficient()


def rank_deficient():
    ket01 = np.zeros(4)
    ket01[1] = 1.0
    rho = 0.7 * bell_psi_plus().matrix + 0.3 * np.outer(ket01, ket01)
    cls = class_from_state(DensityOperator(rho, (2, 2)))
    res = best_extendible_decomposition(cls)
    lam, diag = res.lambda_max, res.diagnostics
    print("\nrank-2 state 0.7 Phi+ + 0.3 |01><01|, pinned by class_from_state")
    print(f"  lambda_max       = {lam:.9f}")
    print(f"  support rank {diag['support_rank']}, face dimension "
          f"{diag['face_dim']}, {res.solution.iterations} iterations")
    full = solve(extension_sdp(cls))
    print(f"  full program     = {full.status} after {full.iterations} iterations")
    print(f"  verify_extension = {verify_extension(res).passed}")

    sigma, rho_ne, chi = res.sigma_ext.matrix, res.rho_ne.matrix, res.chi.matrix
    swap = swap_last_two((2, 2))
    # chi must vanish on ker(rho) (x) C^2: the face reduction is exact
    w, V = np.linalg.eigh(rho)
    ker = V[:, w < 1e-9]
    off_face = np.kron(ker @ ker.conj().T, np.eye(2))
    print("\ndirect matrix checks:")
    print(f"  |rho* - rho|                   = "
          f"{np.abs(res.rho_star.matrix - rho).max():.2e}")
    print(f"  |rho - (1-l) rho_ne - l sigma| = "
          f"{np.abs(rho - (1 - lam) * rho_ne - lam * sigma).max():.2e}")
    print(f"  |chi - V chi V|                = "
          f"{np.abs(chi - swap @ chi @ swap).max():.2e}")
    print(f"  |Tr_B' chi - sigma|            = "
          f"{np.abs(partial_trace_matrix(chi, (2, 2, 2), (0, 1)) - sigma).max():.2e}")
    print(f"  |chi on ker(rho) (x) C^2|      = {np.abs(off_face @ chi).max():.2e}")
    print(f"  min eigenvalues: rho_ne {np.linalg.eigvalsh(rho_ne)[0]:.1e}, "
          f"sigma {np.linalg.eigvalsh(sigma)[0]:.1e}, "
          f"chi {np.linalg.eigvalsh(chi)[0]:.1e}")


if __name__ == "__main__":
    main()
