"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the solver internals:
the bisection oracles only consume feasibility or extendibility
verdicts, and the grid oracle evaluates eigenvalues directly.  The
feasibility oracle is a phase-I program: check_feasible minimizes a
uniform slack over feasibility_problem and reads infeasibility from its
dual; pinned_problem substitutes a fixed extendible weight into
extension_sdp, so that check_feasible on it answers "is weight lam
attainable" without the decomposition program.
"""

import math
from dataclasses import replace

import numpy as np

from keybound import bounds
from keybound.basis import build_basis
from keybound.extendibility import (LAMBDA_TOL, _face_basis, _hermitian_stack,
                                    _pinned_support, _row_set, _swap_sectors, build_sdp,
                                    extension_sdp)
from keybound.protocols import EquivalenceClassSpec, ObservedData, ProtocolSpec, six_state_povms
from keybound.sdp import LmiBlock, SdpProblem, solve
from keybound.states import DensityOperator, bell_psi_plus, swap_last_two

# check_feasible calls a problem feasible when its phase-I slack is at most this.
FEASIBLE_MARGIN = 1e-8


def feasibility_problem(problem):
    """Phase-I companion: minimize the uniform slack t with every block
    shifted to F(x) + t I >= 0 and t >= -1 capping the objective below."""
    t = problem.num_vars
    blocks = [LmiBlock(const=blk.const, mats=np.concatenate([blk.mats, np.eye(blk.dim)[None]]))
              for blk in problem.blocks]
    blocks.append(LmiBlock(const=np.array([[1.0]]), mats=np.eye(t + 1)[:, t, None, None]))
    c = np.zeros(t + 1)
    c[t] = 1.0
    return SdpProblem(c=c, blocks=tuple(blocks))


def check_feasible(problem):
    """Decide feasibility of an SdpProblem by phase-I slack minimization.

    Returns an SdpSolution whose status is 'optimal' (x is a point with
    every block >= -FEASIBLE_MARGIN) or 'infeasible' (certificate attached:
    blocks Z with A*(Z) = 0, Z >= 0 and <F0, Z> < 0), or
    'numerical-failure' if the phase-I solve broke down.
    """
    aux = feasibility_problem(problem)
    sol = solve(aux)
    if sol.status != "optimal":
        sol.message = f"phase-I solve ended with {sol.status}: {sol.message}"
        if sol.status != "infeasible":
            sol.status = "numerical-failure"
        return sol
    tstar = float(sol.x[-1])
    if tstar <= FEASIBLE_MARGIN:
        return replace(sol, x=sol.x[:-1].copy(), objective=tstar,
                       message=f"feasible with uniform margin {-tstar:.3e}")
    zs = sol.z_blocks[:len(problem.blocks)]
    station = sum(np.einsum("ijk,jk->i", blk.mats.conj(), Zb).real
                  for blk, Zb in zip(problem.blocks, zs))
    violation = -sum(float(np.vdot(blk.const, Zb).real)
                     for blk, Zb in zip(problem.blocks, zs))
    return replace(
        sol, status="infeasible", x=sol.x[:-1].copy(), z_blocks=zs, objective=tstar,
        certificate={"kind": "farkas", "z_blocks": zs,
                     "violation": violation,
                     "stationarity_residual": float(np.max(np.abs(station))),
                     "margin": tstar},
        message=f"infeasible: best uniform slack {tstar:.3e}")


def pinned_problem(cls, lam):
    """The extension program with the extendible weight pinned: f_000 = lam,
    substituted into the block consts, so f_000 leaves the variables.

    Feasibility of this problem (for lam in [0, 1]) is the question
    "does the class admit a decomposition with weight exactly lam";
    useful as an independent route to lambda_max via bisection.
    """
    problem = extension_sdp(cls)
    blocks = [LmiBlock(const=blk.const + lam * blk.mats[0], mats=blk.mats[1:])   # f_000
              for blk in problem.blocks]
    return SdpProblem(c=problem.c[1:], blocks=blocks)


def lambda_bisection_oracle(cls, tol=5e-5):
    """Largest extendible weight, found by bisecting pinned feasibility.

    Independent of the joint optimization: each probe pins the weight to a
    candidate value and asks only "is the constraint system feasible".
    The feasible weights form an interval [0, lambda_max].
    """
    def feasible(lam):
        verdict = check_feasible(pinned_problem(cls, lam))
        return verdict.status == "optimal"

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    if not feasible(lo):
        raise AssertionError("weight 0 must always be feasible")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def face_primal_oracle(cls):
    """lambda_max of a class that pins rho to a rank-deficient state, from
    the primal program on its face, the conic dual of the face witness
    program that best_extendible_decomposition solves.

    chi~ = U Y U^+ with U = [sym, anti] a basis of the face (_face_basis's
    parts V_s U_s and V_a U_a in the coordinates of A (x) B (x) B') and Y
    block-diagonal Hermitian, which makes chi~ swap-symmetric; the
    variables are Y's coordinates over _hermitian_stack of each block.
    The blocks are S^+ (rho - sigma~) S >= 0, with S^+ rho S = diag(w),
    and Y >= 0; the objective is min -Tr(Y), and lambda_max = Tr(Y) at
    the optimum (Tr(rho) = 1).  Returns (lambda_max, SdpSolution).
    """
    w, S = _pinned_support(cls)
    (U_s, U_a), (V_s, V_a) = _face_basis(S, cls.dims), _swap_sectors(cls.dims)
    sym, anti = V_s @ U_s, V_a @ U_a
    n_sym, n_anti = sym.shape[1], anti.shape[1]
    k = n_sym + n_anti
    U = np.hstack([sym, anti])
    ys = np.zeros((n_sym ** 2 + n_anti ** 2, k, k), dtype=complex)
    ys[:n_sym ** 2, :n_sym, :n_sym] = _hermitian_stack(n_sym)
    ys[n_sym ** 2:, n_sym:, n_sym:] = _hermitian_stack(n_anti)
    # (S^+ (x) <b'|) U for each b', so S^+ Tr_B'(U Y U^+) S is
    # sum_b' W_b' Y W_b'^+.
    da, db = cls.dims
    W = np.einsum("as,abk->bsk", S.conj(), U.reshape(da * db, db, k))
    sigma_mats = np.einsum("bsk,jkl,btl->jst", W, ys, W.conj())
    c = -np.trace(ys, axis1=1, axis2=2).real
    sol = solve(SdpProblem(
        c=c, blocks=(LmiBlock(const=np.diag(w), mats=-sigma_mats),
                     LmiBlock(const=np.zeros((k, k)), mats=ys))))
    assert sol.status == "optimal", sol.message
    return float(-c @ sol.x), sol


def class_row_program(cls):
    """The witness program over one y_j per class row, minimize -b.y, for
    a class whose rows are independent: what build_sdp returns for one
    that does not qualify for the real program, and in whose coordinates
    diagnostics["witness"] is."""
    blocks = _row_set(cls.rows.tobytes(), cls.rows.shape, tuple(cls.dims))[3][1]
    return SdpProblem(c=-cls.rhs, blocks=blocks)


def assert_ray_proves_no_state(cls, sol):
    """sol, the witness solve of cls, ended unbounded, and its primal ray,
    mapped to the class rows as d = B x by build_sdp's B, proves that no
    state meets them: every block of F_lin(d) = sum_j d_j mats_j of the
    class-row program is PSD within 1e-9 (sum_j d_j O_j <= 0) and
    b.d > 0, so b.y grows without bound over feasible witnesses.
    Returns b.d at ||d|| = 1."""
    assert sol.status == "unbounded"
    assert sol.certificate["kind"] == "primal-ray"
    d = build_sdp(cls)[1] @ sol.certificate["x"]
    for blk in class_row_program(cls).blocks:
        assert np.linalg.eigvalsh(np.tensordot(d, blk.mats, 1))[0] >= -1e-9
    assert float(cls.rhs @ d) > 0.0
    return float(cls.rhs @ d) / float(np.linalg.norm(d))


def no_state_six_state_data(lowest):
    """The six-state POVMs and the Born-rule table of the operator
    t PT(|psi+><psi+|) + (1 - t) I/4, PT the partial transpose on B, whose
    smallest eigenvalue is lowest (PT's eigenvalues are -1/2 once and 1/2
    thrice).  The six-state rows are tomographically complete, so the class
    of these data pins that operator: no state for lowest < 0."""
    pt = bell_psi_plus().matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    t = (1.0 - 4.0 * lowest) / 3.0
    op = t * pt + (1.0 - t) * np.eye(4) / 4.0
    alice, bob = six_state_povms()
    probs = np.array([[np.trace(np.kron(a, b) @ op).real for b in bob.elements]
                      for a in alice.elements])
    return (alice, bob), ObservedData(probs, alice.labels, bob.labels)


def extend_qutrit_stream_state(cycle, rank):
    """The rank-`rank` state of cycle `cycle` (counted from 0) of the
    extend-qutrit benchmark's state stream: from default_rng(0), each
    cycle draws ranks 1..6 in turn, each state G G^+ / Tr with G a
    6 x rank complex Gaussian, as a qubit-qutrit state."""
    rng = np.random.default_rng(0)
    for _ in range(cycle):
        for r in range(1, 7):
            rng.standard_normal((6, r))
            rng.standard_normal((6, r))
    for r in range(1, rank + 1):
        g = rng.standard_normal((6, r)) + 1j * rng.standard_normal((6, r))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(mat / np.trace(mat).real, (2, 3))


def cutoff_bisection_oracle(protocol, tol=1e-3, bracket=(0.0, 0.25),
                            direction="direct", source_constraint=None):
    """Smallest error rate at which the class turns extendible, by bisection.

    Independent of find_cutoff's certificate: each probe solves the plain
    decomposition at one error rate and asks only whether
    lambda_max >= 1 - LAMBDA_TOL.  The predicate must be False at bracket[0]
    and True at bracket[1]; monotonicity of the depolarized family makes
    the bisection sound.  The answer is the bracket midpoint once its
    width is below tol, or once the bracket has narrowed to adjacent
    floats.  The probes call the names in keybound.bounds, so a test can
    stub them there.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    base = ProtocolSpec(protocol, e=0.0, direction=direction,
                        source_constraint=source_constraint)

    def extendible_at(e):
        cls_spec = replace(base, e=float(e))
        povms, data = bounds.realize_protocol(cls_spec)
        cls = bounds.assemble_class(povms, data, cls_spec)
        res = bounds.best_extendible_decomposition(cls)
        return res.lambda_max >= 1.0 - LAMBDA_TOL

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be an increasing pair")
    if extendible_at(lo):
        raise ValueError(f"lower bracket e={lo} is already extendible")
    if not extendible_at(hi):
        raise ValueError(f"upper bracket e={hi} is not extendible")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if extendible_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def achievable_rate(kind, e):
    """A one-way key rate per sifted bit that post-processing is proven to
    reach at QBER e on the depolarized Bell state, clipped at 0:
    1 - 2h(e) for four-state (Shor & Preskill, PRL 85, 441 (2000)) and
    1 + (1 - 3e/2) log2(1 - 3e/2) + (3e/2) log2(e/2) for six-state
    (Lo, Quantum Inf. Comput. 1, 81 (2001)).  No valid upper bound on the
    one-way key rate lies below it."""
    if kind == "four-state":
        h = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e) if e > 0.0 else 0.0
        rate = 1.0 - 2.0 * h
    else:
        q = 1.5 * e
        rate = 1.0 + (1.0 - q) * math.log2(1.0 - q) + (q * math.log2(e / 2.0) if e > 0.0 else 0.0)
    return max(rate, 0.0)


def random_box_sdp(rng, num_vars=3, block_dim=4, box=2.0):
    """A small random inequality-form problem with a known-bounded domain.

    One dense PSD block that is strictly feasible at x = 0, plus scalar
    box rows so every instance is bounded and grid-searchable.
    """
    mats = []
    for _ in range(num_vars):
        g = rng.normal(size=(block_dim, block_dim))
        mats.append(0.5 * (g + g.T))
    g = rng.normal(size=(block_dim, block_dim))
    f0 = g @ g.T + np.eye(block_dim)
    blocks = [LmiBlock(const=f0, mats=np.array(mats))]
    one = np.ones((1, 1))
    for unit in np.eye(num_vars)[:, :, None, None]:   # e_i, as (num_vars, 1, 1)
        blocks.append(LmiBlock(const=box * one, mats=unit))
        blocks.append(LmiBlock(const=box * one, mats=-unit))
    c = rng.normal(size=num_vars)
    return SdpProblem(c=c, blocks=blocks)


def min_block_eigenvalue(problem, x):
    """The smallest eigenvalue of problem's blocks at the point x."""
    lows = []
    for blk in problem.blocks:
        mat = blk.const + np.tensordot(x, blk.mats, axes=1)
        lows.append(float(np.linalg.eigvalsh(0.5 * (mat + np.conj(mat.T)))[0]))
    return min(lows)


def _feasible(problem, x, slack):
    return min_block_eigenvalue(problem, x) >= -slack


def _window_candidates(problem, center, half, points, keep, slack):
    """Best `keep` feasible nodes of a uniform grid over a box window.

    Feasibility is a direct batched eigenvalue check, cheapest blocks
    first so the dense block only sees surviving rows.
    """
    t = len(center)
    axes = [np.linspace(center[i] - half, center[i] + half, points) for i in range(t)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, t)
    alive = np.arange(len(mesh))
    for blk in sorted(problem.blocks, key=lambda b: b.dim):
        if not alive.size:
            break
        mats = blk.const[None] + np.tensordot(mesh[alive], blk.mats, axes=(1, 0))
        mats = 0.5 * (mats + np.conj(np.swapaxes(mats, 1, 2)))
        lows = np.linalg.eigvalsh(mats)[:, 0].real
        alive = alive[lows >= -slack]
    if not alive.size:
        return []
    vals = mesh[alive] @ problem.c
    order = np.argsort(vals)[:keep]
    return [(float(vals[i]), mesh[alive[i]]) for i in order]


def _spread(cands, radius, beam):
    """Up to `beam` best candidates pairwise separated by `radius`."""
    centers = []
    for _, x in cands:
        if all(np.max(np.abs(x - c)) > radius for c in centers):
            centers.append(x)
        if len(centers) >= beam:
            break
    return centers


def grid_search_minimum(problem, box=2.0, levels=7, points=13, beam=6,
                        slack=1e-9, max_walk=8):
    """Hierarchical beam grid search, checking block eigenvalues directly.

    Two failure modes of a plain shrinking window are handled.  A window
    whose argmin keeps landing on its own boundary walks: it is recentered
    at the same scale before any shrink, so it can travel along a face.
    And the beam centers are deduplicated at window scale, not grid scale,
    so the windows spread across a curved active face instead of crowding
    one end of it.  The final spacing is ~1e-4 on the default box.
    """
    t = problem.num_vars
    step0 = 2.0 * box / (points - 1)
    first = _window_candidates(problem, np.zeros(t), box, points, 3 * beam, slack)
    if not first:
        raise AssertionError("grid oracle found no feasible point")
    best_val, best_x = first[0]
    half = 2.0 * step0
    centers = _spread(first, 0.5 * half, beam)
    for _ in range(levels):
        step = 2.0 * half / (points - 1)
        cands = []
        for c in centers:
            cur = c
            cur_val = np.inf
            for _ in range(max_walk):
                got = _window_candidates(problem, cur, half, points, 3 * beam, slack)
                if not got:
                    break
                cands.extend(got)
                val, x = got[0]
                on_edge = np.max(np.abs(x - cur)) >= half - 0.5 * step
                moved = val < cur_val - 1e-15
                cur, cur_val = x, val
                if not (on_edge and moved):
                    break
        if cands:
            cands.sort(key=lambda vx: vx[0])
            if cands[0][0] < best_val:
                best_val, best_x = cands[0][0], cands[0][1]
            centers = _spread(cands, 0.5 * half, beam)
        half /= 3.0
    return best_val, best_x


def random_density(rng, dim):
    """Random full-rank density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def trivial_class(dims):
    """The class of all states on the given dimensions (normalization only)."""
    da, db = dims
    n = da * da * db * db
    row = np.zeros((1, n))
    row[0, 0] = 1.0
    return EquivalenceClassSpec(dims=(int(da), int(db)), rows=row,
                                rhs=np.array([1.0]))


def permute_subsystems(mat, dims, perm):
    """Conjugate a matrix by the permutation that reorders tensor factors,
    by transposing its tensor axes; an oracle for swap_last_two.

    perm[t] gives the old position of the factor that lands at new
    position t, matching np.transpose conventions.
    """
    s = len(dims)
    d = math.prod(dims)
    T = np.asarray(mat).reshape(tuple(dims) * 2)
    return T.transpose(list(perm) + [p + s for p in perm]).reshape(d, d)


def _chi_terms(dims):
    """The triples (k, l, m <= l) in variable order and, for each, the
    operator S_k (x) sym(S_l (x) S_m) / d built with explicit Kronecker
    products."""
    da, db = dims
    sa, sb = build_basis(da), build_basis(db)
    dabb = da * db * db
    triples = [(k, l, m) for k in range(da * da)
               for l in range(db * db) for m in range(l + 1)]
    terms = []
    for k, l, m in triples:
        if l == m:
            mat = np.kron(sa[k], np.kron(sb[l], sb[l]))
        else:
            mat = (np.kron(sa[k], np.kron(sb[l], sb[m]))
                   + np.kron(sa[k], np.kron(sb[m], sb[l])))
        terms.append(mat / dabb)
    return triples, terms


def sigma_coefficients(dims):
    """The positions of sigma~'s coefficients f_{k,l,0} among the f, in
    (k, l) order."""
    triples = _chi_terms(dims)[0]
    da, db = dims
    return [triples.index((k, l, 0)) for k in range(da * da) for l in range(db * db)]


def chi_reference(f_vec, dims):
    """The extension chi~ = sum_klm f_klm (S_k (x) sym(S_l (x) S_m)) / d,
    summed term by term, in the variable order k, then l, then m <= l."""
    triples, terms = _chi_terms(dims)
    assert len(f_vec) == len(triples)
    return sum(val * mat for val, mat in zip(f_vec, terms))


def three_block_reference(cls):
    """The decomposition SDP in its redundant three-block form.

    Variables f_klm (chi~), then w, with rho's coefficients
    r = r0 + N w: r0 the least-squares solution of the class rows and N
    an orthonormal basis of their null space, from numpy's lstsq and
    null-space SVD; sigma~'s coefficients are the f_{k,l,0}, since
    sigma~ is the partial trace of chi~ over B'.  Blocks rho - sigma~ >= 0,
    chi~ >= 0 and, when the rows leave rho free coefficients, rho >= 0;
    objective min r_00 - f_000 (less its constant).  Built from the
    operator basis alone, independently of extension_sdp.

    Returns (SdpProblem, index of f_000), so lambda_max = x[index].
    """
    da, db = cls.dims
    na, nb = da * da, db * db
    sa, sb = build_basis(da), build_basis(db)
    rho_mats = np.stack([np.kron(sa[k], sb[l]) / (da * db)
                         for k in range(na) for l in range(nb)])
    triples, chi_mats = _chi_terms((da, db))
    r0 = np.linalg.lstsq(cls.rows, cls.rhs, rcond=None)[0]
    _, s, Vt = np.linalg.svd(cls.rows)
    N = Vt[np.count_nonzero(s > 1e-10 * s[0]):].T
    n_f, n_w = len(triples), N.shape[1]
    rho0 = np.tensordot(r0, rho_mats, 1)
    rho_w = np.tensordot(N.T, rho_mats, 1)
    # each block's matrices over (f, w): zero for a variable it lacks
    sigma_f = np.zeros((n_f, *rho0.shape), dtype=complex)
    sigma_f[sigma_coefficients((da, db))] = -rho_mats
    dabb = da * db * db
    blocks = [LmiBlock(const=rho0, mats=np.concatenate([sigma_f, rho_w])),
              LmiBlock(const=np.zeros((dabb, dabb)),
                       mats=np.concatenate([chi_mats, np.zeros((n_w, dabb, dabb))]))]
    if n_w:
        blocks.append(LmiBlock(const=rho0, mats=np.concatenate([0 * sigma_f, rho_w])))
    c = np.concatenate([np.zeros(n_f), N[0]])
    c[0] = -1.0
    return SdpProblem(c=c, blocks=blocks), 0


def unsplit_witness_program(cls):
    """The witness program in its unsplit statement, one variable y_j per
    class row: minimize -b.y with W(y) = I - sum_j y_j O_j >= 0 on A B and
    sym(W(y) (x) I_B') - I >= 0 on A B B', sym(X) = (X + P X P) / 2,
    O_j = sum_kl A[j, kl] S_k (x) S_l; built with explicit Kronecker
    products.  Its dual blocks are T = rho - sigma~ and chi~ as they
    come."""
    da, db = cls.dims
    sa, sb = build_basis(da), build_basis(db)
    prods = [np.kron(sa[k], sb[l]) for k in range(da * da) for l in range(db * db)]
    ops = np.tensordot(cls.rows, np.array(prods), 1)
    P = swap_last_two((da, db))
    ext = np.array([np.kron(op, np.eye(db)) for op in ops])
    ext = 0.5 * (ext + P @ ext @ P)
    n = da * db * db
    return SdpProblem(c=-cls.rhs, blocks=(
        LmiBlock(const=np.eye(da * db), mats=-ops),
        LmiBlock(const=np.zeros((n, n)), mats=-ext)))
