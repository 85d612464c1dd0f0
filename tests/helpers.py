"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the solver internals:
the bisection oracles only consume feasibility or extendibility
verdicts, and the grid oracle evaluates eigenvalues directly.  The
feasibility oracle is a phase-I program: check_feasible minimizes a
uniform slack over feasibility_problem and reads infeasibility from its
dual; pinned_problem fixes the extendible weight of extension_sdp, so
that check_feasible on it answers "is weight lam attainable" without the
decomposition program.
"""

import math
from dataclasses import replace

import numpy as np

from keybound import bounds
from keybound.basis import build_basis
from keybound.extendibility import (LAMBDA_TOL, _face_basis, _hermitian_stack,
                                    _pinned_support, build_sdp, extension_sdp)
from keybound.protocols import EquivalenceClassSpec, ProtocolSpec
from keybound.sdp import LmiBlock, SdpProblem, _adjoint, solve
from keybound.states import DensityOperator

# check_feasible calls a problem feasible when its phase-I slack is at most this.
FEASIBLE_MARGIN = 1e-8


def feasibility_problem(problem):
    """Phase-I companion: minimize the uniform slack t with every block
    shifted to F(x) + t I >= 0 and t >= -1 capping the objective below."""
    t = problem.num_vars
    blocks = []
    for blk in problem.blocks:
        mats = np.concatenate([blk.mats, np.eye(blk.dim)[None]])
        idx = np.append(blk.var_idx, t)
        blocks.append(LmiBlock(const=blk.const, var_idx=idx, mats=mats))
    blocks.append(LmiBlock(const=np.array([[1.0]]), var_idx=np.array([t]),
                           mats=np.array([[[1.0]]])))
    c = np.zeros(t + 1)
    c[t] = 1.0
    m = problem.eq_rows.shape[0]
    rows = np.hstack([problem.eq_rows, np.zeros((m, 1))]) if m else None
    rhs = problem.eq_rhs if m else None
    return SdpProblem(c=c, blocks=tuple(blocks), eq_rows=rows, eq_rhs=rhs)


def check_feasible(problem):
    """Decide feasibility of an SdpProblem by phase-I slack minimization.

    Returns an SdpSolution whose status is 'optimal' (x is a point with
    every block >= -FEASIBLE_MARGIN) or 'infeasible' (certificate attached:
    multipliers with A*(Z) + A^T y = 0, Z >= 0 and <F0, Z> - rhs.y < 0;
    an 'equality-ray' one, from solve, when the rows alone are
    inconsistent), or 'numerical-failure' if the phase-I solve broke down.
    """
    A, b = problem.eq_rows, problem.eq_rhs
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
    nblk = len(problem.blocks)
    y = sol.y
    zs = sol.z_blocks[:nblk]
    station = _adjoint(problem.blocks, zs, problem.num_vars) + A.T @ y
    violation = float(b @ y) - sum(float(np.vdot(blk.const, Zb).real)
                                   for blk, Zb in zip(problem.blocks, zs))
    return replace(
        sol, status="infeasible", x=sol.x[:-1].copy(), z_blocks=zs, objective=tstar,
        certificate={"kind": "farkas", "y": y, "z_blocks": zs,
                     "violation": violation,
                     "stationarity_residual": float(np.max(np.abs(station))),
                     "margin": tstar},
        message=f"infeasible: best uniform slack {tstar:.3e}")


def pinned_problem(cls, lam):
    """The extension program with the extendible weight pinned: f_000 = lam.

    Feasibility of this problem (for lam in [0, 1]) is the question
    "does the class admit a decomposition with weight exactly lam";
    useful as an independent route to lambda_max via bisection.
    """
    problem = extension_sdp(cls)
    row = np.zeros((1, problem.num_vars))
    row[0, cls.rows.shape[1]] = 1.0
    rows = np.concatenate([problem.eq_rows, row], axis=0)
    rhs = np.concatenate([problem.eq_rhs, [float(lam)]])
    return SdpProblem(c=problem.c, blocks=problem.blocks, eq_rows=rows, eq_rhs=rhs)


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

    chi~ = U Y U^+ with U = [sym, anti] a basis of the face and Y
    block-diagonal Hermitian, which makes chi~ swap-symmetric; the
    variables are Y's coordinates over _hermitian_stack of each block.
    The blocks are S^+ (rho - sigma~) S >= 0, with S^+ rho S = diag(w),
    and Y >= 0; the objective is min -Tr(Y), and lambda_max = Tr(Y) at
    the optimum (Tr(rho) = 1).  Returns (lambda_max, SdpSolution).
    """
    w, S = _pinned_support(cls)
    sym, anti = _face_basis(S, cls.dims)
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
    g_idx = np.arange(ys.shape[0])
    c = -np.trace(ys, axis1=1, axis2=2).real
    sol = solve(SdpProblem(
        c=c, blocks=(LmiBlock(const=np.diag(w), var_idx=g_idx, mats=-sigma_mats),
                     LmiBlock(const=np.zeros((k, k)), var_idx=g_idx, mats=ys))))
    assert sol.status == "optimal", sol.message
    return float(-c @ sol.x), sol


def assert_ray_proves_no_state(cls, sol):
    """sol, the witness solve of cls, ended unbounded, and its primal ray
    d proves that no state meets the class rows: every block of
    F_lin(d) = sum_j d_j mats_j is PSD within 1e-9 (sum_j d_j O_j <= 0)
    and b.d > 0, so b.y grows without bound over feasible witnesses."""
    assert sol.status == "unbounded"
    assert sol.certificate["kind"] == "primal-ray"
    d = sol.certificate["x"]
    for blk in build_sdp(cls)[0].blocks:
        assert np.linalg.eigvalsh(np.tensordot(d[blk.var_idx], blk.mats, 1))[0] >= -1e-9
    assert float(cls.rhs @ d) > 0.0


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
    blocks = [LmiBlock(const=f0, var_idx=tuple(range(num_vars)), mats=np.array(mats))]
    for i in range(num_vars):
        one = np.ones((1, 1))
        blocks.append(LmiBlock(const=box * one, var_idx=(i,), mats=one[None]))
        blocks.append(LmiBlock(const=box * one, var_idx=(i,), mats=-one[None]))
    c = rng.normal(size=num_vars)
    return SdpProblem(c=c, blocks=blocks)


def min_block_eigenvalue(problem, x):
    """The smallest eigenvalue of problem's blocks at the point x."""
    lows = []
    for blk in problem.blocks:
        mat = blk.const + np.tensordot(x[list(blk.var_idx)], blk.mats, axes=1)
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
        sub = mesh[alive][:, blk.var_idx]
        mats = blk.const[None] + np.tensordot(sub, blk.mats, axes=(1, 0))
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


def chi_reference(f_vec, dims):
    """The extension chi~ = sum_klm f_klm (S_k (x) sym(S_l (x) S_m)) / d,
    summed term by term, in the variable order k, then l, then m <= l."""
    triples, terms = _chi_terms(dims)
    assert len(f_vec) == len(triples)
    return sum(val * mat for val, mat in zip(f_vec, terms))


def three_block_reference(cls):
    """The decomposition SDP in its redundant three-block form.

    Variables r_kl (rho), e_kl (sigma~) and f_klm (chi~); blocks
    rho >= 0, rho - sigma~ >= 0 and chi~ >= 0; equalities the class rows
    on r and the coupling rows e_kl = f_{k,l,0} that make sigma~ the
    partial trace of chi~ over B'; objective min r_00 - e_00.  Built
    from the operator basis alone, independently of extension_sdp.

    Returns (SdpProblem, index of e_00), so lambda_max = x[index].
    """
    da, db = cls.dims
    na, nb = da * da, db * db
    sa, sb = build_basis(da), build_basis(db)
    rho_mats = np.stack([np.kron(sa[k], sb[l]) / (da * db)
                         for k in range(na) for l in range(nb)])
    triples, chi_mats = _chi_terms((da, db))
    n_r, n_f = na * nb, len(triples)
    r_idx = np.arange(n_r)
    e_idx = n_r + r_idx
    zero = np.zeros((da * db, da * db))
    blocks = (
        LmiBlock(const=zero, var_idx=r_idx, mats=rho_mats),
        LmiBlock(const=zero, var_idx=np.concatenate([r_idx, e_idx]),
                 mats=np.concatenate([rho_mats, -rho_mats])),
        LmiBlock(const=np.zeros((da * db * db,) * 2),
                 var_idx=2 * n_r + np.arange(n_f), mats=np.stack(chi_mats)),
    )
    coupling = np.zeros((n_r, 2 * n_r + n_f))
    for k in range(na):
        for l in range(nb):
            coupling[k * nb + l, n_r + k * nb + l] = 1.0
            coupling[k * nb + l, 2 * n_r + triples.index((k, l, 0))] = -1.0
    c = np.zeros(2 * n_r + n_f)
    c[0], c[n_r] = 1.0, -1.0
    rows = np.concatenate([np.pad(cls.rows, ((0, 0), (0, n_r + n_f))), coupling])
    rhs = np.concatenate([cls.rhs, np.zeros(n_r)])
    return SdpProblem(c=c, blocks=blocks, eq_rows=rows, eq_rhs=rhs), n_r
