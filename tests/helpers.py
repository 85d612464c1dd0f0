"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the solver internals:
the bisection oracles only consume feasibility or extendibility
verdicts, and the grid oracle evaluates eigenvalues directly.
"""

import math
from dataclasses import replace

import numpy as np

from keybound import bounds
from keybound.basis import build_basis
from keybound.extendibility import LAMBDA_TOL, pinned_problem
from keybound.protocols import EquivalenceClassSpec, ProtocolSpec
from keybound.sdp import LmiBlock, SdpProblem, SolverSettings, check_feasible


def lambda_bisection_oracle(cls, tol=5e-5, settings=None):
    """Largest extendible weight, found by bisecting pinned feasibility.

    Independent of the joint optimization: each probe pins the weight to a
    candidate value and asks only "is the constraint system feasible".
    The feasible weights form an interval [0, lambda_max].
    """
    st = settings or SolverSettings(max_iter=300)

    def feasible(lam):
        verdict = check_feasible(pinned_problem(cls, lam)[0], settings=st)
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


def cutoff_bisection_oracle(protocol, tol=1e-3, bracket=(0.0, 0.25),
                            direction="direct", source_constraint=None):
    """Smallest error rate at which the class turns extendible, by bisection.

    Independent of the threshold program: each probe solves the plain
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
    blocks = [LmiBlock(dim=block_dim, const=f0,
                       var_idx=tuple(range(num_vars)), mats=np.array(mats))]
    for i in range(num_vars):
        one = np.ones((1, 1))
        blocks.append(LmiBlock(dim=1, const=box * one, var_idx=(i,), mats=one[None]))
        blocks.append(LmiBlock(dim=1, const=box * one, var_idx=(i,), mats=-one[None]))
    c = rng.normal(size=num_vars)
    return SdpProblem(c=c, blocks=blocks)


def _feasible(problem, x, slack):
    for blk in problem.blocks:
        mat = blk.const + np.tensordot(x[list(blk.var_idx)], blk.mats, axes=1)
        mat = 0.5 * (mat + np.conj(mat.T))
        if float(np.linalg.eigvalsh(mat)[0]) < -slack:
            return False
    return True


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
                                rhs=np.array([1.0]), n_raw_rows=1)


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
    sa, sb = build_basis(da).elements, build_basis(db).elements
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
    from the operator basis alone, independently of layout_for.

    Returns (SdpProblem, index of e_00), so lambda_max = x[index].
    """
    da, db = cls.dims
    na, nb = da * da, db * db
    sa, sb = build_basis(da).elements, build_basis(db).elements
    rho_mats = np.stack([np.kron(sa[k], sb[l]) / (da * db)
                         for k in range(na) for l in range(nb)])
    triples, chi_mats = _chi_terms((da, db))
    n_r, n_f = na * nb, len(triples)
    r_idx = np.arange(n_r)
    e_idx = n_r + r_idx
    zero = np.zeros((da * db, da * db))
    blocks = (
        LmiBlock(dim=da * db, const=zero, var_idx=r_idx, mats=rho_mats),
        LmiBlock(dim=da * db, const=zero, var_idx=np.concatenate([r_idx, e_idx]),
                 mats=np.concatenate([rho_mats, -rho_mats])),
        LmiBlock(dim=da * db * db, const=np.zeros((da * db * db,) * 2),
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
