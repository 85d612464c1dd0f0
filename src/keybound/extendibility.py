"""Best extendible approximation inside an equivalence class of states.

For constraints fixing the observable content of a bipartite state, the
joint semidefinite program below finds the largest weight lambda such
that some state rho in the class splits as

    rho = lambda * sigma_ext + (1 - lambda) * rho_ne

with sigma_ext admitting a two-copy symmetric extension on A (x) B (x) B'
(swap-invariant, PSD, with the correct marginal) and rho_ne an arbitrary
state.  lambda = 1 exactly when the class contains an extendible state.

Variables, in one real vector: the coefficients r_kl of rho over the
operator basis, then the swap-symmetric coefficients f_klm (l >= m) of
the unnormalized extension chi~.  The partial trace over B' of
S_k (x) sym(S_l (x) S_m) / d_A d_B^2 is delta_m0 S_k (x) S_l / d_A d_B,
so sigma~ = Tr_B'(chi~) = lambda * sigma_ext has the coefficients
f_{k,l,0} and needs no variables of its own.  The two blocks demand
rho - sigma~ >= 0 and chi~ >= 0 (rho >= sigma~ >= 0 follows), and the
class rows on r are the only equalities.  Because
Tr(chi~) = f_000 = Tr(sigma~), the objective min r_00 - f_000 returns
1 - lambda_max.

When the class rows pin rho to one rank-deficient state, the program
has no strictly feasible point: every v in ker(rho) has
v^+ sigma~ v = 0, so chi~ vanishes off the face
F = (supp(rho) (x) C^{d_B}) intersected with its B <-> B' swap.
best_extendible_decomposition then solves the same program on that
face, in coordinates of chi~ on F, and maps the solution back to the
full (r, f) vector; an empty face gives lambda_max = 0 with no solve.

extendibility_threshold reuses the same program for a family of classes
affine in one parameter: the parameter becomes a variable, lambda is
held near 1, and the parameter is minimized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import build_basis, expand, reconstruct
from .sdp import (LmiBlock, SdpProblem, SdpSolution, SolverError,
                  SolverSettings, solve)
from .states import DensityOperator, partial_trace_matrix, swap_last_two

LAMBDA_TOL = 1e-6
CLIP_TOL = 1e-7
# Eigenvalues of a pinned rho at most this large count as its kernel.
SUPPORT_TOL = 1e-9
# Residual bounds and eigenvalue floor of verify_extension.
VERIFY_TOLERANCES = {"decomposition": 1e-7, "swap": 1e-9, "partial_trace": 1e-8,
                     "marginal": 1e-8, "psd_floor": -1e-9}


@dataclass(frozen=True, eq=False)
class VariableLayout:
    """The data-independent part of the joint decomposition SDP for one
    dims pair: variable indexing over the two groups r and f, the two LMI
    blocks rho - sigma~ >= 0 and chi~ >= 0, the objective c, sigma_idx,
    the indices of the f_{k,l,0} that are sigma~'s coefficients in
    (k, l) order, and chi_mats, the (n_f, d_A d_B^2, d_A d_B^2) stack of
    swap-symmetric extension operators with chi~ = sum_i f_i chi_mats[i].
    The class rows, the only equalities, come with each problem.

    Built once per dims by layout_for and shared by every problem of that
    size, so every array in it is read-only.
    """

    dims: tuple
    blocks: tuple = field(repr=False)
    c: np.ndarray = field(repr=False)
    sigma_idx: np.ndarray = field(repr=False)
    chi_mats: np.ndarray = field(repr=False)

    @property
    def na(self):
        return self.dims[0] ** 2

    @property
    def nb(self):
        return self.dims[1] ** 2

    @property
    def n_r(self):
        return self.na * self.nb

    @property
    def n_f(self):
        return self.na * self.nb * (self.nb + 1) // 2

    @property
    def total(self):
        return self.n_r + self.n_f

    def r_index(self, k, l):
        return k * self.nb + l

    def e_index(self, k, l):
        """Index of sigma~'s coefficient e_kl, which is f_{k,l,0}."""
        return int(self.sigma_idx[k * self.nb + l])

    def f_index(self, k, l, m):
        """Index of f_klm; the f variables run over k, then l, then m <= l."""
        if m > l:
            l, m = m, l
        return self.n_r + k * self.nb * (self.nb + 1) // 2 + l * (l + 1) // 2 + m


@functools.lru_cache(maxsize=8)
def layout_for(dims):
    """The VariableLayout of the joint SDP for dims = (d_A, d_B)."""
    da, db = dims
    na, nb = da * da, db * db
    sa, sb = build_basis(da).elements, build_basis(db).elements
    dab = da * db
    dabb = da * db * db

    rho_mats = np.stack([np.kron(sa[k], sb[l]) / dab
                         for k in range(na) for l in range(nb)])
    chi_mats = []
    for k in range(na):
        for l in range(nb):
            for m in range(l + 1):
                if l == m:
                    mat = np.kron(sa[k], np.kron(sb[l], sb[l]))
                else:
                    mat = (np.kron(sa[k], np.kron(sb[l], sb[m]))
                           + np.kron(sa[k], np.kron(sb[m], sb[l])))
                chi_mats.append(mat / dabb)
    chi_mats = np.stack(chi_mats)

    n_r = na * nb
    n_f = chi_mats.shape[0]
    ls = np.arange(nb)
    sigma_idx = (n_r + np.add.outer(np.arange(na) * (nb * (nb + 1) // 2),
                                    ls * (ls + 1) // 2)).ravel()
    blocks = (
        # rho - sigma~ >= 0
        LmiBlock(dim=dab, const=np.zeros((dab, dab)),
                 var_idx=np.concatenate([np.arange(n_r), sigma_idx]),
                 mats=np.concatenate([rho_mats, -rho_mats])),
        # chi~ >= 0 (sigma~ >= 0 and rho >= 0 follow)
        LmiBlock(dim=dabb, const=np.zeros((dabb, dabb)),
                 var_idx=n_r + np.arange(n_f), mats=chi_mats),
    )
    c = np.zeros(n_r + n_f)
    c[0] = 1.0       # r_00
    c[n_r] = -1.0    # f_000
    c.setflags(write=False)
    sigma_idx.setflags(write=False)
    return VariableLayout(dims=(da, db), blocks=blocks, c=c,
                          sigma_idx=sigma_idx, chi_mats=blocks[1].mats)


def build_sdp(cls):
    """The joint decomposition SDP for an EquivalenceClassSpec.

    Only the class rows and their right-hand side are built here; the
    rest comes from the cached layout_for(cls.dims).

    Returns (SdpProblem, VariableLayout).
    """
    layout = layout_for(tuple(cls.dims))
    class_rows = np.pad(cls.rows, ((0, 0), (0, layout.n_f)))
    problem = SdpProblem(c=layout.c, blocks=layout.blocks,
                         eq_rows=class_rows, eq_rhs=cls.rhs)
    return problem, layout


def pinned_problem(cls, lam):
    """The same SDP with the extendible weight pinned: f_000 = lam.

    Feasibility of this problem (for lam in [0, 1]) is the question
    "does the class admit a decomposition with weight exactly lam";
    useful as an independent route to lambda_max via bisection.
    """
    problem, layout = build_sdp(cls)
    row = np.zeros((1, layout.total))
    row[0, layout.e_index(0, 0)] = 1.0
    rows = np.concatenate([problem.eq_rows, row], axis=0)
    rhs = np.concatenate([problem.eq_rhs, [float(lam)]])
    return SdpProblem(c=problem.c, blocks=problem.blocks,
                      eq_rows=rows, eq_rhs=rhs), layout


def extendibility_threshold(cls_lo, cls_hi, bracket):
    """Solve for the smallest parameter t of an affine family of classes
    whose class contains a state with extendible weight
    lambda >= 1 - LAMBDA_TOL.

    The family is interpolated from its classes at the bracket ends
    (lo, hi): at t its rows are the common rows, its right-hand side
    rhs(lo) + (t - lo) * slope with slope = (rhs(hi) - rhs(lo)) / (hi - lo).
    The program is the joint SDP plus one variable t, last: one diagonal
    3x3 block holds lo <= t <= hi and f_000 >= 1 - LAMBDA_TOL, and the
    objective is min t.  Returns the SdpSolution whatever its status; t
    is x[-1].
    """
    lo, hi = bracket
    if cls_hi.dims != cls_lo.dims or cls_hi.rows.shape != cls_lo.rows.shape \
            or np.max(np.abs(cls_hi.rows - cls_lo.rows), initial=0.0) > 1e-9:
        raise ValueError("the classes at the bracket ends have different rows; "
                         "the family is not affine")
    problem, layout = build_sdp(cls_lo)
    n = layout.total
    slope = (cls_hi.rhs - cls_lo.rhs) / (hi - lo)
    bounds = LmiBlock(dim=3, const=np.diag([-lo, hi, LAMBDA_TOL - 1.0]),
                      var_idx=[n, layout.e_index(0, 0)],
                      mats=[np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
    blocks = problem.blocks + (bounds,)
    c = np.zeros(n + 1)
    c[n] = 1.0
    threshold = SdpProblem(c=c, blocks=blocks,
                           eq_rows=np.column_stack([problem.eq_rows, -slope]),
                           eq_rhs=problem.eq_rhs - lo * slope)
    return solve(threshold)


@dataclass(frozen=True)
class ExtendibilityResult:
    """Outcome of the joint decomposition solve."""

    lambda_max: float
    rho_star: DensityOperator
    sigma_ext: DensityOperator | None
    rho_ne: DensityOperator | None
    chi: DensityOperator | None
    solution: object
    layout: VariableLayout
    diagnostics: dict


def _to_density(mat, dims, diagnostics, name):
    """Wrap near-PSD solver output as a DensityOperator, clipping tiny
    negative eigenvalues and renormalizing the trace."""
    mat = 0.5 * (mat + mat.conj().T)
    w, V = np.linalg.eigh(mat)
    lo = float(w[0])
    if lo < -CLIP_TOL:
        raise SolverError(
            f"{name} from the solver has eigenvalue {lo}, beyond the "
            f"clipping budget {CLIP_TOL}")
    clipped = np.clip(w, 0.0, None)
    mat = (V * clipped) @ V.conj().T
    tr = float(np.trace(mat).real)
    if tr <= 0.0:
        raise SolverError(f"{name} from the solver has nonpositive trace {tr}")
    diagnostics[f"{name}_clip"] = max(0.0, -lo)
    diagnostics[f"{name}_trace_shift"] = abs(tr - 1.0)
    return DensityOperator(mat / tr, dims)


def _pinned_support(cls, layout):
    """(r, w, S) when the class rows pin rho (full column rank, consistent
    within the solver's feasibility tolerance) to a state whose smallest
    eigenvalue lies in [-SUPPORT_TOL, SUPPORT_TOL]: w its eigenvalues
    above SUPPORT_TOL, S their orthonormal eigenvectors and r the
    coefficients of S diag(w) S^+.  None for every other class."""
    r, _, rank, _ = np.linalg.lstsq(cls.rows, cls.rhs, rcond=None)
    if rank < layout.n_r:
        return None
    resid = np.linalg.norm(cls.rows @ r - cls.rhs) / (1.0 + np.linalg.norm(cls.rhs))
    if resid > SolverSettings().feas_tol:
        return None
    da, db = layout.dims
    bases = (build_basis(da), build_basis(db))
    w, V = np.linalg.eigh(reconstruct(r.reshape(layout.na, layout.nb), bases))
    if abs(w[0]) > SUPPORT_TOL:
        return None
    keep = w > SUPPORT_TOL
    w, S = w[keep], V[:, keep]
    # kernel eigenvalues are rounding: set them to exactly zero
    r = expand((S * w) @ S.conj().T, bases).ravel()
    return r, w, S


def _face_basis(S, dims):
    """Orthonormal bases (sym, anti) of the swap-symmetric and
    -antisymmetric parts of F = (S (x) C^{d_B}) cap P(S (x) C^{d_B}).

    F is swap-invariant, so it splits into these parts, and a vector v
    with P v = +-v lies in F exactly when it lies in S (x) C^{d_B}: each
    part is the eigenvalue-1 eigenspace of half Q half, with Q the
    projector onto S (x) C^{d_B} and half = (1 +- P) / 2."""
    db = dims[1]
    Q = np.kron(S @ S.conj().T, np.eye(db))
    P = swap_last_two(dims)
    eye = np.eye(P.shape[0])
    parts = []
    for sign in (1.0, -1.0):
        half = 0.5 * (eye + sign * P)
        w, V = np.linalg.eigh(half @ Q @ half)
        parts.append(V[:, w > 1.0 - SUPPORT_TOL])
    return parts


def _hermitian_stack(n):
    """An orthonormal basis of the n x n Hermitian matrices, (n*n, n, n)."""
    out = np.zeros((n * n, n, n), dtype=complex)
    d = np.arange(n)
    out[d, d, d] = 1.0
    i, j = np.triu_indices(n, 1)
    re, im = n + np.arange(i.size), n + i.size + np.arange(i.size)
    out[re, i, j] = out[re, j, i] = math.sqrt(0.5)
    out[im, i, j], out[im, j, i] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    return out


def _solve_on_face(r, w, S, layout):
    """The decomposition program restricted to the face of a pinned,
    rank-deficient rho, solved and mapped back to the full (r, f) vector.

    chi~ = U Y U^+ with U = [sym, anti] a basis of the face and Y
    block-diagonal Hermitian, which makes chi~ swap-symmetric; the
    variables g are Y's coordinates over _hermitian_stack of each block.
    The blocks are S^+ (rho - sigma~) S >= 0, with S^+ rho S = diag(w),
    and Y >= 0; the objective is min -Tr(Y) = -f_000, and there are no
    equality rows.  Returns (SdpSolution, face dimension).
    """
    sym, anti = _face_basis(S, layout.dims)
    n_sym, n_anti = sym.shape[1], anti.shape[1]
    k = n_sym + n_anti
    x = np.concatenate([r, np.zeros(layout.n_f)])
    r00 = float(r[0])   # the objective's constant part, Tr(rho)
    if k == 0:
        return SdpSolution(
            status="optimal", x=x, y=np.zeros(0), z_blocks=[],
            objective=r00, dual_objective=r00, duality_gap=0.0,
            primal_residual=0.0, dual_residual=0.0, equality_residual=0.0,
            iterations=0,
            message=(f"empty face: supp(rho) (x) C^d_B (support rank "
                     f"{w.size}) meets its swap only in 0, so "
                     "lambda_max = 0 without a solve")), 0
    U = np.hstack([sym, anti])
    ys = np.zeros((n_sym ** 2 + n_anti ** 2, k, k), dtype=complex)
    ys[:n_sym ** 2, :n_sym, :n_sym] = _hermitian_stack(n_sym)
    ys[n_sym ** 2:, n_sym:, n_sym:] = _hermitian_stack(n_anti)
    # (S^+ (x) <b'|) U for each b', so S^+ Tr_B'(U Y U^+) S is
    # sum_b' W_b' Y W_b'^+.
    da, db = layout.dims
    W = np.einsum("as,abk->bsk", S.conj(), U.reshape(da * db, db, k))
    sigma_mats = np.einsum("bsk,jkl,btl->jst", W, ys, W.conj())
    g_idx = np.arange(ys.shape[0])
    problem = SdpProblem(
        c=-np.trace(ys, axis1=1, axis2=2).real,
        blocks=(LmiBlock(dim=w.size, const=np.diag(w), var_idx=g_idx,
                         mats=-sigma_mats),
                LmiBlock(dim=k, const=np.zeros((k, k)), var_idx=g_idx,
                         mats=ys)))
    sol = solve(problem)
    # chi_mats is an orthogonal basis of the swap-symmetric operators,
    # so f_i = Tr(chi_mats[i] chi~) / Tr(chi_mats[i]^2).
    chi = U @ np.tensordot(sol.x, ys, 1) @ U.conj().T
    mats = layout.chi_mats
    x[layout.n_r:] = (np.einsum("ijk,kj->i", mats, chi).real
                      / np.einsum("ijk,ikj->i", mats, mats).real)
    return replace(sol, x=x, objective=sol.objective + r00,
                   dual_objective=sol.dual_objective + r00), k


def best_extendible_decomposition(cls):
    """Solve the joint SDP and unpack the optimal decomposition.

    Degenerate conventions: when lambda is within LAMBDA_TOL of 0 no
    extendible part is reported (sigma_ext and chi are None); within
    LAMBDA_TOL of 1 no rho_ne is reported.  Reported parts are
    renormalized to unit trace.  Solver failure raises SolverError with
    the solution attached.

    A class whose rows pin rho to a rank-deficient state (see
    _pinned_support) is solved on its face by _solve_on_face; the
    diagnostics then carry rho's support rank and the face dimension
    (None for both when the full program ran).  The solution, the
    unpack and verify_extension stay in the full (r, f) coordinates.
    """
    layout = layout_for(tuple(cls.dims))
    pinned = _pinned_support(cls, layout)
    support_rank = face_dim = None
    if pinned is None:
        sol = solve(build_sdp(cls)[0])
    else:
        sol, face_dim = _solve_on_face(*pinned, layout)
        support_rank = pinned[1].size
    if sol.status != "optimal":
        raise SolverError(
            f"decomposition solve ended with status {sol.status}: {sol.message}",
            solution=sol)

    raw_lam = float(sol.x[layout.e_index(0, 0)])
    if raw_lam < -1e-6 or raw_lam > 1.0 + 1e-6:
        raise SolverError(f"extendible weight {raw_lam} escapes [0, 1]",
                          solution=sol)
    lam = min(max(raw_lam, 0.0), 1.0)

    da, db = layout.dims
    basis_a, basis_b = build_basis(da), build_basis(db)
    r = sol.x[:layout.n_r].reshape(layout.na, layout.nb)
    e = sol.x[layout.sigma_idx].reshape(layout.na, layout.nb)
    f = sol.x[layout.n_r:]

    diagnostics = {"raw_lambda": raw_lam, "status": sol.status,
                   "duality_gap": sol.duality_gap,
                   "iterations": sol.iterations,
                   "support_rank": support_rank, "face_dim": face_dim}
    rho_star = _to_density(reconstruct(r, (basis_a, basis_b)), (da, db),
                           diagnostics, "rho_star")
    sigma_ext = rho_ne = chi = None
    if lam > LAMBDA_TOL:
        sigma_ext = _to_density(reconstruct(e, (basis_a, basis_b)) / lam,
                                (da, db), diagnostics, "sigma_ext")
        chi = _to_density(np.tensordot(f, layout.chi_mats, 1) / lam,
                          (da, db, db), diagnostics, "chi")
    if lam < 1.0 - LAMBDA_TOL:
        resid = (reconstruct(r, (basis_a, basis_b))
                 - reconstruct(e, (basis_a, basis_b))) / (1.0 - lam)
        rho_ne = _to_density(resid, (da, db), diagnostics, "rho_ne")

    return ExtendibilityResult(
        lambda_max=lam, rho_star=rho_star, sigma_ext=sigma_ext,
        rho_ne=rho_ne, chi=chi, solution=sol, layout=layout,
        diagnostics=diagnostics)


def is_extendible(cls):
    """Whether the class contains a state with a two-copy symmetric
    extension: lambda_max within LAMBDA_TOL of 1."""
    return best_extendible_decomposition(cls).lambda_max >= 1.0 - LAMBDA_TOL


@dataclass(frozen=True)
class ExtensionReport:
    """Residuals certifying a reported decomposition.

    Most equalities hold by construction (the swap symmetry is built
    into the chi parameterization, and sigma~ is read from chi~'s
    f_{k,l,0}, the coefficients of its partial trace); the residuals
    confirm the numerics survived reconstruction, clipping and
    renormalization.
    """

    lambda_max: float
    decomposition_residual: float
    swap_residual: float
    partial_trace_residual: float
    marginal_residual: float
    min_eigenvalues: dict
    tolerances: dict
    passed: bool


def verify_extension(result):
    """Check the reported decomposition against its defining equations."""
    layout = result.layout
    da, db = layout.dims
    basis_a, basis_b = build_basis(da), build_basis(db)
    sol = result.solution
    lam = result.lambda_max

    e = sol.x[layout.sigma_idx].reshape(layout.na, layout.nb)
    f = sol.x[layout.n_r:]
    sigma_raw = reconstruct(e, (basis_a, basis_b))
    chi_raw = np.tensordot(f, layout.chi_mats, 1)

    if result.sigma_ext is not None:
        sigma_part = lam * result.sigma_ext.matrix
        chi_mat = result.chi.matrix
        chi_part = lam * chi_mat
    else:
        sigma_part = sigma_raw
        chi_mat = chi_raw
        chi_part = chi_raw
    if result.rho_ne is not None:
        ne_part = (1.0 - lam) * result.rho_ne.matrix
    else:
        ne_part = result.rho_star.matrix - sigma_raw

    decomp = float(np.max(np.abs(sigma_part + ne_part - result.rho_star.matrix)))

    P = swap_last_two((da, db))
    swap_res = float(np.max(np.abs(P @ chi_mat @ P - chi_mat)))

    marg_bp = partial_trace_matrix(chi_part, (da, db, db), keep=(0, 1))
    marg_b = partial_trace_matrix(chi_part, (da, db, db), keep=(0, 2))
    ptrace_res = float(np.max(np.abs(marg_bp - sigma_part)))
    marginal_res = float(np.max(np.abs(marg_bp - marg_b)))

    eigs = {
        "rho_star": float(np.linalg.eigvalsh(result.rho_star.matrix)[0]),
        "sigma": float(np.linalg.eigvalsh(
            result.sigma_ext.matrix if result.sigma_ext is not None
            else sigma_raw)[0]),
        "rho_ne": float(np.linalg.eigvalsh(
            result.rho_ne.matrix if result.rho_ne is not None
            else ne_part)[0]),
        "chi": float(np.linalg.eigvalsh(chi_mat)[0]),
    }
    tol = VERIFY_TOLERANCES
    passed = (decomp <= tol["decomposition"] and swap_res <= tol["swap"]
              and ptrace_res <= tol["partial_trace"]
              and marginal_res <= tol["marginal"]
              and all(v >= tol["psd_floor"] for v in eigs.values()))
    return ExtensionReport(
        lambda_max=lam,
        decomposition_residual=decomp,
        swap_residual=swap_res,
        partial_trace_residual=ptrace_res,
        marginal_residual=marginal_res,
        min_eigenvalues=eigs,
        tolerances=dict(tol),
        passed=passed,
    )
