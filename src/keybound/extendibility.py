"""Best extendible approximation inside an equivalence class of states.

For constraints fixing the observable content of a bipartite state, the
joint semidefinite program below finds the largest weight lambda such
that some state rho in the class splits as

    rho = lambda * sigma_ext + (1 - lambda) * rho_ne

with sigma_ext admitting a two-copy symmetric extension on A (x) B (x) B'
(swap-invariant, PSD, with the correct marginal) and rho_ne an arbitrary
state.  lambda = 1 exactly when the class contains an extendible state.

The extension program (extension_sdp) states this directly.  Variables,
in one real vector: the coefficients r_kl of rho over the operator
basis, then the swap-symmetric coefficients f_klm (l >= m) of the
unnormalized extension chi~.  The partial trace over B' of
S_k (x) sym(S_l (x) S_m) / d_A d_B^2 is delta_m0 S_k (x) S_l / d_A d_B,
so sigma~ = Tr_B'(chi~) = lambda * sigma_ext has the coefficients
f_{k,l,0} and needs no variables of its own.  The two blocks demand
rho - sigma~ >= 0 and chi~ >= 0 (rho >= sigma~ >= 0 follows), and the
class rows A r = b are the only equalities.  Because
Tr(chi~) = f_000 = Tr(sigma~), the objective min r_00 - f_000 returns
1 - lambda_max.

best_extendible_decomposition solves its conic dual instead, the witness
program (build_sdp): one variable y_j per class row, with the observed
operators O_j = sum_kl A[j, kl] S_k (x) S_l, so Tr(O_j rho) = (A r)_j,

    minimize  -b.y   s.t.  W(y) = I_AB - sum_j y_j O_j >= 0,
                           sym(W(y) (x) I_B') - I >= 0,

with sym(X) = (X + P X P) / 2 and P = swap_last_two.  It has no
equality rows, and its blocks do not depend on b: a feasible y has
b'.y <= 1 - lambda_max for every class with rows A, whatever its b', so
one y proves on the observed statistics that none of those classes holds
a state closer to the extendible set (bounds.find_cutoff certifies a
cutoff so).  Its optimum is -(1 - lambda_max), and the solver's dual
blocks, complex matrices of the blocks' own sizes d_A d_B and d_A d_B^2,
are the decomposition as they come: T = rho - sigma~ and chi~, which
_decomposition turns into the reported matrices, with lambda = Tr(chi~)
rather than b.y.  When the witness solve does not end optimal (its dual
residual can stall near 1e-7 at error rates close to 0, and inconsistent
rows make it unbounded), the extension program is solved instead, and
its (r, f) is mapped once to chi~ = sum_i f_i chi_mats[i] and
T = rho - Tr_B'(chi~).

When the class rows pin rho to one rank-deficient state, the program
has no strictly feasible point: every v in ker(rho) has
v^+ sigma~ v = 0, so chi~ vanishes off the face
F = (supp(rho) (x) C^{d_B}) intersected with its B <-> B' swap.
best_extendible_decomposition then solves the dual of the extension
program on that face, the face witness program of _solve_on_face.  It
and its dual are strictly feasible, so it needs no fallback, and its
dual blocks give T and chi~ as above.  An empty face gives
lambda_max = 0 with no solve: T = rho and chi~ = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import build_basis, expand, reconstruct
from .sdp import FEAS_TOL, LmiBlock, SdpProblem, SdpSolution, SolverError, solve
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
    """The data-independent part of the extension program for one dims
    pair: variable indexing over the two groups r and f (the first f,
    at n_r, is f_000, the extendible weight), the two LMI blocks
    rho - sigma~ >= 0 and chi~ >= 0, the objective c, and chi_mats, the
    (n_f, d_A d_B^2, d_A d_B^2) stack of swap-symmetric extension
    operators with chi~ = sum_i f_i chi_mats[i].
    The class rows, the only equalities, come with each problem.

    Built once per dims by layout_for and shared by every problem of that
    size, so every array in it is read-only.
    """

    dims: tuple
    blocks: tuple = field(repr=False)
    c: np.ndarray = field(repr=False)
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


@functools.lru_cache(maxsize=8)
def layout_for(dims):
    """The VariableLayout of the extension program for dims = (d_A, d_B)."""
    da, db = dims
    na, nb = da * da, db * db
    sa, sb = build_basis(da), build_basis(db)
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
    chi_mats.setflags(write=False)

    n_r = na * nb
    n_f = chi_mats.shape[0]
    ls = np.arange(nb)
    # sigma~'s coefficients: the f_{k,l,0}, in (k, l) order
    sigma_idx = (n_r + np.add.outer(np.arange(na) * (nb * (nb + 1) // 2),
                                    ls * (ls + 1) // 2)).ravel()
    blocks = (
        # rho - sigma~ >= 0
        LmiBlock(const=np.zeros((dab, dab)),
                 var_idx=np.concatenate([np.arange(n_r), sigma_idx]),
                 mats=np.concatenate([rho_mats, -rho_mats])),
        # chi~ >= 0 (sigma~ >= 0 and rho >= 0 follow)
        LmiBlock(const=np.zeros((dabb, dabb)), var_idx=n_r + np.arange(n_f),
                 mats=chi_mats),
    )
    c = np.zeros(n_r + n_f)
    c[0] = 1.0       # r_00
    c[n_r] = -1.0    # f_000
    c.setflags(write=False)
    return VariableLayout(dims=(da, db), blocks=blocks, c=c, chi_mats=chi_mats)


def extension_sdp(cls):
    """The extension program over (r, f) for an EquivalenceClassSpec.

    Only the class rows and their right-hand side are built here; the
    rest comes from the cached layout_for(cls.dims).

    Returns (SdpProblem, VariableLayout).
    """
    layout = layout_for(tuple(cls.dims))
    class_rows = np.pad(cls.rows, ((0, 0), (0, layout.n_f)))
    problem = SdpProblem(c=layout.c, blocks=layout.blocks,
                         eq_rows=class_rows, eq_rhs=cls.rhs)
    return problem, layout


@functools.lru_cache(maxsize=8)
def _product_ops(dims):
    """The (n_r, d_A d_B, d_A d_B) stack of S_k (x) S_l and the
    (n_r, d_A d_B^2, d_A d_B^2) stack of sym(S_k (x) S_l (x) I_B'), in
    (k, l) order; built on the first witness program of these dims."""
    da, db = dims
    sa, sb = build_basis(da), build_basis(db)
    dab, dabb = da * db, da * db * db
    ops = np.einsum("aij,bkl->abikjl", sa, sb).reshape(-1, dab, dab)
    ext = np.einsum("nij,kl->nikjl", ops, np.eye(db)).reshape(-1, dabb, dabb)
    P = swap_last_two(dims)
    ext = 0.5 * (ext + P @ ext @ P)
    for arr in (ops, ext):
        arr.setflags(write=False)
    return ops, ext


@functools.lru_cache(maxsize=8)
def _witness_blocks(key, shape, dims):
    """The blocks W(y) >= 0 and sym(W(y) (x) I_B') - I >= 0 for class rows
    given by bytes and shape; cached per row set, like sdp._row_factors."""
    rows = np.frombuffer(key).reshape(shape)
    ops, ext = _product_ops(dims)
    idx = np.arange(shape[0])
    return (LmiBlock(const=np.eye(ops.shape[1]), var_idx=idx,
                     mats=-np.tensordot(rows, ops, 1)),
            LmiBlock(const=np.zeros(ext.shape[1:]), var_idx=idx,
                     mats=-np.tensordot(rows, ext, 1)))


def build_sdp(cls):
    """The witness program for an EquivalenceClassSpec: one variable y_j
    per class row, minimize -b.y with the blocks W(y) >= 0 and
    sym(W(y) (x) I_B') - I >= 0 (see the module docstring).

    Returns (SdpProblem, VariableLayout).
    """
    layout = layout_for(tuple(cls.dims))
    blocks = _witness_blocks(cls.rows.tobytes(), cls.rows.shape, layout.dims)
    return SdpProblem(c=-cls.rhs, blocks=blocks), layout


@dataclass(frozen=True, eq=False)
class ExtendibilityResult:
    """Outcome of the joint decomposition solve.

    sigma_tilde and chi_tilde are sigma~ = lambda sigma_ext and
    chi~ = lambda chi as solved, before clipping, with trace
    diagnostics["raw_lambda"]; solution is the solve of the program
    named by diagnostics["program"], as it ended."""

    lambda_max: float
    rho_star: DensityOperator
    sigma_ext: DensityOperator | None
    rho_ne: DensityOperator | None
    chi: DensityOperator | None
    solution: object
    sigma_tilde: np.ndarray
    chi_tilde: np.ndarray
    diagnostics: dict

    @property
    def extendible(self):
        """Whether the class contains a state with a two-copy symmetric
        extension: lambda_max within LAMBDA_TOL of 1."""
        return self.lambda_max >= 1.0 - LAMBDA_TOL


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
    """(w, S) when the class rows pin rho (full column rank, consistent
    within the solver's feasibility tolerance) to a state whose smallest
    eigenvalue lies in [-SUPPORT_TOL, SUPPORT_TOL]: w its eigenvalues
    above SUPPORT_TOL and S their orthonormal eigenvectors, so
    S diag(w) S^+ is rho with its kernel eigenvalues, rounding, set to
    exactly zero.  None for every other class."""
    r, _, rank, _ = np.linalg.lstsq(cls.rows, cls.rhs, rcond=None)
    if rank < layout.n_r:
        return None
    resid = np.linalg.norm(cls.rows @ r - cls.rhs) / (1.0 + np.linalg.norm(cls.rhs))
    if resid > FEAS_TOL:
        return None
    da, db = layout.dims
    bases = (build_basis(da), build_basis(db))
    w, V = np.linalg.eigh(reconstruct(r.reshape(layout.na, layout.nb), bases))
    if abs(w[0]) > SUPPORT_TOL:
        return None
    keep = w > SUPPORT_TOL
    return w[keep], V[:, keep]


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


def _solve_on_face(w, S, dims):
    """The face witness program of a pinned, rank-deficient
    rho = S diag(w) S^+, solved.

    The variables are the coordinates of a Hermitian X on supp(rho) over
    _hermitian_stack: minimize Tr(diag(w) X) with X >= 0 and
    sum_b' W_b'^+ X W_b' >= I, W_b' = (S^+ (x) <b'|) V, for each nonempty
    swap part V of the face.  Its dual blocks give T = S Z_0 S^+ and
    chi~ = sum_V V Z_V V^+.  Returns (SdpSolution, face dimension,
    (T, chi~)); a solve that does not end optimal is returned as it
    ended, with None for the pair.  An empty face needs no solve: X = 0,
    T = rho and chi~ = 0.
    """
    parts = [V for V in _face_basis(S, dims) if V.shape[1]]
    k = sum(V.shape[1] for V in parts)
    if k == 0:
        n = S.shape[0] * dims[1]
        return SdpSolution(
            status="optimal", x=np.zeros(0), y=np.zeros(0), z_blocks=[],
            objective=0.0, dual_objective=0.0, duality_gap=0.0,
            primal_residual=0.0, dual_residual=0.0, equality_residual=0.0,
            iterations=0,
            message=(f"empty face: supp(rho) (x) C^d_B (support rank {w.size}) "
                     "meets its swap only in 0, so lambda_max = 0 without a solve")
        ), 0, ((S * w) @ S.conj().T, np.zeros((n, n)))
    xs = _hermitian_stack(w.size)
    idx = np.arange(xs.shape[0])
    blocks = [LmiBlock(const=np.zeros(xs.shape[1:]), var_idx=idx, mats=xs)]
    for V in parts:
        W = np.einsum("as,abk->bsk", S.conj(), V.reshape(-1, dims[1], V.shape[1]))
        blocks.append(LmiBlock(const=-np.eye(V.shape[1]), var_idx=idx,
                               mats=np.einsum("bsk,jst,btl->jkl", W.conj(), xs, W)))
    sol = solve(SdpProblem(c=np.einsum("s,jss->j", w, xs).real, blocks=blocks))
    if sol.status != "optimal":
        return sol, k, None
    T = S @ sol.z_blocks[0] @ S.conj().T
    chi = sum(V @ Z @ V.conj().T for V, Z in zip(parts, sol.z_blocks[1:]))
    return sol, k, (T, chi)


def _decomposition(T, chi, dims):
    """(rho*, sigma~, chi~) from T = rho - sigma~ and an extension chi~:
    chi~ symmetrized as (chi~ + P chi~ P) / 2, sigma~ = Tr_B'(chi~) and
    rho* = T + sigma~, all three divided by Tr(rho*), which a solve meets
    only to its residuals.  lambda = Tr(chi~)."""
    P = swap_last_two(dims)
    chi = 0.5 * (chi + P @ chi @ P)
    sigma = partial_trace_matrix(chi, (*dims, dims[1]), keep=(0, 1))
    rho = T + sigma
    tr = np.trace(rho).real
    return rho / tr, sigma / tr, chi / tr


def best_extendible_decomposition(cls):
    """Solve for the best decomposition and unpack it.

    Degenerate conventions: when lambda is within LAMBDA_TOL of 0 no
    extendible part is reported (sigma_ext and chi are None); within
    LAMBDA_TOL of 1 no rho_ne is reported.  Reported parts are
    renormalized to unit trace.  Solver failure raises SolverError with
    the solution attached.

    The program that ran is diagnostics["program"].  A class whose rows
    pin rho to a rank-deficient state (see _pinned_support) is solved on
    its face by _solve_on_face ("face"); the diagnostics then carry rho's
    support rank and the face dimension (None for both otherwise).  Every
    other class runs the witness program ("witness"), and the extension
    program ("extension") when the witness solve does not end optimal.
    Every path gives a pair (T, chi~) that _decomposition turns into the
    result's matrices.  diagnostics["witness_value"] is the solve's lower
    bound on 1 - lambda_max (b.y, or Tr(rho) - Tr(diag(w) X) on a face;
    None for the extension program), and diagnostics["class_residual"]
    is ||A r* - b|| / (1 + ||b||) at the reported rho*.
    """
    layout = layout_for(tuple(cls.dims))
    da, db = dims = layout.dims
    pinned = _pinned_support(cls, layout)
    support_rank = face_dim = None
    if pinned is None:
        program, sol = "witness", solve(build_sdp(cls)[0])
        if sol.status != "optimal":
            program, sol = "extension", solve(extension_sdp(cls)[0])
    else:
        program, support_rank = "face", pinned[0].size
        sol, face_dim, pair = _solve_on_face(*pinned, dims)
    if sol.status != "optimal":
        raise SolverError(
            f"decomposition solve ended with status {sol.status}: {sol.message}",
            solution=sol)

    bases = (build_basis(da), build_basis(db))
    if program == "witness":
        witness_value = float(cls.rhs @ sol.x)
        pair = tuple(sol.z_blocks)
    elif program == "extension":
        witness_value = None
        chi = np.tensordot(sol.x[layout.n_r:], layout.chi_mats, 1)
        rho = reconstruct(sol.x[:layout.n_r].reshape(layout.na, layout.nb), bases)
        pair = (rho - partial_trace_matrix(chi, (da, db, db), keep=(0, 1)), chi)
    else:
        witness_value = float(pinned[0].sum() - sol.objective)
    rho, sigma, chi = _decomposition(*pair, dims)

    raw_lam = float(np.trace(chi).real)
    if raw_lam < -1e-6 or raw_lam > 1.0 + 1e-6:
        raise SolverError(f"extendible weight {raw_lam} escapes [0, 1]",
                          solution=sol)
    lam = min(max(raw_lam, 0.0), 1.0)

    diagnostics = {"program": program, "raw_lambda": raw_lam,
                   "witness_value": witness_value,
                   "support_rank": support_rank, "face_dim": face_dim}
    rho_star = _to_density(rho, dims, diagnostics, "rho_star")
    resid = cls.rows @ expand(rho_star.matrix, bases).ravel() - cls.rhs
    diagnostics["class_residual"] = float(np.linalg.norm(resid)
                                          / (1.0 + np.linalg.norm(cls.rhs)))
    sigma_ext = rho_ne = chi_ext = None
    if lam > LAMBDA_TOL:
        sigma_ext = _to_density(sigma / lam, dims, diagnostics, "sigma_ext")
        chi_ext = _to_density(chi / lam, (da, db, db), diagnostics, "chi")
    if lam < 1.0 - LAMBDA_TOL:
        rho_ne = _to_density((rho - sigma) / (1.0 - lam), dims, diagnostics, "rho_ne")

    return ExtendibilityResult(
        lambda_max=lam, rho_star=rho_star, sigma_ext=sigma_ext,
        rho_ne=rho_ne, chi=chi_ext, solution=sol, sigma_tilde=sigma,
        chi_tilde=chi, diagnostics=diagnostics)


@dataclass(frozen=True)
class ExtensionReport:
    """Residuals certifying a reported decomposition.

    Most equalities hold by construction (chi~ is symmetrized under the
    swap, and sigma~ is its partial trace over B'); the residuals confirm
    the numerics survived clipping and renormalization.
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
    da, db = result.rho_star.dims
    lam = result.lambda_max
    if result.sigma_ext is not None:
        sigma_mat, chi_mat = result.sigma_ext.matrix, result.chi.matrix
        sigma_part, chi_part = lam * sigma_mat, lam * chi_mat
    else:
        sigma_mat = sigma_part = result.sigma_tilde
        chi_mat = chi_part = result.chi_tilde
    if result.rho_ne is not None:
        ne_mat = result.rho_ne.matrix
        ne_part = (1.0 - lam) * ne_mat
    else:
        ne_mat = ne_part = result.rho_star.matrix - result.sigma_tilde

    decomp = float(np.max(np.abs(sigma_part + ne_part - result.rho_star.matrix)))

    P = swap_last_two((da, db))
    swap_res = float(np.max(np.abs(P @ chi_mat @ P - chi_mat)))

    marg_bp = partial_trace_matrix(chi_part, (da, db, db), keep=(0, 1))
    marg_b = partial_trace_matrix(chi_part, (da, db, db), keep=(0, 2))
    ptrace_res = float(np.max(np.abs(marg_bp - sigma_part)))
    marginal_res = float(np.max(np.abs(marg_bp - marg_b)))

    eigs = {name: float(np.linalg.eigvalsh(mat)[0]) for name, mat in (
        ("rho_star", result.rho_star.matrix), ("sigma", sigma_mat),
        ("rho_ne", ne_mat), ("chi", chi_mat))}
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
