"""Best extendible approximation inside an equivalence class of states.

For constraints fixing the observable content of a bipartite state, the
joint semidefinite program below finds the largest weight lambda such
that some state rho in the class splits as

    rho = lambda * sigma_ext + (1 - lambda) * rho_ne

with sigma_ext admitting a two-copy symmetric extension on A (x) B (x) B'
(swap-invariant, PSD, with the correct marginal) and rho_ne an arbitrary
state.  lambda = 1 exactly when the class contains an extendible state.

The extension program (extension_sdp) states this directly, over the
coefficients r_kl of rho in the operator basis and the swap-symmetric
coefficients f_klm (l >= m) of the unnormalized extension chi~.  The
partial trace over B' of S_k (x) sym(S_l (x) S_m) / d_A d_B^2 is
delta_m0 S_k (x) S_l / d_A d_B, so sigma~ = Tr_B'(chi~) = lambda *
sigma_ext has the coefficients f_{k,l,0} and needs no variables of its
own.  The two blocks demand rho - sigma~ >= 0 and chi~ >= 0 (rho >=
sigma~ >= 0 follows), and the class rows A r = b are substituted away:
r = r0 + N w, with r0 their least-squares solution and N an orthonormal
basis of their null space, so the variables are (f, w).  Because
Tr(chi~) = f_000 = Tr(sigma~), the objective min r_00 - f_000 returns
1 - lambda_max.

best_extendible_decomposition solves its conic dual instead, the witness
program (build_sdp): one variable y_j per independent class row, with
the observed operators O_j = sum_kl A[j, kl] S_k (x) S_l, so
Tr(O_j rho) = (A r)_j,

    minimize  -b.y   s.t.  W(y) = I_AB - sum_j y_j O_j >= 0,
                           sym(W(y) (x) I_B') - I >= 0,

with sym(X) = (X + P X P) / 2 and P = swap_last_two.  sym(X) commutes
with P, so it is block-diagonal over the swap-symmetric and
-antisymmetric sectors of A (x) B (x) B', with real orthonormal bases
V_s and V_a (_swap_sectors), where it reads V_s^T (X (x) I_B') V_s and
V_a^T (X (x) I_B') V_a.  The program states the second inequality so,
sector by sector, and puts the antisymmetric sector in one block with
W(y): d_A d_B + d_A d_B (d_B - 1)/2 = d_A d_B (d_B + 1)/2, so both of
its blocks have that size.  It has no equality rows, and its blocks do
not depend on b: a feasible y has b'.y <= 1 - lambda_max for every class
with rows A, whatever its b', so one y proves on the observed statistics
that none of those classes holds a state closer to the extendible set
(bounds.find_cutoff certifies a cutoff so).  Its optimum is
-(1 - lambda_max), and the solver's dual blocks Z_1 and Z_2 are the
decomposition: T = rho - sigma~ is the W(y) corner of Z_1, and
chi~ = V_s Z_2 V_s^T + V_a Z_1' V_a^T, with Z_1' its antisymmetric
corner, swap-symmetric to the bit since P V_s = V_s and P V_a = -V_a
hold exactly; _decomposition turns them into the reported matrices, with
lambda = Tr(chi~) rather than b.y.  Rows that no state meets make it
unbounded: its primal ray d has sum_j d_j O_j <= 0 and b.d > 0, which
proves the class empty, so best_extendible_decomposition raises
InconsistentDataError with b.d at ||d|| = 1 as its residual.  Two such
classes are refused before any solve: rows that contradict the
independent ones, and rows that pin an operator with an eigenvalue below
PINNED_FLOOR (_pinned_support).  When the
witness solve of a class that does not pin rho ends numerical-failure
(its dual residual can stall near 1e-7 at error rates close to 0), the
extension program is solved instead, the f parts of its blocks built
once per dims on the first such fallback and only its w parts per
class.  It hands the unpack what every route hands it, the sector
blocks (T, Z_s, Z_a), and, as it solves for no y, a witness operator W:
T = rho - sigma~ and chi~ are its two blocks at its solution,
(Z_s, Z_a) = (V_s^T chi~ V_s, V_a^T chi~ V_a), and W is the dual block
of rho - sigma~ >= 0.  The witness is then the least-squares
multipliers y = pinv^T expand(I - W) / d_A d_B of the class rows, with
sum_j y_j O_j = I - W when I - W lies in their span, raised along
c = pinv^T e_00, with sum_j c_j O_j = I, until both witness blocks are
PSD.  pinv and N come from the one SVD per row set of its independent
rows (_row_set), over which every program is stated, and which also
holds the witness program's blocks.

Complex conjugation maps the program of a class whose rows and data it
maps to themselves to itself, so such a class has an optimal W(y) that
is real, and is solved over those y alone (Gatermann & Parrilo, J. Pure
Appl. Algebra 192 (2004)).  On the coefficients r_kl conjugation is
the sign flip D of the odd columns, those where exactly one of S_k and
S_l is imaginary (Pauli Y, the antisymmetric Gell-Mann matrices): it
maps W(y) to W(y') with A^T y' = D A^T y when the row space of A is
D-invariant, with b.y' = b.y when r0 = pinv b is a real state,
A D r0 = b.  The average of y and y' is then as good, and has A^T y zero
on the odd columns, so W(y) real.  build_sdp states such a class's
program over y = B z, B an orthonormal basis of those y (_row_set): 9
variables for a four-state qubit point and 10 for six-state, in place
of 10 and 16, with real-valued blocks.  solve counts them as it counts
every block, as Hermitian, so the iterates follow the central path of
the program over y; and, all real-valued, it runs them in real
arithmetic (see sdp).  The witness
reported is B z, in class-row coordinates.  Every other class keeps the
program over y.

When the class rows pin rho = S diag(w) S^+, the witness program may be
stated over W(y) = S X S^+, X Hermitian on supp(rho).  If rho is
rank-deficient the program has no strictly feasible point: every v in
ker(rho) has v^+ sigma~ v = 0, so chi~ vanishes off the face
F = (supp(rho) (x) C^{d_B}) intersected with its B <-> B' swap.
best_extendible_decomposition then solves the dual of the extension
program on that face, the face witness program of _solve_on_face: the
witness program over X, with each sector's inequality restricted to the
part of F in that sector.  It and its dual are strictly feasible, so it
needs no fallback, and its dual blocks give T and chi~ through V_s and
V_a as above.  An empty face gives lambda_max = 0 with no solve: T = rho
and chi~ = 0.  A full-rank pinned rho runs the witness program, and the
face program over its whole support only when that solve stalls; its
witness operator is W = S X S^+, and its witness the same least-squares
y.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import build_basis, expand, reconstruct
from .protocols import InconsistentDataError, _independent_rows
from .sdp import FEAS_TOL, LmiBlock, SdpProblem, SdpSolution, SolverError, solve
from .states import DensityOperator, partial_trace_matrix, swap_last_two

LAMBDA_TOL = 1e-6
CLIP_TOL = 1e-7
# Eigenvalues of a pinned rho from PINNED_FLOOR to SUPPORT_TOL count as its
# kernel; one below PINNED_FLOOR makes it no state.  That is
# DensityOperator's floor, -1e-9, less 1e-10 for the rounding of
# class_from_state, which brings states drawn at that floor back at down
# to -1.0000001e-9.
SUPPORT_TOL = 1e-9
PINNED_FLOOR = -1.1e-9
# Residual bounds and eigenvalue floor of verify_extension.
VERIFY_TOLERANCES = {"decomposition": 1e-7, "swap": 1e-9, "partial_trace": 1e-8,
                     "marginal": 1e-8, "psd_floor": -1e-9}


def _class_residual(cls, stats):
    """||stats - b|| / (1 + ||b||) for readings stats on the class rows:
    A r of coefficients r, or cls.statistics of an operator."""
    return float(np.linalg.norm(stats - cls.rhs) / (1.0 + np.linalg.norm(cls.rhs)))


@functools.lru_cache(maxsize=8)
def _extension_structure(dims):
    """The data-free parts of the extension program for dims = (d_A, d_B),
    over its n_f f first (f_000, at 0, is the extendible weight):
    rho_mats, the (n_r, d_A d_B, d_A d_B) stack S_k (x) S_l / d_A d_B with
    rho = sum_kl r_kl rho_mats[kl]; sigma_mats, the f part of the block
    rho - sigma~ >= 0, which is -rho_mats[kl] at the f_{k,l,0} that are
    sigma~'s coefficients and zero at every other f; and chi_mats, the
    (n_f, d_A d_B^2, d_A d_B^2) stack with chi~ = sum_i f_i chi_mats[i],
    the f part of the block chi~ >= 0.  Built on the first extension
    program of these dims and shared by every later one, so it is
    read-only."""
    da, db = dims
    na, nb = da * da, db * db
    dab, dabb = da * db, da * db * db
    sa, sb = build_basis(da), build_basis(db)
    rho_mats = _product_ops(dims)[0] / dab
    # S_k (x) sym(S_l (x) S_m) for m <= l: S_l (x) S_m + S_m (x) S_l, or
    # S_l (x) S_l when l = m, in (k, l, m) order
    bb = np.einsum("lij,mkn->lmikjn", sb, sb).reshape(nb, nb, nb, nb)
    l, m = np.tril_indices(nb)
    sym = np.where((l == m)[:, None, None], bb[l, m], bb[l, m] + bb[m, l])
    chi_mats = np.einsum("kij,pab->kpiajb", sa, sym).reshape(-1, dabb, dabb) / dabb
    sigma_mats = np.zeros((na, l.size, dab, dab), dtype=complex)
    sigma_mats[:, m == 0] = -rho_mats.reshape(na, nb, dab, dab)
    sigma_mats = sigma_mats.reshape(-1, dab, dab)
    for arr in (rho_mats, sigma_mats, chi_mats):
        arr.setflags(write=False)
    return rho_mats, sigma_mats, chi_mats


def extension_sdp(cls):
    """The extension program for an EquivalenceClassSpec, the fallback of
    best_extendible_decomposition, with its class rows substituted away.

    The pseudo-inverse pinv of the independent rows and the orthonormal
    null-space basis N, from the one SVD per row set (_row_set), give the
    r that meet them as r = r0 + N w, r0 = pinv b (_rows_of).  The
    variables are (f, w); the blocks are rho - sigma~ >= 0 and chi~ >= 0, their f parts from
    _extension_structure(cls.dims), with the w part N^T rho_mats of the
    first (rho = sum_kl r_kl rho_mats[kl]) and zeros in the second
    appended here; the objective is r_00 - f_000 less its constant r0_00.
    Raises InconsistentDataError when r0 misses the rows by more than
    FEAS_TOL (_rows_of), as no r meets them then.
    Returns the SdpProblem; its blocks at x are rho - sigma~ and chi~.
    """
    rho_mats, sigma_mats, chi_mats = _extension_structure(tuple(cls.dims))
    (_, _, N, _, _), r0 = _rows_of(cls)
    n_f, dabb = chi_mats.shape[:2]
    c = np.concatenate([np.zeros(n_f), N[0]])
    c[0] = -1.0      # f_000
    blocks = (LmiBlock(const=np.tensordot(r0, rho_mats, 1),
                       mats=np.concatenate([sigma_mats, np.tensordot(N.T, rho_mats, 1)])),
              LmiBlock(const=np.zeros((dabb, dabb)),
                       mats=np.concatenate([chi_mats, np.zeros((N.shape[1], dabb, dabb))])))
    return SdpProblem(c=c, blocks=blocks)


@functools.lru_cache(maxsize=8)
def _swap_sectors(dims):
    """Real orthonormal bases (V_s, V_a) of the swap-symmetric and
    -antisymmetric subspaces of A (x) B (x) B', of dimensions
    d_A d_B (d_B + 1)/2 and d_A d_B (d_B - 1)/2: for each a and each
    b <= b', the columns |a b b> and (|a b b'> + |a b' b>)/sqrt(2) of V_s
    and, when b < b', (|a b b'> - |a b' b>)/sqrt(2) of V_a.  Built once per
    dims and read-only."""
    da, db = dims
    idx = np.arange(da * db * db).reshape(da, db, db)
    b, bp = np.triu_indices(db)
    eye = np.eye(idx.size)
    ket, swapped = eye[:, idx[:, b, bp].ravel()], eye[:, idx[:, bp, b].ravel()]
    pair = np.tile(b != bp, da)
    V_s = np.where(pair, (ket + swapped) * math.sqrt(0.5), ket)
    V_a = (ket - swapped)[:, pair] * math.sqrt(0.5)
    for arr in (V_s, V_a):
        arr.setflags(write=False)
    return V_s, V_a


def _lift(M, dims):
    """(V_s^T (M_j (x) I_B') V_s, V_a^T (M_j (x) I_B') V_a) for a stack M
    on A (x) B, with (V_s, V_a) = _swap_sectors(dims)."""
    n = M.shape[-1] * dims[1]
    ext = np.einsum("nij,kl->nikjl", M, np.eye(dims[1])).reshape(-1, n, n)
    V_s, V_a = _swap_sectors(dims)
    return V_s.T @ ext @ V_s, V_a.T @ ext @ V_a


@functools.lru_cache(maxsize=8)
def _product_ops(dims):
    """(ops, first, second, odd): ops the (n_r, d_A d_B, d_A d_B) stack
    of O_kl = S_k (x) S_l, in (k, l) order, the witness program's two
    stacks, both of size m = d_A d_B (d_B + 1)/2: first the block sum
    O_kl (+) V_a^T (O_kl (x) I_B') V_a, second V_s^T (O_kl (x) I_B') V_s
    (see _lift), and odd the mask of the (k, l) whose O_kl is imaginary,
    those where exactly one of S_k and S_l is: the columns on which
    complex conjugation flips the sign of the coefficients r_kl.  The
    other stacks are real-valued, with zero imaginary parts.  Built on
    the first witness program of these dims and read-only."""
    da, db = dims
    sa, sb = build_basis(da), build_basis(db)
    dab = da * db
    ops = np.einsum("aij,bkl->abikjl", sa, sb).reshape(-1, dab, dab)
    second, anti = _lift(ops, dims)
    first = np.zeros((ops.shape[0],) + second.shape[1:], dtype=complex)
    first[:, :dab, :dab] = ops
    first[:, dab:, dab:] = anti
    odd = ops.imag.any(axis=(1, 2))
    for arr in (ops, first, second, odd):
        arr.setflags(write=False)
    return ops, first, second, odd


@functools.lru_cache(maxsize=8)
def _row_set(key, shape, dims):
    """(keep, pinv, N, program, real) for class rows A given by bytes and
    shape, built once per row set and read-only: keep the indices of A's
    independent rows, by protocols._independent_rows, the rows every
    program is stated over; the pseudo-inverse of A[keep] and an
    orthonormal basis of its null space, A's, from one SVD; and the
    witness program over y as (B, blocks), with y = B z at its variables
    z, in class-row coordinates: B = I[:, keep], which sets the dropped
    rows' y to 0, and the two blocks W(y) (+) (V_a^T (W(y) (x) I_B') V_a - I),
    with const I (+) 0, and V_s^T (W(y) (x) I_B') V_s - I, with const 0
    (see _product_ops), over the kept rows; real, the real witness
    program's (B, blocks), or None.

    The rows qualify for the real program when the row space is invariant
    under the sign flip D of the odd columns: exactly when the even and
    odd parts of A[keep] have ranks adding up to its own, both by
    _independent_rows.  B is then an orthonormal basis of the y with
    A[keep]^T y zero on the odd columns, put in the rows keep: the
    eigenvectors, at eigenvalue 1, of the projector onto them, U U^T with
    U the left singular vectors of A[keep][:, odd] past its rank.  The
    SVD's U is an arbitrary rotation of that space, with which the
    rounding of the last iterations on the built-in row sets moved
    lambda_max of the 104 sweep points from the class-row program's by up
    to 1.3e-8, against 1.6e-9 with B.  The blocks are those of W(B z),
    from the even columns of the stacks: real-valued."""
    rows = np.frombuffer(key).reshape(shape)
    keep = _independent_rows(rows)
    rows = rows[keep]
    ops, first, second, odd = _product_ops(dims)
    n, m = ops.shape[1], first.shape[1]
    consts = (np.diag(np.repeat([1.0, 0.0], [n, m - n])), np.zeros((m, m)))

    def program(B, rows, cols):
        B = np.eye(shape[0])[:, keep] @ B     # in class-row coordinates
        B.setflags(write=False)
        return B, tuple(LmiBlock(const=const, mats=-np.tensordot(rows, stack[cols], 1))
                           for const, stack in zip(consts, (first, second)))

    U, s, Vt = np.linalg.svd(rows)
    rank = keep.size
    pinv = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
    N = Vt[rank:].T
    real = None
    n_odd = _independent_rows(rows[:, odd]).size
    if n_odd + _independent_rows(rows[:, ~odd]).size == rank:
        U = np.linalg.svd(rows[:, odd])[0][:, n_odd:]
        B = np.linalg.eigh(U @ U.T)[1][:, n_odd:]
        real = program(B, B.T @ rows[:, ~odd], ~odd)
    for arr in (pinv, N):
        arr.setflags(write=False)
    return keep, pinv, N, program(np.eye(rank), rows, slice(None)), real


def _rows_of(cls):
    """(_row_set of cls's rows, r0 = pinv b[keep]), r0 the least-squares
    coefficients of the independent rows.  Raises InconsistentDataError,
    with _class_residual as its residual, when r0 misses the class rows by
    more than FEAS_TOL: the other rows contradict the independent ones."""
    row_set = _row_set(cls.rows.tobytes(), cls.rows.shape, tuple(cls.dims))
    r0 = row_set[1] @ cls.rhs[row_set[0]]
    miss = _class_residual(cls, cls.rows @ r0)
    if miss > FEAS_TOL:
        raise InconsistentDataError("no state meets the class rows: their least-squares "
                                    f"solution misses them by {miss:.3e} (relative)", miss)
    return row_set, r0


def build_sdp(cls):
    """The witness program for an EquivalenceClassSpec: one variable y_j
    per independent class row, minimize -b.y with W(y) >= 0 and
    sym(W(y) (x) I_B') - I >= 0 as two blocks of size d_A d_B (d_B + 1)/2,
    W(y) (+) (V_a^T (W(y) (x) I_B') V_a - I) and
    V_s^T (W(y) (x) I_B') V_s - I (see the module docstring).

    Returns (SdpProblem, B), y = B z in class-row coordinates at the
    program's variables z: the real witness program over z when the class
    qualifies (_row_set qualifies its rows, and r0 is a real state,
    A D r0 = b within FEAS_TOL by _class_residual), and the program over
    the y of the independent rows, B = I[:, keep], otherwise.  Raises
    InconsistentDataError for rows that contradict the independent ones
    (_rows_of).
    """
    (keep, _, _, program, real), r0 = _rows_of(cls)
    if real is not None and _class_residual(
            cls, cls.rows @ np.where(_product_ops(tuple(cls.dims))[3], -r0, r0)) <= FEAS_TOL:
        program = real
    B, blocks = program
    return SdpProblem(c=-(cls.rhs[keep] @ B[keep]), blocks=blocks), B


@dataclass(frozen=True, eq=False)
class ExtendibilityResult:
    """Outcome of the joint decomposition solve.

    sigma_tilde and chi_tilde are sigma~ = lambda sigma_ext and
    chi~ = lambda chi as solved, before clipping, with trace
    diagnostics["raw_lambda"]; solution is the solve of the program
    named by diagnostics["program"], as it ended, and
    diagnostics["iterations"] the iterations of every solve that ran."""

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


def _pinned_support(cls):
    """(w, S) when the class rows pin rho, the r0 of _rows_of (no null
    space in _row_set): w its eigenvalues above SUPPORT_TOL and S their
    orthonormal eigenvectors, so S diag(w) S^+ is rho with its kernel
    eigenvalues, rounding, set to exactly zero (the full eigenbasis when
    rho has full rank).  None for every other class.  Raises
    InconsistentDataError before any solve for rows that contradict the
    independent ones (_rows_of), and for a rho with an eigenvalue below
    PINNED_FLOOR, which no state meets, with that eigenvalue's size as its
    residual."""
    (_, _, N, _, _), r = _rows_of(cls)
    if N.shape[1]:
        return None
    da, db = cls.dims
    w, V = np.linalg.eigh(reconstruct(r.reshape(da * da, db * db), map(build_basis, cls.dims)))
    if w[0] < PINNED_FLOOR:
        raise InconsistentDataError("no state meets the class rows: they pin an operator "
                                    f"with eigenvalue {w[0]:.3e}", -float(w[0]))
    keep = w > SUPPORT_TOL
    return w[keep], V[:, keep]


def _face_basis(S, dims):
    """Orthonormal bases (U_s, U_a), in the coordinates of the swap
    sectors V_s and V_a, of the swap-symmetric and -antisymmetric parts of
    F = (S (x) C^{d_B}) cap P(S (x) C^{d_B}).

    F is swap-invariant, so it splits into these parts, and a vector in a
    sector lies in F exactly when it lies in S (x) C^{d_B}: each part is
    the eigenvalue-1 eigenspace of V^T (S S^+ (x) I_B') V (see _lift), the
    projector onto S (x) C^{d_B} compressed to the sector.  On the full
    support that is I up to rounding, and its eigenvectors an arbitrary
    rotation of the sector, so each part is the sector itself, U = I."""
    if S.shape[1] == S.shape[0]:
        return [np.eye(V.shape[1]) for V in _swap_sectors(dims)]
    eigs = [np.linalg.eigh(lifted[0]) for lifted in _lift((S @ S.conj().T)[None], dims)]
    return [U[:, w > 1.0 - SUPPORT_TOL] for w, U in eigs]


@functools.lru_cache(maxsize=8)
def _hermitian_stack(n):
    """An orthonormal basis of the n x n Hermitian matrices, (n*n, n, n),
    built once per n and read-only."""
    out = np.zeros((n * n, n, n), dtype=complex)
    d = np.arange(n)
    out[d, d, d] = 1.0
    i, j = np.triu_indices(n, 1)
    re, im = n + np.arange(i.size), n + i.size + np.arange(i.size)
    out[re, i, j] = out[re, j, i] = math.sqrt(0.5)
    out[im, i, j], out[im, j, i] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
    out.setflags(write=False)
    return out


def _solve_on_face(w, S, dims):
    """The face witness program of a pinned rho = S diag(w) S^+, solved.

    The variables are the coordinates of a Hermitian X on supp(rho) over
    _hermitian_stack: minimize Tr(diag(w) X) with X >= 0 and
    U^+ V^T (S X S^+ (x) I_B') V U >= I for each nonempty part U of the
    face in its sector V (_face_basis, _lift); X >= 0 shares its block
    with the antisymmetric part.  Returns (SdpSolution, face dimension,
    (T, Z_s, Z_a)), T = S Z_0 S^+ and Z_s, Z_a the dual blocks in sector
    coordinates, U Z_U U^+, with Z_0 and the antisymmetric Z_U the corners
    of the first; a solve that does not end optimal is returned as it
    ended, with None for the triple.  An empty face needs no solve: X = 0
    and Z_0 = diag(w), so T = rho and chi~ = 0.
    """
    U_s, U_a = _face_basis(S, dims)
    r, n_a = w.size, U_a.shape[1]
    k = U_s.shape[1] + n_a
    if k == 0:
        sol = SdpSolution(
            status="optimal", x=np.zeros(0), z_blocks=[np.diag(w)], objective=0.0,
            dual_objective=0.0, duality_gap=0.0, primal_residual=0.0,
            dual_residual=0.0, iterations=0,
            message=(f"empty face: supp(rho) (x) C^d_B (support rank {r}) "
                     "meets its swap only in 0, so lambda_max = 0 without a solve"))
    else:
        xs = _hermitian_stack(r)
        lift_s, lift_a = _lift(S @ xs @ S.conj().T, dims)
        first = np.zeros((r * r, r + n_a, r + n_a), dtype=complex)
        first[:, :r, :r] = xs
        first[:, r:, r:] = U_a.conj().T @ lift_a @ U_a
        blocks = [LmiBlock(const=np.diag(np.repeat([0.0, -1.0], [r, n_a])), mats=first)]
        if U_s.shape[1]:
            blocks.append(LmiBlock(const=-np.eye(U_s.shape[1]),
                                   mats=U_s.conj().T @ lift_s @ U_s))
        sol = solve(SdpProblem(c=np.einsum("s,jss->j", w, xs).real, blocks=blocks))
        if sol.status != "optimal":
            return sol, k, None
    Z = sol.z_blocks[0]
    Z_s = sol.z_blocks[1] if U_s.shape[1] else np.zeros((0, 0))
    return sol, k, (S @ Z[:r, :r] @ S.conj().T, U_s @ Z_s @ U_s.conj().T,
                    U_a @ Z[r:, r:] @ U_a.conj().T)


def _decomposition(T, chi, dims):
    """(rho*, sigma~, chi~) from T = rho - sigma~ and a swap-symmetric
    extension chi~: sigma~ = Tr_B'(chi~) and rho* = T + sigma~, all three
    divided by Tr(rho*), which a solve meets only to its residuals.
    lambda = Tr(chi~)."""
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
    the solution attached, and rows that no state meets raise
    InconsistentDataError: before any solve when they contradict the
    independent rows or pin an operator with an eigenvalue below
    PINNED_FLOOR (see _pinned_support), and after a witness solve that
    ends unbounded otherwise.

    The program that ran is diagnostics["program"]: "face" for a class
    whose rows pin rho to a rank-deficient state (see _pinned_support),
    solved by _solve_on_face, and "witness" for every other class.  When
    the witness solve ends numerical-failure, a pinned class is solved on
    its face over its whole support ("face"), any other class by the
    extension program ("extension").  A witness solve that ends unbounded
    has a primal ray d with sum_j d_j O_j <= 0 and b.d > 0, which proves
    that no state meets the class rows, so it raises InconsistentDataError
    at once, with b.d at ||d|| = 1 as its residual.  A face
    solve's diagnostics carry rho's support rank and the face dimension
    (None for both otherwise).  Every path gives the sector blocks
    (T, Z_s, Z_a), from which _decomposition builds the result's
    matrices.  diagnostics["witness"] is the witness y in class-row
    coordinates: B x of the witness solve's x (see build_sdp); after the
    extension solve or on a whole support, which give a witness operator
    W instead, the least-squares y = pinv^T expand(I - W) / d_A d_B
    raised until both witness blocks are PSD (see the module docstring);
    None on a rank-deficient face.
    diagnostics["witness_value"] is the solve's lower bound on
    1 - lambda_max (b.y, or Tr(rho) - Tr(diag(w) X) without a y),
    diagnostics["class_residual"] is _class_residual at the reported
    rho*; diagnostics["iterations"] counts every solve that ran,
    a stalled witness solve and the program that followed it included.
    """
    da, db = dims = tuple(cls.dims)
    pinned = _pinned_support(cls)
    program, support_rank, face_dim = "face", None, None
    stalled = 0     # iterations of a stalled witness solve
    if pinned is None or pinned[0].size == da * db:
        problem, B = build_sdp(cls)
        program, sol = "witness", solve(problem)
        if sol.status == "numerical-failure":
            program = "extension" if pinned is None else "face"
            stalled = sol.iterations
    if program == "extension":
        problem = extension_sdp(cls)
        sol = solve(problem)
    elif program == "face":
        support_rank = pinned[0].size
        sol, face_dim, parts = _solve_on_face(*pinned, dims)
    if program == "witness" and sol.status == "unbounded":
        d = B @ sol.certificate["x"]
        residual = float(cls.rhs @ d) / float(np.linalg.norm(d))
        raise InconsistentDataError(
            "no state meets the class rows: the witness program is unbounded along "
            f"a primal ray d with b.d = {residual:.3e} at ||d|| = 1", residual)
    if sol.status != "optimal":
        raise SolverError(
            f"decomposition solve ended with status {sol.status}: {sol.message}",
            solution=sol)

    V_s, V_a = _swap_sectors(dims)
    witness = W = None
    if program == "witness":
        witness, (first, second), n = B @ sol.x, sol.z_blocks, da * db
        parts = (first[:n, :n], second, first[n:, n:])
    elif program == "extension":
        # rho - sigma~ and chi~ are its blocks at x, W the first one's dual
        T, chi = (blk.const + np.tensordot(sol.x, blk.mats, 1) for blk in problem.blocks)
        parts, W = (T, V_s.T @ chi @ V_s, V_a.T @ chi @ V_a), sol.z_blocks[0]
    elif support_rank == da * db:
        S = pinned[1]
        W = S @ np.tensordot(sol.x, _hermitian_stack(da * db), 1) @ S.conj().T
    if W is not None:
        # the least-squares multipliers of the independent rows for
        # W(y) = W, with both witness blocks raised by t along
        # c = pinv^T e_00, A^T c = e_00, in class-row coordinates
        _, pinv, _, (B, blocks), _ = _row_set(cls.rows.tobytes(), cls.rows.shape, dims)
        y = pinv.T @ expand(np.eye(da * db) - W, map(build_basis, dims)).ravel() / (da * db)
        t = -min(np.linalg.eigvalsh(blk.const + np.tensordot(y, blk.mats, 1))[0]
                 for blk in blocks)
        witness = B @ (y - max(t, 0.0) * pinv[0])
    witness_value = (float(pinned[0].sum() - sol.objective) if witness is None
                     else float(cls.rhs @ witness))
    T, Z_s, Z_a = parts
    rho, sigma, chi = _decomposition(T, V_s @ Z_s @ V_s.T + V_a @ Z_a @ V_a.T, dims)

    raw_lam = float(np.trace(chi).real)
    if raw_lam < -1e-6 or raw_lam > 1.0 + 1e-6:
        raise SolverError(f"extendible weight {raw_lam} escapes [0, 1]",
                          solution=sol)
    lam = min(max(raw_lam, 0.0), 1.0)

    diagnostics = {"program": program, "iterations": stalled + sol.iterations,
                   "raw_lambda": raw_lam, "witness": witness,
                   "witness_value": witness_value,
                   "support_rank": support_rank, "face_dim": face_dim}
    rho_star = _to_density(rho, dims, diagnostics, "rho_star")
    diagnostics["class_residual"] = _class_residual(cls, cls.statistics(rho_star.matrix))
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

    Most equalities hold by construction (chi~ is swap-symmetric, and
    sigma~ is its partial trace over B'); the residuals confirm
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
