"""A primal-dual interior-point solver for small semidefinite programs.

Problem form::

    minimize    c^T x
    subject to  F^(b)(x) = F0^(b) + sum_i x_i Fi^(b)  >= 0   for each block b

with Hermitian F matrices and real c.  Each block is stored and iterated
at its own size n, and counts as a Hermitian block: twice in every inner
product and in the barrier degree, so the iterates are those of its real
symmetric embedding [[Re, -Im], [Im, Re]] of size 2n, whatever dtype its
arrays came in.  Only the arithmetic follows the values: a program whose
blocks are all real-valued runs in float64, one float per entry and
real LAPACK routines, on the central path it would take in complex
arithmetic, and any other program runs in complex arithmetic
(extendibility.build_sdp states its real witness programs so).  Below,
<X, Y> = Re Tr(X^H Y) on the stored blocks, and the z_blocks returned
are duals for it: each is twice its iterate, as the real embedding's
dual reads back.
A program with equality constraints is stated over a parametrization
of their solutions (extendibility.extension_sdp does so).

The algorithm is the homogeneous self-dual embedding (Ye, Todd & Mizuno
1994; for SDP de Klerk, Roos & Terlaky 1997): F0 and c are scaled by a
scalar tau >= 0, and a scalar kappa >= 0 joins the system

    F_lin(w) + tau F0 = S,  A*(Z) = tau c,  c.w + <F0, Z> + kappa = 0,
    <S, Z> + tau kappa = 0,

with A*(Z)_i = <Fi, Z>.

A Mehrotra predictor-corrector with Nesterov-Todd scaling runs on it
from w = 0, S = Z = I, tau = kappa = 1, with one step length for primal
and dual since tau couples them; the iterate divided by tau, x = w / tau,
is what is reported.  When the program has an optimal pair, tau stays
positive and that iterate converges to one; a last primal step at
fixed tau then zeros the primal residual the embedding leaves and moves
toward the optimal face.  Otherwise tau -> 0 with kappa > 0, and Z tends
to a Farkas certificate (A*(Z) = 0, Z >= 0, -<F0, Z> > 0) or w to a primal
ray (F_lin(w) >= 0, c.w < 0).  A run whose tau would fall below
TAU_FLOOR before either forms ends as numerical-failure, as does one
whose gap and primal residual are met but not its dual residual, for
DUAL_STALL_ITERS iterations in a row.  solve takes no options: it stops
on these module constants, read when it runs.

With W = R R^H the scaling point of (S, Z), each iteration solves
M dw = h for the Gram matrix M_ij = <Fi, W^-1 Fj W^-1> by its Cholesky
factor; the tau column is one more right-hand side.  Every block's
S, Z, residual and scaled matrices sit in one packed vector, so that
with Q_i the packed R^-1 Fi R^-H, M = Re(Q Q^H) is one product and the
directions and inner products are single vector operations.  The
index arrays of that layout are built once per block shape and field
(_layout), and the buffers a solve packs its data into, with their
views, once per program shape (_workspace); a solve fills them and
iterates on them, updating S and Z in place.  Consecutive blocks of
one size form a run, a stack (k, n, n) (the witness program's two
blocks are one run), and what needs a block's matrix runs per run: the
congruence R^-1 (.) R^-H, the corrector's product dS dZ and the update
R (.) R^H are one batched product each.  The LAPACK calls go matrix by
matrix: R and R^-1 from the Cholesky factors of S and Z and one SVD,
with no triangular solve (_nt_scaling), and the step's distance to the
cone boundary from the lowest eigenvalue of each scaled direction
(_step_bound).  The first iteration, at S = Z = I, calls none of them
for the scaling: the factorizations give R = R^-1 = I and d = 1
exactly, so Q is the unscaled data.
Every factorization goes through five LAPACK entry points
(_load_lapack): direct calls into the OpenBLAS that numpy's wheel
bundles, or numpy.linalg stand-ins where numpy has no such build.  They
reuse buffers per size: the SVD returns views, which _nt_scaling reads
at once, and the Cholesky factors and M's solves return copies, since
two results of one size live at once.  solve runs with that library's
thread pool at one thread (see _one_blas_thread).  A factorization or
eigensolve that fails ends the run as numerical-failure with its
message.  A variable whose matrices are zero in every block would make
M singular, so SdpProblem rejects it.

Weak duality: with rp and rd the primal and dual residuals of the
normalized iterate, pobj = c.x and dobj = -<F0, Z>, every iterate has

    pobj - dobj = sum_b <S_b, Z_b> + rd.x + sum_b <rp_b, Z_b>

so pobj - dobj >= -(sum_b ||rp_b||_F ||Z_b||_F + ||rd|| ||x||), the
budget the history records as kappa (not the embedding's kappa).
duality_gap is the relative gap sum <S,Z> / (1 + |pobj| + |dobj|).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERM_TOL = 1e-12
# solve stops on these: relative gap; relative residuals and certificates; iterations
GAP_TOL = 1e-8
FEAS_TOL = 1e-8
MAX_ITER = 200
DUAL_STALL_ITERS = 10   # in a row with gap and primal residual met, dual not
# Share of the distance to the cone boundary that one step may travel.
STEP_FRACTION = 0.98
# Below this tau, tau ** 2 (which the metrics divide by) leaves the normal floats.
TAU_FLOOR = math.sqrt(np.finfo(float).tiny)

log = logging.getLogger(__name__)


_LAPACK = ("dpotrf", "dpotrs", "dtrtrs", "zpotrf", "zgesdd", "zheevr", "dgesdd", "dsyevr")
# Thread-count symbols, routine names and integer type of the OpenBLAS
# builds numpy's wheels bundle: ILP64 scipy-openblas (numpy 2.x), ILP64
# openblas (numpy 1.x), and their LP64 forms.
_OPENBLAS_SYMBOLS = (("scipy_openblas", "64_", "scipy_{}_64_", ctypes.c_int64),
                     ("scipy_openblas", "", "scipy_{}_", ctypes.c_int32),
                     ("openblas", "64_", "{}_64_", ctypes.c_int64),
                     ("openblas", "", "{}_", ctypes.c_int32))


_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def _find_openblas(libs=_NUMPY_LIBS):
    """The OpenBLAS in numpy's wheel (its .libs directory), as (get, set,
    routines, int): its thread-count functions, the routines named in
    _LAPACK and its integer type; None for any other BLAS build
    (Accelerate, MKL, a distribution's), one that does not load or one
    without those symbols.  The library is opened as a PyDLL, so a call
    keeps the GIL rather than paying to release and take it back."""
    for lib in sorted(Path(libs).glob("*openblas*")):
        try:
            handle = ctypes.PyDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix, routine, itype in _OPENBLAS_SYMBOLS:
            names = (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}",
                     *(routine.format(name) for name in _LAPACK))
            if not all(hasattr(handle, name) for name in names):
                continue
            get, put, *routines = (getattr(handle, name) for name in names)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            for fn in routines:
                fn.restype = None
            return get, put, routines, itype
    return None


def _ctypes_lapack(routines, itype):
    """The entry points of _load_lapack as direct ctypes calls: the input
    copied into a Fortran-ordered float64 or complex128 buffer, with the
    workspaces scipy's f2py wrappers pass by default, so the bits are
    those of the routines behind those wrappers.  Each keeps, per size
    and field, its buffers and whole argument tuple, built once.  No
    argtypes are set: every argument is already a reference to a typed
    value or a buffer of the right size, and argtypes would add a
    conversion per argument to every call.  The buffers are shared, so
    one call runs at a time (solve holds _blas_lock).  Like numpy.linalg's
    calls into the same library, they pass no hidden lengths of the
    character arguments."""
    dpotrf, dpotrs, dtrtrs, zpotrf, zgesdd, zheevr, dgesdd, dsyevr = routines
    index = np.dtype(itype)

    def ref(value, ctype=itype):
        return ctypes.byref(ctype(value))

    def buf(shape, cplx=False):
        return np.zeros(shape, complex if cplx else float, order="F")

    def ptr(arr):
        # a reference to arr's first byte, which keeps arr alive; ctypes
        # passes these faster than c_void_p
        return ctypes.byref(ctypes.c_char.from_buffer(arr.ravel(order="K")))

    @functools.cache
    def potrf_at(n, cplx):
        a, info = buf((n, n), cplx), itype()
        # the upper triangle is zeroed by one AND of the buffer's bits with
        # a mask: all ones on the lower triangle, else zero
        keep = np.repeat(np.tri(n, dtype=bool).ravel(order="F"), a.itemsize // 8) * np.int64(-1)
        fn = zpotrf if cplx else dpotrf
        return a, a.ravel(order="K").view(np.int64), keep, info, fn, (
            b"L", ref(n), ptr(a), ref(n), ctypes.byref(info))

    def potrf(a):
        a_buf, bits, keep, info, fn, args = potrf_at(a.shape[0], a.dtype.kind == "c")
        a_buf[...] = a
        fn(*args)
        if info.value:
            return None
        np.bitwise_and(bits, keep, out=bits)
        return a_buf.copy(order="F")

    @functools.cache
    def solve_at(n, columns, chars):
        a, b, info = buf((n, n)), buf((n, *columns)), itype()
        nrhs = columns[0] if columns else 1
        return a, b, (*chars, ref(n), ref(nrhs), ptr(a), ref(n), ptr(b), ref(n),
                      ctypes.byref(info))

    def solve_with(fn, L, b, chars):
        # potrs (chars: uplo) and trtrs (uplo, trans, diag) differ only in
        # those; the factor of a successful potrf leaves no info to read
        a_buf, b_buf, args = solve_at(L.shape[0], b.shape[1:], chars)
        a_buf[...], b_buf[...] = L, b
        fn(*args)
        return b_buf.copy(order="F")

    def potrs(L, b):
        return solve_with(dpotrs, L, b, (b"L",))

    def trtrs(L, b, trans):
        return solve_with(dtrtrs, L, b, ((b"L", b"N", b"N"), (b"L", b"T", b"N"))[trans])

    @functools.cache
    def gesdd_at(n, cplx):
        a, u, vt = (buf((n, n), cplx) for _ in range(3))
        s, info = buf(n), itype()
        if cplx:
            fn, lwork, rwork = zgesdd, 2 * n * n + 3 * n, (ptr(buf(5 * n * n + 5 * n)),)
        else:
            fn, lwork, rwork = dgesdd, 4 * n * n + 10 * n, ()
        return fn, a, (u, s, vt), info, (
            b"A", ref(n), ref(n), ptr(a), ref(n), ptr(s), ptr(u), ref(n), ptr(vt), ref(n),
            ptr(buf(lwork, cplx)), ref(lwork), *rwork, ptr(np.zeros(8 * n, index)),
            ctypes.byref(info))

    def gesdd(a):
        fn, a_buf, usv, info, args = gesdd_at(a.shape[0], a.dtype.kind == "c")
        a_buf[...] = a
        fn(*args)
        if info.value:
            raise np.linalg.LinAlgError(
                f"SVD of the Nesterov-Todd scaling did not converge (gesdd info {info.value})")
        return usv

    @functools.cache
    def lowest_at(n, cplx):
        a, w, found, info = buf((n, n), cplx), buf(n), itype(), itype()
        if cplx:
            fn, lwork, rwork = zheevr, 2 * n, (ptr(buf(24 * n)), ref(24 * n))
        else:
            fn, lwork, rwork = dsyevr, 26 * n, ()
        real = ctypes.c_double
        return fn, a, w, info, (
            b"N", b"I", b"L", ref(n), ptr(a), ref(n), ref(0.0, real), ref(1.0, real),
            ref(1), ref(1), ref(0.0, real), ctypes.byref(found), ptr(w),
            ptr(buf(1, cplx)), ref(1), ptr(np.zeros(2 * n, index)),
            ptr(buf(lwork, cplx)), ref(lwork), *rwork, ptr(np.zeros(10 * n, index)), ref(10 * n),
            ctypes.byref(info))

    def lowest(a):
        fn, a_buf, w, info, args = lowest_at(a.shape[0], a.dtype.kind == "c")
        a_buf[...] = a
        fn(*args)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return float(w[0])

    return potrf, potrs, trtrs, gesdd, lowest


def _numpy_lapack():
    """numpy.linalg stand-ins for the five entry points of _ctypes_lapack,
    with their calls and returns: the LAPACK routines of a numpy built on
    another BLAS, behind numpy's wrappers."""

    def potrf(a):
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return None

    def potrs(L, b):
        return np.linalg.solve(L.conj().T, np.linalg.solve(L, b))

    def trtrs(L, b, trans):
        return np.linalg.solve(L.T if trans else L, b)

    def gesdd(a):
        return np.linalg.svd(a)

    def lowest(a):
        return float(np.linalg.eigvalsh(a, "L")[0])

    return potrf, potrs, trtrs, gesdd, lowest


def _load_lapack(openblas):
    """The solver's LAPACK entry points over the routines of _LAPACK;
    potrf, gesdd and lowest take the d or z routine by the input's dtype,
    and potrs and trtrs, for M, are real:

    - potrf(a): the lower Cholesky factor, upper triangle zeroed, or None;
    - potrs(L, b) and trtrs(L, b, trans): x with L L^T x = b, and with
      L x = b (L^T x = b for trans = 1);
    - gesdd(a): (U, s, Vh) of a square a, which may be views that its
      next call of that size overwrites;
    - lowest(a): the lowest eigenvalue of a Hermitian a, as a float.

    gesdd and lowest raise LinAlgError when they do not converge.  With
    openblas (see _find_openblas) they are direct calls into the OpenBLAS
    numpy's wheel bundles (_ctypes_lapack), so no second BLAS is loaded;
    with None, numpy.linalg stand-ins (_numpy_lapack).  At the solver's
    sizes numpy.linalg's input checks cost more than the routines; the
    one that mattered, finiteness, is made on M."""
    if openblas is None:
        return _numpy_lapack()
    return _ctypes_lapack(*openblas[2:])


_OPENBLAS = _find_openblas()
_potrf, _potrs, _trtrs, _gesdd, _lowest = _load_lapack(_OPENBLAS)


_blas_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS pool (_OPENBLAS[:2] gets and
    sets its count) at one thread, then give the caller's count back; one
    body at a time, since the count is process-wide and the LAPACK
    bindings share their buffers.  Other BLAS builds run it as they are.

    On matrices this small a second thread costs more in handoffs than it
    saves, and OpenBLAS's threaded kernels round differently, so pinned
    iterates are also the same on every host."""
    with _blas_lock:
        if _OPENBLAS is None:
            yield
            return
        get, put = _OPENBLAS[:2]
        count = get()
        put(1)
        try:
            yield
        finally:
            put(count)


class SolverError(RuntimeError):
    """Raised by callers when a solve that must succeed did not."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


def _finite(arr, what):
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has a non-finite entry (nan or inf)")
    return arr


def _as_herm(mat, what):
    mat = _finite(np.asarray(mat), what)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{what} must be square, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
        raise ValueError(f"{what} is not Hermitian within 1e-12")
    return mat.astype(complex)


@dataclass(frozen=True, eq=False)
class LmiBlock:
    """One linear matrix inequality const + sum_i x[i] * mats[i] >= 0,
    with one matrix per variable of its program (zero for a variable
    that does not enter the block).

    const and mats hold the Hermitian input at its own size dim,
    read-only: real arrays when every matrix is real-valued, complex ones
    otherwise, whatever dtype they were given in.
    """

    const: np.ndarray
    mats: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        const = _as_herm(self.const, "block const")
        dim = const.shape[0]
        mats = _finite(np.asarray(self.mats, dtype=complex), "block mats")
        if mats.shape[1:] != (dim, dim):
            raise ValueError("mats must be (num_vars, dim, dim)")
        bad = np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))),
                     axis=(1, 2), initial=0.0) > HERM_TOL
        if bad.any():
            raise ValueError(f"block matrix {int(np.flatnonzero(bad)[0])} "
                             "is not Hermitian within 1e-12")
        if not (const.imag.any() or mats.imag.any()):
            const, mats = const.real, mats.real
        const = 0.5 * (const + const.conj().T)
        mats = 0.5 * (mats + np.conj(np.transpose(mats, (0, 2, 1))))
        for arr in (const, mats):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "mats", mats)


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Objective and LMI blocks over one variable vector."""

    c: np.ndarray
    blocks: tuple

    def __post_init__(self):
        c = _finite(np.asarray(self.c, dtype=float).ravel(), "c")
        if c.size < 1:
            raise ValueError("need at least one variable")
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        t = c.size
        if any(blk.mats.shape[0] != t for blk in blocks):
            raise ValueError(f"every block needs one matrix per variable ({t})")
        unused = ~np.any([blk.mats.reshape(t, -1).any(axis=1) for blk in blocks], axis=0)
        if unused.any():
            raise ValueError(
                f"variable {int(np.flatnonzero(unused)[0])} is zero in every block; "
                "the reduced system would be singular")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "blocks", blocks)

    @property
    def num_vars(self):
        return self.c.size

    @property
    def eq_rows(self):
        """No equality rows, as a (0, num_vars) array: perfbench/spans.py
        counts the rows of each program build_sdp returns."""
        return np.zeros((0, self.c.size))


@dataclass(frozen=True)
class IterateRecord:
    """Per-iteration metrics kept for diagnostics and invariant tests."""

    iteration: int
    primal_obj: float
    dual_obj: float
    inner: float            # sum_b <S_b, Z_b>
    kappa: float            # infeasibility budget for weak duality
    primal_res: float
    dual_res: float


@dataclass
class SdpSolution:
    status: str             # optimal | infeasible | unbounded | numerical-failure
    x: np.ndarray
    z_blocks: list
    objective: float
    dual_objective: float
    duality_gap: float      # nonnegative relative gap
    primal_residual: float
    dual_residual: float
    iterations: int
    history: list = field(default_factory=list)
    certificate: dict | None = None
    message: str = ""


def _norm(a):
    """Frobenius norm of a vector or matrix."""
    return math.sqrt(float(np.vdot(a, a).real))


def _chol_ridge(mat):
    """Lower Cholesky factor with an escalating diagonal ridge; None if hopeless."""
    n = mat.shape[0]
    ridge = 0.0
    for _ in range(3):
        L = _potrf(mat + ridge * np.eye(n) if ridge else mat)
        if L is not None:
            return L
        ridge = 1e-12 * max(1.0, float(np.max(np.diag(mat).real))) if ridge == 0.0 \
            else ridge * 1e4
    return None


def _adj(a):
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _each(runs):
    """The matrices of runs, each a matrix (n, n) or a stack (k, n, n)."""
    return [X for run in runs for X in run.reshape(-1, *run.shape[-2:])]


def _nt_scaling(S, Z):
    """Nesterov-Todd scaling of Hermitian S, Z > 0: (R, Rinv, d) with
    Rinv = R^-1 and R^H Z R = diag(d) = Rinv S Rinv^H; of each pair of
    two stacks (k, n, n), as stacks.

    With S = Ls Ls^H, Z = Lz Lz^H and Lz^H Ls = U diag(d) V^H,
    R = Ls V D^-1/2 and Rinv = D^-1/2 U^H Lz^H (Todd, Toh & Tutuncu 1998),
    so no triangular solve, in the arithmetic of S.  The LAPACK results
    come one matrix at a time, so a stack's products are made per matrix,
    into the stacks: stacking the factors first would cost as much as
    batching the products saves.  Raises LinAlgError when a factorization
    fails.
    """
    if S.ndim == 2:
        R, RinvH, d = _nt_into(S, Z)
    else:
        R, RinvH, d = np.empty_like(S), np.empty_like(S), np.empty(S.shape[:2])
        for args in zip(S, Z, R, RinvH, d):
            _nt_into(*args)
    return R, _adj(RinvH), d


def _nt_into(S, Z, R=None, RinvH=None, d=None):
    """R, Rinv^H and d of _nt_scaling for one pair, into R, RinvH and d
    when given."""
    Ls, Lz = _chol_ridge(S), _chol_ridge(Z)
    if Ls is None or Lz is None:
        raise np.linalg.LinAlgError("lost positive definiteness of an iterate")
    U, s, Vh = _gesdd(_adj(Lz) @ Ls)
    d = np.maximum(s, 1e-150, out=d)
    sd = np.sqrt(d)
    return np.matmul(Ls, _adj(Vh) / sd, out=R), np.matmul(Lz, U / sd, out=RinvH), d


def _step_bound(*scaled):
    """Largest alpha with I + alpha * X >= 0 for every Hermitian X given,
    alone or in a stack (k, n, n): for a block,
    X = diag(d)^-1/2 delta diag(d)^-1/2 of a direction delta."""
    lo = min(_lowest(X) if X.ndim == 2 else min(map(_lowest, X)) for X in scaled)
    if lo >= -1e-300:
        return np.inf
    return 1.0 / (-lo)


def _congruence(LH, G, out):
    """L G_j L^H, given LH = L^H, for each Hermitian G_j of the stack G
    (m, n, n), into out (m, n, n), or the same per matrix of a stack LH
    (k, n, n), with G and out (k, m, n, n): with X_j = G_j L^H,
    X_j^H L^H = L G_j L^H, so two (batched) products in all."""
    n = LH.shape[-1]
    X = (G.reshape(*LH.shape[:-2], -1, n) @ LH).reshape(G.shape)
    np.matmul(_adj(X), LH[..., None, :, :], out=out)


@functools.lru_cache(maxsize=8)
def _layout(dims, parts):
    """The packed layout of blocks of sizes dims in a program whose
    entries take parts floats each, 2 in complex arithmetic and 1 in
    real, (starts, spans, ii, jj, diag, eye), built once per block shape
    and field and read-only: every program of one shape shares it,
    whatever its data.

    Every block matrix lives in one packed vector: block b's n x n
    entries, row-major, at spans[b] of an array of length npk, complex
    or real.  Its float view, of length parts npk, carries all the vector
    algebra: there Re <X, Y> is a dot product.  starts are the blocks'
    float offsets, ii and jj the row and column of each float-view entry
    in the stacked diagonals d, diag the float offsets of the diagonal
    entries and eye the packed identity."""
    dims = np.array(dims)
    ends = np.cumsum(dims * dims)
    starts = ends - dims * dims
    spans = tuple(slice(s, e) for s, e in zip(starts, ends))
    first = np.cumsum(dims) - dims
    rows = np.concatenate([f + np.repeat(np.arange(n), n) for f, n in zip(first, dims)])
    cols = np.concatenate([f + np.tile(np.arange(n), n) for f, n in zip(first, dims)])
    ii, jj = np.repeat(rows, parts), np.repeat(cols, parts)
    diag = np.flatnonzero(ii == jj)[::parts]
    eye = np.zeros(parts * int(ends[-1]))
    eye[diag] = 1.0
    layout = (parts * starts, spans, ii, jj, diag, eye)
    for arr in layout:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return layout


@functools.lru_cache(maxsize=8)
def _workspace(dims, parts, nw):
    """The solver's buffers for programs of nw variables over blocks of
    sizes dims (parts as in _layout), with their views, made once per
    program shape: (F, F0, Q, Qs, vecs, d, G_b, runs).

    F (nw rows) and F0 hold the packed mats and consts (float views), Q
    the scaled [Q_i; rp~; F0~] and Qs its weighted float view; the rows
    of vecs are the packed iterate, residual, directions and cross term
    (rp and Z first, so one reduceat gives the block norms of both; D zero
    off its diagonal; step is scratch for the step lengths and the update
    R (.) R^H), d the stacked diagonals and G_b each block's stack
    [mats; rp_b; const].
    runs has one (G, Q_view, eyes, vec_views) per run of consecutive
    blocks of one size n, k of them: their stacks as one (k, nw + 2, n, n)
    array, their part of Q as a (k, nw + 2, n, n) view, the stack of k
    identities and, per vector, the run's part as a (k, n, n) view.  A
    run of one block drops the k axis: its matrices cost what a block's
    did when every block was iterated alone.

    Every solve of that shape fills these and writes them as it goes, one
    solve at a time (under _blas_lock), so unlike _layout they are
    scratch, and nothing a solve returns is a view of them."""
    dtype = complex if parts == 2 else float
    spans = _layout(dims, parts)[1]
    size = parts * spans[-1].stop
    F, Qs = np.empty((nw, size)), np.empty((nw + 2, size))
    F0, d = np.empty(size), np.empty(sum(dims))
    Q = np.empty((nw + 2, size // parts), dtype)
    vecs = np.zeros((12, size))
    runs, G_b, first = [], [], 0
    for n, group in itertools.groupby(dims):
        k = len(list(group))
        stack = (k, n, n) if k > 1 else (n, n)
        sp = slice(spans[first].start, spans[first + k - 1].stop)
        G = np.empty((*stack[:-2], nw + 2, n, n), dtype)
        eyes = np.broadcast_to(np.eye(n, dtype=dtype), stack)
        views = tuple(vecs.view(dtype)[:, sp].reshape(len(vecs), *stack))
        runs.append((G, Q[:, sp].reshape(nw + 2, *stack).swapaxes(0, -3), eyes, views))
        G_b.extend(G.reshape(k, nw + 2, n, n))
        first += k
    return F, F0, Q, Qs, vecs, d, G_b, runs


def solve(problem):
    """Run the interior-point method at GAP_TOL, FEAS_TOL and MAX_ITER,
    with the BLAS pools at one thread; always returns an SdpSolution."""
    with _one_blas_thread():
        return _solve(problem)


def _solve(problem):
    c, nw, blocks = problem.c, problem.num_vars, problem.blocks
    dims = tuple(blk.dim for blk in blocks)
    dtype = complex if any(np.iscomplexobj(blk.mats) for blk in blocks) else float
    parts = 2 if dtype is complex else 1
    starts, spans, ii, jj, diag, eye = _layout(dims, parts)
    F, F0, Q, Qs, vecs, d, G_b, runs = _workspace(dims, parts, nw)
    rp, Z, S, lin, wZ, dS_a, dZ_a, dS, dZ, cross, step, D = vecs
    G_r, Q_r, eye_r, views = zip(*runs)
    rp_r, Z_r, S_r, _, _, dSa_r, dZa_r, _, _, cross_r, step_r, _ = zip(*views)
    step_b = _each(step_r)
    # every block counts twice, as its real embedding would: wt weighs
    # the inner products, ntot is the barrier degree
    wt, sqrt_wt, ntot = 2.0, math.sqrt(2.0), 2.0 * sum(dims)
    d_scale = 1.0 + float(np.linalg.norm(c))

    for blk, sp, G in zip(blocks, spans, G_b):
        F.view(dtype)[:, sp] = blk.mats.reshape(nw, -1)
        F0.view(dtype)[sp] = blk.const.ravel()
        G[:nw], G[-1] = blk.mats, blk.const
    Qr = Q.view(float)
    rpp, F0t = Qr[nw], Qr[nw + 1]
    p_scale = 1.0 + sqrt_wt * np.array(
        [float(np.linalg.norm(blk.const, "fro")) for blk in blocks])

    def block_norms(v):
        return np.sqrt(np.add.reduceat(wt * v * v, starts, axis=-1))

    def update(Rs, delta, a, out):
        """out_r = R_r (D + a delta)_r R_r^H for each run, made exactly Hermitian."""
        np.multiply(a, delta, out=step)
        np.add(D, step, out=step)
        for R, X, Y_out in zip(Rs, step_r, out):
            Y = R @ X @ _adj(R)
            np.add(Y, _adj(Y), out=Y_out)
            np.multiply(0.5, Y_out, out=Y_out)

    w = np.zeros(nw)
    S[:], Z[:] = eye, eye
    tau = kappa = 1.0
    history = []
    status, message, certificate = None, "", None
    stall = dual_stall = it = 0
    polished = False

    while True:
        # --- residuals of the embedding (all vanish at its solutions) ---
        np.matmul(w, F, out=lin)
        np.multiply(tau, F0, out=rp)
        np.add(lin, rp, out=rp)
        np.subtract(rp, S, out=rp)
        np.multiply(wt, Z, out=wZ)
        AZ = F @ wZ
        rd = tau * c - AZ
        F0Z = float(F0 @ wZ)
        cw = float(c @ w)
        rg = kappa + cw + F0Z
        inner = float(S @ wZ)
        mu = max((inner + tau * kappa) / (ntot + 1), 1e-300)
        gap_inner = inner / tau ** 2

        # --- metrics of the tau-normalized iterate ---
        pobj = cw / tau
        dobj = -F0Z / tau
        (rp_norm, z_norm), rd_norm = block_norms(vecs[:2]), _norm(rd)
        pres = float((rp_norm / (tau * p_scale)).max())
        dres = rd_norm / (tau * d_scale)
        relgap = gap_inner / (1.0 + abs(pobj) + abs(dobj))
        wd_budget = (float(rp_norm @ z_norm) + rd_norm * _norm(w)) / tau ** 2
        history.append(IterateRecord(
            iteration=it, primal_obj=pobj, dual_obj=dobj, inner=gap_inner,
            kappa=wd_budget, primal_res=pres, dual_res=dres))
        log.debug("it %3d  pobj %+.6e  dobj %+.6e  gap %.2e  pres %.2e  "
                  "dres %.2e  tau %.2e  hsd-kappa %.2e",
                  it, pobj, dobj, relgap, pres, dres, tau, kappa)

        accept = relgap <= GAP_TOL and pres <= FEAS_TOL and dres <= FEAS_TOL
        if accept and (polished or it >= MAX_ITER):
            status = "optimal"
            break

        # --- certificates: tau -> 0 while kappa stays positive ---
        if tau < kappa and not accept:
            violation = -F0Z
            if violation > 0.0 and _norm(AZ) <= FEAS_TOL * violation:
                status = "infeasible"
                message = "Farkas certificate: tau -> 0 with -<F0, Z> > 0"
                break
            slope = -cw
            ray_res = float(np.max(block_norms(lin - S)))
            if slope > 0.0 and ray_res <= FEAS_TOL * slope:
                status = "unbounded"
                message = "primal ray: tau -> 0 with c.x < 0"
                break

        dual_stall = dual_stall + 1 if relgap <= GAP_TOL and pres <= FEAS_TOL < dres else 0
        if dual_stall >= DUAL_STALL_ITERS:
            status = "numerical-failure"
            message = f"dual residual stalled at {dres:.2e} with gap and primal residual met"
            break
        if it >= MAX_ITER:
            status = "numerical-failure"
            message = f"no convergence within {MAX_ITER} iterations"
            break

        # A factorization or eigensolve that fails (in the scaling or in a
        # step length) ends the run with the iterate it had.
        try:
            # --- Nesterov-Todd scaling per run, into Q = [Q_i; rp~; F0~] ---
            if it == 0:
                # at S = Z = I the factorizations give R = R^-1 = I and
                # d = 1 exactly, so Q is the unscaled [mats; rp; const]
                Rs = RinvHs = eye_r
                d[:] = 1.0
                Qr[:nw], rpp[:], F0t[:] = F, rp, F0
            else:
                Rs, RinvHs, ds = [], [], []
                for S_, Z_, rp_, G, Q_ in zip(S_r, Z_r, rp_r, G_r, Q_r):
                    R, Rinv, dr = _nt_scaling(S_, Z_)
                    RinvH = _adj(Rinv)
                    G[..., -2, :, :] = rp_
                    _congruence(RinvH, G, Q_)
                    Rs.append(R)
                    RinvHs.append(RinvH)
                    ds.append(dr.ravel())
                np.concatenate(ds, out=d)
            sd = np.sqrt(d)
            isd = 1.0 / (sd[ii] * sd[jj])
            D[diag] = d

            # with every row weighted by sqrt(wt), one symmetric product gives
            # M, Q.rp~, Q.F0~ = f0 and ||F0~||^2
            np.multiply(Qr, sqrt_wt, out=Qs)
            gram = Qs @ Qs.T
            M, f0 = gram[:nw, :nw], gram[:nw, nw + 1]
            if not np.isfinite(gram).all():
                status = "numerical-failure"
                message = "scaled normal (Gram) matrix M has a non-finite entry"
                break
            Mf = _chol_ridge(M)
            if Mf is None:
                status = "numerical-failure"
                message = "scaled normal matrix is numerically singular"
                break
            # L^-1 and M^-1 of [c, f0] for the tau column
            half = _trtrs(Mf, np.array([c, f0]).T, 0)
            mc, mf = _trtrs(Mf, half, 1).T

            def fixed_tau_step(h):
                return _potrs(Mf, h)

            def directions(dw, dtau, Kp, dS, dZ):
                """dS = F~_lin(dw) + dtau F0~ + rp~ and dZ = Kp - F~_lin(dw) - dtau F0~."""
                np.matmul(dw, Qr[:nw], out=dS)
                np.multiply(dtau, F0t, out=dZ)
                np.add(dS, dZ, out=dS)
                np.subtract(Kp, dS, out=dZ)
                np.add(dS, rpp, out=dS)

            def cone_step(*deltas):
                """Largest step along every packed direction that keeps each
                block's D + alpha delta >= 0."""
                bound = np.inf
                for delta in deltas:
                    np.multiply(delta, isd, out=step)
                    bound = min(bound, _step_bound(*step_b))
                return bound

            # the affine-scaling target S~ Z~ = 0, so dS~ + dZ~ = -D
            K_aff = -D - rpp
            if accept:
                # w/tau still violates the blocks by about pres, so a last step
                # moves w and S alone at fixed tau.  The affine-scaling direction
                # dw heads for the optimal face on the cone boundary and is cut
                # to STEP_FRACTION of the distance there, but its part fix, the
                # least-squares move that zeros the primal residual, is taken in
                # full when the result stays in the cone.
                fix = -fixed_tau_step(gram[:nw, nw])
                dw = fixed_tau_step(Qs[:nw] @ (sqrt_wt * K_aff) - rd)
                directions(dw, 0.0, K_aff, dS_a, dZ_a)
                ap = min(1.0, STEP_FRACTION * cone_step(dS_a))
                dw_full = fix + ap * (dw - fix)
                directions(dw_full, 0.0, K_aff, dS, dZ)
                taken = dS_a
                if cone_step(dS) >= 1.0:
                    dw, taken, ap = dw_full, dS, 1.0
                w = w + ap * dw
                update(Rs, taken, ap, S_r)
                polished = True
                it += 1
                continue

            # The tau column: dw = u + dtau p with u the Newton step at fixed
            # tau and p = -M^-1 (c + f0).  The pivot den is negative and is
            # summed from its sign-definite parts: near a degenerate optimum
            # ||F0~||^2 and f0^T M^-1 f0 grow large and nearly equal, and their
            # difference alone can round to exactly 0.
            quad_c = float(half[:, 0] @ half[:, 0])
            quad_f = max(float(gram[nw + 1, nw + 1]) - float(half[:, 1] @ half[:, 1]), 0.0)
            p = -mc - mf
            den = -(quad_c + quad_f + kappa / tau)

            def kkt_solve(Kp, rtk):
                QK = Qs @ (sqrt_wt * Kp)
                u = fixed_tau_step(QK[:nw] - rd)
                r4 = -rg - float(QK[nw + 1]) - rtk / tau
                dtau = (r4 - float((c - f0) @ u)) / den
                return u + dtau * p, dtau, (rtk - kappa * dtau) / tau

            def step_bound(dS, dZ, dtau, dkappa):
                return min(cone_step(dS, dZ),
                           -tau / dtau if dtau < 0.0 else np.inf,
                           -kappa / dkappa if dkappa < 0.0 else np.inf)

            # predictor
            dw_a, dt_a, dk_a = kkt_solve(K_aff, -tau * kappa)
            directions(dw_a, dt_a, K_aff, dS_a, dZ_a)
            a_a = min(1.0, step_bound(dS_a, dZ_a, dt_a, dk_a))
            mu_aff = (float((wt * (D + a_a * dS_a)) @ (D + a_a * dZ_a))
                      + (tau + a_a * dt_a) * (kappa + a_a * dk_a)) / (ntot + 1)
            sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3

            # corrector: the cross term (dS~ dZ~ + dZ~ dS~) / 2 of each block
            for dS_, dZ_, C_ in zip(dSa_r, dZa_r, cross_r):
                P = dS_ @ dZ_
                np.add(P, _adj(P), out=C_)
                np.multiply(0.5, C_, out=C_)
            Kc = 2.0 * (sigma * mu * eye - D * D - cross) / (d[ii] + d[jj]) - rpp
            dw, dtau, dkappa = kkt_solve(Kc, sigma * mu - tau * kappa - dt_a * dk_a)
            directions(dw, dtau, Kc, dS, dZ)
            alpha = min(1.0, STEP_FRACTION * step_bound(dS, dZ, dtau, dkappa))

            if alpha < 1e-10:
                stall += 1
                if stall >= 3:
                    status = "numerical-failure"
                    message = "step sizes collapsed"
                    break
            else:
                stall = 0
            if tau + alpha * dtau < TAU_FLOOR:
                # Only a certificate may end a run with tau -> 0; without one
                # the iterate is kept and the solve reports that it broke down.
                status = "numerical-failure"
                message = (f"tau underflow: the step would take tau from {tau:.2e} "
                           f"below {TAU_FLOOR:.2e} with no Farkas certificate or "
                           "primal ray")
                break

            w = w + alpha * dw
            tau += alpha * dtau
            kappa += alpha * dkappa
            update(Rs, dS, alpha, S_r)
            update(RinvHs, dZ, alpha, Z_r)
            it += 1
        except np.linalg.LinAlgError as err:
            status = "numerical-failure"
            message = str(err)
            break

    # each block's dual is 2 Z: A*(Z)_i = sum_b Re <Fi, Z_b>.
    Z = [wt * Zb / tau for Zb in _each(Z_r)]
    if status == "infeasible":
        # scaled to -<F0, Z> = 1; AZ and violation are those of the last iterate
        certificate = {"kind": "farkas", "z_blocks": [Zb * (tau / violation) for Zb in Z],
                       "violation": 1.0, "stationarity_residual": _norm(AZ) / violation}
    elif status == "unbounded":
        certificate = {"kind": "primal-ray", "x": w / slope, "objective_slope": -1.0,
                       "psd_violation": ray_res / slope}
    return SdpSolution(
        status=status, x=w / tau, z_blocks=Z,
        objective=pobj, dual_objective=dobj, duality_gap=relgap,
        primal_residual=pres, dual_residual=dres,
        iterations=it, history=history, certificate=certificate, message=message)
