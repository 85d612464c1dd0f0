"""A primal-dual interior-point solver for small semidefinite programs.

Problem form::

    minimize    c^T x
    subject to  F^(b)(x) = F0^(b) + sum_i x_i Fi^(b)  >= 0   for each block b
                A x = rhs

with Hermitian F matrices and real data elsewhere.  The iteration is
all-real: each LmiBlock stores the real symmetric embedding of its
matrices, which preserves the feasible set.

solve first substitutes the equality rows away.  One SVD of the columns
they touch, cached per set of rows, gives x0, the least-squares solution
of the rows, and an orthonormal basis of their null space; with P those
columns plus unit vectors for the variables the rows leave free,
x = x0 + P w.  Rows that x0 misses by more than FEAS_TOL (relative to
1 + ||rhs||) have no solution: the solve ends at once as infeasible with
an equality-ray certificate.  Otherwise it runs on the program in w,
with consts F0 + F_lin(x0), objective P^T c and no equality rows, and
maps the answer back: x = x0 + P w, and y is the least-squares solution
of A^T y = c - A*(Z) (of A^T y = -A*(Z) for a Farkas certificate), with
A*(Z)_i = <Fi, Z>.  So the SdpSolution, its certificate and history are
in the caller's coordinates, and residuals use the caller's scales.

The algorithm is the homogeneous self-dual embedding (Ye, Todd & Mizuno
1994; for SDP de Klerk, Roos & Terlaky 1997): F0 and c are scaled by a
scalar tau >= 0, and a scalar kappa >= 0 joins the system

    F_lin(w) + tau F0 = S,  A*(Z) = tau c,  c.w + <F0, Z> + kappa = 0,
    <S, Z> + tau kappa = 0.

A Mehrotra predictor-corrector with Nesterov-Todd scaling runs on it
from w = 0, S = Z = I, tau = kappa = 1, with one step length for primal
and dual since tau couples them; the iterate divided by tau is what is
reported.  When the program has an optimal pair, tau stays positive and
that iterate converges to one; a last primal step at fixed tau then
zeros the primal residual the embedding leaves and moves toward the
optimal face.  Otherwise tau -> 0 with kappa > 0, and Z tends to a
Farkas certificate (A*(Z) = 0, Z >= 0, -<F0, Z> > 0) or w to a primal
ray (F_lin(w) >= 0, c.w < 0).  A run whose tau would fall below
TAU_FLOOR before either forms ends as numerical-failure, as does one
whose gap and primal residual are met but not its dual residual, for
DUAL_STALL_ITERS iterations in a row.  solve takes no options: it stops
on these module constants, read when it runs.

With W = R R^T the scaling point of (S, Z), each iteration solves
M dw = h for the Gram matrix M_ij = <Fi, W^-1 Fj W^-1> by its Cholesky
factor; the tau column is one more right-hand side.  R and R^-1 come
from the Cholesky factors of S and Z and one SVD, with no triangular
solve (_nt_scaling), and a step's distance to the cone boundary from
the lowest eigenvalue of each scaled direction alone (_step_bound).
Every factorization is a direct LAPACK call (see _load_lapack).  A
variable in no block would make M singular, so SdpProblem rejects it.

Weak duality: with rp and rd the primal and dual residuals of the
normalized iterate, pobj = c.x and dobj = c.x0 - <F0 + F_lin(x0), Z>
(which is rhs.y - <F0, Z> once the residuals vanish), every iterate has

    pobj - dobj = sum_b <S_b, Z_b> + rd.w + sum_b <rp_b, Z_b>

so pobj - dobj >= -(sum_b ||rp_b||_F ||Z_b||_F + ||rd|| ||w||), the
budget the history records as kappa (not the embedding's kappa).  ||rd||
is the caller's dual residual at the least-squares y, ||w|| = ||x - x0||.
duality_gap is the relative gap sum <S,Z> / (1 + |pobj| + |dobj|).
"""

from __future__ import annotations

import functools
import importlib.util
import logging
import math
from collections import namedtuple
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
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


def _load_lapack(linalg_dir):
    """dpotrf, dpotrs, dtrtrs, dgesdd and dsyevr from the _flapack
    extension in linalg_dir.

    The extension file is loaded on its own, under its scipy name, so
    neither scipy nor scipy.linalg (most of this package's import time) is
    imported; when linalg_dir holds no loadable _flapack, the same routines
    come from scipy.linalg.get_lapack_funcs.  solve calls the first three
    as cho_factor, cho_solve and solve_triangular would, so with the same
    bits.  At its sizes the input checks of those wrappers, and of
    numpy.linalg's cholesky, svd and eigvalsh, cost more than the
    routines; the one that mattered, finiteness, is made on M.
    """
    names = ("potrf", "potrs", "trtrs", "gesdd", "syevr")
    for suffix in EXTENSION_SUFFIXES:
        path = Path(linalg_dir, "_flapack" + suffix)
        if not path.is_file():
            continue
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
        try:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
        except ImportError:
            break
        return tuple(getattr(flapack, "d" + name) for name in names)
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(names, (np.zeros((1, 1)),))


_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("keybound needs scipy", name="scipy")
# called directly, without scipy's wrappers (see _load_lapack)
_potrf, _potrs, _trtrs, _gesdd, _syevr = _load_lapack(
    Path(_scipy.submodule_search_locations[0], "linalg"))


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
    """One linear matrix inequality const + sum_i x[var_idx[i]] * mats[i] >= 0.

    The Hermitian input is stored as the real symmetric embedding the
    solver iterates on: as given when every matrix is real,
    [[Re, -Im], [Im, Re]] otherwise.  const and mats hold that embedding,
    read-only, and dim is its size.
    """

    const: np.ndarray
    var_idx: np.ndarray
    mats: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        const = _as_herm(self.const, "block const")
        dim = const.shape[0]
        idx = np.asarray(self.var_idx, dtype=int).ravel()
        if idx.size == 0:
            raise ValueError("a block needs at least one variable")
        mats = _finite(np.asarray(self.mats, dtype=complex), "block mats")
        if mats.shape != (idx.size, dim, dim):
            raise ValueError("mats must be (len(var_idx), dim, dim)")
        bad = np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))),
                     axis=(1, 2), initial=0.0) > HERM_TOL
        if bad.any():
            raise ValueError(f"block matrix {int(np.flatnonzero(bad)[0])} "
                             "is not Hermitian within 1e-12")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError("var_idx entries must be distinct")
        if const.imag.any() or mats.imag.any():
            const, mats = _realify(const), _realify(mats)
        else:
            const, mats = const.real, mats.real
        const = 0.5 * (const + const.T)
        mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        for arr in (const, mats, idx):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", const.shape[0])
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "var_idx", idx)
        object.__setattr__(self, "mats", mats)


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Objective, LMI blocks and equality constraints over one variable vector."""

    c: np.ndarray
    blocks: tuple
    eq_rows: np.ndarray = None
    eq_rhs: np.ndarray = None

    def __post_init__(self):
        c = _finite(np.asarray(self.c, dtype=float).ravel(), "c")
        if c.size < 1:
            raise ValueError("need at least one variable")
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        t = c.size
        seen = np.zeros(t, dtype=bool)
        for blk in blocks:
            if blk.var_idx.min() < 0 or blk.var_idx.max() >= t:
                raise ValueError("block variable index out of range")
            seen[blk.var_idx] = True
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise ValueError(
                f"variable {missing} appears in no block; the reduced system "
                "would be singular")
        rows = self.eq_rows
        rhs = self.eq_rhs
        if rows is None:
            rows = np.zeros((0, t))
            rhs = np.zeros(0)
        rows = _finite(np.asarray(rows, dtype=float).reshape(-1, t), "eq_rows")
        rhs = _finite(np.asarray(rhs, dtype=float).ravel(), "eq_rhs")
        if rhs.size != rows.shape[0]:
            raise ValueError("one right-hand side per equality row required")
        c.setflags(write=False)
        rows.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "eq_rows", rows)
        object.__setattr__(self, "eq_rhs", rhs)

    @property
    def num_vars(self):
        return self.c.size


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
    y: np.ndarray
    z_blocks: list
    objective: float
    dual_objective: float
    duality_gap: float      # nonnegative relative gap
    primal_residual: float
    dual_residual: float
    equality_residual: float
    iterations: int
    history: list = field(default_factory=list)
    certificate: dict | None = None
    message: str = ""


def _realify(mat):
    """[[Re, -Im], [Im, Re]] of one matrix or of a stack of matrices."""
    re, im = mat.real, mat.imag
    return np.concatenate([np.concatenate([re, -im], axis=-1),
                           np.concatenate([im, re], axis=-1)], axis=-2)


# An LmiBlock's fields, after solve substitutes the equality rows away.
_Lmi = namedtuple("_Lmi", "const var_idx mats dim")


def _flat(blk):
    """blk.mats as (number of variables, dim * dim), also with no variables."""
    return blk.mats.reshape(blk.var_idx.size, blk.dim * blk.dim)


def _apply_lin(blk, x):
    return (x[blk.var_idx] @ _flat(blk)).reshape(blk.dim, blk.dim)


def _adjoint(blocks, Z, t):
    out = np.zeros(t)
    for blk, Zb in zip(blocks, Z):
        out[blk.var_idx] += _flat(blk) @ Zb.ravel()
    return out


def _norm(a):
    """Frobenius norm of a vector or matrix."""
    return math.sqrt(float(np.vdot(a, a)))


def _chol_ridge(mat):
    """Lower Cholesky factor with an escalating diagonal ridge; None if hopeless."""
    n = mat.shape[0]
    ridge = 0.0
    for _ in range(3):
        L, info = _potrf(mat + ridge * np.eye(n) if ridge else mat, lower=1)
        if info == 0:
            return L
        ridge = 1e-12 * max(1.0, float(np.max(np.diag(mat)))) if ridge == 0.0 \
            else ridge * 1e4
    return None


def _nt_scaling(S, Z):
    """Nesterov-Todd scaling of S, Z > 0: (R, Rinv, d) with Rinv = R^-1 and
    R^T Z R = diag(d) = Rinv S Rinv^T.

    With S = Ls Ls^T, Z = Lz Lz^T and Lz^T Ls = U diag(d) V^T,
    R = Ls V D^-1/2 and Rinv = D^-1/2 U^T Lz^T (Todd, Toh & Tutuncu 1998),
    so no triangular solve.  Raises LinAlgError when a factorization fails.
    """
    Ls, Lz = _chol_ridge(S), _chol_ridge(Z)
    if Ls is None or Lz is None:
        raise np.linalg.LinAlgError("lost positive definiteness of an iterate")
    U, d, Vt, info = _gesdd(Lz.T @ Ls)
    if info:
        raise np.linalg.LinAlgError(
            f"SVD of the Nesterov-Todd scaling did not converge (dgesdd info {info})")
    d = np.maximum(d, 1e-150)
    sd = np.sqrt(d)
    return Ls @ (Vt.T / sd), (Lz @ (U / sd)).T, d


def _step_bound(isd, *deltas):
    """Largest alpha with diag(d) + alpha * delta >= 0 for every delta,
    given isd = 1 / outer(sqrt d, sqrt d)."""
    lo = np.inf
    for delta in deltas:
        w, _, _, _, info = _syevr(delta * isd, compute_v=0, range="I", il=1, iu=1,
                                  lower=1)
        if info:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        lo = min(lo, float(w[0]))
    if lo >= -1e-300:
        return np.inf
    return 1.0 / (-lo)


@functools.lru_cache(maxsize=8)
def _row_factors(key, shape):
    """For equality rows A given by bytes and shape: K, the columns A touches,
    the mask free of the others, pos (a free column's index among them, a
    touched one's in K), and from one SVD the pseudo-inverse of A[:, K]
    and an orthonormal basis N of its null space.  Cached: the extension
    fallback, the one program here with rows, meets a protocol's rows again."""
    A = np.frombuffer(key).reshape(shape)
    K = np.flatnonzero(A.any(axis=0))
    free = np.ones(shape[1], dtype=bool)
    free[K] = False
    pos = np.empty(shape[1], dtype=int)
    pos[free], pos[K] = np.arange(shape[1] - K.size), np.arange(K.size)
    U, s, Vt = np.linalg.svd(A[:, K])
    r = np.count_nonzero(s > max(shape[0], K.size) * np.finfo(float).eps * s.max(initial=0.0))
    out = K, free, pos, (Vt[:r].T / s[:r]) @ U[:, :r].T, Vt[r:].T.copy()
    for arr in out:
        arr.setflags(write=False)
    return out


def solve(problem):
    """Run the interior-point method at GAP_TOL, FEAS_TOL and MAX_ITER;
    always returns an SdpSolution."""
    c, A, b, t = problem.c, problem.eq_rows, problem.eq_rhs, problem.num_vars
    K, free, pos, pinv, N = _row_factors(A.tobytes(), A.shape)
    x0 = np.zeros(t)
    x0[K] = pinv @ b
    re0 = b - A @ x0
    e_scale = 1.0 + float(np.linalg.norm(b))
    eres0 = float(np.linalg.norm(re0)) / e_scale
    if eres0 > FEAS_TOL:
        y = re0 / float(np.linalg.norm(re0))
        return SdpSolution(
            status="infeasible", x=x0, y=y, z_blocks=[], objective=math.nan,
            dual_objective=math.nan, duality_gap=math.nan,
            primal_residual=math.nan, dual_residual=math.nan,
            equality_residual=eres0, iterations=0,
            certificate={"kind": "equality-ray", "y": y, "violation": float(b @ y),
                         "stationarity_residual": float(np.linalg.norm(A.T @ y))},
            message="equality system is inconsistent")

    # x = x0 + P w: w holds the free variables (those the rows leave alone),
    # then coordinates along N; P's columns are orthonormal.
    n_free, nw = t - K.size, t - K.size + N.shape[1]
    blocks = []
    for blk in problem.blocks:
        hit = ~free[blk.var_idx]
        if not hit.any():
            blocks.append(_Lmi(blk.const, pos[blk.var_idx], blk.mats, blk.dim))
            continue
        rows, mats = pos[blk.var_idx[hit]], blk.mats[hit]
        blocks.append(_Lmi(
            blk.const + np.einsum("i,ijk->jk", x0[blk.var_idx[hit]], mats),
            np.concatenate([pos[blk.var_idx[~hit]], np.arange(n_free, nw)]),
            np.concatenate([blk.mats[~hit], np.einsum("ia,ijk->ajk", N[rows], mats)]),
            blk.dim))

    def lift(w):
        x = np.zeros(t)
        x[free], x[K] = w[:n_free], N @ w[n_free:]
        return x

    c_obj, c = float(c @ x0), np.concatenate([c[free], N.T @ c[K]])
    ntot = sum(blk.dim for blk in blocks)
    F0s = [blk.const for blk in blocks]
    # residual scales of the caller's program, not of the shifted consts
    p_scale = [1.0 + float(np.linalg.norm(blk.const, "fro")) for blk in problem.blocks]
    d_scale = 1.0 + float(np.linalg.norm(problem.c))
    gram_idx = [np.ix_(blk.var_idx, blk.var_idx) for blk in blocks]

    w = np.zeros(nw)
    S = [np.eye(blk.dim) for blk in blocks]
    Z = [np.eye(blk.dim) for blk in blocks]
    tau = kappa = 1.0
    history = []
    status, message, certificate = None, "", None
    stall = dual_stall = it = 0
    polished = False

    while True:
        # --- residuals of the embedding (all vanish at its solutions) ---
        lin = [_apply_lin(blk, w) for blk in blocks]
        rp = [Lb + tau * F0 - Sb for Lb, F0, Sb in zip(lin, F0s, S)]
        AZ = _adjoint(blocks, Z, nw)
        rd = tau * c - AZ
        F0Z = sum(float(np.vdot(F0, Zb)) for F0, Zb in zip(F0s, Z))
        rg = kappa + float(c @ w) + F0Z
        inner = [float(np.vdot(Sb, Zb)) for Sb, Zb in zip(S, Z)]
        mu = max((sum(inner) + tau * kappa) / (ntot + 1), 1e-300)
        gap_inner = sum(v / tau ** 2 for v in inner)

        # --- metrics of the tau-normalized iterate ---
        pobj = c_obj + float(c @ w) / tau
        dobj = c_obj - F0Z / tau
        rp_norm, rd_norm = [_norm(rpb) for rpb in rp], _norm(rd)
        pres = max(n / (tau * sc) for n, sc in zip(rp_norm, p_scale))
        dres = rd_norm / (tau * d_scale)
        relgap = gap_inner / (1.0 + abs(pobj) + abs(dobj))
        wd_budget = (sum(n * _norm(Zb) for n, Zb in zip(rp_norm, Z))
                     + rd_norm * _norm(w)) / tau ** 2
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
                message = "Farkas certificate: tau -> 0 with b.y - <F0, Z> > 0"
                break
            slope = -float(c @ w)
            ray_res = max(_norm(Lb - Sb) for Lb, Sb in zip(lin, S))
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

        # --- Nesterov-Todd scaling per block ---
        Rs, Rinvs, ds, Ds, isds, Qs, rpps, F0ts = [], [], [], [], [], [], [], []
        try:
            for blk, Sb, Zb, rpb in zip(blocks, S, Z, rp):
                R, Rinv, d = _nt_scaling(Sb, Zb)
                sd = np.sqrt(d)
                Q = np.matmul(np.matmul(Rinv, blk.mats), Rinv.T)
                Rs.append(R)
                Rinvs.append(Rinv)
                ds.append(d)
                Ds.append(np.diag(d))
                isds.append(1.0 / np.outer(sd, sd))
                Qs.append(Q.reshape(blk.var_idx.size, blk.dim * blk.dim))
                rpps.append(Rinv @ rpb @ Rinv.T)
                F0ts.append(Rinv @ blk.const @ Rinv.T)
        except np.linalg.LinAlgError as err:
            status = "numerical-failure"
            message = str(err)
            break

        M = np.zeros((nw, nw))
        f0 = np.zeros(nw)
        for blk, ix, Q, F0t in zip(blocks, gram_idx, Qs, F0ts):
            M[ix] += Q @ Q.T
            f0[blk.var_idx] += Q @ F0t.ravel()
        if not np.isfinite(M).all():
            status = "numerical-failure"
            message = "scaled normal (Gram) matrix M has a non-finite entry"
            break
        Mf = _chol_ridge(M)
        if Mf is None:
            status = "numerical-failure"
            message = "scaled normal matrix is numerically singular"
            break
        # L^-1 and M^-1 of [c, f0] for the tau column (LAPACK refuses size 0)
        cf = np.column_stack([c, f0])
        half = _trtrs(Mf, cf, lower=1)[0] if nw else cf
        mc, mf = (_trtrs(Mf, half, lower=1, trans=1)[0] if nw else cf).T

        def fixed_tau_step(h):
            return _potrs(Mf, h, lower=1)[0] if nw else h

        def scaled_adjoint(Ks):
            h = np.zeros(nw)
            for blk, Q, Kb in zip(blocks, Qs, Ks):
                h[blk.var_idx] += Q @ Kb.ravel()
            return h

        def directions(dw, dtau, Ks):
            dSp, dZp = [], []
            for blk, Q, Kb, rppb, F0t in zip(blocks, Qs, Ks, rpps, F0ts):
                lin_b = dtau * F0t + (dw[blk.var_idx] @ Q).reshape(blk.dim, blk.dim)
                dSp.append(lin_b + rppb)
                dZp.append(Kb - lin_b)
            return dSp, dZp

        # the affine-scaling target S~ Z~ = 0, so dS~ + dZ~ = -D
        Ks_aff = [-D - rppb for D, rppb in zip(Ds, rpps)]
        if accept:
            # w/tau still violates the blocks by about pres, so a last step
            # moves w and S alone at fixed tau.  The affine-scaling direction
            # dw heads for the optimal face on the cone boundary and is cut
            # to STEP_FRACTION of the distance there, but its part fix, the
            # least-squares move that zeros the primal residual, is taken in
            # full when the result stays in the cone.
            fix = -fixed_tau_step(scaled_adjoint(rpps))
            dw = fixed_tau_step(scaled_adjoint(Ks_aff) - rd)
            dSp = directions(dw, 0.0, Ks_aff)[0]
            ap = min(1.0, STEP_FRACTION * min(_step_bound(isd, dS) for isd, dS in zip(isds, dSp)))
            dw_full = fix + ap * (dw - fix)
            dS_full = directions(dw_full, 0.0, Ks_aff)[0]
            if min(_step_bound(isd, dS) for isd, dS in zip(isds, dS_full)) >= 1.0:
                dw, dSp, ap = dw_full, dS_full, 1.0
            w = w + ap * dw
            S = [R @ (D + ap * dS) @ R.T for R, D, dS in zip(Rs, Ds, dSp)]
            polished = True
            it += 1
            continue

        # The tau column: dw = u + dtau p with u the Newton step at fixed
        # tau and p = -M^-1 (c + f0).  The pivot den is negative and is
        # summed from its sign-definite parts: near a degenerate optimum
        # ||F0~||^2 and f0^T M^-1 f0 grow large and nearly equal, and their
        # difference alone can round to exactly 0.
        quad_c = float(half[:, 0] @ half[:, 0])
        quad_f = max(sum(float(np.vdot(F0t, F0t)) for F0t in F0ts)
                     - float(half[:, 1] @ half[:, 1]), 0.0)
        p = -mc - mf
        den = -(quad_c + quad_f + kappa / tau)

        def kkt_solve(Ks, rtk):
            u = fixed_tau_step(scaled_adjoint(Ks) - rd)
            r4 = -rg - sum(float(np.vdot(F0t, Kb)) for F0t, Kb in zip(F0ts, Ks)) - rtk / tau
            dtau = (r4 - float((c - f0) @ u)) / den
            return u + dtau * p, dtau, (rtk - kappa * dtau) / tau

        def step_bound(dSp, dZp, dtau, dkappa):
            return min(min(_step_bound(isd, dS, dZ) for isd, dS, dZ in zip(isds, dSp, dZp)),
                       -tau / dtau if dtau < 0.0 else np.inf,
                       -kappa / dkappa if dkappa < 0.0 else np.inf)

        # predictor
        dw_a, dt_a, dk_a = kkt_solve(Ks_aff, -tau * kappa)
        dSp_a, dZp_a = directions(dw_a, dt_a, Ks_aff)
        a_a = min(1.0, step_bound(dSp_a, dZp_a, dt_a, dk_a))
        mu_aff = (sum(float(np.vdot(D + a_a * dS, D + a_a * dZ))
                      for D, dS, dZ in zip(Ds, dSp_a, dZp_a))
                  + (tau + a_a * dt_a) * (kappa + a_a * dk_a)) / (ntot + 1)
        sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3

        # corrector
        Ks = []
        for d, D, rppb, dS_a, dZ_a in zip(ds, Ds, rpps, dSp_a, dZp_a):
            cross = 0.5 * (dS_a @ dZ_a + dZ_a @ dS_a)
            Rc = sigma * mu * np.eye(d.size) - D * D - cross
            G = 2.0 * Rc / np.add.outer(d, d)
            Ks.append(G - rppb)
        dw, dtau, dkappa = kkt_solve(Ks, sigma * mu - tau * kappa - dt_a * dk_a)
        dSp, dZp = directions(dw, dtau, Ks)
        alpha = min(1.0, STEP_FRACTION * step_bound(dSp, dZp, dtau, dkappa))

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
        S_new, Z_new = [], []
        for R, Rinv, D, dS, dZ in zip(Rs, Rinvs, Ds, dSp, dZp):
            Sb = R @ (D + alpha * dS) @ R.T
            Zb = Rinv.T @ (D + alpha * dZ) @ Rinv
            S_new.append(0.5 * (Sb + Sb.T))
            Z_new.append(0.5 * (Zb + Zb.T))
        S, Z = S_new, Z_new
        it += 1

    # --- back to the caller's coordinates (see the module docstring) ---
    Z = [Zb / tau for Zb in Z]
    x = x0 + lift(w / tau)
    AZ = _adjoint(problem.blocks, Z, t)
    if status == "infeasible":
        y = -pinv.T @ AZ[K]
        violation = float(b @ y) - sum(float(np.vdot(blk.const, Zb))
                                       for blk, Zb in zip(problem.blocks, Z))
        station = float(np.linalg.norm(AZ + A.T @ y))
        certificate = {"kind": "farkas", "y": y / violation,
                       "z_blocks": [Zb / violation for Zb in Z], "violation": 1.0,
                       "stationarity_residual": station / violation}
    elif status == "unbounded":
        ray = lift(w) / slope
        certificate = {"kind": "primal-ray", "x": ray, "objective_slope": -1.0,
                       "eq_residual": float(np.linalg.norm(A @ ray)),
                       "psd_violation": ray_res / slope}
    return SdpSolution(
        status=status, x=x, y=pinv.T @ (problem.c - AZ)[K], z_blocks=Z,
        objective=pobj, dual_objective=dobj, duality_gap=relgap,
        primal_residual=pres, dual_residual=dres,
        equality_residual=float(np.linalg.norm(b - A @ x)) / e_scale,
        iterations=it, history=history, certificate=certificate, message=message)

