"""A primal-dual interior-point solver for small semidefinite programs.

Problem form::

    minimize    c^T x
    subject to  F^(b)(x) = F0^(b) + sum_i x_i Fi^(b)  >= 0   for each block b
                A x = rhs

with Hermitian F matrices and real data elsewhere.  Each LmiBlock embeds
itself once, at construction, as a real symmetric block; a complex one
becomes [[Re, -Im], [Im, Re]] of twice the size, which preserves the
spectrum (doubled multiplicities) and hence the feasible set.  The
iteration itself is all-real and reads only that embedding.

The algorithm is the homogeneous self-dual embedding (Ye, Todd & Mizuno
1994; for SDP de Klerk, Roos & Terlaky 1997): F0, rhs and c are scaled
by a scalar tau >= 0, and a scalar kappa >= 0 joins the system

    F_lin(x) + tau F0 = S,  A x = tau rhs,  A*(Z) + A^T y = tau c,
    c.x - rhs.y + <F0, Z> + kappa = 0,  <S, Z> + tau kappa = 0,

with A*(Z)_i = <Fi, Z>.  A Mehrotra predictor-corrector with
Nesterov-Todd scaling runs on it from x = 0, y = 0, S = Z = I,
tau = kappa = 1, with one step length for primal and dual since tau
couples them, and the iterate divided by tau is what is reported.  When
the program has an optimal pair, tau stays positive and that iterate
converges to one.  A last primal step at fixed tau along the
affine-scaling direction then shrinks the primal residual that the
embedding leaves; it is cut to STEP_FRACTION of the distance to the cone
boundary like every step, so it is seldom full and seldom zeros that
residual.  Otherwise tau -> 0 with kappa > 0, and (y, Z) tends to a
Farkas certificate (A*(Z) + A^T y = 0, Z >= 0, rhs.y - <F0, Z> > 0)
or x to a primal ray (F_lin(x) >= 0, A x = 0, c.x < 0).  A run whose
tau would fall below TAU_FLOOR before either one forms ends as
numerical-failure; some moderately infeasible programs end so.

Writing W = R R^T for the scaling point of (S, Z), each iteration forms
the Gram matrix M_ij = <Fi, W^-1 Fj W^-1> and solves

    [ M  -A^T ] [dx]   [h ]
    [ A   0   ] [dy] = [re]

by Cholesky factorizations of M and of the Schur complement A M^-1 A^T;
the tau column is one more right-hand side of the same system.  Every
variable must appear in at least one block, otherwise M is singular by
construction and the problem is rejected up front.

The factorizations and triangular solves call LAPACK's potrf, potrs and
trtrs directly, fetched once with scipy's get_lapack_funcs.  They are
the routines behind cho_factor, cho_solve and solve_triangular, called
with the same arguments, so they give the same bits; at these sizes (M
is 56 x 56 for a qubit point) the wrappers' input checks cost more than
the routines.  The one check that mattered, finiteness, is made on M: a
non-finite M (an overflow) ends the solve with numerical-failure.  With
the step bound's one eigensolve per block and the Gram indices built
once per solve, this took a points-qubit iteration from 2.16-2.18 ms to
1.59-1.68 ms (traced sdp.ms_per_iter, 2-vCPU host, BLAS pinned) at the
same 9.33 iterations per solve.

Weak duality bookkeeping: with rp, re, rd the primal, equality and dual
residuals of the normalized iterate, every iterate satisfies the identity

    pobj - dobj = sum_b <S_b, Z_b> + rd.x + sum_b <rp_b, Z_b> - re.y

so pobj - dobj >= -budget with the Cauchy-Schwarz budget (the kappa of
IterateRecord, not the embedding's)
sum_b ||rp_b||_F ||Z_b||_F + ||re|| ||y|| + ||rd|| ||x||; the first term
is nonnegative because S and Z stay in the cone.  The per-iterate
history records both sides so tests can assert this exactly; the
reported duality_gap is the nonnegative relative gap
sum <S,Z> / (1 + |pobj| + |dobj|).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import get_lapack_funcs

HERM_TOL = 1e-12
# Share of the distance to the cone boundary that one step may travel.
STEP_FRACTION = 0.98
# check_feasible calls a problem feasible when its phase-I slack is at most this.
FEASIBLE_MARGIN = 1e-8
# Below this tau, tau ** 2 (which the metrics divide by) leaves the normal floats.
TAU_FLOOR = math.sqrt(np.finfo(float).tiny)

log = logging.getLogger(__name__)

# called directly, without scipy's wrappers (see the module docstring)
_potrf, _potrs, _trtrs = get_lapack_funcs(("potrf", "potrs", "trtrs"),
                                          (np.zeros((1, 1)),))


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


@dataclass(frozen=True)
class LmiBlock:
    """One linear matrix inequality F0 + sum_i x[var_idx[i]] * mats[i] >= 0.

    real_dim, real_const and real_mats hold the real symmetric embedding
    the solver iterates on: the block itself when every matrix is real,
    [[Re, -Im], [Im, Re]] otherwise.
    """

    dim: int
    const: np.ndarray
    var_idx: np.ndarray
    mats: np.ndarray
    real_dim: int = field(init=False, repr=False, compare=False)
    real_const: np.ndarray = field(init=False, repr=False, compare=False)
    real_mats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = int(self.dim)
        const = _as_herm(self.const, "block const")
        if const.shape != (dim, dim):
            raise ValueError(f"block constant is {const.shape}, declared dim {dim}")
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
            F0, rmats = _realify(const), _realify(mats)
        else:
            F0, rmats = const.real.copy(), mats.real.copy()
        F0 = 0.5 * (F0 + F0.T)
        rmats = 0.5 * (rmats + np.transpose(rmats, (0, 2, 1)))
        for arr in (const, mats, idx, F0, rmats):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "var_idx", idx)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "real_dim", F0.shape[0])
        object.__setattr__(self, "real_const", F0)
        object.__setattr__(self, "real_mats", rmats)


@dataclass(frozen=True)
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
class SolverSettings:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200


@dataclass(frozen=True)
class IterateRecord:
    """Per-iteration metrics kept for diagnostics and invariant tests."""

    iteration: int
    primal_obj: float
    dual_obj: float
    inner: float            # sum_b <S_b, Z_b>
    kappa: float            # infeasibility budget for weak duality
    mu: float
    primal_res: float
    dual_res: float
    eq_res: float


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


def _apply_lin(blk, x):
    return np.einsum("i,ijk->jk", x[blk.var_idx], blk.real_mats)


def _adjoint(blocks, Z, t):
    out = np.zeros(t)
    for blk, Zb in zip(blocks, Z):
        out[blk.var_idx] += np.einsum("ijk,jk->i", blk.real_mats, Zb)
    return out


def _chol_jitter(mat):
    """Cholesky with escalating diagonal jitter; None if hopeless."""
    n = mat.shape[0]
    jitter = 0.0
    for _ in range(4):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(n) if jitter else mat)
        except np.linalg.LinAlgError:
            jitter = max(float(np.trace(mat)) / n, 1e-30) * 1e-12 if jitter == 0.0 \
                else jitter * 1e4
    return None


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


def _step_bound(d, *deltas):
    """Largest alpha with diag(d) + alpha * delta >= 0 for every delta."""
    sd = np.sqrt(d)
    N = np.stack(deltas) / np.outer(sd, sd)
    lo = float(np.linalg.eigvalsh(N)[:, 0].min())
    if lo >= -1e-300:
        return np.inf
    return 1.0 / (-lo)


def solve(problem, settings=None):
    """Run the interior-point method; always returns an SdpSolution."""
    st = settings or SolverSettings()
    blocks = problem.blocks
    c = problem.c
    t = problem.num_vars
    A, b = problem.eq_rows, problem.eq_rhs
    m = A.shape[0]
    ntot = sum(blk.real_dim for blk in blocks)
    F0s = [blk.real_const for blk in blocks]
    p_scale = [1.0 + float(np.linalg.norm(F0, "fro")) for F0 in F0s]
    e_scale = 1.0 + float(np.linalg.norm(b))
    d_scale = 1.0 + float(np.linalg.norm(c))
    gram_idx = [np.ix_(blk.var_idx, blk.var_idx) for blk in blocks]

    x, y = np.zeros(t), np.zeros(m)
    S = [np.eye(blk.real_dim) for blk in blocks]
    Z = [np.eye(blk.real_dim) for blk in blocks]
    tau = kappa = 1.0
    history = []
    status, message, certificate = None, "", None
    stall = floored = it = 0
    polished = False

    while True:
        # --- residuals of the embedding (all vanish at its solutions) ---
        lin = [_apply_lin(blk, x) for blk in blocks]
        rp = [Lb + tau * F0 - Sb for Lb, F0, Sb in zip(lin, F0s, S)]
        re_vec = tau * b - A @ x
        AZ = _adjoint(blocks, Z, t)
        rd = tau * c - AZ - A.T @ y
        F0Z = sum(float(np.vdot(F0, Zb)) for F0, Zb in zip(F0s, Z))
        rg = kappa + float(c @ x) - float(b @ y) + F0Z
        inner = [float(np.vdot(Sb, Zb)) for Sb, Zb in zip(S, Z)]
        mu = max((sum(inner) + tau * kappa) / (ntot + 1), 1e-300)
        gap_inner = sum(v / tau ** 2 for v in inner)

        # --- metrics of the tau-normalized iterate ---
        pobj = float(c @ x) / tau
        dobj = (float(b @ y) - F0Z) / tau
        pres = max(float(np.linalg.norm(rpb, "fro")) / (tau * sc)
                   for rpb, sc in zip(rp, p_scale))
        eres = float(np.linalg.norm(re_vec)) / (tau * e_scale)
        dres = float(np.linalg.norm(rd)) / (tau * d_scale)
        relgap = gap_inner / (1.0 + abs(pobj) + abs(dobj))
        if m and relgap <= st.gap_tol and pres <= st.feas_tol \
                and eres <= st.feas_tol and dres > st.feas_tol:
            # y is unconstrained, so replacing it with the least-squares
            # minimizer of the dual residual is always admissible and leaves
            # the gap (a function of S and Z only) untouched.
            y_fit = np.linalg.lstsq(A.T, c - AZ / tau, rcond=None)[0]
            rd_fit = tau * c - AZ - tau * (A.T @ y_fit)
            dres_fit = float(np.linalg.norm(rd_fit)) / (tau * d_scale)
            if dres_fit < dres:
                y, rd, dres = tau * y_fit, rd_fit, dres_fit
                rg = kappa + float(c @ x) - float(b @ y) + F0Z
                dobj = float(b @ y_fit) - F0Z / tau
                relgap = gap_inner / (1.0 + abs(pobj) + abs(dobj))
        wd_budget = (sum(float(np.linalg.norm(rpb, "fro")) * float(np.linalg.norm(Zb, "fro"))
                         for rpb, Zb in zip(rp, Z))
                     + float(np.linalg.norm(re_vec)) * float(np.linalg.norm(y))
                     + float(np.linalg.norm(rd)) * float(np.linalg.norm(x))) / tau ** 2
        history.append(IterateRecord(
            iteration=it, primal_obj=pobj, dual_obj=dobj, inner=gap_inner,
            kappa=wd_budget, mu=gap_inner / ntot,
            primal_res=pres, dual_res=dres, eq_res=eres))
        log.debug("it %3d  pobj %+.6e  dobj %+.6e  gap %.2e  pres %.2e  "
                  "dres %.2e  eres %.2e  tau %.2e  hsd-kappa %.2e",
                  it, pobj, dobj, relgap, pres, dres, eres, tau, kappa)

        converged = relgap <= st.gap_tol and pres <= st.feas_tol and eres <= st.feas_tol
        accept, message = converged and dres <= st.feas_tol, ""
        # Degenerate optimal faces can leave the dual residual pinned at a
        # numerical floor a couple of decades above feas_tol while the gap
        # keeps shrinking far below gap_tol.  Once the gap has overshot the
        # request by 100x and the floor has persisted, accept the iterate and
        # report the floored residual honestly.
        if converged and not accept and dres <= 1e3 * st.feas_tol:
            floored += 1
            if floored >= 3 and (relgap <= 1e-2 * st.gap_tol or floored >= 10):
                accept = True
                message = (f"dual residual floored at {dres:.2e} "
                           "(degenerate optimal face); gap and primal "
                           "residuals fully converged")
        elif not accept:
            floored = 0
        if accept and (polished or it >= st.max_iter):
            status = "optimal"
            break

        # --- certificates: tau -> 0 while kappa stays positive ---
        if tau < kappa and not accept:
            violation = float(b @ y) - F0Z
            station = float(np.linalg.norm(AZ + A.T @ y))
            if violation > 0.0 and station <= st.feas_tol * violation:
                status = "infeasible"
                certificate = {"kind": "farkas", "y": y / violation,
                               "z_blocks": [Zb / violation for Zb in Z],
                               "violation": 1.0,
                               "stationarity_residual": station / violation}
                message = "Farkas certificate: tau -> 0 with b.y - <F0, Z> > 0"
                break
            slope = -float(c @ x)
            ray_res = max(float(np.linalg.norm(Lb - Sb, "fro"))
                          for Lb, Sb in zip(lin, S))
            eq_ray = float(np.linalg.norm(A @ x))
            if slope > 0.0 and max(ray_res, eq_ray) <= st.feas_tol * slope:
                status = "unbounded"
                certificate = {"kind": "primal-ray", "x": x / slope,
                               "objective_slope": -1.0,
                               "eq_residual": eq_ray / slope,
                               "psd_violation": ray_res / slope}
                message = "primal ray: tau -> 0 with c.x < 0"
                break

        if it >= st.max_iter:
            status = "numerical-failure"
            message = f"no convergence within {st.max_iter} iterations"
            break

        # --- Nesterov-Todd scaling per block ---
        Rs, Rinvs, ds, Qs, rpps, F0ts = [], [], [], [], [], []
        for blk, Sb, Zb, rpb in zip(blocks, S, Z, rp):
            Ls = _chol_jitter(Sb)
            Lz = _chol_jitter(Zb)
            if Ls is None or Lz is None:
                status = "numerical-failure"
                message = "lost positive definiteness of an iterate"
                break
            U, d, Vt = np.linalg.svd(Lz.T @ Ls)
            d = np.maximum(d, 1e-150)
            # Ls^-1 as Ls^T (upper, Fortran-ordered) solved transposed: the
            # C-ordered numpy factor is passed without a copy
            Ls_inv = _trtrs(Ls.T, np.eye(blk.real_dim), trans=1)[0]
            R = Ls @ (Vt.T / np.sqrt(d)[None, :])
            Rinv = np.sqrt(d)[:, None] * (Vt @ Ls_inv)
            Q = np.matmul(np.matmul(Rinv, blk.real_mats), Rinv.T)
            Rs.append(R)
            Rinvs.append(Rinv)
            ds.append(d)
            Qs.append(Q)
            rpps.append(Rinv @ rpb @ Rinv.T)
            F0ts.append(Rinv @ blk.real_const @ Rinv.T)
        if status:
            break

        M = np.zeros((t, t))
        f0 = np.zeros(t)
        for blk, ix, Q, F0t in zip(blocks, gram_idx, Qs, F0ts):
            Qf = Q.reshape(blk.var_idx.size, -1)
            M[ix] += Qf @ Qf.T
            f0[blk.var_idx] += Qf @ F0t.ravel()
        if not np.isfinite(M).all():
            status = "numerical-failure"
            message = "scaled normal (Gram) matrix M has a non-finite entry"
            break
        Mf = _chol_ridge(M)
        if Mf is None:
            status = "numerical-failure"
            message = "scaled normal matrix is numerically singular"
            break
        # L^-1 and M^-1 of [A^T, c, f0] in one pass: the Schur complement
        # of the equality rows is G^T G with G = L^-1 A^T, PSD as computed,
        # and the tau column below needs the other two.
        half = _trtrs(Mf, np.column_stack([A.T, c, f0]), lower=1)[0]
        cols = _trtrs(Mf, half, lower=1, trans=1)[0]
        V, mc, mf = cols[:, :m], cols[:, m], cols[:, m + 1]
        if m:
            Schurf = _chol_ridge(half[:, :m].T @ half[:, :m])
            if Schurf is None:
                status = "numerical-failure"
                message = "equality Schur complement is numerically singular"
                break

        def fixed_tau_step(h, r):
            u = _potrs(Mf, h, lower=1)[0]
            if m:
                v = _potrs(Schurf, r - A @ u, lower=1)[0]
                return u + V @ v, v
            return u, np.zeros(0)

        def scaled_adjoint(Ks):
            h = np.zeros(t)
            for blk, Q, Kb in zip(blocks, Qs, Ks):
                h[blk.var_idx] += np.einsum("ijk,jk->i", Q, Kb)
            return h

        def directions(dx, dtau, Ks):
            dSp, dZp = [], []
            for blk, Q, Kb, rppb, F0t in zip(blocks, Qs, Ks, rpps, F0ts):
                lin_b = dtau * F0t + np.einsum("i,ijk->jk", dx[blk.var_idx], Q)
                dSp.append(lin_b + rppb)
                dZp.append(Kb - lin_b)
            return dSp, dZp

        # the affine-scaling target S~ Z~ = 0, so dS~ + dZ~ = -D
        Ks_aff = [-np.diag(d) - rppb for d, rppb in zip(ds, rpps)]
        if accept:
            # The residuals of the embedding shrink with mu but never vanish,
            # so x/tau still violates the blocks by about pres.  A last step
            # moves x and S alone along the affine-scaling direction at fixed
            # tau: a full step zeros the primal and equality residuals, and
            # the move toward the optimal face sharpens the primal solution.
            dx = fixed_tau_step(scaled_adjoint(Ks_aff) - rd, re_vec)[0]
            dSp = directions(dx, 0.0, Ks_aff)[0]
            ap = min(1.0, STEP_FRACTION * min(_step_bound(d, dS) for d, dS in zip(ds, dSp)))
            x = x + ap * dx
            S = [R @ (np.diag(d) + ap * dS) @ R.T for R, d, dS in zip(Rs, ds, dSp)]
            polished = True
            it += 1
            continue

        # The tau column: [dx; dy] = [u; v] + dtau [p; q] with [u; v] the
        # Newton step at fixed tau and [p; q] solving the same system for
        # the right-hand side [-(c + f0); b].  The pivot den is negative and
        # is summed from its sign-definite parts: near a degenerate optimum
        # ||F0~||^2 and f0^T M^-1 f0 grow large and nearly equal, and their
        # difference alone can round to exactly 0.
        quad_c = float(half[:, m] @ half[:, m])
        quad_f = max(sum(float(np.vdot(F0t, F0t)) for F0t in F0ts)
                     - float(half[:, m + 1] @ half[:, m + 1]), 0.0)
        if m:
            Amc, bf = A @ mc, b + A @ mf
            qc, qb = _potrs(Schurf, np.column_stack([Amc, bf]), lower=1)[0].T
            quad_c = max(quad_c - float(Amc @ qc), 0.0)
            quad_f += max(float(bf @ qb), 0.0)
            q = qc + qb
        else:
            q = np.zeros(0)
        p = V @ q - mc - mf
        den = -(quad_c + quad_f + kappa / tau)

        def kkt_solve(Ks, rtk):
            u, v = fixed_tau_step(scaled_adjoint(Ks) - rd, re_vec)
            r4 = -rg - sum(float(np.vdot(F0t, Kb)) for F0t, Kb in zip(F0ts, Ks)) - rtk / tau
            dtau = (r4 - float((c - f0) @ u) + float(b @ v)) / den
            return u + dtau * p, v + dtau * q, dtau, (rtk - kappa * dtau) / tau

        def step_bound(dSp, dZp, dtau, dkappa):
            return min(min(_step_bound(d, dS, dZ) for d, dS, dZ in zip(ds, dSp, dZp)),
                       -tau / dtau if dtau < 0.0 else np.inf,
                       -kappa / dkappa if dkappa < 0.0 else np.inf)

        # predictor
        dx_a, dy_a, dt_a, dk_a = kkt_solve(Ks_aff, -tau * kappa)
        dSp_a, dZp_a = directions(dx_a, dt_a, Ks_aff)
        a_a = min(1.0, step_bound(dSp_a, dZp_a, dt_a, dk_a))
        mu_aff = (sum(float(np.vdot(np.diag(d) + a_a * dS, np.diag(d) + a_a * dZ))
                      for d, dS, dZ in zip(ds, dSp_a, dZp_a))
                  + (tau + a_a * dt_a) * (kappa + a_a * dk_a)) / (ntot + 1)
        sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3

        # corrector
        Ks = []
        for d, rppb, dS_a, dZ_a in zip(ds, rpps, dSp_a, dZp_a):
            cross = 0.5 * (dS_a @ dZ_a + dZ_a @ dS_a)
            Rc = sigma * mu * np.eye(d.size) - np.diag(d * d) - cross
            G = 2.0 * Rc / np.add.outer(d, d)
            Ks.append(G - rppb)
        dx, dy, dtau, dkappa = kkt_solve(Ks, sigma * mu - tau * kappa - dt_a * dk_a)
        dSp, dZp = directions(dx, dtau, Ks)
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

        x = x + alpha * dx
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa
        S_new, Z_new = [], []
        for R, Rinv, d, dS, dZ in zip(Rs, Rinvs, ds, dSp, dZp):
            Sb = R @ (np.diag(d) + alpha * dS) @ R.T
            Zb = Rinv.T @ (np.diag(d) + alpha * dZ) @ Rinv
            S_new.append(0.5 * (Sb + Sb.T))
            Z_new.append(0.5 * (Zb + Zb.T))
        S, Z = S_new, Z_new
        it += 1

    return SdpSolution(
        status=status, x=x / tau, y=y / tau, z_blocks=[Zb / tau for Zb in Z],
        objective=pobj, dual_objective=dobj, duality_gap=relgap,
        primal_residual=pres, dual_residual=dres, equality_residual=eres,
        iterations=it, history=history, certificate=certificate, message=message)


def feasibility_problem(problem):
    """Phase-I companion: minimize the uniform slack t with every block
    shifted to F(x) + t I >= 0 and t >= -1 capping the objective below."""
    t = problem.num_vars
    blocks = []
    for blk in problem.blocks:
        mats = np.concatenate([blk.mats, np.eye(blk.dim, dtype=complex)[None]])
        idx = np.append(blk.var_idx, t)
        blocks.append(LmiBlock(dim=blk.dim, const=blk.const, var_idx=idx, mats=mats))
    blocks.append(LmiBlock(dim=1, const=np.array([[1.0]]),
                           var_idx=np.array([t]), mats=np.array([[[1.0]]])))
    c = np.zeros(t + 1)
    c[t] = 1.0
    m = problem.eq_rows.shape[0]
    rows = np.hstack([problem.eq_rows, np.zeros((m, 1))]) if m else None
    rhs = problem.eq_rhs if m else None
    return SdpProblem(c=c, blocks=tuple(blocks), eq_rows=rows, eq_rhs=rhs)


def check_feasible(problem, settings=None):
    """Decide feasibility of an SdpProblem by phase-I slack minimization.

    Returns an SdpSolution whose status is 'optimal' (x is a point with
    every block >= -FEASIBLE_MARGIN) or 'infeasible' (certificate attached:
    multipliers with A*(Z) + A^T y = 0, Z >= 0 and <F0, Z> - rhs.y < 0),
    or 'numerical-failure' if the phase-I solve broke down.
    """
    A, b = problem.eq_rows, problem.eq_rhs
    m = A.shape[0]
    if m:
        xh, *_ = np.linalg.lstsq(A, b, rcond=None)
        resid = b - A @ xh
        rnorm = float(np.linalg.norm(resid))
        if rnorm > 1e-8 * (1.0 + float(np.linalg.norm(b))):
            y = resid / rnorm
            return SdpSolution(
                status="infeasible", x=xh, y=y, z_blocks=[],
                objective=math.nan, dual_objective=math.nan, duality_gap=math.nan,
                primal_residual=rnorm, dual_residual=0.0, equality_residual=rnorm,
                iterations=0,
                certificate={"kind": "equality-ray", "y": y,
                             "violation": float(b @ y),
                             "stationarity_residual": float(np.linalg.norm(A.T @ y))},
                message="equality system is inconsistent")
    aux = feasibility_problem(problem)
    sol = solve(aux, settings)
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
    violation = float(b @ y) - sum(float(np.vdot(blk.real_const, Zb))
                                   for blk, Zb in zip(problem.blocks, zs))
    return replace(
        sol, status="infeasible", x=sol.x[:-1].copy(), z_blocks=zs, objective=tstar,
        certificate={"kind": "farkas", "y": y, "z_blocks": zs,
                     "violation": violation,
                     "stationarity_residual": float(np.max(np.abs(station))),
                     "margin": tstar},
        message=f"infeasible: best uniform slack {tstar:.3e}")


def write_sdpa(problem, path):
    """Dump a problem in sparse SDPA format (.dat-s) for cross-checking.

    Layout (fixed, so identical problems give identical bytes): one
    comment line, then m, nblocks, the block size list (LMI blocks in
    order, complex ones realified to twice their size, then two diagonal
    blocks carrying the equalities as paired inequalities), then the
    objective, then entries.  SDPA's constraint reads
    sum_i x_i F_i - F0 >= 0, so constants are negated on output.  Entries
    are emitted for matrix 0, 1, ..., m in order, within a matrix by
    block, within a block by upper-triangle row-major position, skipping
    exact zeros, with 17 significant digits.
    """
    blocks = problem.blocks
    A, b = problem.eq_rows, problem.eq_rhs
    meq = A.shape[0]
    t = problem.num_vars
    sizes = [blk.real_dim for blk in blocks]
    if meq:
        sizes += [-meq, -meq]

    def entries_for(matno):
        # yields (blkno, i, j, value) 1-based, upper triangle
        for bi, blk in enumerate(blocks, start=1):
            mat = None
            if matno == 0:
                mat = -blk.real_const
            else:
                pos = np.flatnonzero(blk.var_idx == matno - 1)
                if pos.size:
                    mat = blk.real_mats[pos[0]]
            if mat is None:
                continue
            for i in range(blk.real_dim):
                for j in range(i, blk.real_dim):
                    v = float(mat[i, j])
                    if v != 0.0:
                        yield bi, i + 1, j + 1, v
        if meq:
            plus, minus = len(blocks) + 1, len(blocks) + 2
            for k in range(meq):
                if matno == 0:
                    vp, vm = float(b[k]), float(-b[k])
                else:
                    vp = float(A[k, matno - 1])
                    vm = -vp
                if vp != 0.0:
                    yield plus, k + 1, k + 1, vp
                if vm != 0.0:
                    yield minus, k + 1, k + 1, vm

    lines = ["* keybound sdpa-sparse dump"]
    lines.append(f"{t}")
    lines.append(f"{len(sizes)}")
    lines.append(" ".join(str(s) for s in sizes))
    lines.append(" ".join(f"{v:.17g}" for v in problem.c))
    for matno in range(t + 1):
        for bi, i, j, v in entries_for(matno):
            lines.append(f"{matno} {bi} {i} {j} {v:.17g}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
