import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from keybound import bounds, extendibility, sdp
from keybound.cli import main
from keybound.extendibility import best_extendible_decomposition, extension_sdp
from keybound.infotheory import JointDistribution
from keybound.protocols import (
    EquivalenceClassSpec, InconsistentDataError, Povm, ProtocolSpec, assemble_class,
    class_from_state, realize_protocol, simulate_observed_data, six_state_povms,
)
from keybound.sdp import (
    LmiBlock, SdpProblem, _chol_ridge, _gesdd, _load_lapack, _lowest, _potrf, _potrs,
    _trtrs, solve,
)
from keybound.states import DensityOperator, depolarized_bell
from helpers import (check_feasible, feasibility_problem, grid_search_minimum, pinned_problem,
                     random_box_sdp, random_hermitian, trivial_class)

ONE = np.ones((1, 1))
# the module names of _load_lapack's entry points, in its order
LAPACK_NAMES = ("_potrf", "_potrs", "_trtrs", "_gesdd", "_lowest")


def scalar_block(const, coeff, var=0, num_vars=1):
    """const + coeff * x[var] >= 0 in a program of num_vars variables."""
    return LmiBlock(const=const * ONE, mats=coeff * np.eye(num_vars)[:, var, None, None])


def test_scalar_bound():
    # min x subject to x >= 1
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.duality_gap <= 1e-8


def test_box_lp():
    # min -x - y inside [0,1]^2: optimum -2 at (1,1)
    blocks = [scalar_block(0.0, 1.0, 0, 2), scalar_block(1.0, -1.0, 0, 2),
              scalar_block(0.0, 1.0, 1, 2), scalar_block(1.0, -1.0, 1, 2)]
    prob = SdpProblem(c=np.array([-1.0, -1.0]), blocks=blocks)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0, abs=1e-7)
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-6)


def test_largest_eigenvalue_real():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    a = 0.5 * (a + a.T)
    # min t subject to t I - A >= 0
    blk = LmiBlock(const=-a, mats=np.eye(5)[None])
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-7)


def test_largest_eigenvalue_complex():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 4)
    blk = LmiBlock(const=-a, mats=np.eye(4, dtype=complex)[None])
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-7)


def test_solve_runs_blas_at_one_thread_and_restores_the_count(monkeypatch):
    # numpy's OpenBLAS pool, which solve's LAPACK calls run in, runs the
    # solve at one thread, and the caller's count is back afterwards
    if sdp._OPENBLAS is None:
        pytest.skip("no OpenBLAS build with a thread-count setter is loaded")
    get, put = sdp._OPENBLAS[:2]
    saved = get()
    seen = []
    scaling = sdp._nt_scaling

    def spy(S, Z):
        seen.append(get())
        return scaling(S, Z)

    monkeypatch.setattr(sdp, "_nt_scaling", spy)
    blk = LmiBlock(const=-random_hermitian(np.random.default_rng(2), 4), mats=np.eye(4)[None])
    try:
        put(2)
        assert solve(SdpProblem(c=np.array([1.0]), blocks=[blk])).status == "optimal"
        assert get() == 2
    finally:
        put(saved)
    assert seen and all(count == 1 for count in seen)


@pytest.mark.parametrize("loader", ["bindings", "numpy.linalg"])
def test_identity_start_is_the_scaling_of_identities(monkeypatch, loader):
    # solve's first iteration takes R = R^-1 = I and d = 1 without
    # factorizing S = Z = I, because the factorizations give exactly that,
    # under either LAPACK loader, alone and in stacks (equal, not close;
    # only a zero's sign may differ: zpotrf gives -0.0 entries from n = 33)
    if loader == "numpy.linalg":
        for name, fn in zip(LAPACK_NAMES, _load_lapack(None), strict=True):
            monkeypatch.setattr(sdp, name, fn)
    elif sdp._OPENBLAS is None:
        pytest.skip("numpy bundles no OpenBLAS: the stand-ins are the only path")
    for n in range(1, 37):
        for dtype in (float, complex):
            eye = np.eye(n, dtype=dtype)
            assert np.array_equal(_chol_ridge(eye), eye)
            U, s, Vh = sdp._gesdd(eye)
            assert np.array_equal(U, eye) and np.array_equal(Vh, eye)
            assert np.array_equal(s, np.ones(n))
            for S in (eye, np.stack([eye, eye])):
                R, Rinv, d = sdp._nt_scaling(S, S)
                assert np.array_equal(R, S) and np.array_equal(Rinv, S)
                assert np.array_equal(d, np.ones(S.shape[:-1]))


def shape_mates():
    """Three programs of one shape, two 1 x 1 blocks over one variable:
    infeasible (x >= 1 and -x >= 0), unbounded (min -x over x >= 0) and
    optimal (min x over 1 <= x <= 5)."""
    return [SdpProblem(c=np.array([c]), blocks=[scalar_block(*one), scalar_block(*two)])
            for c, one, two in ((1.0, (-1.0, 1.0), (0.0, -1.0)),
                                (-1.0, (0.0, 1.0), (1.0, 1.0)),
                                (1.0, (-1.0, 1.0), (5.0, -1.0)))]


def solution_bytes(sol):
    cert = sol.certificate or {}
    arrays = [sol.x, *sol.z_blocks, *cert.get("z_blocks", ()), cert.get("x", np.zeros(0))]
    return [np.asarray(a).tobytes() for a in arrays] + [repr(sol.history), repr(cert)]


def test_a_solution_survives_later_solves_of_its_shape():
    # the solver's buffers are made once per program shape and written by
    # every solve of it: what a solve returns must be its own, so its x,
    # z_blocks, certificate and history outlive the solves that follow
    sdp._workspace.cache_clear()
    sols = [solve(problem) for problem in shape_mates()]
    assert [sol.status for sol in sols] == ["infeasible", "unbounded", "optimal"]
    assert sdp._workspace.cache_info().misses == 1
    kept = [solution_bytes(sol) for sol in sols]
    for problem in shape_mates()[::-1]:
        solve(problem)
    assert [solution_bytes(sol) for sol in sols] == kept


@pytest.mark.parametrize("dtype", [float, complex])
def test_equal_size_blocks_give_one_optimum_in_any_order(dtype):
    # consecutive blocks of one size are iterated as one stack: blocks of
    # sizes (a, a, b), (a, b, a) and (b, a, a) are the same program, with
    # one run of two blocks, or two runs of one a apart
    rng = np.random.default_rng(8)

    def herm(n):
        g = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if dtype is complex else 0.0)
        return 0.5 * (g + g.conj().T)

    def pd(n):
        g = herm(n)
        return g @ g.conj().T + np.eye(n)

    mats = np.array([herm(3) for _ in range(3)])
    # -C1 <= F(x) <= C2 bounds x; the 2 x 2 block cuts into that box
    a1, a2 = LmiBlock(const=pd(3), mats=mats), LmiBlock(const=pd(3), mats=-mats)
    b = LmiBlock(const=pd(2), mats=np.array([herm(2) for _ in range(3)]))
    c = rng.normal(size=3)
    sols = [solve(SdpProblem(c=c, blocks=order))
            for order in ((a1, a2, b), (a1, b, a2), (b, a1, a2))]
    assert [sol.status for sol in sols] == ["optimal"] * 3
    for sol in sols[1:]:
        assert abs(sol.objective - sols[0].objective) <= 1e-8


def test_dual_objective_sandwiches_primal():
    rng = np.random.default_rng(5)
    prob = random_box_sdp(rng)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.dual_objective <= sol.objective + 1e-6


@pytest.mark.parametrize("seed", [2, 3, 4, 7, 11])
def test_random_instances_match_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    prob = random_box_sdp(rng)
    sol = solve(prob)
    assert sol.status == "optimal"
    oracle_val, _ = grid_search_minimum(prob)
    assert sol.objective == pytest.approx(oracle_val, abs=1e-3)


def test_weak_duality_holds_at_every_iterate():
    rng = np.random.default_rng(13)
    for _ in range(3):
        prob = random_box_sdp(rng)
        sol = solve(prob)
        for rec in sol.history:
            # pobj - dobj >= -(residual budget): exact identity up to roundoff
            assert rec.primal_obj - rec.dual_obj >= -rec.kappa - 1e-9 * (
                1 + abs(rec.primal_obj) + abs(rec.dual_obj))


def test_block_order_invariance():
    rng = np.random.default_rng(21)
    prob = random_box_sdp(rng)
    rev = SdpProblem(c=prob.c, blocks=list(prob.blocks)[::-1])
    a, b = solve(prob), solve(rev)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-7)


def test_objective_scaling():
    rng = np.random.default_rng(22)
    prob = random_box_sdp(rng)
    scaled = SdpProblem(c=10.0 * prob.c, blocks=prob.blocks)
    a, b = solve(prob), solve(scaled)
    assert b.objective == pytest.approx(10.0 * a.objective, rel=1e-6, abs=1e-6)


def test_infeasible_gives_certificate():
    blocks = [scalar_block(-1.0, 1.0), scalar_block(0.0, -1.0)]
    prob = SdpProblem(c=np.array([1.0]), blocks=blocks)
    verdict = check_feasible(prob)
    assert verdict.status == "infeasible"
    cert = verdict.certificate
    assert cert["kind"] == "farkas"
    assert cert["violation"] > 1e-6
    assert cert["stationarity_residual"] <= 1e-6
    # certificate blocks must be PSD
    for zb in cert["z_blocks"]:
        assert float(np.linalg.eigvalsh(zb)[0]) >= -1e-9


def test_solve_certifies_infeasibility_directly():
    # x >= 1 and -x >= 0: tau -> 0 in the embedding and Z becomes a
    # Farkas certificate, in the format check_feasible reports
    blocks = [scalar_block(-1.0, 1.0), scalar_block(0.0, -1.0)]
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=blocks))
    assert sol.status == "infeasible"
    cert = sol.certificate
    assert cert["kind"] == "farkas"
    assert set(cert) >= {"z_blocks", "violation", "stationarity_residual"}
    z = [float(zb[0, 0]) for zb in cert["z_blocks"]]
    assert min(z) >= 0.0
    assert abs(z[0] - z[1]) <= 1e-6  # A*(Z) = z0 - z1
    assert cert["violation"] == pytest.approx(z[0]) and z[0] > 0.0  # -<F0, Z>


def test_feasible_returns_strict_point():
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    verdict = check_feasible(prob)
    assert verdict.status == "optimal"
    assert float(verdict.x[0]) > 1.0


def test_unbounded_detected():
    prob = SdpProblem(c=np.array([-1.0]), blocks=[scalar_block(0.0, 1.0)])
    sol = solve(prob)
    assert sol.status == "unbounded"
    assert sol.certificate is not None


def test_dual_infeasibility_detected():
    # max x (min -x) with x <= 1 has a bounded optimum; removing the cap
    # while constraining nothing dual-side: -x >= 0 and objective +x has
    # optimum 0; instead test an unattainable dual via x free in one block
    prob = SdpProblem(c=np.array([-1.0, 0.0]),
                      blocks=[scalar_block(0.0, 1.0, 0, 2),
                              scalar_block(1.0, 1.0, 1, 2),
                              scalar_block(1.0, -1.0, 1, 2)])
    sol = solve(prob)
    assert sol.status == "unbounded"


def test_every_variable_must_touch_a_block():
    # x_1's matrices are zero in every block, which would make the Gram
    # matrix M singular
    for blocks in ([scalar_block(0.0, 1.0, 0, 2)],
                   [LmiBlock(const=np.eye(2), mats=[np.eye(2), np.zeros((2, 2))])],
                   [scalar_block(0.0, 1.0, 0, 2), scalar_block(1.0, -1.0, 0, 2)]):
        with pytest.raises(ValueError, match="variable 1 is zero in every block"):
            SdpProblem(c=np.array([1.0, 1.0]), blocks=blocks)
    # a variable needs a nonzero matrix in one block only
    SdpProblem(c=np.array([1.0, 1.0]),
               blocks=[scalar_block(0.0, 1.0, 0, 2), scalar_block(1.0, -1.0, 1, 2)])


def test_blocks_must_be_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        LmiBlock(const=bad, mats=np.eye(2)[None])


def test_non_hermitian_block_matrix_named_by_index():
    mats = np.stack([np.eye(2)] * 4).astype(complex)
    mats[2, 0, 1] = 1j  # only matrix 2 breaks M = M^+
    with pytest.raises(ValueError, match=r"block matrix 2 is not Hermitian"):
        LmiBlock(const=np.zeros((2, 2)), mats=mats)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_block_needs_one_matrix_per_variable(count):
    blk = LmiBlock(const=np.eye(2), mats=np.ones((count, 2, 2)))
    with pytest.raises(ValueError, match=r"one matrix per variable \(2\)"):
        SdpProblem(c=np.array([1.0, 1.0]), blocks=[blk])


@pytest.mark.parametrize("shape", [(2, 2), (1, 2, 3), (1, 3, 3)])
def test_block_matrices_must_match_the_const(shape):
    with pytest.raises(ValueError, match=r"mats must be \(num_vars, dim, dim\)"):
        LmiBlock(const=np.eye(2), mats=np.ones(shape))


def _valid_problem_parts():
    return {"const": np.zeros((1, 1)), "mats": np.ones((1, 1, 1)),
            "c": np.array([1.0])}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["const", "mats", "c"])
def test_non_finite_data_rejected(field, bad):
    parts = _valid_problem_parts()
    parts[field] = parts[field].copy()
    parts[field].flat[0] = bad
    with pytest.raises(ValueError, match=rf"\b{field}\b.*non-finite"):
        blk = LmiBlock(const=parts["const"], mats=parts["mats"])
        SdpProblem(c=parts["c"], blocks=[blk])


def test_iteration_cap_returns_last_iterate(monkeypatch):
    monkeypatch.setattr("keybound.sdp.MAX_ITER", 2)
    rng = np.random.default_rng(8)
    prob = random_box_sdp(rng)
    sol = solve(prob)
    assert sol.status == "numerical-failure"
    assert sol.x.shape == (prob.num_vars,)
    assert len(sol.history) >= 1


def test_overflowing_gram_matrix_is_a_numerical_failure():
    # (1e200)^2 overflows the Gram matrix M on the first iteration
    prob = SdpProblem(c=[1.0], blocks=(LmiBlock(const=[[1.0]], mats=[[[1e200]]]),))
    with pytest.warns(RuntimeWarning, match="overflow"):
        sol = solve(prob)
    assert sol.status == "numerical-failure"
    assert "Gram" in sol.message and "non-finite" in sol.message


def six_state_pinned(lam):
    # Six-state at e = 0.05 has lambda_max = 0.3, so pinning the weight
    # above it gives an infeasible program.
    spec = ProtocolSpec("six-state", e=0.05)
    povms, data = realize_protocol(spec)
    return pinned_problem(assemble_class(povms, data, spec), lam)


@pytest.mark.parametrize("lam", [0.3001])
def test_tau_underflow_is_a_numerical_failure(lam):
    # Just above lambda_max the embedding drives tau towards 0 without
    # reaching a Farkas certificate; the solve must end before tau ** 2
    # underflows instead of dividing by zero.
    problem = six_state_pinned(lam)
    sol = solve(problem)
    assert sol.status == "numerical-failure"
    assert sol.message.startswith("tau underflow")
    assert sol.certificate is None
    assert np.isfinite(sol.x).all()
    assert check_feasible(problem).status == "infeasible"


def farkas_violation(problem, cert):
    """(||A*(Z)||, -<F0, Z>) of a Farkas certificate on the program."""
    zs = cert["z_blocks"]
    station = sum(np.einsum("ijk,jk->i", blk.mats.conj(), zb).real
                  for blk, zb in zip(problem.blocks, zs))
    violation = -sum(np.vdot(blk.const, zb).real for blk, zb in zip(problem.blocks, zs))
    return float(np.linalg.norm(station)), float(violation)


def test_pinned_weight_above_lambda_max_is_certified_infeasible():
    # Pinned at 0.31 the program is infeasible by a margin solve certifies;
    # the certificate holds on the pinned program.
    problem = six_state_pinned(0.31)
    sol = solve(problem)
    assert sol.status == "infeasible", sol.message
    assert sol.certificate["kind"] == "farkas"
    assert min(float(np.linalg.eigvalsh(zb)[0]) for zb in sol.certificate["z_blocks"]) >= -1e-9
    station, violation = farkas_violation(problem, sol.certificate)
    assert station <= 1e-6
    assert violation > 0.0


def test_duplicated_equality_rows_give_the_deduplicated_optimum():
    # rank-deficient rows: every class row twice, plus the sum of two of
    # them, which extension_sdp substitutes away by one SVD.  The optimal
    # face is not a point, so each solve is checked for what holds on all
    # of it: the optimum, PSD blocks, and an r that meets its rows.
    spec = ProtocolSpec("four-state", e=0.05)
    cls = assemble_class(*realize_protocol(spec), spec)
    A, b = cls.rows, cls.rhs
    dup = EquivalenceClassSpec(dims=cls.dims, rows=np.vstack([A, A, A[:1] + A[1:2]]),
                               rhs=np.concatenate([b, b, b[:1] + b[1:2]]))
    problem, dup_problem = extension_sdp(cls), extension_sdp(dup)
    assert dup_problem.num_vars == problem.num_vars
    ref, sol = solve(problem), solve(dup_problem)
    assert ref.status == sol.status == "optimal"
    assert abs(sol.objective - ref.objective) <= 1e-9
    for c, prob, s in ((cls, problem, ref), (dup, dup_problem, sol)):
        for blk in prob.blocks:
            value = blk.const + np.tensordot(s.x, blk.mats, 1)
            assert np.linalg.eigvalsh(value)[0] >= -1e-9
        keep, pinv, N = extendibility._row_set(c.rows.tobytes(), c.rows.shape,
                                               tuple(c.dims))[:3]
        r = pinv @ c.rhs[keep] + N @ s.x[prob.num_vars - N.shape[1]:]
        assert np.linalg.norm(c.rows @ r - c.rhs) <= 1e-12


def test_inconsistent_class_rows_raise():
    cls = trivial_class((2, 2))
    bad = EquivalenceClassSpec(dims=cls.dims, rows=np.vstack([cls.rows, cls.rows]),
                               rhs=np.array([1.0, 0.5]))
    # no r meets both rows: the second repeats the first, and r_00 = 1,
    # the least squares of the first alone, misses it by 0.5, so
    # extension_sdp refuses the data as assemble_class and the witness ray
    # do, with the relative miss as the residual
    with pytest.raises(InconsistentDataError, match="no state meets the class rows") as exc:
        extension_sdp(bad)
    want = 0.5 / (1.0 + np.linalg.norm([1.0, 0.5]))
    assert exc.value.residual == pytest.approx(want, rel=1e-12)


def test_lapack_bindings_match_numpy_linalg():
    # solve's output bytes rest on its LAPACK calls giving fixed bits.
    # _potrf (dpotrf, zpotrf) gives those of numpy.linalg.cholesky, and
    # _gesdd (dgesdd, zgesdd) those of numpy.linalg.svd, which call the
    # same routine of the same library.  The SVDs are compared at the
    # solver's sizes: svd queries its workspace, and with that larger one
    # the routines take other paths at n = 33..42 (dgesdd) and from n = 46
    # (zgesdd), 1e-15 apart.
    rng = np.random.default_rng(0)
    for n in range(2, 61):
        G = rng.standard_normal((n, n))
        H = G + 1j * rng.standard_normal((n, n))
        spd, hpd = G @ G.T + n * np.eye(n), H @ H.conj().T + n * np.eye(n)
        for mat in (spd, hpd):
            L = _potrf(mat)
            assert L is not None and L.flags.f_contiguous
            assert L.tobytes() == np.asfortranarray(np.linalg.cholesky(mat)).tobytes()
        if n <= 32:
            for mat in (G, H):
                for x, y in zip(_gesdd(mat), np.linalg.svd(mat), strict=True):
                    assert np.array_equal(x, y)


def test_lapack_results_outlive_the_next_call_of_their_size():
    # _potrf, _potrs and _trtrs return new arrays, not views of their
    # per-size buffers: the solver holds two results of one size at once
    # (Ls and Lz in _nt_scaling, the polish step's fix and dw, half and
    # (mc, mf)), so a second call with other input leaves the first result
    # as it was, in real and in complex arithmetic
    rng = np.random.default_rng(4)
    n = 6
    G = rng.standard_normal((2, n, n))
    H = G + 1j * rng.standard_normal((2, n, n))
    spd = G @ G.transpose(0, 2, 1) + n * np.eye(n)
    hpd = H @ H.conj().transpose(0, 2, 1) + n * np.eye(n)
    L = _potrf(spd[0])
    B = rng.standard_normal((2, n, 2))
    calls = [(_potrf, spd), (_potrf, hpd)] + [
        (call, rhs) for rhs in (B, B[:, :, 0])
        for call in (lambda b: _potrs(L, b), lambda b: _trtrs(L, b, 0),
                     lambda b: _trtrs(L, b, 1))]
    for call, (a, b) in calls:
        first = call(a)
        kept = first.copy()
        second = call(b)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)


def test_lapack_helpers_match_scipy_wrappers():
    # dpotrs, dtrtrs, zheevr and dsyevr, which numpy.linalg does not call,
    # and the SVDs at every size give the bits of scipy's wrappers of the
    # same routines (in scipy's own OpenBLAS build), called with the same
    # (default) workspaces: scipy.linalg.svd and eigh query other sizes.
    # scipy is needed for the tests only.
    lapack = pytest.importorskip("scipy.linalg.lapack")
    ev = dict(compute_v=0, range="I", il=1, iu=1, lower=1)
    rng = np.random.default_rng(0)
    for n in range(2, 61):
        G = rng.standard_normal((n, n))
        L = _chol_ridge(G @ G.T + n * np.eye(n))
        B = rng.standard_normal((n, 3))
        for rhs in (B, B[:, 0]):
            assert np.array_equal(_potrs(L, rhs), lapack.dpotrs(L, rhs, lower=1)[0])
        for trans in (0, 1):
            assert np.array_equal(_trtrs(L, B, trans),
                                  lapack.dtrtrs(L, B, lower=1, trans=trans)[0])
        H = G + 1j * rng.standard_normal((n, n))
        for ref, mat in ((lapack.dgesdd, G), (lapack.zgesdd, H)):
            *usv, info = ref(mat)
            assert info == 0
            for got, want in zip(_gesdd(mat), usv, strict=True):
                assert np.array_equal(got, want)
        for ref, mat in ((lapack.zheevr, H + H.conj().T), (lapack.dsyevr, G + G.T)):
            w, _, m, _, info = ref(mat, **ev)
            assert info == 0 and m == 1
            assert np.array_equal(_lowest(mat), w[0])


def test_import_leaves_scipy_linalg_unimported():
    # the LAPACK routines are called in numpy's own OpenBLAS: no scipy
    # module is loaded, by the import or by a solve
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, keybound, keybound.cli\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "keybound.one_way_upper_bound(keybound.ProtocolSpec('six-state', e=0.05))\n"
            "print(scipy())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "[]"]


@pytest.mark.parametrize("unloadable", [False, True, None], ids=["absent", "unloadable", "loaded"])
def test_lapack_loader_falls_back_to_get_lapack_funcs(tmp_path, unloadable):
    # (named for the scipy.linalg fallback the numpy.linalg stand-ins
    # replaced) no loadable OpenBLAS in the directory: the routines are the
    # stand-ins; the same checks hold for the bindings into numpy's own
    if unloadable:
        (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    libs = sdp._NUMPY_LIBS if unloadable is None else tmp_path
    openblas = sdp._find_openblas(libs)
    if unloadable is None and openblas is None:
        pytest.skip("numpy bundles no OpenBLAS: the stand-ins are the only path")
    assert (openblas is None) == (unloadable is not None)
    potrf, potrs, trtrs, gesdd, lowest = _load_lapack(openblas)
    assert all(("_numpy_lapack" in fn.__qualname__) == (openblas is None)
               for fn in (potrf, potrs, trtrs, gesdd, lowest))
    spd = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = potrf(spd)
    assert np.array_equal(L, np.tril(L))
    assert np.allclose(L @ L.T, spd)
    assert potrf(-spd) is None
    b = np.array([1.0, 2.0])
    assert np.allclose(spd @ potrs(L, b), b)
    assert np.allclose(L @ trtrs(L, b, 0), b)
    assert np.allclose(L.T @ trtrs(L, b, 1), b)
    hpd = np.array([[4.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]])
    Lc = potrf(hpd)
    assert np.array_equal(Lc, np.tril(Lc))
    assert np.allclose(Lc @ Lc.conj().T, hpd)
    assert potrf(-hpd) is None
    U, s, Vh = gesdd(hpd)
    assert np.allclose((U * s) @ Vh, hpd)
    assert lowest(hpd) == pytest.approx((7.0 - np.sqrt(21.0)) / 2.0)
    # the real SVD and lowest eigenvalue, as a real program calls them
    U, s, Vt = gesdd(spd)
    assert np.allclose((U * s) @ Vt, spd)
    assert lowest(spd) == pytest.approx((7.0 - np.sqrt(17.0)) / 2.0)


def test_numpy_linalg_stand_ins_match_the_bindings(monkeypatch):
    # where numpy bundles no OpenBLAS, the routines are numpy.linalg
    # stand-ins; forced here, a qubit point and a full-rank (2, 3)
    # decomposition agree with those of the ctypes bindings to 1e-7
    if sdp._find_openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS: the stand-ins are the only path")
    g = np.random.default_rng(0).standard_normal((6, 6))
    mat = g @ g.T + np.eye(6)
    state = DensityOperator(mat / np.trace(mat), (2, 3))
    spec = ProtocolSpec("four-state", e=0.05)

    def run():
        point = bounds.one_way_upper_bound(spec)
        return point, best_extendible_decomposition(class_from_state(state))

    ref_point, ref_dec = run()
    stand_ins = _load_lapack(None)
    assert all(fn.__module__ == "keybound.sdp" and "_numpy_lapack" in fn.__qualname__
               for fn in stand_ins)
    for name, fn in zip(LAPACK_NAMES, stand_ins, strict=True):
        monkeypatch.setattr(sdp, name, fn)
    point, dec = run()
    assert point.status == ref_point.status == "optimal"
    assert abs(point.lambda_max - ref_point.lambda_max) <= 1e-7
    assert abs(point.upper_bound - ref_point.upper_bound) <= 1e-7
    assert abs(dec.lambda_max - ref_dec.lambda_max) <= 1e-7
    assert np.max(np.abs(dec.rho_star.matrix - ref_dec.rho_star.matrix)) <= 1e-7


def failing_from(call, monkeypatch, every=False):
    """Make the step-length eigensolve sdp._lowest raise the LinAlgError
    of a failed eigensolve at its call-th call (and after it, with
    every)."""
    count = [0]
    lowest = sdp._lowest

    def failing(X):
        count[0] += 1
        if count[0] >= call if every else count[0] == call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return lowest(X)
    monkeypatch.setattr(sdp, "_lowest", failing)


def test_step_length_eigensolve_failure_ends_the_solve(monkeypatch):
    # a step length whose eigensolve fails ends the run as
    # numerical-failure with its message, like a failed scaling
    problem = extendibility.build_sdp(assemble_class(*realize_protocol(SIX_STATE), SIX_STATE))[0]
    failing_from(5, monkeypatch)
    sol = solve(problem)
    assert sol.status == "numerical-failure"
    assert sol.message == "Eigenvalues did not converge"
    assert sol.iterations < 3 and np.isfinite(sol.x).all()


def test_step_length_eigensolve_failures_give_a_failed_point(monkeypatch, capsys):
    # every solve after the fourth step-length eigensolve fails: the point
    # is failed, not raised, and the CLI exits 1 (solver failure), not 2
    failing_from(5, monkeypatch, every=True)
    point = bounds.one_way_upper_bound(ProtocolSpec("four-state", e=0.05))
    assert point.status == "failed"
    monkeypatch.undo()
    failing_from(5, monkeypatch, every=True)
    assert main(["bound", "--protocol", "four-state", "--e", "0.05"]) == 1
    assert "status: failed" in capsys.readouterr().out


SIX_STATE = ProtocolSpec("six-state", e=0.1)


@pytest.mark.parametrize("build", [
    lambda: scalar_block(-1.0, 1.0),
    lambda: SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)]),
    lambda: Povm(np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), ("0", "1")),
    lambda: simulate_observed_data(depolarized_bell(0.1), six_state_povms()),
    lambda: assemble_class(*realize_protocol(SIX_STATE), SIX_STATE),
    lambda: DensityOperator(np.eye(4) / 4, (2, 2)),
    lambda: JointDistribution(np.full((2, 2), 0.25)),
    lambda: best_extendible_decomposition(
        assemble_class(*realize_protocol(SIX_STATE), SIX_STATE)),
], ids=["LmiBlock", "SdpProblem", "Povm", "ObservedData", "EquivalenceClassSpec",
        "DensityOperator", "JointDistribution", "ExtendibilityResult"])
def test_equality_of_array_records_is_a_bool(build):
    # these records hold arrays, so they compare by identity; a field-wise
    # == would raise "truth value of an array ... is ambiguous"
    a, b = build(), build()
    assert (a == b) is False
    assert (a == a) is True


def test_feasibility_problem_shape():
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    ph1 = feasibility_problem(prob)
    assert ph1.num_vars == prob.num_vars + 1
    assert len(ph1.blocks) == len(prob.blocks) + 1


def test_solver_tolerances_are_respected():
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.duality_gap <= 1e-10


def test_solve_logs_each_iterate_at_debug(caplog, capsys):
    rng = np.random.default_rng(13)
    prob = random_box_sdp(rng)
    with caplog.at_level(logging.DEBUG, logger="keybound.sdp"):
        sol = solve(prob)
    lines = [r for r in caplog.records if r.name == "keybound.sdp"]
    assert len(lines) == len(sol.history)
    for rec, it in zip(lines, sol.history):
        assert rec.levelno == logging.DEBUG
        assert rec.getMessage().startswith(f"it {it.iteration:3d}  pobj")
    assert capsys.readouterr().out == ""
