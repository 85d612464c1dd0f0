import logging
import os
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs, solve_triangular

from keybound import sdp
from keybound.extendibility import best_extendible_decomposition, extension_sdp
from keybound.infotheory import JointDistribution
from keybound.protocols import (
    Povm, ProtocolSpec, assemble_class, realize_protocol, simulate_observed_data,
    six_state_povms,
)
from keybound.sdp import (
    LmiBlock, SdpProblem, _chol_ridge, _load_lapack, _potrs, _trtrs, _zgesdd, _zheevr,
    _zpotrf, solve,
)
from keybound.states import DensityOperator, depolarized_bell
from helpers import (check_feasible, feasibility_problem, grid_search_minimum, pinned_problem,
                     random_box_sdp, random_hermitian)

ONE = np.ones((1, 1))


def scalar_block(const, coeff, var=0):
    return LmiBlock(const=const * ONE, var_idx=(var,), mats=coeff * ONE[None])


def test_scalar_bound():
    # min x subject to x >= 1
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    assert sol.duality_gap <= 1e-8


def test_box_lp():
    # min -x - y inside [0,1]^2: optimum -2 at (1,1)
    blocks = [scalar_block(0.0, 1.0, 0), scalar_block(1.0, -1.0, 0),
              scalar_block(0.0, 1.0, 1), scalar_block(1.0, -1.0, 1)]
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
    blk = LmiBlock(const=-a, var_idx=(0,), mats=np.eye(5)[None])
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-7)


def test_largest_eigenvalue_complex():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 4)
    blk = LmiBlock(const=-a, var_idx=(0,), mats=np.eye(4, dtype=complex)[None])
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-7)


def test_solve_runs_blas_at_one_thread_and_restores_the_count(monkeypatch):
    # the OpenBLAS pools numpy and scipy load run the solve at one thread,
    # and the caller's count is back afterwards
    pools = sdp._blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS build with a thread-count setter is loaded")
    saved = [get() for get, _ in pools]
    seen = []
    scaling = sdp._nt_scaling

    def spy(S, Z):
        seen.append([get() for get, _ in pools])
        return scaling(S, Z)

    monkeypatch.setattr(sdp, "_nt_scaling", spy)
    blk = LmiBlock(const=-random_hermitian(np.random.default_rng(2), 4), var_idx=(0,),
                   mats=np.eye(4)[None])
    try:
        for _, put in pools:
            put(2)
        assert solve(SdpProblem(c=np.array([1.0]), blocks=[blk])).status == "optimal"
        assert [get() for get, _ in pools] == [2] * len(pools)
    finally:
        for (_, put), count in zip(pools, saved):
            put(count)
    assert seen and all(counts == [1] * len(pools) for counts in seen)


def test_equality_constrained():
    # min x + y subject to x + y + z = 1, z = 0.25, all in [0, 2]
    blocks = []
    for i in range(3):
        blocks.append(scalar_block(0.0, 1.0, i))
        blocks.append(scalar_block(2.0, -1.0, i))
    prob = SdpProblem(
        c=np.array([1.0, 1.0, 0.0]), blocks=blocks,
        eq_rows=np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
        eq_rhs=np.array([1.0, 0.25]))
    sol = solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.75, abs=1e-7)
    assert sol.equality_residual <= 1e-8


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
    # x >= 1 and -x >= 0: tau -> 0 in the embedding and (y, Z) becomes a
    # Farkas pair, in the format check_feasible reports
    blocks = [scalar_block(-1.0, 1.0), scalar_block(0.0, -1.0)]
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=blocks))
    assert sol.status == "infeasible"
    cert = sol.certificate
    assert cert["kind"] == "farkas"
    assert set(cert) >= {"y", "z_blocks", "violation", "stationarity_residual"}
    z = [float(zb[0, 0]) for zb in cert["z_blocks"]]
    assert min(z) >= 0.0
    assert abs(z[0] - z[1]) <= 1e-6  # A*(Z) = z0 - z1
    assert cert["violation"] == pytest.approx(z[0]) and z[0] > 0.0  # -<F0, Z>


def test_feasible_returns_strict_point():
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    verdict = check_feasible(prob)
    assert verdict.status == "optimal"
    assert float(verdict.x[0]) > 1.0


def test_inconsistent_equalities_detected():
    prob = SdpProblem(
        c=np.array([1.0]), blocks=[scalar_block(0.0, 1.0)],
        eq_rows=np.array([[1.0], [1.0]]), eq_rhs=np.array([0.0, 1.0]))
    verdict = check_feasible(prob)
    assert verdict.status == "infeasible"
    assert verdict.certificate["kind"] == "equality-ray"


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
                      blocks=[scalar_block(0.0, 1.0, 0),
                              scalar_block(1.0, 1.0, 1),
                              scalar_block(1.0, -1.0, 1)])
    sol = solve(prob)
    assert sol.status == "unbounded"


def test_every_variable_must_touch_a_block():
    with pytest.raises(ValueError):
        SdpProblem(c=np.array([1.0, 1.0]), blocks=[scalar_block(0.0, 1.0, 0)])


def test_blocks_must_be_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        LmiBlock(const=bad, var_idx=(0,), mats=np.eye(2)[None])


def test_non_hermitian_block_matrix_named_by_index():
    mats = np.stack([np.eye(2)] * 4).astype(complex)
    mats[2, 0, 1] = 1j  # only matrix 2 breaks M = M^+
    with pytest.raises(ValueError, match=r"block matrix 2 is not Hermitian"):
        LmiBlock(const=np.zeros((2, 2)), var_idx=range(4), mats=mats)


def test_block_without_variables_rejected():
    with pytest.raises(ValueError, match="at least one variable"):
        LmiBlock(const=np.eye(2), var_idx=(), mats=np.zeros((0, 2, 2)))


def _valid_problem_parts():
    return {"const": np.zeros((1, 1)), "mats": np.ones((1, 1, 1)),
            "c": np.array([1.0]), "eq_rows": np.ones((1, 1)),
            "eq_rhs": np.array([1.0])}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["const", "mats", "c", "eq_rows", "eq_rhs"])
def test_non_finite_data_rejected(field, bad):
    parts = _valid_problem_parts()
    parts[field] = parts[field].copy()
    parts[field].flat[0] = bad
    with pytest.raises(ValueError, match=rf"\b{field}\b.*non-finite"):
        blk = LmiBlock(const=parts["const"], var_idx=(0,), mats=parts["mats"])
        SdpProblem(c=parts["c"], blocks=[blk], eq_rows=parts["eq_rows"],
                   eq_rhs=parts["eq_rhs"])


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
    prob = SdpProblem(c=[1.0], blocks=(LmiBlock(const=[[1.0]], var_idx=[0],
                                                mats=[[[1e200]]]),))
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
    assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()
    assert check_feasible(problem).status == "infeasible"


def farkas_violation(problem, cert):
    """(stationarity norm, violation) of a Farkas pair on the caller's program."""
    y, zs = cert["y"], cert["z_blocks"]
    station = problem.eq_rows.T @ y
    for blk, zb in zip(problem.blocks, zs):
        station[blk.var_idx] += np.einsum("ijk,jk->i", blk.mats.conj(), zb).real
    violation = problem.eq_rhs @ y - sum(np.vdot(blk.const, zb).real
                                         for blk, zb in zip(problem.blocks, zs))
    return float(np.linalg.norm(station)), float(violation)


def test_pinned_weight_above_lambda_max_is_certified_infeasible():
    # Pinned at 0.31 the program is infeasible by a margin solve certifies;
    # the certificate holds on the pinned program, equality rows included.
    problem = six_state_pinned(0.31)
    sol = solve(problem)
    assert sol.status == "infeasible", sol.message
    assert sol.certificate["kind"] == "farkas"
    assert min(float(np.linalg.eigvalsh(zb)[0]) for zb in sol.certificate["z_blocks"]) >= -1e-9
    station, violation = farkas_violation(problem, sol.certificate)
    assert station <= 1e-6
    assert violation > 0.0


def test_duplicated_equality_rows_give_the_deduplicated_optimum():
    # rank-deficient rows: every class row twice, plus the sum of two of them
    spec = ProtocolSpec("four-state", e=0.05)
    problem = extension_sdp(assemble_class(*realize_protocol(spec), spec))
    A, b = problem.eq_rows, problem.eq_rhs
    dup = SdpProblem(c=problem.c, blocks=problem.blocks,
                     eq_rows=np.vstack([A, A, A[:1] + A[1:2]]),
                     eq_rhs=np.concatenate([b, b, b[:1] + b[1:2]]))
    ref, sol = solve(problem), solve(dup)
    assert ref.status == sol.status == "optimal"
    assert abs(sol.objective - ref.objective) <= 1e-9
    assert np.max(np.abs(sol.x - ref.x)) <= 1e-7
    assert sol.equality_residual <= 1e-12


def test_inconsistent_rows_end_at_once_with_an_equality_ray():
    prob = SdpProblem(
        c=np.array([1.0]), blocks=[scalar_block(0.0, 1.0)],
        eq_rows=np.array([[1.0], [1.0]]), eq_rhs=np.array([0.0, 1.0]))
    sol = solve(prob)
    assert sol.status == "infeasible"
    assert sol.iterations == 0 and sol.history == []
    cert = sol.certificate
    assert cert["kind"] == "equality-ray"
    # y is a ray of the rows alone: A^T y = 0 and rhs.y > 0
    assert np.linalg.norm(prob.eq_rows.T @ cert["y"]) <= 1e-12
    assert cert["violation"] == pytest.approx(prob.eq_rhs @ cert["y"]) and cert["violation"] > 0.0


def test_weak_duality_holds_in_the_callers_coordinates():
    # solve substitutes the rows away, yet the history, objectives, x and y
    # it reports are those of the program as given, rows included
    rng = np.random.default_rng(17)
    box = random_box_sdp(rng, num_vars=4)
    rows = rng.normal(size=(2, 4))
    rhs = rows @ rng.uniform(-0.1, 0.1, size=4)
    prob = SdpProblem(c=box.c, blocks=box.blocks, eq_rows=rows, eq_rhs=rhs)
    sol = solve(prob)
    assert sol.status == "optimal"
    assert len(sol.history) == sol.iterations + 1
    for rec in sol.history:
        assert rec.primal_obj - rec.dual_obj >= -rec.kappa - 1e-9 * (
            1 + abs(rec.primal_obj) + abs(rec.dual_obj))
    assert sol.objective == pytest.approx(float(prob.c @ sol.x), abs=1e-12)
    assert np.linalg.norm(rows @ sol.x - rhs) <= 1e-12
    station = prob.c - rows.T @ sol.y
    for blk, zb in zip(prob.blocks, sol.z_blocks):
        station[blk.var_idx] -= np.einsum("ijk,jk->i", blk.mats, zb)
    assert np.linalg.norm(station) <= 1e-8 * (1 + np.linalg.norm(prob.c))
    dual = rhs @ sol.y - sum(np.vdot(blk.const, zb) for blk, zb in zip(prob.blocks, sol.z_blocks))
    assert sol.dual_objective == pytest.approx(dual, abs=1e-8)
    assert sol.dual_objective <= sol.objective + 1e-8


@pytest.mark.parametrize("pin", [0.5, 3.0])
def test_rows_that_fix_every_variable(pin):
    # x = pin with 0 <= x <= 2: no variable is left once the row is
    # substituted away, and the iteration decides F(pin) >= 0 alone
    prob = SdpProblem(c=np.array([1.0]),
                      blocks=[scalar_block(0.0, 1.0), scalar_block(2.0, -1.0)],
                      eq_rows=np.array([[1.0]]), eq_rhs=np.array([pin]))
    sol = solve(prob)
    if pin <= 2.0:
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([pin]) and sol.objective == pytest.approx(pin)
    else:
        assert sol.status == "infeasible", sol.message
        station, violation = farkas_violation(prob, sol.certificate)
        assert station <= 1e-8 and violation > 0.0


def test_lapack_helpers_match_scipy_wrappers():
    # solve() calls potrf/potrs/trtrs on M and zpotrf/zgesdd/zheevr on
    # the blocks directly; its output bytes rest on these giving exactly
    # the bits of the scipy wrappers.  zgesdd and zheevr are compared with
    # scipy's routine wrappers at the same (default) workspace:
    # scipy.linalg.svd and eigh query other sizes, with which the routines
    # take other paths at some sizes (with scipy 1.17: real gesdd at
    # n = 33..42, heevr at n = 35 and above).
    gesdd, heevr = get_lapack_funcs(("gesdd", "heevr"), (np.zeros((1, 1), dtype=complex),))
    rng = np.random.default_rng(0)
    for n in range(2, 61):
        G = rng.standard_normal((n, n))
        spd = G @ G.T + n * np.eye(n)
        B = rng.standard_normal((n, 3))
        ref = cho_factor(spd, lower=True)
        L = _chol_ridge(spd)
        assert np.array_equal(L, np.tril(ref[0]))
        for rhs in (B, B[:, 0]):
            assert np.array_equal(_potrs(L, rhs, lower=1)[0], cho_solve(ref, rhs))
        assert np.array_equal(_trtrs(L, B, lower=1)[0],
                              solve_triangular(ref[0], B, lower=True))
        assert np.array_equal(_trtrs(L, B, lower=1, trans=1)[0],
                              solve_triangular(ref[0], B, lower=True, trans="T"))
        H = G + 1j * rng.standard_normal((n, n))
        hpd = H @ H.conj().T + n * np.eye(n)
        assert np.array_equal(_chol_ridge(hpd, _zpotrf),
                              np.tril(cho_factor(hpd, lower=True)[0]))
        for got, want in zip(_zgesdd(H), gesdd(H)):
            assert np.array_equal(got, want)
        herm = H + H.conj().T
        w, _, m, _, info = _zheevr(herm, compute_v=0, range="I", il=1, iu=1, lower=1)
        assert info == 0 and m == 1
        assert np.array_equal(w[:1], heevr(herm, compute_v=0, range="I", il=1, iu=1,
                                           lower=1)[0][:1])


def test_import_leaves_scipy_linalg_unimported():
    # the LAPACK routines are loaded from scipy's _flapack file alone;
    # importing scipy.linalg would be most of keybound's import time
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, keybound, keybound.cli; "
            "print(sorted({'scipy', 'scipy.linalg'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("unloadable", [False, True, None], ids=["absent", "unloadable", "loaded"])
def test_lapack_loader_falls_back_to_get_lapack_funcs(tmp_path, unloadable):
    # no loadable _flapack in the directory: the routines come from
    # scipy.linalg; the same checks hold for those of scipy's own _flapack
    if unloadable:
        (tmp_path / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a library")
    linalg_dir = Path(scipy.linalg.__file__).parent if unloadable is None else tmp_path
    potrf, potrs, trtrs, zpotrf, zgesdd, zheevr = _load_lapack(linalg_dir)
    spd = np.array([[4.0, 2.0], [2.0, 3.0]])
    L, info = potrf(spd, lower=1)
    assert info == 0
    L = np.tril(L)
    assert np.allclose(L @ L.T, spd)
    b = np.array([1.0, 2.0])
    assert np.allclose(spd @ potrs(L, b, lower=1)[0], b)
    assert np.allclose(L @ trtrs(L, b, lower=1)[0], b)
    hpd = np.array([[4.0, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]])
    Lc, info = zpotrf(hpd, lower=1)
    assert info == 0
    Lc = np.tril(Lc)
    assert np.allclose(Lc @ Lc.conj().T, hpd)
    U, s, Vh, info = zgesdd(hpd)
    assert info == 0
    assert np.allclose((U * s) @ Vh, hpd)
    w, _, m, _, info = zheevr(hpd, compute_v=0, range="I", il=1, iu=1, lower=1)
    assert info == m - 1 == 0
    assert w[0] == pytest.approx((7.0 - np.sqrt(21.0)) / 2.0)


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
