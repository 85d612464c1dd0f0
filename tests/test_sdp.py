import logging

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from keybound.extendibility import pinned_problem
from keybound.protocols import ProtocolSpec, assemble_class, realize_protocol
from keybound.sdp import (
    LmiBlock, SdpProblem, SolverSettings, _chol_ridge, _potrs, _trtrs,
    check_feasible, feasibility_problem, solve, write_sdpa,
)
from helpers import grid_search_minimum, random_box_sdp, random_hermitian

ONE = np.ones((1, 1))


def scalar_block(const, coeff, var=0):
    return LmiBlock(dim=1, const=const * ONE, var_idx=(var,), mats=coeff * ONE[None])


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
    blk = LmiBlock(dim=5, const=-a, var_idx=(0,), mats=np.eye(5)[None])
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-7)


def test_largest_eigenvalue_complex():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 4)
    blk = LmiBlock(dim=4, const=-a, var_idx=(0,), mats=np.eye(4, dtype=complex)[None])
    sol = solve(SdpProblem(c=np.array([1.0]), blocks=[blk]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), abs=1e-7)


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
        LmiBlock(dim=2, const=bad, var_idx=(0,), mats=np.eye(2)[None])


def test_non_hermitian_block_matrix_named_by_index():
    mats = np.stack([np.eye(2)] * 4).astype(complex)
    mats[2, 0, 1] = 1j  # only matrix 2 breaks M = M^+
    with pytest.raises(ValueError, match=r"block matrix 2 is not Hermitian"):
        LmiBlock(dim=2, const=np.zeros((2, 2)), var_idx=range(4), mats=mats)


def test_block_without_variables_rejected():
    with pytest.raises(ValueError, match="at least one variable"):
        LmiBlock(dim=2, const=np.eye(2), var_idx=(), mats=np.zeros((0, 2, 2)))


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
        blk = LmiBlock(dim=1, const=parts["const"], var_idx=(0,),
                       mats=parts["mats"])
        SdpProblem(c=parts["c"], blocks=[blk], eq_rows=parts["eq_rows"],
                   eq_rhs=parts["eq_rhs"])


def test_iteration_cap_returns_last_iterate():
    rng = np.random.default_rng(8)
    prob = random_box_sdp(rng)
    sol = solve(prob, SolverSettings(max_iter=2))
    assert sol.status == "numerical-failure"
    assert sol.x.shape == (prob.num_vars,)
    assert len(sol.history) >= 1


def test_overflowing_gram_matrix_is_a_numerical_failure():
    # (1e200)^2 overflows the Gram matrix M on the first iteration
    prob = SdpProblem(c=[1.0], blocks=(LmiBlock(dim=1, const=[[1.0]], var_idx=[0],
                                                mats=[[[1e200]]]),))
    with pytest.warns(RuntimeWarning, match="overflow"):
        sol = solve(prob)
    assert sol.status == "numerical-failure"
    assert "Gram" in sol.message and "non-finite" in sol.message


@pytest.mark.parametrize("lam", [0.3001, 0.31])
def test_tau_underflow_is_a_numerical_failure(lam):
    # Six-state at e = 0.05 has lambda_max = 0.3, so pinning the weight a
    # little above it gives an infeasible program.  The embedding drives
    # tau towards 0 there without reaching a Farkas certificate; the solve
    # must end before tau ** 2 underflows instead of dividing by zero.
    spec = ProtocolSpec.six_state(0.05)
    povms, data = realize_protocol(spec)
    problem = pinned_problem(assemble_class(povms, data, spec), lam)[0]
    sol = solve(problem)
    assert sol.status == "numerical-failure"
    assert sol.message.startswith("tau underflow")
    assert sol.certificate is None
    assert np.isfinite(sol.x).all() and np.isfinite(sol.y).all()
    assert check_feasible(problem).status == "infeasible"


def test_lapack_helpers_match_scipy_wrappers():
    # solve() calls potrf/potrs/trtrs directly; its output bytes rest on
    # these giving exactly the bits of the scipy wrappers they replace.
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
        # the C-ordered numpy factor of the Nesterov-Todd scaling
        Lc = np.linalg.cholesky(spd)
        assert np.array_equal(_trtrs(Lc.T, np.eye(n), trans=1)[0],
                              solve_triangular(Lc, np.eye(n), lower=True))


def test_feasibility_problem_shape():
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    ph1 = feasibility_problem(prob)
    assert ph1.num_vars == prob.num_vars + 1
    assert len(ph1.blocks) == len(prob.blocks) + 1


GOLDEN_SDPA = """* keybound sdpa-sparse dump
2
3
2 -1 -1
1 2
0 1 1 1 -2
0 1 2 2 -1
0 2 1 1 0.5
0 3 1 1 -0.5
1 1 1 1 1
1 1 1 2 0.5
1 2 1 1 1
1 3 1 1 -1
2 1 2 2 1
2 2 1 1 -1
2 3 1 1 1
"""


def test_sdpa_dump_golden_bytes(tmp_path):
    f1 = np.array([[1.0, 0.5], [0.5, 0.0]])
    f2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    f0 = np.array([[2.0, 0.0], [0.0, 1.0]])
    prob = SdpProblem(
        c=np.array([1.0, 2.0]),
        blocks=[LmiBlock(dim=2, const=f0, var_idx=(0, 1), mats=np.array([f1, f2]))],
        eq_rows=np.array([[1.0, -1.0]]), eq_rhs=np.array([0.5]))
    path = tmp_path / "dump.dat-s"
    text = write_sdpa(prob, path)
    assert text == GOLDEN_SDPA
    assert path.read_text() == GOLDEN_SDPA


def test_sdpa_dump_complex_block_realifies(tmp_path):
    y = np.array([[0, -1j], [1j, 0]])
    prob = SdpProblem(
        c=np.array([1.0]),
        blocks=[LmiBlock(dim=2, const=-y, var_idx=(0,), mats=np.eye(2, dtype=complex)[None])])
    text = write_sdpa(prob, tmp_path / "c.dat-s")
    sizes = text.splitlines()[3]
    assert sizes.strip() == "4"  # 2x2 Hermitian becomes one 4x4 real block


def test_solver_tolerances_are_respected():
    prob = SdpProblem(c=np.array([1.0]), blocks=[scalar_block(-1.0, 1.0)])
    sol = solve(prob, SolverSettings(gap_tol=1e-10, feas_tol=1e-10))
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
