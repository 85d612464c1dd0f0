import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from keybound import bounds, extendibility
from keybound.basis import build_basis, expand
from keybound.bounds import find_cutoff
from keybound.extendibility import (
    LAMBDA_TOL, SUPPORT_TOL, _extension_structure, best_extendible_decomposition,
    build_sdp, extension_sdp, verify_extension,
)
from keybound.protocols import (
    EquivalenceClassSpec, ProtocolSpec, assemble_class, class_from_state,
    realize_protocol,
)
from keybound.sdp import SolverError, solve
from keybound.states import (DensityOperator, bell_psi_plus, depolarized_bell,
                             partial_trace_matrix, swap_last_two)
from helpers import (assert_ray_proves_no_state, check_feasible, chi_reference,
                     extend_qutrit_stream_state, lambda_bisection_oracle,
                     min_block_eigenvalue, pinned_problem, three_block_reference,
                     trivial_class)


def six_state_class(e):
    spec = ProtocolSpec("six-state", e=e)
    povms, data = realize_protocol(spec)
    return assemble_class(povms, data, spec)


LAYOUT_SIZES = {(2, 2): (16, 40, 56), (2, 3): (36, 180, 216)}


def test_variable_layout_counts():
    for dims, (n_r, n_f, total) in LAYOUT_SIZES.items():
        cls = trivial_class(dims)
        prob = extension_sdp(cls)
        c, blocks = _extension_structure(dims)
        assert cls.rows.shape[1] == n_r
        assert blocks[1].mats.shape[0] == n_f
        assert c.size == prob.num_vars == total
        # r then f, and the class rows are the only equalities
        assert np.array_equal(blocks[1].var_idx, n_r + np.arange(n_f))
        assert prob.eq_rows.shape[0] == cls.rows.shape[0]


@pytest.mark.parametrize("dims", sorted(LAYOUT_SIZES))
def test_chi_stack_matches_kronecker_reference(dims):
    chi_mats = _extension_structure(dims)[1][1].mats
    rng = np.random.default_rng(sum(dims))
    for _ in range(3):
        f = rng.normal(size=chi_mats.shape[0])
        stacked = np.tensordot(f, chi_mats, 1)
        assert np.max(np.abs(stacked - chi_reference(f, dims))) <= 1e-12


def test_build_sdp_shares_structure_per_dims():
    # the witness blocks depend only on the rows, the objective -b on the data
    p1, dims1 = build_sdp(six_state_class(0.05))
    p2, dims2 = build_sdp(six_state_class(0.10))
    assert dims1 == dims2 == (2, 2)
    assert all(a is b for a, b in zip(p1.blocks, p2.blocks))
    assert not np.array_equal(p1.c, p2.c)
    # the extension program's objective and blocks are one structure per dims
    e1, e2 = extension_sdp(six_state_class(0.05)), extension_sdp(six_state_class(0.10))
    assert all(a is b for a, b in zip(e1.blocks, e2.blocks))
    assert _extension_structure((2, 2)) is _extension_structure((2, 2))
    assert _extension_structure((2, 3)) is not _extension_structure((2, 2))


def test_cached_structure_is_read_only():
    c, blocks = _extension_structure((2, 2))
    arrays = [c, blocks[1].mats]
    for blk in blocks:
        arrays += [blk.const, blk.mats, blk.var_idx]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_sdp_structure():
    cls = six_state_class(0.05)
    prob = extension_sdp(cls)
    n_r = cls.rows.shape[1]
    assert [b.dim for b in prob.blocks] == [4, 8]
    # equalities: the class rows only, on r
    assert prob.eq_rows.shape == (cls.rows.shape[0], 56)
    assert not prob.eq_rows[:, n_r:].any()
    # objective rewards the non-extendible weight only
    assert prob.c[0] == 1.0
    assert prob.c[n_r] == -1.0   # f_000
    assert np.count_nonzero(prob.c) == 2


def test_witness_program_structure():
    cls = six_state_class(0.05)
    prob, _ = build_sdp(cls)
    m = cls.rows.shape[0]
    # one variable per class row, no equalities, objective -b.y
    assert prob.num_vars == m and prob.eq_rows.shape == (0, m)
    assert np.array_equal(prob.c, -cls.rhs)
    # complex blocks W(y) >= 0 on A B and sym(W(y) (x) I_B') - I >= 0 on A B B'
    assert [b.dim for b in prob.blocks] == [4, 8]
    assert np.array_equal(prob.blocks[0].const, np.eye(4))
    assert not prob.blocks[1].const.any()
    # Tr(O_j rho) = (A r)_j
    rho = depolarized_bell(0.05).matrix
    r = expand(rho, (build_basis(2),) * 2).ravel()
    traces = -np.einsum("jkl,lk->j", prob.blocks[0].mats, rho).real
    assert np.max(np.abs(traces - cls.rows @ r)) <= 1e-12
    # on a swap-symmetric X, sym(O_j (x) I_B') pairs as O_j with Tr_B'(X)
    P = swap_last_two((2, 2))
    X = np.kron(rho, np.eye(2))
    X = X + P @ X @ P
    marginal = partial_trace_matrix(X, (2, 2, 2), keep=(0, 1))
    r = expand(marginal, (build_basis(2),) * 2).ravel()
    traces = -np.einsum("jkl,lk->j", prob.blocks[1].mats, X).real
    assert np.max(np.abs(traces - cls.rows @ r)) <= 1e-12


def test_bell_state_not_extendible():
    cls = class_from_state(bell_psi_plus())
    res = best_extendible_decomposition(cls)
    assert res.lambda_max == pytest.approx(0.0, abs=1e-6)
    assert res.sigma_ext is None
    assert res.chi is None
    assert np.allclose(res.rho_ne.matrix, bell_psi_plus().matrix, atol=1e-6)
    assert not res.extendible


def test_maximally_mixed_is_extendible():
    cls = class_from_state(DensityOperator(np.eye(4) / 4, (2, 2)))
    res = best_extendible_decomposition(cls)
    assert res.lambda_max == pytest.approx(1.0, abs=1e-6)
    assert res.rho_ne is None
    assert res.extendible


@pytest.mark.parametrize("e,lam", [(0.05, 0.30), (0.10, 0.60), (0.15, 0.90)])
def test_six_state_weight_law(e, lam):
    res = best_extendible_decomposition(six_state_class(e))
    assert res.lambda_max == pytest.approx(lam, abs=2e-6)
    assert np.allclose(res.rho_star.matrix, depolarized_bell(e).matrix, atol=1e-5)


def test_four_state_dominates_six_state():
    for e in (0.04, 0.1):
        spec4 = ProtocolSpec("four-state", e=e)
        povms, data = realize_protocol(spec4)
        cls4 = assemble_class(povms, data, spec4)
        lam4 = best_extendible_decomposition(cls4).lambda_max
        lam6 = best_extendible_decomposition(six_state_class(e)).lambda_max
        # fewer constraints admit more extendible mass
        assert lam4 >= lam6 - 1e-6


def test_verification_report_passes_on_solver_output():
    res = best_extendible_decomposition(six_state_class(0.08))
    rep = verify_extension(res)
    assert rep.passed
    assert rep.decomposition_residual <= rep.tolerances["decomposition"]
    assert rep.swap_residual <= rep.tolerances["swap"]
    assert rep.partial_trace_residual <= rep.tolerances["partial_trace"]
    assert rep.marginal_residual <= rep.tolerances["marginal"]
    assert min(rep.min_eigenvalues.values()) >= rep.tolerances["psd_floor"]


def test_verification_catches_tampered_sigma():
    res = best_extendible_decomposition(six_state_class(0.08))
    wrong = DensityOperator(np.eye(4) / 4, (2, 2))
    tampered = dataclasses.replace(res, sigma_ext=wrong)
    rep = verify_extension(tampered)
    assert not rep.passed
    assert rep.decomposition_residual > rep.tolerances["decomposition"]


def test_verification_catches_broken_swap_symmetry():
    res = best_extendible_decomposition(six_state_class(0.08))
    v = np.zeros(8)
    v[1] = 1.0  # |0,0,1>: swapping the last two slots moves it to |0,1,0>
    t = 1e-6
    mixed = (1 - t) * res.chi.matrix + t * np.outer(v, v)
    tampered = dataclasses.replace(res, chi=DensityOperator(mixed, dims=(2, 2, 2)))
    rep = verify_extension(tampered)
    assert not rep.passed
    assert rep.swap_residual > rep.tolerances["swap"]


def test_pinned_feasibility_brackets_optimum():
    cls = six_state_class(0.06)
    below = check_feasible(pinned_problem(cls, 0.30))
    above = check_feasible(pinned_problem(cls, 0.42))
    assert below.status == "optimal"
    assert above.status == "infeasible"


def test_bisection_oracle_agrees():
    cls = six_state_class(0.05)
    lam_oracle = lambda_bisection_oracle(cls, tol=5e-4)
    res = best_extendible_decomposition(cls)
    assert res.lambda_max == pytest.approx(lam_oracle, abs=5e-4)


def test_trivial_class_is_extendible():
    res = best_extendible_decomposition(trivial_class((2, 2)))
    assert res.lambda_max == pytest.approx(1.0, abs=1e-6)


def test_solution_diagnostics_recorded():
    res = best_extendible_decomposition(six_state_class(0.05))
    d = res.diagnostics
    assert res.solution.status == "optimal"
    assert res.solution.iterations > 0
    assert abs(d["raw_lambda"] - res.lambda_max) <= 2e-6
    assert d["rho_star_clip"] <= 1e-7


def random_qutrit_state(rng, rank, dims=(2, 3)):
    """The extend-qutrit recipe: G G^+ / Tr with G a d x rank complex
    Gaussian drawn from rng, d = d_A d_B, as a state on dims (a
    qubit-qutrit state by default)."""
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityOperator(mat / np.trace(mat).real, dims)


def rank_deficient_outcome(seed, rank):
    """Decompose the rank-`rank` state of the stream seeded `seed` (ranks
    1, 2, ... drawn from one generator by random_qutrit_state), then run
    the full program on its class.  Returns "<outcome> <full>": outcome
    is "verified", "unverified", "SolverError" or the name of any other
    exception raised; full is the type name of what solve returned, or
    of the exception it raised."""
    rng = np.random.default_rng(seed)
    for r in range(1, rank + 1):
        state = random_qutrit_state(rng, r)
    cls = class_from_state(state)
    try:
        res = best_extendible_decomposition(cls)
        outcome = "verified" if verify_extension(res).passed else "unverified"
    except SolverError:
        outcome = "SolverError"
    except Exception as err:
        outcome = type(err).__name__
    try:
        full = type(solve(extension_sdp(cls))).__name__
    except Exception as err:
        full = type(err).__name__
    return f"{outcome} {full}"


@pytest.mark.parametrize("seed, rank", [(15, 1), (19, 2)])
def test_rank_deficient_qutrit_verified_and_full_program_returns(seed, rank):
    # Both states have an empty face, so the decomposition needs no
    # solve.  On the full program, which has no strictly feasible point,
    # both drive the barrier parameter to its floor, where the centering
    # parameter once overflowed; that solve must still return.  The
    # iterates depend on the BLAS thread count, and the overflow showed
    # with BLAS pinned to one thread, so both run in a child process
    # pinned that way.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"),
                                           str(root / "tests")]))
    code = ("from test_extendibility import rank_deficient_outcome; "
            f"print(rank_deficient_outcome({seed}, {rank}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "verified SdpSolution"


# Face dimensions of generic pinned states by rank; None: full rank, so
# the full program runs.
FACE_DIMS = {(2, 2): [0, 2, 4, None], (2, 3): [0, 0, 3, 6, 12, None]}


@pytest.mark.parametrize("dims, rank", [
    (dims, rank) for dims, faces in FACE_DIMS.items()
    for rank in range(1, len(faces) + 1)])
def test_low_rank_pinned_state_verified(dims, rank):
    state = random_qutrit_state(np.random.default_rng(5), rank, dims)
    res = best_extendible_decomposition(class_from_state(state))
    assert verify_extension(res).passed
    assert np.max(np.abs(res.rho_star.matrix - state.matrix)) <= 1e-6
    face = FACE_DIMS[dims][rank - 1]
    assert res.diagnostics["face_dim"] == face
    assert res.diagnostics["support_rank"] == (None if face is None else rank)


@pytest.mark.parametrize("rank, num_vars, block_dims", [
    (3, 9, [3, 3]), (4, 16, [4, 6]), (5, 25, [5, 9, 3])])
def test_face_witness_program_size(rank, num_vars, block_dims, monkeypatch):
    # one variable per coordinate of X on supp(rho), the X >= 0 block at
    # the support rank, then one block per nonempty swap part of the face
    problems = []

    def spy(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(extendibility, "solve", spy)
    state = random_qutrit_state(np.random.default_rng(5), rank)
    res = best_extendible_decomposition(class_from_state(state))
    (problem,) = problems
    assert problem.num_vars == num_vars == res.solution.x.size
    assert [blk.dim for blk in problem.blocks] == block_dims
    assert problem.eq_rows.shape[0] == 0
    # the reported x is a feasible witness
    for blk in problem.blocks:
        slack = blk.const + np.einsum("i,ijk->jk", res.solution.x, blk.mats)
        assert np.linalg.eigvalsh(slack)[0] >= -1e-9


def test_rank_four_stream_state_decomposes():
    # the primal face program ended this state "step sizes collapsed"
    state = extend_qutrit_stream_state(cycle=20, rank=4)
    res = best_extendible_decomposition(class_from_state(state))
    assert res.diagnostics["program"] == "face"
    assert verify_extension(res).passed
    assert np.max(np.abs(res.rho_star.matrix - state.matrix)) <= 1e-6


def _pure(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj()) / np.vdot(vec, vec).real


def _rank_one_qutrit():
    return random_qutrit_state(np.random.default_rng(3), 1).matrix


@pytest.mark.parametrize("make, dims", [(lambda: bell_psi_plus().matrix, (2, 2)),
                                        (_rank_one_qutrit, (2, 3))],
                         ids=["bell", "rank-1-qutrit"])
def test_empty_face_gives_zero_without_solving(make, dims, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an empty face needs no solve")

    monkeypatch.setattr(extendibility, "solve", no_solve)
    res = best_extendible_decomposition(class_from_state(DensityOperator(make(), dims)))
    assert res.lambda_max == 0.0
    assert res.diagnostics["face_dim"] == 0
    assert res.solution.iterations == 0
    assert "empty face" in res.solution.message
    assert verify_extension(res).passed


@pytest.mark.parametrize("mat", [
    _pure(np.kron([1, 0], [1, 1])),                     # |0+>
    0.5 * (_pure([1, 0, 0, 0]) + _pure([0, 0, 0, 1])),  # (|00><00| + |11><11|)/2
], ids=["product-0+", "classical-00-11"])
def test_separable_low_rank_state_is_extendible(mat):
    res = best_extendible_decomposition(class_from_state(DensityOperator(mat, (2, 2))))
    assert res.lambda_max == pytest.approx(1.0, abs=1e-6)
    assert res.diagnostics["face_dim"] > 0
    assert verify_extension(res).passed


def test_face_program_matches_full_program_where_it_converges():
    mat = 0.5 * bell_psi_plus().matrix + 0.5 * _pure([0, 1, 0, 0])
    cls = class_from_state(DensityOperator(mat, (2, 2)))
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["face_dim"] is not None
    full = solve(extension_sdp(cls))
    assert full.status == "optimal"
    full_lam = float(full.x[cls.rows.shape[1]])
    assert full_lam == pytest.approx(1.0, abs=1e-6)
    assert res.lambda_max == pytest.approx(full_lam, abs=1e-6)


def _negative_pinned_class():
    mat = bell_psi_plus().matrix - 10 * SUPPORT_TOL * _pure([0, 1, 0, 0])
    return EquivalenceClassSpec(dims=(2, 2), rows=np.eye(16),
                                rhs=expand(mat, (build_basis(2),) * 2).ravel())


def _inconsistent_pinned_class():
    rhs = class_from_state(bell_psi_plus()).rhs
    return EquivalenceClassSpec(dims=(2, 2), rows=np.vstack([np.eye(16)] * 2),
                                rhs=np.concatenate([rhs, 1.001 * rhs]))


@pytest.mark.parametrize("make", [_negative_pinned_class, _inconsistent_pinned_class],
                         ids=["eigenvalue-below-support-tol", "inconsistent-rows"])
def test_pinned_class_not_reduced_runs_the_full_program(make, monkeypatch):
    # the witness program (one variable per row) runs first.  On the
    # class pinned to a matrix with eigenvalue -1e-8 it ends
    # numerical-failure, so the extension program runs after it; on
    # inconsistent rows it ends unbounded, and its primal ray refuses the
    # class with no second solve
    cls = make()
    runs = []

    def spy(problem):
        sol = solve(problem)
        runs.append((problem.num_vars, sol))
        return sol

    monkeypatch.setattr(extendibility, "solve", spy)
    with pytest.raises(SolverError) as err:
        best_extendible_decomposition(cls)
    if make is _inconsistent_pinned_class:
        assert [n for n, _ in runs] == [cls.rows.shape[0]]
        assert err.value.solution is runs[0][1]
        assert_ray_proves_no_state(cls, runs[0][1])
    else:
        assert [n for n, _ in runs] == [cls.rows.shape[0], 56]
        assert runs[0][1].status == "numerical-failure"


def test_full_rank_and_unpinned_classes_run_the_full_program():
    for cls in (six_state_class(0.05), trivial_class((2, 2))):
        d = best_extendible_decomposition(cls).diagnostics
        assert d["support_rank"] is None and d["face_dim"] is None


def test_threshold_rejects_classes_with_different_rows(monkeypatch):
    # find_cutoff interpolates the family between its bracket ends, which
    # must share their rows; here the upper end measures six-state POVMs.
    real = bounds.realize_protocol
    monkeypatch.setattr(bounds, "realize_protocol", lambda spec: real(
        dataclasses.replace(spec, kind="six-state") if spec.e == 0.25 else spec))
    problems = []
    monkeypatch.setattr(extendibility, "solve", problems.append)
    with pytest.raises(ValueError, match="different rows"):
        find_cutoff("four-state", bracket=(0.0, 0.25))
    assert problems == []


def four_state_class(e, direction, source_constraint):
    spec = ProtocolSpec("four-state", e=e, direction=direction,
                        source_constraint=source_constraint)
    povms, data = realize_protocol(spec)
    return assemble_class(povms, data, spec)


@pytest.mark.parametrize("source_constraint", [None, True, False])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("hi", [0.02, 0.04, 0.06, 0.08, 0.10, 0.12])
def test_threshold_certifies_non_extendible_upper_bracket(hi, direction,
                                                          source_constraint,
                                                          monkeypatch):
    # Every four-state class below the cutoff (~0.146) is non-extendible,
    # so find_cutoff over (0, hi) must refuse the upper end after its one
    # witness solve; the witness must check against the program solved.
    runs = []

    def spy(problem):
        sol = solve(problem)
        runs.append((problem, sol))
        return sol

    monkeypatch.setattr(extendibility, "solve", spy)
    with pytest.raises(ValueError, match=f"upper bracket e={hi} is not extendible"):
        find_cutoff("four-state", bracket=(0.0, hi), direction=direction,
                    source_constraint=source_constraint)
    ((problem, sol),) = runs
    assert sol.status == "optimal", sol.message
    assert min_block_eigenvalue(problem, sol.x) >= -1e-9
    assert four_state_class(hi, direction, source_constraint).rhs @ sol.x > LAMBDA_TOL


def reference_lambda(cls):
    problem, lam_idx = three_block_reference(cls)
    sol = solve(problem)
    assert sol.status == "optimal", sol.message
    return min(max(float(sol.x[lam_idx]), 0.0), 1.0)


@pytest.mark.parametrize("e", [0.0, 0.05, 0.12, 0.2])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_two_block_program_matches_three_block_reference(kind, direction, e):
    spec = ProtocolSpec(kind, e=e, direction=direction)
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    res = best_extendible_decomposition(cls)
    assert abs(res.lambda_max - reference_lambda(cls)) <= 1e-7
    # rho >= 0 is no block of its own; it holds through rho >= sigma~ >= 0
    assert res.diagnostics["rho_star_clip"] <= 1e-9


@pytest.mark.parametrize("rank", [1, 2, 6])
def test_qutrit_program_matches_three_block_reference(rank):
    cls = class_from_state(random_qutrit_state(np.random.default_rng(0), rank))
    res = best_extendible_decomposition(cls)
    assert abs(res.lambda_max - reference_lambda(cls)) <= 1e-7
