import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from keybound import extendibility
from keybound.basis import build_basis, expand
from keybound.extendibility import (
    SUPPORT_TOL, best_extendible_decomposition, build_sdp,
    extendibility_threshold, is_extendible, layout_for, pinned_problem,
    verify_extension,
)
from keybound.protocols import (
    EquivalenceClassSpec, ProtocolSpec, assemble_class, class_from_state,
    realize_protocol,
)
from keybound.sdp import SolverError, SolverSettings, check_feasible, solve
from keybound.states import DensityOperator, bell_psi_plus, depolarized_bell
from helpers import (chi_reference, lambda_bisection_oracle,
                     three_block_reference, trivial_class)


def six_state_class(e):
    spec = ProtocolSpec.six_state(e)
    povms, data = realize_protocol(spec)
    return assemble_class(povms, data, spec)


LAYOUT_SIZES = {(2, 2): (16, 40, 56), (2, 3): (36, 180, 216)}


def test_variable_layout_counts():
    for dims, (n_r, n_f, total) in LAYOUT_SIZES.items():
        _, lay = build_sdp(trivial_class(dims))
        assert lay.n_r == n_r
        assert lay.n_f == n_f
        assert lay.total == total
        assert not hasattr(lay, "n_e") and not hasattr(lay, "coupling")


def test_variable_layout_symmetry():
    for dims in LAYOUT_SIZES:
        _, lay = build_sdp(trivial_class(dims))
        assert lay.f_index(1, 3, 2) == lay.f_index(1, 2, 3)
        assert lay.f_index(0, 0, 0) == lay.n_r
        # the closed form walks the f block in (k, l, m <= l) order, no gaps
        order = [lay.f_index(k, l, m) for k in range(lay.na)
                 for l in range(lay.nb) for m in range(l + 1)]
        assert order == list(range(lay.n_r, lay.total))
        # sigma~'s coefficients are the f_{k,l,0}, in (k, l) order
        assert lay.sigma_idx.tolist() == [lay.f_index(k, l, 0)
                                          for k in range(lay.na)
                                          for l in range(lay.nb)]
        assert lay.e_index(2, 3) == lay.f_index(2, 3, 0)


@pytest.mark.parametrize("dims", sorted(LAYOUT_SIZES))
def test_chi_stack_matches_kronecker_reference(dims):
    lay = layout_for(dims)
    rng = np.random.default_rng(sum(dims))
    for _ in range(3):
        f = rng.normal(size=lay.n_f)
        stacked = np.tensordot(f, lay.chi_mats, 1)
        assert np.max(np.abs(stacked - chi_reference(f, dims))) <= 1e-12


def test_build_sdp_shares_structure_per_dims():
    p1, lay1 = build_sdp(six_state_class(0.05))
    p2, lay2 = build_sdp(six_state_class(0.10))
    assert lay1 is lay2
    assert all(a is b for a, b in zip(p1.blocks, p2.blocks))
    assert not np.array_equal(p1.eq_rhs, p2.eq_rhs)
    _, lay3 = build_sdp(trivial_class((2, 3)))
    assert lay3 is not lay1


def test_cached_structure_is_read_only():
    lay = layout_for((2, 2))
    arrays = [lay.c, lay.sigma_idx, lay.chi_mats]
    for blk in lay.blocks:
        arrays += [blk.const, blk.mats, blk.var_idx, blk.real_const, blk.real_mats]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_sdp_structure():
    cls = six_state_class(0.05)
    prob, lay = build_sdp(cls)
    assert [b.dim for b in prob.blocks] == [4, 8]
    # equalities: the class rows only, on r
    assert prob.eq_rows.shape == (cls.rows.shape[0], 56)
    assert not prob.eq_rows[:, lay.n_r:].any()
    # objective rewards the non-extendible weight only
    assert prob.c[lay.r_index(0, 0)] == 1.0
    assert prob.c[lay.f_index(0, 0, 0)] == -1.0
    assert np.count_nonzero(prob.c) == 2


def test_bell_state_not_extendible():
    cls = class_from_state(bell_psi_plus())
    res = best_extendible_decomposition(cls)
    assert res.lambda_max == pytest.approx(0.0, abs=1e-6)
    assert res.sigma_ext is None
    assert res.chi is None
    assert np.allclose(res.rho_ne.matrix, bell_psi_plus().matrix, atol=1e-6)
    assert not is_extendible(cls)


def test_maximally_mixed_is_extendible():
    cls = class_from_state(DensityOperator(np.eye(4) / 4, (2, 2)))
    res = best_extendible_decomposition(cls)
    assert res.lambda_max == pytest.approx(1.0, abs=1e-6)
    assert res.rho_ne is None
    assert is_extendible(cls)


@pytest.mark.parametrize("e,lam", [(0.05, 0.30), (0.10, 0.60), (0.15, 0.90)])
def test_six_state_weight_law(e, lam):
    res = best_extendible_decomposition(six_state_class(e))
    assert res.lambda_max == pytest.approx(lam, abs=2e-6)
    assert np.allclose(res.rho_star.matrix, depolarized_bell(e).matrix, atol=1e-5)


def test_four_state_dominates_six_state():
    for e in (0.04, 0.1):
        spec4 = ProtocolSpec.four_state(e)
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
    st = SolverSettings(max_iter=300)
    below = check_feasible(pinned_problem(cls, 0.30)[0], settings=st)
    above = check_feasible(pinned_problem(cls, 0.42)[0], settings=st)
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
    assert d["status"] == "optimal"
    assert d["iterations"] > 0
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
        full = type(solve(build_sdp(cls)[0])).__name__
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
    full = solve(build_sdp(cls)[0])
    assert full.status == "optimal"
    full_lam = float(full.x[res.layout.e_index(0, 0)])
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
    cls = make()
    sizes = []

    def spy(problem):
        sizes.append(problem.num_vars)
        return solve(problem)

    monkeypatch.setattr(extendibility, "solve", spy)
    try:
        best_extendible_decomposition(cls)
    except SolverError:
        pass
    assert sizes == [layout_for((2, 2)).total]


def test_full_rank_and_unpinned_classes_run_the_full_program():
    for cls in (six_state_class(0.05), trivial_class((2, 2))):
        d = best_extendible_decomposition(cls).diagnostics
        assert d["support_rank"] is None and d["face_dim"] is None


def test_threshold_rejects_classes_with_different_rows():
    four = ProtocolSpec.four_state(0.0)
    povms, data = realize_protocol(four)
    with pytest.raises(ValueError, match="different rows"):
        extendibility_threshold(assemble_class(povms, data, four),
                                six_state_class(0.25), (0.0, 0.25))


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
    # so the threshold program over (0, hi) is infeasible; its certificate
    # must check against the program that was solved.
    problems = []

    def spy(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(extendibility, "solve", spy)
    sol = extendibility_threshold(four_state_class(0.0, direction, source_constraint),
                                  four_state_class(hi, direction, source_constraint),
                                  (0.0, hi))
    assert sol.status == "infeasible", sol.message
    (problem,) = problems
    y, zs = sol.certificate["y"], sol.certificate["z_blocks"]
    assert min(float(np.linalg.eigvalsh(zb)[0]) for zb in zs) >= -1e-9
    station = problem.eq_rows.T @ y
    for blk, zb in zip(problem.blocks, zs):
        station[blk.var_idx] += np.einsum("ijk,jk->i", blk.real_mats, zb)
    assert np.linalg.norm(station) <= 1e-6
    violation = problem.eq_rhs @ y - sum(np.vdot(blk.real_const, zb)
                                         for blk, zb in zip(problem.blocks, zs))
    assert violation > 0.0


def reference_lambda(cls):
    problem, lam_idx = three_block_reference(cls)
    sol = solve(problem, SolverSettings())
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
