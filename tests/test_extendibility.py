import dataclasses
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from keybound import bounds, extendibility, protocols, sdp, states
from keybound.basis import build_basis, expand, reconstruct
from keybound.bounds import find_cutoff
from keybound.extendibility import (
    LAMBDA_TOL, SUPPORT_TOL, _extension_structure, _face_basis, _hermitian_stack,
    _pinned_support, _swap_sectors, best_extendible_decomposition, build_sdp,
    extension_sdp, verify_extension,
)
from keybound.protocols import (
    EquivalenceClassSpec, InconsistentDataError, ProtocolSpec, assemble_class,
    class_from_state, realize_protocol, six_state_povms,
)
from keybound.sdp import LmiBlock, SdpProblem, SolverError, solve
from keybound.states import (DensityOperator, bell_psi_plus, depolarized_bell,
                             swap_last_two)
from helpers import (check_feasible, chi_reference, class_row_program,
                     extend_qutrit_stream_state, lambda_bisection_oracle, min_block_eigenvalue,
                     no_state_six_state_data, pinned_problem, sigma_coefficients,
                     three_block_reference, trivial_class)


def six_state_class(e):
    spec = ProtocolSpec("six-state", e=e)
    povms, data = realize_protocol(spec)
    return assemble_class(povms, data, spec)


LAYOUT_SIZES = {(2, 2): (16, 40), (2, 3): (36, 180)}


def assert_extension_layout(prob, dims):
    """The (f, w) layout of an extension program's blocks: rho - sigma~
    has -rho_mats[kl] at sigma~'s coefficients f_{k,l,0} and exactly zero
    at every other f, and chi~ has exactly zero at every w."""
    rho_mats, _, chi_mats = _extension_structure(dims)
    n_f = chi_mats.shape[0]
    sigma_idx = sigma_coefficients(dims)
    rho_block, chi_block = prob.blocks
    assert np.array_equal(rho_block.mats[sigma_idx], -rho_mats)
    assert not np.delete(rho_block.mats[:n_f], sigma_idx, axis=0).any()
    assert np.array_equal(chi_block.mats[:n_f], chi_mats)
    assert not chi_block.mats[n_f:].any()


def test_variable_layout_counts():
    # rows that pin rho leave no w: f alone, and no equality rows
    for dims, (n_r, n_f) in LAYOUT_SIZES.items():
        rng = np.random.default_rng(sum(dims))
        d = dims[0] * dims[1]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = g @ g.conj().T
        cls = class_from_state(DensityOperator(mat / np.trace(mat).real, dims))
        prob = extension_sdp(cls)
        pinv, N = extendibility._row_set(cls.rows.tobytes(), cls.rows.shape, dims)[1:3]
        rho_mats, sigma_mats, chi_mats = _extension_structure(dims)
        assert cls.rows.shape[1] == rho_mats.shape[0] == n_r
        assert N.shape == (n_r, 0) and pinv.shape == cls.rows.shape[::-1]
        assert sigma_mats.shape[0] == chi_mats.shape[0] == n_f == prob.num_vars
        # f first, and sigma~'s coefficients are among them
        assert_extension_layout(prob, dims)
        assert prob.eq_rows.shape == (0, n_f)


@pytest.mark.parametrize("dims", sorted(LAYOUT_SIZES))
def test_chi_stack_matches_kronecker_reference(dims):
    chi_mats = _extension_structure(dims)[2]
    rng = np.random.default_rng(sum(dims))
    for _ in range(3):
        f = rng.normal(size=chi_mats.shape[0])
        stacked = np.tensordot(f, chi_mats, 1)
        assert np.max(np.abs(stacked - chi_reference(f, dims))) <= 1e-12


def test_build_sdp_shares_structure_per_dims():
    # the witness blocks and B depend only on the rows, the objective
    # -B^T b on the data
    p1, B1 = build_sdp(six_state_class(0.05))
    p2, B2 = build_sdp(six_state_class(0.10))
    assert B1 is B2 and B1.shape == (16, 10)
    assert all(a is b for a, b in zip(p1.blocks, p2.blocks))
    assert not np.array_equal(p1.c, p2.c)
    # the extension program's f parts are one structure per dims; the
    # rho - sigma~ block's const carries the class's r0
    e1, e2 = extension_sdp(six_state_class(0.05)), extension_sdp(six_state_class(0.10))
    for e in (e1, e2):
        assert_extension_layout(e, (2, 2))
    assert not np.array_equal(e1.blocks[0].const, e2.blocks[0].const)
    assert _extension_structure((2, 2)) is _extension_structure((2, 2))
    assert _extension_structure((2, 3)) is not _extension_structure((2, 2))


def test_cached_structure_is_read_only():
    # every array a cache hands out is shared by later calls, so none of
    # them may be written; four-state rows leave rho a null space, so N
    # has columns.  sdp._workspace is exempt: its buffers are scratch that
    # every solve of its shape writes, and test_sdp's
    # test_a_solution_survives_later_solves_of_its_shape guards what a
    # solve hands out
    spec = ProtocolSpec("four-state", e=0.05)
    cls = assemble_class(*realize_protocol(spec), spec)
    cached = {
        "extension structure": _extension_structure((2, 2)),
        "solver layout": [arr for arr in sdp._layout((6, 6), 1)
                          if isinstance(arr, np.ndarray)],
        "row-set factorization": [*extendibility._row_set(
            cls.rows.tobytes(), cls.rows.shape, tuple(cls.dims))[1:3], build_sdp(cls)[1]],
        "swap sectors": extendibility._swap_sectors((2, 3)),
        "witness stacks": extendibility._product_ops((2, 3)),
        "class rows": protocols._class_rows(*six_state_povms(), 0),
        "Born-rule stack": [protocols._born_stack(*six_state_povms())],
        "Hermitian basis": [_hermitian_stack(3)],
        "Bell state": [bell_psi_plus().matrix],
    }
    for name, arrays in cached.items():
        assert arrays, name
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1
                pytest.fail(f"a cached {name} array is writable")


CACHES = (sdp._layout, sdp._workspace, protocols._class_rows, protocols._born_stack,
          extendibility._swap_sectors, extendibility._product_ops,
          extendibility._row_set, extendibility._hermitian_stack,
          states.bell_psi_plus)


def test_cold_and_warm_caches_give_the_same_bits():
    # A solve or an assembly that wrote into a cached array would change
    # every later result that reads it: run each case with every cache
    # cleared, then again warm, and compare bytes.
    def point(spec):
        res = best_extendible_decomposition(assemble_class(*realize_protocol(spec), spec))
        return [repr(bounds.one_way_upper_bound(spec)), repr(res.lambda_max),
                res.sigma_tilde.tobytes()]

    def qubit_qutrit(rank, program):
        res = best_extendible_decomposition(
            class_from_state(extend_qutrit_stream_state(0, rank)))
        assert res.diagnostics["program"] == program
        return [repr(res.lambda_max), res.sigma_tilde.tobytes()]

    cases = [functools.partial(point, ProtocolSpec(kind, e=0.05, direction=direction))
             for kind in ("four-state", "six-state") for direction in ("direct", "reverse")]
    # a rank-6 (2, 3) state runs the witness program, a rank-5 one its face,
    # whose blocks are built per class but share the solver layout and
    # buffers of their shape, so a warm run rebuilds nothing
    cases += [functools.partial(qubit_qutrit, 6, "witness"),
              functools.partial(qubit_qutrit, 5, "face")]
    for case in cases:
        for cache in CACHES:
            cache.cache_clear()
        cold = case()
        misses = [cache.cache_info().misses for cache in CACHES]
        warm = case()
        rebuilt = [cache for cache, n in zip(CACHES, misses) if cache.cache_info().misses > n]
        assert rebuilt == []
        assert warm == cold


def test_sdp_structure():
    for kind, n_w in (("four-state", 6), ("six-state", 0)):
        spec = ProtocolSpec(kind, e=0.05)
        cls = assemble_class(*realize_protocol(spec), spec)
        prob = extension_sdp(cls)
        pinv, N = extendibility._row_set(cls.rows.tobytes(), cls.rows.shape, (2, 2))[1:3]
        # the class rows leave n_w of rho's 16 coefficients free: the 40
        # f, then w, and no equality rows
        assert N.shape == (16, n_w) and prob.num_vars == 40 + n_w
        assert prob.eq_rows.shape == (0, 40 + n_w)
        assert [b.dim for b in prob.blocks] == [4, 8]
        assert_extension_layout(prob, (2, 2))
        # every r0 + N w meets the class rows
        w = np.random.default_rng(0).normal(size=n_w)
        assert np.max(np.abs(cls.rows @ (pinv @ cls.rhs + N @ w) - cls.rhs)) <= 1e-12
        # objective rewards the non-extendible weight only: -f_000, as the
        # rows pin r_00
        assert prob.c[0] == -1.0   # f_000
        assert not prob.c[1:].any()


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)], ids=["2x2", "2x3", "3x3"])
def test_witness_program_structure(dims):
    da, db = dims
    n, m = da * db, da * db * (db + 1) // 2
    if dims == (2, 2):
        cls, rho = six_state_class(0.05), depolarized_bell(0.05).matrix
    else:
        rho = random_qutrit_state(np.random.default_rng(sum(dims)), n, dims).matrix
        cls = class_from_state(DensityOperator(np.eye(n) / n, dims))
    prob = class_row_program(cls)
    rows = cls.rows.shape[0]
    # one variable per class row, no equalities, objective -b.y
    assert prob.num_vars == rows and prob.eq_rows.shape == (0, rows)
    assert np.array_equal(prob.c, -cls.rhs)
    # two blocks of one size: W(y) (+) (V_a^T (W(y) (x) I_B') V_a - I),
    # const I (+) 0, and V_s^T (W(y) (x) I_B') V_s - I, const 0
    first, second = prob.blocks
    assert first.dim == second.dim == m
    assert np.array_equal(first.const, np.diag(np.arange(m) < n).astype(float))
    assert not second.const.any()
    # no matrix couples the W(y) part to the antisymmetric part
    assert not first.mats[:, :n, n:].any() and not first.mats[:, n:, :n].any()
    # Tr(O_j rho) = (A r)_j on the W(y) part
    sa, sb = build_basis(da), build_basis(db)
    r = expand(rho, (sa, sb)).ravel()
    traces = -np.einsum("jkl,lk->j", first.mats[:, :n, :n], rho).real
    assert np.max(np.abs(traces - cls.rows @ r)) <= 1e-12
    # the sector bases are orthonormal, real and swap-(anti)symmetric, so
    # V_s M_s V_s^T + V_a M_a V_a^T is sym(O_j (x) I_B')
    V_s, V_a = extendibility._swap_sectors(dims)
    P = swap_last_two(dims)
    U = np.hstack([V_s, V_a])
    assert V_s.shape[1] == m and U.shape == (da * db * db,) * 2
    assert np.max(np.abs(U.T @ U - np.eye(U.shape[0]))) <= 1e-15
    assert np.array_equal(P @ V_s, V_s) and np.array_equal(P @ V_a, -V_a)
    prods = np.array([np.kron(sa[k], sb[l])
                      for k in range(da * da) for l in range(db * db)])
    for row, M_first, M_s in zip(cls.rows, first.mats, second.mats):
        ext = np.kron(np.tensordot(row, prods, 1), np.eye(db))
        ext = 0.5 * (ext + P @ ext @ P)
        rebuilt = -(V_s @ M_s @ V_s.T + V_a @ M_first[n:, n:] @ V_a.T)
        assert np.max(np.abs(rebuilt - ext)) <= 1e-12
    # the class is real, so build_sdp returns the real program over
    # y = B z: B orthonormal, A^T B zero on the odd columns, objective
    # -B^T b, and blocks real-valued, stored real, that are the class-row
    # program's at y = B z
    real, B = build_sdp(cls)
    odd = extendibility._product_ops(dims)[3]
    assert real.num_vars == B.shape[1] == rows - np.linalg.matrix_rank(cls.rows[:, odd])
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-12
    assert np.max(np.abs(B.T @ cls.rows[:, odd])) <= 1e-12
    assert np.array_equal(real.c, -(cls.rhs @ B))
    z = np.random.default_rng(0).normal(size=B.shape[1])
    for blk, full in zip(real.blocks, prob.blocks):
        assert not np.iscomplexobj(blk.mats)
        at_z, at_y = (b.const + np.tensordot(x, b.mats, 1) for b, x in ((blk, z), (full, B @ z)))
        assert np.max(np.abs(at_z - at_y)) <= 1e-12


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
    (3, 9, [3, 3]), (4, 16, [4, 6]), (5, 25, [8, 9])])
def test_face_witness_program_size(rank, num_vars, block_dims, monkeypatch):
    # one variable per coordinate of X on supp(rho); X >= 0 at the support
    # rank shares its block with the antisymmetric part's inequality (empty
    # below rank 5), and the symmetric part has its own block
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
    # each swap part's matrices U^+ V^T (S X_j S^+ (x) I_B') V U, with U
    # the part in the coordinates of its sector V, match the three-operand
    # einsum sum_b' W_b'^+ X_j W_b' with W_b' = (S^+ (x) <b'|) V U, which
    # sums the same terms in another order, and nothing couples X to the
    # antisymmetric part
    w, S = _pinned_support(class_from_state(state))
    xs = _hermitian_stack(rank)
    U_s, U_a = _face_basis(S, (2, 3))
    V_s, V_a = _swap_sectors((2, 3))
    first = problem.blocks[0].mats
    assert np.array_equal(first[:, :rank, :rank], xs)
    assert not first[:, :rank, rank:].any() and not first[:, rank:, :rank].any()
    for V, mats in ((V_s @ U_s, problem.blocks[1].mats),
                    (V_a @ U_a, first[:, rank:, rank:])):
        W = np.einsum("as,abk->bsk", S.conj(), V.reshape(6, 3, V.shape[1]))
        ref = np.einsum("bsk,jst,btl->jkl", W.conj(), xs, W)
        assert np.max(np.abs(mats - ref), initial=0.0) <= 1e-13


def test_nearly_singular_pinned_states_verified():
    # (1 - eps) rho + eps I/d pins a full-rank state, so the witness
    # program runs first; near a singular rho it can stall, and the face
    # program over the whole support then gives the point (5 of these 12
    # solved when the stall ended in SolverError)
    verified = 0
    for seed, rank, dims in ((0, 4, (2, 3)), (0, 3, (2, 2)), (2, 2, (2, 2))):
        mat = random_qutrit_state(np.random.default_rng(seed), rank, dims).matrix
        d = dims[0] * dims[1]
        for eps in (1e-5, 1e-6, 1e-7, 1e-8):
            state = DensityOperator((1 - eps) * mat + eps * np.eye(d) / d, dims)
            try:
                res = best_extendible_decomposition(class_from_state(state))
            except SolverError:
                continue
            verified += (verify_extension(res).passed
                         and np.max(np.abs(res.rho_star.matrix - state.matrix)) <= 1e-6)
    assert verified >= 10


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
    full_lam = float(full.x[0])   # f_000
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
def test_pinned_class_of_no_state_is_refused(make, monkeypatch):
    # the rows pin an operator with eigenvalue -1e-8, below PINNED_FLOOR,
    # or a copy of them contradicts them by 0.1%: no state meets either
    # class, and each is refused before any solve, with the eigenvalue's
    # size or the relative miss of the independent rows' least squares as
    # its residual
    cls = make()
    problems = []
    monkeypatch.setattr(extendibility, "solve", problems.append)
    with pytest.raises(InconsistentDataError) as err:
        best_extendible_decomposition(cls)
    assert problems == []
    if make is _inconsistent_pinned_class:
        rhs = cls.rhs[:16]
        want = 0.001 * np.linalg.norm(rhs) / (1.0 + np.linalg.norm(cls.rhs))
    else:
        mat = reconstruct(cls.rhs.reshape(4, 4), (build_basis(2),) * 2)
        want = -np.linalg.eigvalsh(mat)[0]
    assert err.value.residual == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("lowest", [-5e-9, -1e-8, -7.5e-8, -2e-7, -1e-6])
def test_data_pinning_no_state_are_refused_before_any_solve(lowest, monkeypatch):
    # six-state data of an operator with smallest eigenvalue lowest, below
    # PINNED_FLOOR: the point is refused before any solve, with that
    # eigenvalue's size as its residual
    povms, data = no_state_six_state_data(lowest)
    problems = []
    monkeypatch.setattr(extendibility, "solve", problems.append)
    with pytest.raises(InconsistentDataError, match="pin an operator") as err:
        bounds.one_way_upper_bound(ProtocolSpec("custom", povms=povms, data=data))
    assert problems == []
    assert err.value.residual == pytest.approx(-lowest, rel=1e-6)


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
    # and so does its witness y = B x on the class-row program
    cls = four_state_class(hi, direction, source_constraint)
    y = build_sdp(cls)[1] @ sol.x
    assert min_block_eigenvalue(class_row_program(cls), y) >= -1e-9
    assert cls.rhs @ y > LAMBDA_TOL


@pytest.mark.parametrize("source_constraint", [True, False])
def test_four_state_programs_run_at_one_barrier_degree(source_constraint):
    # without the source constraint the four-state rows have no odd
    # column, so the witness program is real-valued as stated; with the
    # r_Y0 row it is real over y = B z.  Either way its blocks are stored
    # real and count as Hermitian, at barrier degree 24, whatever dtype
    # they came in: given again as those real arrays they solve bit for
    # bit as given
    problem, B = build_sdp(four_state_class(0.05, "direct", source_constraint))
    assert B.shape == (9 + source_constraint, 9)
    assert not any(np.iscomplexobj(blk.mats) for blk in problem.blocks)
    again = SdpProblem(c=problem.c, blocks=[LmiBlock(const=np.array(blk.const, float),
                                                     mats=np.array(blk.mats, float))
                                            for blk in problem.blocks])
    sols = [solve(prob) for prob in (problem, again)]
    assert sols[0].status == sols[1].status == "optimal"
    assert sols[0].iterations == sols[1].iterations
    assert np.array_equal(sols[0].x, sols[1].x)
    for z0, z1 in zip(sols[0].z_blocks, sols[1].z_blocks):
        assert np.array_equal(z0, z1)


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
