"""The witness program against the extension program it is the dual of,
and the fallback from one to the other."""

import functools
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from keybound import extendibility
from keybound.basis import build_basis
from keybound.bounds import one_way_upper_bound, sweep
from keybound.extendibility import (best_extendible_decomposition, build_sdp,
                                    extension_sdp, verify_extension)
from keybound.protocols import (EquivalenceClassSpec, InconsistentDataError, ProtocolSpec,
                                assemble_class, class_from_state, realize_protocol)
from keybound.sdp import solve
from keybound.states import DensityOperator, swap_last_two
from helpers import (assert_ray_proves_no_state, class_row_program,
                     extend_qutrit_stream_state, unsplit_witness_program)

# lambda_max of the two programs, each within GAP_TOL (1 + |pobj| + |dobj|)
AGREE_TOL = 3e-8


def protocol_class(kind, e, direction="direct"):
    spec = ProtocolSpec(kind, e=e, direction=direction)
    return assemble_class(*realize_protocol(spec), spec)


def full_rank_class(dims, seed):
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    return class_from_state(DensityOperator(mat / np.trace(mat).real, dims))


def extension_lambda(cls):
    sol = solve(extension_sdp(cls))
    assert sol.status == "optimal", sol.message
    return float(sol.x[0])   # f_000


def assert_witness_agrees(cls):
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["program"] == "witness"
    assert res.solution.status == "optimal"
    assert verify_extension(res).passed
    assert abs(res.lambda_max - extension_lambda(cls)) <= AGREE_TOL
    # the witness value is a lower bound on 1 - lambda_max
    assert res.diagnostics["witness_value"] <= 1.0 - res.lambda_max + AGREE_TOL
    assert res.diagnostics["class_residual"] <= 1e-8
    return res


@pytest.mark.parametrize("dims, seed", [((2, 2), s) for s in range(4)]
                         + [((2, 3), s) for s in range(3)])
def test_witness_matches_extension_program_on_full_rank_states(dims, seed):
    assert_witness_agrees(full_rank_class(dims, seed))


@pytest.mark.parametrize("e", [0.02, 0.08, 0.14, 0.2])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_witness_matches_extension_program_on_grid_classes(kind, direction, e):
    assert_witness_agrees(protocol_class(kind, e, direction))


def assert_split_matches_unsplit(cls, monkeypatch):
    # The two equal-size blocks restate W(y) >= 0 and
    # sym(W(y) (x) I_B') - I >= 0 by an orthogonal change of basis of each
    # swap sector, so the solve takes the same iterations to the same
    # witness, T, chi~ and lambda_max, and the chi~ it unpacks is
    # swap-symmetric.  A real class runs the real program, on the same
    # central path; its witness is compared in class-row coordinates,
    # relative to its largest entry (36 on the grid): the optimal witness
    # is unique, but nearly flat directions leave it fixed by the solver's
    # tolerances only to about 1e-2, and the two block layouts round
    # differently along them (six-state direct e = 0.02: 1.5e-8 apart).
    unpacked = []
    decomposition = extendibility._decomposition

    def spy(T, chi, dims):
        unpacked.append((T, chi))
        return decomposition(T, chi, dims)

    monkeypatch.setattr(extendibility, "_decomposition", spy)
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["program"] == "witness"
    old = solve(unsplit_witness_program(cls))
    assert old.status == "optimal"
    chi = decomposition(*old.z_blocks, cls.dims)[2]
    assert res.solution.iterations == old.iterations
    assert abs(res.lambda_max - min(max(np.trace(chi).real, 0.0), 1.0)) <= 1e-9
    size = max(1.0, float(np.max(np.abs(old.x))))
    assert np.max(np.abs(res.diagnostics["witness"] - old.x)) <= 1e-9 * size
    ((T, chi),) = unpacked
    for mat, want in zip((T, chi), old.z_blocks):
        assert np.max(np.abs(mat - want)) <= 1e-9
    P = swap_last_two(cls.dims)
    assert np.max(np.abs(P @ chi @ P - chi)) <= 1e-12
    # the dual entries coupling T to the antisymmetric sector vanish
    n = cls.dims[0] * cls.dims[1]
    assert np.max(np.abs(res.solution.z_blocks[0][:n, n:])) <= 1e-12


@pytest.mark.parametrize("e", [0.02, 0.08, 0.14, 0.2])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_split_witness_program_matches_unsplit_on_grid_classes(kind, direction, e,
                                                                monkeypatch):
    assert_split_matches_unsplit(protocol_class(kind, e, direction), monkeypatch)


@pytest.mark.parametrize("cycle", range(10))
def test_split_witness_program_matches_unsplit_on_stream_states(cycle, monkeypatch):
    state = extend_qutrit_stream_state(cycle, 6)
    assert_split_matches_unsplit(class_from_state(state), monkeypatch)


def test_duplicated_consistent_rows_solve_optimal():
    cls = protocol_class("six-state", 0.05)
    dup = EquivalenceClassSpec(dims=cls.dims, rows=np.vstack([cls.rows, cls.rows]),
                               rhs=np.concatenate([cls.rhs, cls.rhs]))
    res = assert_witness_agrees(dup)
    assert res.lambda_max == pytest.approx(
        best_extendible_decomposition(cls).lambda_max, abs=AGREE_TOL)


def test_solution_is_the_witness_solve():
    cls = protocol_class("four-state", 0.05)
    res = best_extendible_decomposition(cls)
    sol, d = res.solution, res.diagnostics
    # x is z, over the real program's 9 variables (10 class rows less the
    # rank 1 of their odd columns), and the witness is y = B z, one entry
    # per class row, with b.y its value
    y = d["witness"]
    assert sol.x.shape == (9,) and y.shape == (cls.rows.shape[0],)
    assert np.array_equal(y, build_sdp(cls)[1] @ sol.x)
    assert d["witness_value"] == pytest.approx(float(cls.rhs @ y), abs=1e-15)
    assert sol.objective == pytest.approx(-d["witness_value"], abs=1e-15)
    assert d["witness_value"] == pytest.approx(1.0 - res.lambda_max, abs=AGREE_TOL)
    # the record is a unit-trace decomposition whose Tr(chi~) is lambda
    assert d["rho_star_trace_shift"] <= 1e-12
    assert np.trace(res.sigma_tilde).real == pytest.approx(d["raw_lambda"], abs=1e-15)
    assert np.trace(res.chi_tilde).real == d["raw_lambda"]
    assert 0.0 < d["class_residual"] <= 1e-8
    # the witness is feasible: both blocks of the class-row program are
    # PSD at y
    for blk in class_row_program(cls).blocks:
        slack = blk.const + np.einsum("i,ijk->jk", y, blk.mats)
        assert np.linalg.eigvalsh(slack)[0] >= -1e-9


@pytest.mark.parametrize("e", [1e-8, 1e-7])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_points_near_zero_error_end_optimal(kind, direction, e):
    # the witness solve's dual residual can stall here; the extension
    # program then gives the point
    point = one_way_upper_bound(ProtocolSpec(kind, e=e, direction=direction))
    assert point.status == "optimal"


@pytest.mark.parametrize("e", [1e-8, 1e-7])
@pytest.mark.parametrize("source_constraint", [None, True])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_stalled_witness_solve_falls_back_early(kind, direction, source_constraint,
                                                e, monkeypatch):
    # a witness solve whose dual residual stalls ends after
    # DUAL_STALL_ITERS iterations in the stall, not at MAX_ITER
    runs = []

    def spy(problem):
        sol = solve(problem)
        runs.append(sol)
        return sol

    monkeypatch.setattr(extendibility, "solve", spy)
    point = one_way_upper_bound(ProtocolSpec(kind, e=e, direction=direction,
                                             source_constraint=source_constraint))
    assert point.status == "optimal"
    # the point counts the iterations of every solve it ran
    assert point.iterations == sum(sol.iterations for sol in runs)
    witness = runs[0]
    if witness.status != "optimal":
        assert witness.iterations <= 30
        assert "dual residual stalled" in witness.message
        assert [sol.status for sol in runs[1:]] == ["optimal"]


def fail_witness_solves(monkeypatch):
    """Make the next solve, the witness solve of the next decomposition,
    end numerical-failure; returns the list of variable counts solved."""
    runs = []

    def failing_witness(problem):
        sol = solve(problem)
        runs.append(problem.num_vars)
        if len(runs) == 1:
            sol = replace(sol, status="numerical-failure")
        return sol

    monkeypatch.setattr(extendibility, "solve", failing_witness)
    return runs


def test_non_optimal_witness_solve_falls_back(monkeypatch):
    # a class that does not pin rho (four-state) falls back to the
    # extension program; a pinned full-rank one (six-state) is solved on
    # its face over its whole support, X on all of A (x) B: 16 variables
    for kind, program in (("four-state", "extension"), ("six-state", "face")):
        cls = protocol_class(kind, 0.05)
        lam = best_extendible_decomposition(cls).lambda_max
        with monkeypatch.context() as patch:
            runs = fail_witness_solves(patch)
            res = best_extendible_decomposition(cls)
        second = extension_sdp(cls).num_vars if program == "extension" else 16
        # the witness solve runs the real program: 9 and 10 variables
        assert runs == [build_sdp(cls)[0].num_vars, second]
        assert runs[0] == {"four-state": 9, "six-state": 10}[kind]
        assert res.diagnostics["program"] == program
        assert verify_extension(res).passed
        assert res.lambda_max == pytest.approx(lam, abs=AGREE_TOL)
    assert res.lambda_max == pytest.approx(0.3, abs=AGREE_TOL)
    assert res.diagnostics["support_rank"] == 4
    assert res.diagnostics["face_dim"] == 8


@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_fallback_diagnostics_count_both_solves(kind, monkeypatch):
    # diagnostics["iterations"] sums the witness solve and the solve of
    # the program that follows it; solution is the last of the two
    fail_witness_solves(monkeypatch)
    failing, counts = extendibility.solve, []

    def counted(problem):
        sol = failing(problem)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(extendibility, "solve", counted)
    res = best_extendible_decomposition(protocol_class(kind, 0.05))
    assert len(counts) == 2 and min(counts) > 0
    assert res.diagnostics["iterations"] == sum(counts)
    assert res.solution.iterations == counts[1]


# the program each route runs, from a class that takes it
ROUTES = {"witness": "witness", "extension": "extension", "rank-5-face": "face",
          "stalled-six-state-face": "face"}


def _route_class(route):
    if route == "rank-5-face":
        return class_from_state(extend_qutrit_stream_state(0, 5))
    return protocol_class("four-state" if route in ("witness", "extension") else "six-state",
                          0.05)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_unpacks_an_exactly_swap_symmetric_extension(route, monkeypatch):
    # V_s and V_a are exactly swap-(anti)symmetric, so the chi~ each route
    # hands to _decomposition is exactly swap-symmetric, and so is the
    # extension program's sum of swap-symmetric chi_mats: _decomposition
    # has nothing to symmetrize
    cls = _route_class(route)
    if route in ("extension", "stalled-six-state-face"):
        fail_witness_solves(monkeypatch)
    unpacked = []
    decomposition = extendibility._decomposition

    def spy(T, chi, dims):
        unpacked.append(chi)
        return decomposition(T, chi, dims)

    monkeypatch.setattr(extendibility, "_decomposition", spy)
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["program"] == ROUTES[route]
    (chi,) = unpacked
    P = swap_last_two(cls.dims)
    assert np.array_equal(P @ chi @ P, chi)


def row_multipliers(cls, Z):
    """The least-squares y of A^T y = e_00 - A_r*(Z), by numpy's lstsq."""
    da, db = cls.dims
    sa, sb = build_basis(da), build_basis(db)
    target = -np.array([np.vdot(np.kron(sa[k], sb[l]), Z).real / (da * db)
                        for k in range(da * da) for l in range(db * db)])
    target[0] += 1.0
    return np.linalg.lstsq(cls.rows.T, target, rcond=None)[0]


@pytest.mark.parametrize("e", [0.02, 0.08, 0.14, 0.2])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_fallback_record_matches_the_witness_record(kind, direction, e, monkeypatch):
    # the extension program's (f, w) (four-state), or the dual blocks of
    # the face program over the whole support (six-state, whose rows pin
    # rho), give the same matrices the witness solve's dual blocks give
    cls = protocol_class(kind, e, direction)
    witness = best_extendible_decomposition(cls)
    fail_witness_solves(monkeypatch)
    res = best_extendible_decomposition(cls)
    y = res.diagnostics["witness"]
    if kind == "four-state":
        assert res.diagnostics["program"] == "extension"
        # its witness is the least-squares multipliers of the class rows:
        # A^T y = e_00 - A_r*(Z_T), A_r*(Z)_kl = Re <S_k (x) S_l, Z> / d_A d_B
        assert np.max(np.abs(y - row_multipliers(cls, res.solution.z_blocks[0]))) <= 1e-9
    else:
        assert res.diagnostics["program"] == "face"
        # its witness is the y with W(y) = S X S^+, so both witness blocks
        # are PSD at y
        for blk in class_row_program(cls).blocks:
            slack = blk.const + np.tensordot(y, blk.mats, 1)
            assert np.linalg.eigvalsh(slack)[0] >= -1e-12
    assert res.diagnostics["witness_value"] == float(cls.rhs @ y)
    assert res.diagnostics["witness_value"] <= 1.0 - res.lambda_max + AGREE_TOL
    assert np.trace(res.chi_tilde).real == res.diagnostics["raw_lambda"]
    assert res.lambda_max == pytest.approx(witness.lambda_max, abs=AGREE_TOL)
    assert verify_extension(res).passed
    # an extendible class (e = 0.2) has many decompositions with lambda = 1
    # (four-state leaves rho* free, and sigma~ has many extensions), and
    # the two solves may end at different ones
    if not witness.extendible:
        assert np.max(np.abs(res.sigma_tilde - witness.sigma_tilde)) <= 1e-6
        assert np.max(np.abs(res.chi_tilde - witness.chi_tilde)) <= 1e-6


NEAR_ZERO = (1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 1e-3)


@functools.cache
def near_zero_points():
    """(spec, class, decomposition) at every NEAR_ZERO rate of the twelve
    built-in configurations, decomposed once for the tests below."""
    points = []
    for kind, direction, source_constraint in product(
            ("four-state", "six-state"), ("direct", "reverse"), (None, True, False)):
        for e in NEAR_ZERO:
            spec = ProtocolSpec(kind, e=e, direction=direction,
                                source_constraint=source_constraint)
            cls = assemble_class(*realize_protocol(spec), spec)
            points.append((spec, cls, best_extendible_decomposition(cls)))
    return points


def assert_witness_feasible(spec, cls, res):
    """Both witness blocks are PSD at the reported y, so b.y bounds
    1 - lambda_max from below."""
    y = res.diagnostics["witness"]
    for blk in class_row_program(cls).blocks:
        slack = blk.const + np.tensordot(y, blk.mats, 1)
        assert np.linalg.eigvalsh(slack)[0] >= -1e-12, spec


def test_fallback_witness_is_a_proof():
    # near e = 0 the witness solve can stall, and the extension program
    # then gives a point of a class that does not pin rho; its witness y
    # must still be feasible for the witness program, so that b.y is a
    # lower bound on 1 - lambda_max (find_cutoff reads it as one).  The
    # least-squares row multipliers alone missed that by -1.27e-8
    # (four-state, direct, source_constraint=False, e = 3e-8)
    fallbacks = [point for point in near_zero_points()
                 if point[2].diagnostics["program"] == "extension"]
    assert fallbacks
    for spec, cls, res in fallbacks:
        assert_witness_feasible(spec, cls, res)
        assert res.diagnostics["witness_value"] <= 1.0 - res.lambda_max + 1e-9, spec


def test_full_support_face_witness_is_a_proof():
    # a pinned full-rank class whose witness solve stalls near e = 0 is
    # solved on its face over the whole support; its witness, from the
    # same least-squares routine as the extension program's, must be
    # feasible for the witness program too
    faces = [point for point in near_zero_points()
             if point[2].diagnostics["support_rank"] == 4]
    assert faces
    for point in faces:
        assert point[2].diagnostics["program"] == "face"
        assert_witness_feasible(*point)


def test_class_rows_are_factored_once_per_row_set(monkeypatch):
    # every class reads the one SVD of its rows cached per row set: a
    # sweep, a forced (r, f) fallback and a stalled six-state face solve
    # run no least-squares solve of their own
    def no_lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(extendibility.np.linalg, "lstsq", no_lstsq)
    extendibility._row_set.cache_clear()
    for kind, direction in product(("four-state", "six-state"), ("direct", "reverse")):
        points = sweep(kind, np.linspace(0.0, 0.25, 26), direction=direction)
        assert {point.status for point in points} == {"optimal"}
    assert extendibility._row_set.cache_info().misses == 4
    for kind, program in (("four-state", "extension"), ("six-state", "face")):
        with monkeypatch.context() as patch:
            fail_witness_solves(patch)
            res = best_extendible_decomposition(protocol_class(kind, 0.05))
        assert res.diagnostics["program"] == program
        assert res.diagnostics["witness"] is not None


def test_inconsistent_rows_raise_infeasible(monkeypatch):
    runs = []

    def spy(problem):
        sol = solve(problem)
        runs.append(sol)
        return sol

    monkeypatch.setattr(extendibility, "solve", spy)
    # a copy of the first six-state row that contradicts it by 1e-3: the
    # independent rows' least squares misses it, so the class is refused
    # before any solve, with that relative miss as its residual
    cls = protocol_class("six-state", 0.05)
    bad = EquivalenceClassSpec(dims=cls.dims, rows=np.vstack([cls.rows, cls.rows[:1]]),
                               rhs=np.concatenate([cls.rhs, [cls.rhs[0] + 1e-3]]))
    with pytest.raises(InconsistentDataError, match="least-squares") as err:
        best_extendible_decomposition(bad)
    assert runs == []
    assert err.value.residual == pytest.approx(1e-3 / (1.0 + np.linalg.norm(bad.rhs)),
                                               rel=1e-9)
    # independent rows that no state meets, <Z (x) I> = 2: the witness
    # program is unbounded along a primal ray, which proves that no state
    # meets the rows; the caller gets that verdict, with the ray's b.d at
    # ||d|| = 1 as its residual
    far = EquivalenceClassSpec(dims=(2, 2), rows=np.eye(16)[[0, 12]], rhs=[1.0, 2.0])
    with pytest.raises(InconsistentDataError, match="primal ray") as err:
        best_extendible_decomposition(far)
    assert [sol.status for sol in runs] == ["unbounded"]
    assert err.value.residual == pytest.approx(assert_ray_proves_no_state(far, runs[0]),
                                               rel=1e-12)


@pytest.mark.parametrize("e", [1e-7, 0.02])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_repeated_rows_run_the_program_of_the_class(kind, e):
    # the programs are stated over the independent rows, so a class with
    # every row written twice runs the class's own: the real witness
    # program, over 9 variables four-state and 10 six-state, or at 1e-7
    # six-state the face program its stalled witness solve falls back to;
    # the witness comes back in class-row coordinates, zero on the copies
    cls = protocol_class(kind, e)
    twice = EquivalenceClassSpec(dims=cls.dims, rows=np.vstack([cls.rows] * 2),
                                 rhs=np.concatenate([cls.rhs] * 2))
    res, again = (best_extendible_decomposition(c) for c in (cls, twice))
    for key in ("program", "iterations"):
        assert again.diagnostics[key] == res.diagnostics[key]
    assert again.solution.x.size == res.solution.x.size
    if res.diagnostics["program"] == "witness":
        assert again.lambda_max == res.lambda_max
        y = res.diagnostics["witness"]
        assert np.array_equal(again.diagnostics["witness"], np.concatenate([y, 0.0 * y]))
    else:
        assert abs(again.lambda_max - res.lambda_max) <= 1e-12


def test_extension_structure_is_built_only_on_a_fallback():
    # the four 26-point sweeps and the extend-qutrit stream states all end
    # on the witness or face program, so none builds the extension structure
    extendibility._extension_structure.cache_clear()
    for kind in ("four-state", "six-state"):
        for direction in ("direct", "reverse"):
            for e in np.linspace(0.0, 0.25, 26):
                best_extendible_decomposition(protocol_class(kind, float(e), direction))
    for rank in range(1, 7):
        best_extendible_decomposition(class_from_state(extend_qutrit_stream_state(0, rank)))
    assert extendibility._extension_structure.cache_info().misses == 0
    # a stalled witness solve near e = 0 of a class that does not pin rho
    # builds it once and reads its witness
    res = best_extendible_decomposition(protocol_class("four-state", 1e-8))
    assert res.diagnostics["program"] == "extension"
    assert res.diagnostics["witness"] is not None
    assert extendibility._extension_structure.cache_info().misses == 1
