"""The witness program against the extension program it is the dual of,
and the fallback from one to the other."""

from dataclasses import replace

import numpy as np
import pytest

from keybound import extendibility
from keybound.bounds import one_way_upper_bound
from keybound.extendibility import (best_extendible_decomposition, build_sdp,
                                    extension_sdp, verify_extension)
from keybound.protocols import (EquivalenceClassSpec, ProtocolSpec, assemble_class,
                                class_from_state, realize_protocol)
from keybound.sdp import SolverError, solve
from keybound.states import DensityOperator
from helpers import assert_ray_proves_no_state, extend_qutrit_stream_state

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
    return float(sol.x[cls.rows.shape[1]])


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
    # x is the witness y, one entry per class row, and b.y is its value
    assert sol.x.shape == (cls.rows.shape[0],)
    assert d["witness_value"] == pytest.approx(float(cls.rhs @ sol.x), abs=1e-15)
    assert sol.objective == pytest.approx(-d["witness_value"], abs=1e-15)
    assert d["witness_value"] == pytest.approx(1.0 - res.lambda_max, abs=AGREE_TOL)
    # the record is a unit-trace decomposition whose Tr(chi~) is lambda
    assert d["rho_star_trace_shift"] <= 1e-12
    assert np.trace(res.sigma_tilde).real == pytest.approx(d["raw_lambda"], abs=1e-15)
    assert np.trace(res.chi_tilde).real == d["raw_lambda"]
    assert 0.0 < d["class_residual"] <= 1e-8
    # the witness is feasible: W(y) >= 0 and sym(W(y) (x) I_B') - I >= 0
    for blk in build_sdp(cls)[0].blocks:
        slack = blk.const + np.einsum("i,ijk->jk", sol.x, blk.mats)
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
    witness = runs[0]
    if witness.status != "optimal":
        assert witness.iterations <= 30
        assert "dual residual stalled" in witness.message
        assert [sol.status for sol in runs[1:]] == ["optimal"]


def fail_witness_solves(monkeypatch):
    """Make every witness solve (the program with no equality rows) end
    numerical-failure; returns the list of variable counts solved."""
    runs = []

    def failing_witness(problem):
        sol = solve(problem)
        runs.append(problem.num_vars)
        if problem.eq_rows.shape[0] == 0:
            sol = replace(sol, status="numerical-failure")
        return sol

    monkeypatch.setattr(extendibility, "solve", failing_witness)
    return runs


def test_non_optimal_witness_solve_falls_back(monkeypatch):
    cls = protocol_class("six-state", 0.05)
    runs = fail_witness_solves(monkeypatch)
    res = best_extendible_decomposition(cls)
    assert runs == [cls.rows.shape[0], extension_sdp(cls).num_vars]
    assert res.diagnostics["program"] == "extension"
    assert verify_extension(res).passed
    assert res.lambda_max == pytest.approx(0.3, abs=AGREE_TOL)


@pytest.mark.parametrize("e", [0.02, 0.08, 0.14, 0.2])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_fallback_record_matches_the_witness_record(kind, direction, e, monkeypatch):
    # the extension program's (r, f) is mapped once to the same matrices
    # the witness solve's dual blocks give
    cls = protocol_class(kind, e, direction)
    witness = best_extendible_decomposition(cls)
    fail_witness_solves(monkeypatch)
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["program"] == "extension"
    # its witness is the extension program's dual y, in class-row coordinates
    assert np.array_equal(res.diagnostics["witness"], res.solution.y)
    assert res.diagnostics["witness_value"] == float(cls.rhs @ res.solution.y)
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


def test_inconsistent_rows_raise_infeasible(monkeypatch):
    cls = protocol_class("six-state", 0.05)
    bad = EquivalenceClassSpec(dims=cls.dims, rows=np.vstack([cls.rows, cls.rows[:1]]),
                               rhs=np.concatenate([cls.rhs, [cls.rhs[0] + 1e-3]]))
    runs = []

    def spy(problem):
        sol = solve(problem)
        runs.append(sol)
        return sol

    monkeypatch.setattr(extendibility, "solve", spy)
    with pytest.raises(SolverError) as err:
        best_extendible_decomposition(bad)
    # the witness program is unbounded along a primal ray, which proves
    # that no state meets the rows; that solve is what reaches the caller
    assert [sol.status for sol in runs] == ["unbounded"]
    assert err.value.solution is runs[0]
    assert_ray_proves_no_state(bad, runs[0])


def test_extension_structure_is_built_only_on_a_fallback():
    # the four 26-point sweeps and the extend-qutrit stream states all end
    # on the witness or face program, so none builds the (r, f) structure
    extendibility._extension_structure.cache_clear()
    for kind in ("four-state", "six-state"):
        for direction in ("direct", "reverse"):
            for e in np.linspace(0.0, 0.25, 26):
                best_extendible_decomposition(protocol_class(kind, float(e), direction))
    for rank in range(1, 7):
        best_extendible_decomposition(class_from_state(extend_qutrit_stream_state(0, rank)))
    assert extendibility._extension_structure.cache_info().misses == 0
    # a stalled witness solve near e = 0 builds it once and reads its witness
    res = best_extendible_decomposition(protocol_class("six-state", 1e-8))
    assert res.diagnostics["program"] == "extension"
    assert res.diagnostics["witness"] is not None
    assert extendibility._extension_structure.cache_info().misses == 1
