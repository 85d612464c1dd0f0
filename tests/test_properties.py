"""Derandomized property tests.

Hypothesis draws every case from a fixed seed and keeps no example
database, so each run checks the same cases.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from keybound import extendibility
from keybound.bounds import one_way_upper_bound, sweep
from keybound.extendibility import best_extendible_decomposition, build_sdp, verify_extension
from keybound.protocols import (EquivalenceClassSpec, Povm, ProtocolSpec, assemble_class,
                                class_from_state, four_state_povms, realize_protocol,
                                simulate_observed_data, six_state_povms)
from keybound.sdp import GAP_TOL, LmiBlock, SdpProblem, _nt_scaling, _step_bound, solve
from keybound.states import DensityOperator, partial_trace_matrix
from helpers import (achievable_rate, class_row_program, face_primal_oracle,
                     min_block_eigenvalue)

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None,
                        max_examples=30)


def haar_unitary(rng, n):
    """A Haar-random n x n unitary (QR of a Ginibre matrix, phases fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(rng, dims, rank):
    """A random density matrix of the given rank on dims."""
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    return 0.5 * (mat + mat.conj().T) / np.trace(mat).real


@st.composite
def pinned_states(draw):
    """(dims, rank, seed) of a random state on dims (2, 2) or (2, 3)."""
    dims = draw(st.sampled_from([(2, 2), (2, 3)]))
    rank = draw(st.integers(1, dims[0] * dims[1]))
    return dims, rank, draw(st.integers(0, 2**32 - 1))


@settings(DERANDOMIZED, max_examples=24)
@given(st.sampled_from([four_state_povms, six_state_povms]), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_direct_and_reverse_agree_on_swap_symmetric_data(povms, rank, seed):
    # with the same POVM for both parties, a swap-symmetric state gives
    # data that reverse processing relabels into itself, so both
    # directions bound the same class
    rng = np.random.default_rng(seed)
    m = random_state(rng, (2, 2), rank)
    swap = np.eye(4)[[0, 2, 1, 3]]
    state = DensityOperator(0.5 * (m + swap @ m @ swap), (2, 2))
    povm = povms()[0]
    data = simulate_observed_data(state, (povm, povm))
    direct = one_way_upper_bound(ProtocolSpec("custom", povms=(povm, povm), data=data))
    reverse = one_way_upper_bound(ProtocolSpec("custom", povms=(povm, povm), data=data,
                                               direction="reverse"))
    assert direct.status == reverse.status
    assert abs(direct.lambda_max - reverse.lambda_max) <= 1e-6
    assert abs(direct.upper_bound - reverse.upper_bound) <= 1e-6


@DERANDOMIZED
@given(pinned_states())
def test_lambda_max_invariant_under_local_unitaries(case):
    # extendibility is a property of the state up to local unitaries, so
    # the pinned classes of rho and (U x V) rho (U x V)^+ share lambda_max;
    # ranks below d run the face program, rank d the full one
    dims, rank, seed = case
    rng = np.random.default_rng(seed)
    mat = random_state(rng, dims, rank)
    u = np.kron(haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1]))
    rotated = u @ mat @ u.conj().T
    rotated = 0.5 * (rotated + rotated.conj().T)
    lam, lam_rot = (
        best_extendible_decomposition(class_from_state(DensityOperator(m, dims))).lambda_max
        for m in (mat, rotated))
    assert abs(lam - lam_rot) <= 1e-8


@settings(DERANDOMIZED, max_examples=100)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_two_qubit_verdict_matches_closed_form(rank, mixed, seed):
    # a two-qubit state has a symmetric extension on B exactly when
    # Tr(rho_B^2) >= Tr(rho_AB^2) - 4 sqrt(det rho_AB) (Chen, Ji, Kribs,
    # Lutkenhaus & Zeng, PRA 90, 032318 (2014)), a check with no SDP in it;
    # unmixed ranks 1-3 take the face program, the rest the witness program
    rng = np.random.default_rng(seed)
    mat = random_state(rng, (2, 2), rank)
    if mixed:
        weight = rng.uniform()
        mat = (1.0 - weight) * mat + weight * np.eye(4) / 4.0
    rho_b = np.einsum("abac->bc", mat.reshape(2, 2, 2, 2))
    margin = (np.vdot(rho_b, rho_b).real - np.vdot(mat, mat).real
              + 4.0 * np.sqrt(max(np.linalg.det(mat).real, 0.0)))
    # near the boundary 1 - lambda_max is about 2 |margin|, within LAMBDA_TOL
    assume(abs(margin) >= 1e-4)
    res = best_extendible_decomposition(class_from_state(DensityOperator(mat, (2, 2))))
    assert res.extendible == (margin >= 0.0)


ISOTROPIC_CASES = [(d, float(F)) for d in (2, 3) for F in np.linspace(0.2, 1.0, 9)]


@pytest.mark.parametrize("d, F", ISOTROPIC_CASES,
                         ids=[f"d{d}-F{F:.1f}" for d, F in ISOTROPIC_CASES])
def test_isotropic_state_matches_closed_form(d, F):
    # the isotropic state of fidelity F with |Phi+> on C^d (x) C^d has a
    # two-copy symmetric extension on B exactly when F <= F* = (d + 1)/(2d)
    # (Johnson & Viola, PRA 88, 032323 (2013)); above F* the best split
    # mixes rho_F* with |Phi+><Phi+|, so lambda_max = (1 - F)/(1 - F*): an
    # oracle at d = 3 that does not rest on the solver agreeing with itself
    phi = np.eye(d).ravel() / math.sqrt(d)
    proj = np.outer(phi, phi)
    mat = F * proj + (1.0 - F) * (np.eye(d * d) - proj) / (d * d - 1)
    res = best_extendible_decomposition(class_from_state(DensityOperator(mat, (d, d))))
    f_star = (d + 1) / (2 * d)
    exact = 1.0 if F <= f_star else (1.0 - F) / (1.0 - f_star)
    assert abs(res.lambda_max - exact) <= 1e-8
    assert res.extendible == (F <= f_star)
    assert verify_extension(res).passed


PINNED_CASES = [((2, 2), r) for r in range(1, 5)] + [((2, 3), r) for r in range(1, 7)]


@pytest.mark.parametrize("dims, rank", PINNED_CASES,
                         ids=[f"{a}x{b}-rank{r}" for (a, b), r in PINNED_CASES])
@settings(DERANDOMIZED, max_examples=3)
@given(st.integers(0, 2**32 - 1))
def test_pinned_state_decomposition_verifies(dims, rank, seed):
    # ranks below d take the face program, rank d the full program with
    # its class rows substituted away; both must give a decomposition that
    # verify_extension accepts
    state = DensityOperator(random_state(np.random.default_rng(seed), dims, rank), dims)
    assert verify_extension(best_extendible_decomposition(class_from_state(state))).passed


FACE_CASES = [((2, 2), r) for r in (2, 3)] + [((2, 3), r) for r in (3, 4, 5)]


@pytest.mark.parametrize("dims, rank", FACE_CASES,
                         ids=[f"{a}x{b}-rank{r}" for (a, b), r in FACE_CASES])
@settings(DERANDOMIZED, max_examples=3)
@given(st.integers(0, 2**32 - 1))
def test_face_witness_matches_primal_face_oracle(dims, rank, seed):
    # the face witness program and the primal face program are a strictly
    # feasible dual pair, so they share lambda_max; the witness value
    # Tr(rho) - Tr(diag(w) X) bounds 1 - lambda from below
    state = DensityOperator(random_state(np.random.default_rng(seed), dims, rank), dims)
    cls = class_from_state(state)
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["program"] == "face"
    assert abs(res.lambda_max - face_primal_oracle(cls)[0]) <= 1e-7
    assert verify_extension(res).passed
    assert res.diagnostics["witness_value"] <= 1.0 - res.lambda_max + 1e-7


def realify(mat):
    """[[Re, -Im], [Im, Re]] of a matrix or of a stack of matrices."""
    return np.block([[mat.real, -mat.imag], [mat.imag, mat.real]])


def random_hermitian(rng, *shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


@DERANDOMIZED
@given(st.integers(2, 3), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_complex_block_and_its_real_embedding_solve_alike(n, k, real_valued, seed):
    # a complex block, stored at its size n, and its realification given
    # as real input, stored at 2n, are one constraint, so both solves find
    # its optimum.  They are not one barrier: every block counts as
    # Hermitian, so the realification counts as a block of size 2n, twice
    # the complex block's degree, and the two take different steps
    rng = np.random.default_rng(seed)
    const = random_hermitian(rng, n, n)
    mats = random_hermitian(rng, k, n, n)
    w = random_hermitian(rng, n, n)
    if real_valued:
        const, mats, w = (arr.real + 0j for arr in (const, mats, w))
    const = const @ const + 0.1 * np.eye(n)
    w = w @ w + 0.1 * np.eye(n)
    # c_i = <mats_i, W> with W > 0 bounds c.x below by -<const, W>
    c = np.einsum("ijk,kj->i", mats, w).real
    blocks = [LmiBlock(const=const, mats=mats),
              LmiBlock(const=realify(const), mats=realify(mats))]
    assert [blk.dim for blk in blocks] == [n, 2 * n]
    assert np.iscomplexobj(blocks[0].mats) is not real_valued
    assert np.array_equal(realify(blocks[0].const), blocks[1].const)
    assert np.array_equal(realify(blocks[0].mats), blocks[1].mats)
    sols = [solve(SdpProblem(c=c, blocks=[blk])) for blk in blocks]
    assert sols[0].status == sols[1].status == "optimal"
    assert abs(sols[0].objective - sols[1].objective) <= GAP_TOL * (1.0 + abs(sols[1].objective))


@DERANDOMIZED
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_real_block_solves_alike_from_real_and_complex_arrays(n, k, count, seed):
    # a real-valued program is stored and iterated in real arithmetic,
    # and every block counts as Hermitian, so the dtype its arrays came in
    # leaves no trace: the same numbers as float arrays and as complex
    # arrays with zero imaginary part solve bit for bit alike
    rng = np.random.default_rng(seed)
    consts = [random_hermitian(rng, n, n).real for _ in range(count)]
    consts = [a @ a + 0.1 * np.eye(n) for a in consts]
    mats = [random_hermitian(rng, k, n, n).real for _ in range(count)]
    w = random_hermitian(rng, n, n).real
    w = w @ w + 0.1 * np.eye(n)
    # c_i = <mats_i, W> over the first block, W > 0, bounds c.x below
    c = np.einsum("ijk,kj->i", mats[0], w)
    sols = [solve(SdpProblem(c=c, blocks=[LmiBlock(const=cast(a), mats=cast(m))
                                          for a, m in zip(consts, mats)]))
            for cast in (np.asarray, lambda arr: arr + 0j)]
    assert sols[0].status == sols[1].status == "optimal"
    assert sols[0].iterations == sols[1].iterations
    assert np.array_equal(sols[0].x, sols[1].x)
    assert all(not np.iscomplexobj(z) for sol in sols for z in sol.z_blocks)
    for z0, z1 in zip(sols[0].z_blocks, sols[1].z_blocks):
        assert np.array_equal(z0, z1)


def random_real_povm(rng, outcomes):
    """A random real qubit POVM: S^-1/2 G_i S^-1/2 for random real
    positive G_i, S = sum_i G_i."""
    g = rng.standard_normal((outcomes, 2, 2))
    g = g @ np.swapaxes(g, 1, 2) + 0.05 * np.eye(2)
    w, V = np.linalg.eigh(g.sum(axis=0))
    root = (V / np.sqrt(w)) @ V.T
    elements = root @ g @ root
    return Povm(0.5 * (elements + np.swapaxes(elements, 1, 2)),
                tuple(str(i) for i in range(outcomes)))


def assert_real_program_matches_class_row_program(cls):
    """cls qualifies for the real witness program, over the class rows
    less the rank of their odd columns; its optimum is the class-row
    program's, its witness B x is feasible for the class-row program, and
    its decomposition verifies."""
    problem, B = build_sdp(cls)
    odd = extendibility._product_ops(tuple(cls.dims))[3]
    n_odd = np.linalg.matrix_rank(cls.rows[:, odd])
    assert B.shape == (cls.rows.shape[0], problem.num_vars)
    assert problem.num_vars == cls.rows.shape[0] - n_odd
    assert not any(np.iscomplexobj(blk.mats) for blk in problem.blocks)
    real, full = solve(problem), solve(class_row_program(cls))
    assert real.status == full.status == "optimal"
    assert abs(real.objective - full.objective) <= 1e-8
    assert min_block_eigenvalue(class_row_program(cls), B @ real.x) >= -1e-9
    res = best_extendible_decomposition(cls)
    assert res.diagnostics["program"] == "witness"
    assert verify_extension(res).passed


@settings(DERANDOMIZED, max_examples=6)
@given(st.sampled_from([(2, 2), (2, 3)]), st.integers(0, 2**32 - 1))
def test_real_state_runs_the_real_witness_program(dims, seed):
    # a random real full-rank state pins a real class: 16 - 6 = 10
    # variables at (2, 2), 36 - 15 = 21 at (2, 3)
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, d))
    cls = class_from_state(DensityOperator(g @ g.T / np.trace(g @ g.T), dims))
    assert build_sdp(cls)[0].num_vars == {(2, 2): 10, (2, 3): 21}[dims]
    assert_real_program_matches_class_row_program(cls)


@settings(DERANDOMIZED, max_examples=6)
@given(st.integers(2, 4), st.integers(2, 4), st.booleans(), st.integers(0, 2**32 - 1))
def test_real_custom_protocol_runs_the_real_witness_program(na, nb, source, seed):
    # real POVMs and the data of a real state: every row is even, and
    # the source constraint adds the odd row of r_Y0 with rhs 0
    rng = np.random.default_rng(seed)
    povms = (random_real_povm(rng, na), random_real_povm(rng, nb))
    g = rng.standard_normal((4, 4))
    state = DensityOperator(g @ g.T / np.trace(g @ g.T), (2, 2))
    spec = ProtocolSpec("custom", povms=povms, data=simulate_observed_data(state, povms),
                        source_constraint=source,
                        alice_marginal=partial_trace_matrix(state.matrix, (2, 2), keep=(0,)))
    assert_real_program_matches_class_row_program(assemble_class(povms, spec.data, spec))


def test_complex_state_and_mixed_rows_keep_the_class_row_program():
    # a state with an imaginary part has a class no real state meets, and
    # rows that mix the coefficients of X and Y are not invariant under
    # the sign flip of the odd columns: both keep one variable per row
    rng = np.random.default_rng(0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mat = g @ g.conj().T
    complex_cls = class_from_state(DensityOperator(mat / np.trace(mat).real, (2, 2)))
    rows = np.eye(16)
    rows[1] = (rows[1] + rows[2]) / math.sqrt(2.0)   # (I, X) and (I, Y), together
    mixed = EquivalenceClassSpec(dims=(2, 2), rows=np.delete(rows, 2, axis=0),
                                 rhs=np.eye(15)[0])
    assert extendibility._row_set(mixed.rows.tobytes(), mixed.rows.shape, (2, 2))[4] is None
    for cls in (complex_cls, mixed):
        problem, B = build_sdp(cls)
        assert problem.num_vars == cls.rows.shape[0]
        assert np.array_equal(B, np.eye(cls.rows.shape[0]))
        assert any(np.iscomplexobj(blk.mats) for blk in problem.blocks)


@DERANDOMIZED
@given(st.sampled_from([(2, 2), (2, 3)]), st.integers(0, 2**32 - 1))
def test_state_at_the_eigenvalue_floor_decomposes(dims, seed):
    # DensityOperator takes eigenvalues down to -1e-9, and class_from_state
    # brings about a third of the states drawn at that floor back just
    # below it, past -SUPPORT_TOL: the refusal of a class that pins no
    # state lies beyond that rounding, and such a state decomposes on its
    # face like any other
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    w = rng.uniform(0.0, 1.0, d)
    w = np.concatenate([[-1e-9], w[1:] * (1.0 + 1e-9) / w[1:].sum()])
    V = haar_unitary(rng, d)
    try:
        state = DensityOperator((V * w) @ V.conj().T, dims)
    except ValueError:   # rounded below the floor
        assume(False)
    res = best_extendible_decomposition(class_from_state(state))
    assert res.diagnostics["program"] == "face"
    assert verify_extension(res).passed


def random_spd(rng, n, log_cond, hermitian=False):
    """A random n x n SPD matrix with condition number 10 ** log_cond, or
    a Hermitian positive definite one."""
    q = haar_unitary(rng, n) if hermitian else np.linalg.qr(rng.standard_normal((n, n)))[0]
    ev = np.logspace(0.0, -log_cond, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return (q * ev) @ q.conj().T


@DERANDOMIZED
@given(st.integers(1, 36), st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_nesterov_todd_scaling(n, log_cond_s, log_cond_z, hermitian, seed):
    # R^H Z R = diag(d) = R^-1 S R^-H, with R^-1 built from the SVD alone,
    # for real symmetric and complex Hermitian pairs
    rng = np.random.default_rng(seed)
    S, Z = (random_spd(rng, n, log_cond, hermitian) for log_cond in (log_cond_s, log_cond_z))
    R, Rinv, d = _nt_scaling(S, Z)
    assert np.abs(R @ Rinv - np.eye(n)).max() <= 1e-8
    for scaled in (R.conj().T @ Z @ R, Rinv @ S @ Rinv.conj().T):
        assert np.abs(scaled - np.diag(d)).max() <= 1e-8 * d.max()
    # a stack of pairs gives, slice by slice, the bits of each pair alone
    stacked = _nt_scaling(np.stack([S, Z]), np.stack([Z, S]))
    for j, pair in enumerate(((S, Z), (Z, S))):
        for got, want in zip(stacked, _nt_scaling(*pair), strict=True):
            assert got[j].tobytes() == want.tobytes()


def step_bound_reference(d, *deltas):
    """The step bound from the lowest eigenvalue of every scaled direction."""
    sd = np.sqrt(d)
    lo = float(np.linalg.eigvalsh(np.stack(deltas) / np.outer(sd, sd))[:, 0].min())
    return np.inf if lo >= -1e-300 else 1.0 / (-lo)


@DERANDOMIZED
@given(st.integers(1, 36), st.floats(0.0, 10.0), st.lists(st.booleans(), min_size=1, max_size=2),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_step_bound_matches_eigvalsh(n, log_cond, psd, hermitian, seed):
    # each direction is sqrt(d) N sqrt(d) with N of spectrum in [0.1, 1]
    # (psd) or [-1, 1], real symmetric or complex Hermitian, so the bound
    # is inf exactly when all are psd
    rng = np.random.default_rng(seed)
    d = np.logspace(0.0, -log_cond, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    sd = np.sqrt(d)
    deltas = []
    for is_psd in psd:
        q = haar_unitary(rng, n) if hermitian else np.linalg.qr(rng.standard_normal((n, n)))[0]
        ev = rng.uniform(0.1, 1.0, n) if is_psd else np.append(-1.0, rng.uniform(-1.0, 1.0, n - 1))
        N = (q * ev) @ q.conj().T
        deltas.append(np.outer(sd, sd) * 0.5 * (N + N.conj().T))
    scaled = [delta / np.outer(sd, sd) for delta in deltas]
    got = _step_bound(*scaled)
    assert _step_bound(np.stack(scaled)) == got
    want = step_bound_reference(d, *deltas)
    if all(psd):
        assert got == want == np.inf
    else:
        assert got == pytest.approx(want, rel=1e-9)


@functools.lru_cache(maxsize=None)
def depolarized_lambda_max(kind, direction, e):
    spec = ProtocolSpec(kind, e=e, direction=direction)
    povms, data = realize_protocol(spec)
    return best_extendible_decomposition(assemble_class(povms, data, spec)).lambda_max


@DERANDOMIZED
@given(st.sampled_from(["four-state", "six-state"]), st.sampled_from(["direct", "reverse"]),
       st.floats(0.0, 0.25), st.floats(0.0, 0.25))
def test_lambda_max_monotone_in_error_rate(kind, direction, e1, e2):
    # more depolarizing noise never makes the class harder to extend
    lo, hi = sorted((e1, e2))
    assert (depolarized_lambda_max(kind, direction, lo)
            <= depolarized_lambda_max(kind, direction, hi) + 1e-7)


def floor_cases():
    """The 12 configurations on the 26-point grid of the sweeps, with the
    four-state e = 0 points apart."""
    grid = np.linspace(0.0, 0.25, 26)
    for kind, direction, source in itertools.product(
            ("four-state", "six-state"), ("direct", "reverse"), (None, False, True)):
        name = f"{kind}-{direction}-{source}"
        if kind == "six-state":
            yield pytest.param(kind, direction, source, grid, id=name)
            continue
        yield pytest.param(kind, direction, source, grid[1:], id=f"{name}-e>0")
        yield pytest.param(kind, direction, source, grid[:1], id=f"{name}-e=0",
                           marks=pytest.mark.xfail(strict=True, reason=(
                               "the record's rounding gives lambda_max 1.61e-10 (exact: 0) "
                               "and puts the bound 5.74e-10 below the achievable rate 1; a "
                               "feasible record (ROADMAP item 3) must turn this into a pass")))


@pytest.mark.parametrize("kind, direction, source, grid", floor_cases())
def test_bound_stays_above_the_achievable_rate(kind, direction, source, grid):
    # a valid upper bound on the one-way key rate never falls below a rate
    # that one-way post-processing is proven to reach: an oracle that does
    # not rest on the solver agreeing with itself.  1e-12 allows the
    # rounding of a bound that meets its floor, as six-state reverse with
    # the source constraint does at e = 0 (6.7e-16 below 1)
    for point in sweep(kind, grid, direction=direction, source_constraint=source):
        assert point.status == "optimal"
        assert point.upper_bound >= achievable_rate(kind, point.e) - 1e-12, point.e
