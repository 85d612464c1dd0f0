import numpy as np
import pytest

from keybound.states import (
    DensityOperator, bell_psi_plus, depolarized_bell, partial_trace_matrix,
    swap_last_two,
)
from helpers import permute_subsystems, random_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_density_operator_validates():
    good = DensityOperator(np.eye(2) / 2, dims=(2,))
    assert good.dims == (2,)
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2), dims=(2,))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), dims=(2,))
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]).astype(complex), dims=(2,))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_operator_rejects_non_finite(bad):
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(ValueError, match="matrix has a non-finite entry"):
        DensityOperator(mat, dims=(2,))


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace_matrix(joint, (2, 3), keep=(0,)), a, atol=1e-12)
    assert np.allclose(partial_trace_matrix(joint, (2, 3), keep=(1,)), b, atol=1e-12)


def test_partial_trace_matrix_three_parties():
    rng = np.random.default_rng(5)
    mats = [random_density(rng, 2) for _ in range(3)]
    joint = np.kron(np.kron(mats[0], mats[1]), mats[2])
    got = partial_trace_matrix(joint, (2, 2, 2), keep=(0, 2))
    assert np.allclose(got, np.kron(mats[0], mats[2]), atol=1e-12)


def test_bell_state_correlations():
    bell = bell_psi_plus()
    rho = bell.matrix
    assert np.trace(rho @ np.kron(X, X)).real == pytest.approx(1.0)
    assert np.trace(rho @ np.kron(Z, Z)).real == pytest.approx(1.0)
    assert np.trace(rho @ np.kron(Y, Y)).real == pytest.approx(-1.0)


@pytest.mark.parametrize("e", [0.0, 0.05, 2 / 3])
def test_depolarized_bell_family(e):
    rho = depolarized_bell(e).matrix
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.trace(rho @ np.kron(X, X)).real == pytest.approx(1 - 2 * e, abs=1e-12)
    assert np.trace(rho @ np.kron(Y, Y)).real == pytest.approx(-(1 - 2 * e), abs=1e-12)
    marg = partial_trace_matrix(rho, (2, 2), keep=(0,))
    assert np.allclose(marg, np.eye(2) / 2, atol=1e-12)


def test_depolarized_bell_range():
    with pytest.raises(ValueError):
        depolarized_bell(-0.01)
    with pytest.raises(ValueError):
        depolarized_bell(0.7)


def test_permute_subsystems_swaps_kron():
    rng = np.random.default_rng(2)
    a = random_density(rng, 2)
    b = random_density(rng, 3)
    swapped = permute_subsystems(np.kron(a, b), (2, 3), (1, 0))
    assert np.allclose(swapped, np.kron(b, a), atol=1e-12)


def test_swap_last_two_conjugation():
    rng = np.random.default_rng(9)
    a, b, c = (random_density(rng, 2) for _ in range(3))
    P = swap_last_two((2, 2))
    joint = np.kron(np.kron(a, b), c)
    got = P @ joint @ P
    assert np.allclose(got, np.kron(np.kron(a, c), b), atol=1e-12)
    # involution
    assert np.allclose(P @ got @ P, joint, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_swap_last_two_matches_subsystem_permutation(dims):
    da, db = dims
    m = random_density(np.random.default_rng(6), da * db * db)
    P = swap_last_two(dims)
    assert np.array_equal(P @ m @ P, permute_subsystems(m, (da, db, db), (0, 2, 1)))
    # built once per dims and shared, so it must be read-only
    assert swap_last_two(dims) is P
    assert not P.flags.writeable


def test_swap_last_two_fixes_symmetric_part():
    P = swap_last_two((2, 2))
    rng = np.random.default_rng(4)
    m = random_density(rng, 8)
    sym = 0.5 * (m + P @ m @ P)
    assert np.allclose(P @ sym @ P, sym, atol=1e-12)
