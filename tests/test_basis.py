import numpy as np
import pytest

from keybound.basis import build_basis, expand, reconstruct
from helpers import random_hermitian

PAULI = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def test_qubit_basis_is_pauli():
    b = build_basis(2)
    for got, name in zip(b, "IXYZ"):
        assert np.allclose(got, PAULI[name], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orthogonality(n):
    b = build_basis(n)
    stack = b.reshape(n * n, -1)
    gram = (stack @ stack.conj().T).real
    assert np.allclose(gram, n * np.eye(n * n), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_normalization(n):
    b = build_basis(n)
    traces = np.array([np.trace(s) for s in b])
    want = np.zeros(n * n, dtype=complex)
    want[0] = n
    assert np.allclose(traces, want, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_hermitian_elements(n):
    b = build_basis(n)
    for s in b:
        assert np.allclose(s, s.conj().T, atol=1e-14)


def test_element_count_and_order():
    b = build_basis(3)
    assert b.shape[1] == 3
    assert len(b) == 9
    # identity first, then symmetric pairs, antisymmetric pairs, diagonal
    assert np.allclose(b[0], np.eye(3), atol=1e-14)
    sym = b[1]
    assert abs(sym[0, 1] - sym[1, 0]) < 1e-14
    anti = b[4]
    assert abs(anti[0, 1] + anti[1, 0]) < 1e-14


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)])
def test_expand_reconstruct_roundtrip(dims):
    rng = np.random.default_rng(7)
    total = int(np.prod(dims))
    op = random_hermitian(rng, total)
    bases = tuple(build_basis(n) for n in dims)
    coeffs = expand(op, bases)
    assert coeffs.shape == tuple(n * n for n in dims)
    assert coeffs.dtype == float and not coeffs.flags.writeable
    back = reconstruct(coeffs, bases)
    assert np.allclose(back, op, atol=1e-11)


def test_expand_known_product():
    # coefficients of a product operator factor
    bases = (build_basis(2), build_basis(2))
    op = np.kron(PAULI["X"], PAULI["Z"])
    coeffs = expand(op, bases)
    want = np.zeros((4, 4))
    want[1, 3] = 4.0  # Tr((X (x) Z) (X (x) Z)) = 4
    assert np.allclose(coeffs, want, atol=1e-13)


def test_expand_identity_normalization():
    bases = (build_basis(2), build_basis(2))
    rho = np.eye(4) / 4
    coeffs = expand(rho, bases)
    assert abs(coeffs[0, 0] - 1.0) < 1e-13
    assert np.abs(coeffs).sum() == pytest.approx(1.0, abs=1e-12)


def test_expand_rejects_non_hermitian():
    bases = (build_basis(2),)
    with pytest.raises(ValueError):
        expand(np.array([[0.0, 1.0], [0.0, 0.0]]), bases)


def test_coefficient_vector_ravel():
    rng = np.random.default_rng(3)
    bases = (build_basis(2), build_basis(2))
    op = random_hermitian(rng, 4)
    coeffs = expand(op, bases)
    flat = coeffs.ravel()
    assert flat.shape == (16,)
    assert flat[5] == coeffs[1, 1]
