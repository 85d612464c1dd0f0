"""Orthogonal Hermitian operator bases and coefficient expansions.

Every dimension-``n`` Hilbert space gets a basis of n^2 Hermitian matrices
S_1, ..., S_{n^2}: the identity followed by the generalized Gell-Mann
matrices scaled by sqrt(n/2), so that

    Tr(S_j) = n * delta_{j,1}      and      Tr(S_j S_k) = n * delta_{j,k}.

For n = 2 this is exactly (identity, sigma_x, sigma_y, sigma_z).  Any
Hermitian operator M on a tensor product of such spaces is then

    M = (1/d) * sum_{k,l,...} r_{k,l,...} S_k (x) S_l (x) ...,
    r_{k,l,...} = Tr((S_k (x) S_l (x) ...) M),

with d the total dimension, and the coefficients r are real.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Largest tolerated entry of op - op^dagger in expand.
HERM_TOL = 1e-8


@functools.lru_cache(maxsize=8)
def build_basis(dim):
    """Construct the scaled Gell-Mann basis for one subsystem, once per
    dimension; every caller shares the read-only result.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension n, at least 2.

    Returns
    -------
    ndarray
        Read-only (n^2, n, n) stack of Hermitian matrices: the identity,
        then the symmetric off-diagonal pairs, the antisymmetric
        off-diagonal pairs and the diagonal generators, each group in
        row-major index order.
    """
    if dim < 2:
        raise ValueError(f"basis needs dimension >= 2, got {dim}")
    scale = math.sqrt(dim / 2.0)
    stack = np.zeros((dim * dim, dim, dim), dtype=complex)
    stack[0] = np.eye(dim)
    # over j < k in row-major order: symmetric off-diagonal (|j><k| + |k><j|),
    # then antisymmetric off-diagonal (-i|j><k| + i|k><j|)
    j, k = np.triu_indices(dim, 1)
    sym = np.arange(1, len(j) + 1)
    stack[sym, j, k] = stack[sym, k, j] = scale
    stack[sym + len(j), j, k] = -1.0j * scale
    stack[sym + len(j), k, j] = 1.0j * scale
    # diagonal: sqrt(2/(l(l+1))) * diag(1, ..., 1, -l, 0, ..., 0)
    for l in range(1, dim):
        v = np.zeros(dim)
        v[:l] = 1.0
        v[l] = -l
        stack[2 * len(j) + l] = scale * (np.diag(v) * math.sqrt(2.0 / (l * (l + 1))))
    stack.setflags(write=False)
    return stack


def expand(op, bases):
    """Expand a Hermitian operator over tensor products of basis elements.

    Parameters
    ----------
    op : ndarray
        Square matrix on the tensor product of the given subsystems.
    bases : sequence of ndarray
        One basis (as built by build_basis) per tensor factor, in order.

    Returns
    -------
    ndarray
        Read-only real coefficients, one axis per subsystem (axis t runs
        over the n_t^2 elements of bases[t]):
        coeffs[k, l, ...] = Tr((S_k (x) S_l (x) ...) op).
    """
    bases = list(bases)
    dims = tuple(b.shape[1] for b in bases)
    d = math.prod(dims)
    op = np.asarray(op, dtype=complex)
    if op.shape != (d, d):
        raise ValueError(f"operator shape {op.shape} does not match dims {dims}")
    if np.max(np.abs(op - op.conj().T)) > HERM_TOL:
        raise ValueError("operator is not Hermitian within tolerance")
    s = len(dims)
    T = op.reshape(dims + dims)  # axes i_1..i_s, j_1..j_s
    for t in range(s):
        # Tr(S_k A) = sum_{j,i} S_k[j,i] A[i,j]; after t contractions the
        # current subsystem's i axis sits at position t and its j axis at s.
        T = np.tensordot(bases[t], T, axes=((1, 2), (s, t)))
        T = np.moveaxis(T, 0, t)
    coeffs = np.ascontiguousarray(T.real)
    coeffs.setflags(write=False)
    return coeffs


def reconstruct(coeffs, bases):
    """Rebuild the operator from expansion coefficients (inverse of expand)."""
    arr = np.asarray(coeffs)
    bases = list(bases)
    dims = tuple(b.shape[1] for b in bases)
    d = math.prod(dims)
    shape = tuple(len(b) for b in bases)
    if arr.shape != shape:
        raise ValueError(f"coefficient shape {arr.shape} does not match {shape}")
    s = len(dims)
    T = arr.astype(complex)
    for t in range(s):
        # consume the leading coefficient axis, appending (row, col) axes
        T = np.tensordot(T, bases[t], axes=((0,), (0,)))
    # axes now (r_1, c_1, r_2, c_2, ...) -> (r_1..r_s, c_1..c_s)
    order = list(range(0, 2 * s, 2)) + list(range(1, 2 * s, 2))
    return T.transpose(order).reshape(d, d) / d
