"""Density operators on small multipartite systems, and the fixed states
and permutation operators the bound construction needs."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sdp import _finite

HERM_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIG_FLOOR = -1e-9


@dataclass(frozen=True)
class DensityOperator:
    """A validated density matrix with a declared tensor factorization.

    Validation on construction: Hermitian within 1e-10 (entrywise), unit
    trace within 1e-10, smallest eigenvalue >= -1e-9.
    """

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        mat = _finite(np.asarray(self.matrix, dtype=complex), "matrix")
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_ATOL:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace is {tr}, not 1 within 1e-10")
        lo = float(np.linalg.eigvalsh(mat)[0])
        if lo < EIG_FLOOR:
            raise ValueError(f"smallest eigenvalue {lo} below -1e-9")
        mat = np.ascontiguousarray(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self):
        return math.prod(self.dims)


def partial_trace_matrix(mat, dims, keep):
    """Trace out all subsystems not in ``keep`` (works on any matrix).

    ``keep`` is a collection of 0-based subsystem indices; the kept
    factors stay in their original relative order.
    """
    dims = tuple(dims)
    s = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= s:
        raise ValueError(f"keep {keep} out of range for {s} subsystems")
    d = math.prod(dims)
    mat = np.asarray(mat)
    if mat.shape != (d, d):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    T = mat.reshape(dims + dims)
    traced = [t for t in range(s) if t not in keep]
    for n_removed, t in enumerate(sorted(traced)):
        cur = t - n_removed
        half = T.ndim // 2
        T = np.trace(T, axis1=cur, axis2=cur + half)
    dk = math.prod(dims[t] for t in keep)
    return T.reshape(dk, dk)


@functools.lru_cache(maxsize=8)
def swap_last_two(dims):
    """The read-only swap operator P on A (x) B (x) B' for dims (d_A, d_B),
    built once per dims.

    P |i,j,k> = |i,k,j>; P is real, symmetric and its own inverse.
    """
    da, db = (int(n) for n in dims)
    d = da * db * db
    eye = np.eye(d)
    P = eye.reshape(da, db, db, da, db, db).transpose(0, 2, 1, 3, 4, 5).reshape(d, d)
    P = np.ascontiguousarray(P)
    P.setflags(write=False)
    return P


def bell_psi_plus():
    """The two-qubit state (|00> + |11>)/sqrt(2) as a DensityOperator."""
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return DensityOperator(np.outer(v, v), (2, 2))


def depolarized_bell(e):
    """Bell state mixed with white noise, parameterized by its error rate.

        rho(e) = (1 - 2e) |psi+><psi+| + (e/2) I_4,   0 <= e <= 2/3.

    Measuring both sides in the same basis (with the y-outcome convention
    of the six-state protocol) gives error probability e in every basis.
    """
    e = float(e)
    if not 0.0 <= e <= 2.0 / 3.0:
        raise ValueError(f"error rate {e} outside [0, 2/3]")
    bell = bell_psi_plus().matrix
    mat = (1.0 - 2.0 * e) * bell + (e / 2.0) * np.eye(4)
    return DensityOperator(mat, (2, 2))
