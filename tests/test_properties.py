"""Derandomized property tests.

Hypothesis draws every case from a fixed seed and keeps no example
database, so each run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from keybound.extendibility import best_extendible_decomposition
from keybound.protocols import class_from_state
from keybound.states import DensityOperator

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None,
                        max_examples=30)


def haar_unitary(rng, n):
    """A Haar-random n x n unitary (QR of a Ginibre matrix, phases fixed)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@st.composite
def pinned_states(draw):
    """(dims, rank, seed) of a random state on dims (2, 2) or (2, 3)."""
    dims = draw(st.sampled_from([(2, 2), (2, 3)]))
    rank = draw(st.integers(1, dims[0] * dims[1]))
    return dims, rank, draw(st.integers(0, 2**32 - 1))


@DERANDOMIZED
@given(pinned_states())
def test_lambda_max_invariant_under_local_unitaries(case):
    # extendibility is a property of the state up to local unitaries, so
    # the pinned classes of rho and (U x V) rho (U x V)^+ share lambda_max;
    # ranks below d run the face program, rank d the full one
    dims, rank, seed = case
    rng = np.random.default_rng(seed)
    d = dims[0] * dims[1]
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T) / np.trace(mat).real
    u = np.kron(haar_unitary(rng, dims[0]), haar_unitary(rng, dims[1]))
    rotated = u @ mat @ u.conj().T
    rotated = 0.5 * (rotated + rotated.conj().T)
    lam, lam_rot = (
        best_extendible_decomposition(class_from_state(DensityOperator(m, dims))).lambda_max
        for m in (mat, rotated))
    assert abs(lam - lam_rot) <= 1e-8
