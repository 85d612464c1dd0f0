"""Shannon entropy and mutual information of finite joint distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sdp import _finite

NEG_TOL = 1e-12
SUM_ATOL = 1e-9


def _clean_probs(p, name="probabilities"):
    p = _finite(np.asarray(p, dtype=float), name)
    if p.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.min(p) < -NEG_TOL:
        raise ValueError(f"{name} contain {np.min(p)}, below -1e-12")
    return np.clip(p, 0.0, None)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint distribution over two finite outcome sets, entry [i, j] being
    the probability of (Alice outcome i, Bob outcome j)."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = _clean_probs(self.probabilities)
        if p.ndim != 2:
            raise ValueError("joint distribution must be a 2-d array")
        if abs(p.sum() - 1.0) > SUM_ATOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1 within 1e-9")
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def marginal_a(self):
        return self.probabilities.sum(axis=1)

    def marginal_b(self):
        return self.probabilities.sum(axis=0)


def shannon_entropy(p):
    """Base-2 entropy of a probability vector; 0 log 0 reads as 0.

    Entries below -1e-12 raise; tiny negatives are clipped to zero.
    The vector need not be normalized exactly, but callers should pass
    distributions (tests hold the [0, log2(len)] range only then).
    """
    p = _clean_probs(p).ravel()
    nz = p[p > 0.0]
    h = float(-(nz * np.log2(nz)).sum())
    return max(h, 0.0)


def mutual_information(joint):
    """I(A;B) in bits of a JointDistribution."""
    ha = shannon_entropy(joint.marginal_a())
    hb = shannon_entropy(joint.marginal_b())
    hab = shannon_entropy(joint.probabilities)
    return max(ha + hb - hab, 0.0)
