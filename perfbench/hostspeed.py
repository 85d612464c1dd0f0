"""Host-speed correction of op times.

On a shared host the same op can take 1.4x longer for tens of seconds
while other tenants load the machine (no steal time shows; the CPU
itself runs slower).  A ``Meter`` runs a fixed reference kernel between
ops, at most every ``SLICE_S`` seconds, and scales each op's wall time
by how fast the kernel ran just before and just after it:

    corrected = wall * REFERENCE_S / mean(kernel before, kernel after)

so a corrected time is the op's time on a host where the kernel takes
``REFERENCE_S``.  The kernel does the same kind of work as the program
(small dense eigensolves and solves through numpy, and Python-level
loops) on fixed inputs, and depends on nothing in ``keybound``, so a
change to the program moves the corrected times and the host does not.
"""

from __future__ import annotations

import time

import numpy as np

SLICE_S = 0.5          # at most this long between two kernel runs
REFERENCE_S = 0.016    # kernel time that corrected times are scaled to
_ROUNDS = 40


def _inputs():
    rng = np.random.default_rng(20260)
    mats = []
    for n in (8, 12, 16, 36):
        g = rng.standard_normal((n, n))
        mats.append(g @ g.T + n * np.eye(n))
    return mats


_MATS = _inputs()


def kernel():
    """The reference work: about 16 ms on an idle 2-vCPU Xeon guest."""
    acc = 0.0
    for _ in range(_ROUNDS):
        for m in _MATS:
            w, v = np.linalg.eigh(m)
            acc += float(((v * w) @ v.T)[0, 0])
            acc += float(np.linalg.solve(m, m[0])[0])
        table = {}
        for i in range(300):
            table[i % 17] = table.get(i % 17, 0) + i
    return acc


def kernel_seconds():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Meter:
    """Runs the kernel between ops and corrects their times.

    Call ``before_op`` before each op and ``finish`` after the last one;
    ``corrected(op_s)`` then scales each op's wall time.
    """

    def __init__(self, slice_s=SLICE_S):
        self._slice_s = slice_s
        self._kernel_s = []     # kernel times, in run order
        self._slice_of = []     # per op: index of the kernel run before it
        self._slice_start = 0.0

    def before_op(self):
        if not self._kernel_s or time.perf_counter() - self._slice_start >= self._slice_s:
            self._kernel_s.append(kernel_seconds())
            self._slice_start = time.perf_counter()
        self._slice_of.append(len(self._kernel_s) - 1)

    def finish(self):
        self._kernel_s.append(kernel_seconds())

    def corrected(self, op_s):
        k = self._kernel_s
        return [t * REFERENCE_S / (0.5 * (k[i] + k[i + 1]))
                for t, i in zip(op_s, self._slice_of)]

    def kernel_ms_median(self):
        return float(np.median(self._kernel_s)) * 1e3
