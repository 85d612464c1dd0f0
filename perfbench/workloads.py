"""The benchmark's workloads: seeded inputs, one op each, and its check.

A workload hands out its inputs in cycles (lists of items), and a run
does a fixed number of whole cycles: ``cycles_for(seconds)``, as many as
take about ``seconds`` on the baseline host (``CYCLE_S`` each).  The ops,
and so the counts of attempted and failed ops, then depend on the seed
and ``seconds`` alone, not on how fast the host ran.  Ops reach the
program only through the public ``keybound`` names, looked up at call
time, so the traced run can wrap them.

Outcomes of one op:
  ok      the op returned and its output passed the benchmark's check;
  failed  the program reported a failure: it raised, returned a
          non-optimal status, or its own verification rejected the result;
  wrong   the program reported success but the output disagrees with the
          known answer (a silent wrong number).
"""

from __future__ import annotations

import math

import numpy as np

import keybound

OK, FAILED, WRONG = "ok", "failed", "wrong"

KINDS = ("four-state", "six-state")
DIRECTIONS = ("direct", "reverse")
# Analytic cutoffs of the depolarized family (README): the bound is
# exactly max(0, 1 - e/e*).
E_STAR = {"four-state": (1.0 - 1.0 / math.sqrt(2.0)) / 2.0,
          "six-state": 1.0 / 6.0}
E_GRID = np.linspace(0.0, 0.25, 26)

POINT_TOL = 1e-6
CUTOFF_TOL = 1e-4
STATE_TOL = 1e-6


class Workload:
    CYCLE_S = 1.0   # seconds one cycle takes on the baseline host (README)

    @classmethod
    def cycles_for(cls, seconds):
        return max(1, round(seconds / cls.CYCLE_S))


class PointsQubit(Workload):
    """One ``one_way_upper_bound`` call per op, over 2 kinds x 2
    directions x the 26-point grid; the seed sets the visiting order."""

    name = "points-qubit"
    CYCLE_S = 3.8

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._points = [(kind, direction, float(e)) for kind in KINDS
                        for direction in DIRECTIONS for e in E_GRID]

    def cycles(self):
        while True:
            yield [self._points[i]
                   for i in self._rng.permutation(len(self._points))]

    @staticmethod
    def op(item):
        kind, direction, e = item
        return keybound.one_way_upper_bound(
            keybound.ProtocolSpec(kind, e=e, direction=direction))

    @staticmethod
    def judge(item, point):
        kind, _, e = item
        if point.status != "optimal":
            return FAILED, f"status {point.status}"
        expected = max(0.0, 1.0 - e / E_STAR[kind])
        if not abs(point.upper_bound - expected) <= POINT_TOL:
            return WRONG, (f"{kind} e={e}: bound {point.upper_bound!r}, "
                           f"expected {expected!r}")
        return OK, ""


class CutoffQubit(Workload):
    """One ``find_cutoff(kind, tol=1e-4)`` call per op with the default
    bracket, alternating four-state and six-state.  The inputs are fixed;
    the seed does not change them."""

    name = "cutoff-qubit"
    CYCLE_S = 1.05

    def __init__(self, seed):
        del seed

    @staticmethod
    def cycles():
        while True:
            yield list(KINDS)

    @staticmethod
    def op(kind):
        return keybound.find_cutoff(kind, tol=CUTOFF_TOL)

    @staticmethod
    def judge(kind, cutoff):
        if not abs(cutoff - E_STAR[kind]) <= CUTOFF_TOL:
            return WRONG, f"{kind}: cutoff {cutoff!r}, expected {E_STAR[kind]!r}"
        return OK, ""


class ExtendQutrit(Workload):
    """``class_from_state``, ``best_extendible_decomposition`` and
    ``verify_extension`` on one random qubit-qutrit state per op, with
    ranks cycling 1..6.

    The states come from one fixed stream (``STATE_SEED``): a run of n
    cycles always covers the same first 6n states, and the seed does not
    change them.  Op times vary 10x from state to state (one rank-2 state
    takes 2 s), so states drawn afresh for each seed would move the
    op-time quantiles by 10-20% from run to run.

    Ranks 3..5 end in numerical failure, and so do some rank-2 states: a
    known solver defect.  They stay in the cycle so that the failure
    share shows.
    """

    name = "extend-qutrit"
    CYCLE_S = 2.0
    STATE_SEED = 0
    dims = (2, 3)

    def __init__(self, seed):
        del seed
        self._rng = np.random.default_rng(self.STATE_SEED)

    def cycles(self):
        d = math.prod(self.dims)
        while True:
            yield [self._state(d, rank) for rank in range(1, d + 1)]

    def _state(self, d, rank):
        g = (self._rng.standard_normal((d, rank))
             + 1j * self._rng.standard_normal((d, rank)))
        mat = g @ g.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        return keybound.DensityOperator(mat / np.trace(mat).real, self.dims)

    @staticmethod
    def op(state):
        cls = keybound.class_from_state(state)
        res = keybound.best_extendible_decomposition(cls)
        return res, keybound.verify_extension(res)

    @staticmethod
    def judge(state, out):
        res, report = out
        if not report.passed:
            return FAILED, "verify_extension rejected the decomposition"
        dev = float(np.max(np.abs(res.rho_star.matrix - state.matrix)))
        if not dev <= STATE_TOL:
            return WRONG, f"rho_star is {dev:.3e} from the pinned state"
        return OK, ""


WORKLOADS = {w.name: w for w in (PointsQubit, CutoffQubit, ExtendQutrit)}
