"""Upper bounds on the one-way secret-key rate.

For each protocol configuration the pipeline assembles the equivalence
class of states compatible with the observed statistics, finds the best
extendible weight lambda inside it, measures the non-extendible
remainder rho_ne with the protocol POVMs, and reports

    K  <=  (1 - lambda) * I(A;B | rho_ne),

zero when lambda is within LAMBDA_TOL of 1.  The headline mutual
information is computed on the matched-basis pooled bit distribution
(the sifted-key bookkeeping appropriate in the asymmetric-basis limit);
the full-POVM variant is carried alongside for reference.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .extendibility import LAMBDA_TOL, best_extendible_decomposition, verify_extension
from .infotheory import JointDistribution, mutual_information
from .protocols import (ProtocolSpec, assemble_class, matched_key_distribution, qber,
                        realize_protocol, simulate_observed_data)
from .sdp import SolverError

CSV_COLUMNS = ("e", "qber", "lambda_max", "mutual_info_ne", "upper_bound",
               "duality_gap", "status")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BoundPoint:
    """One evaluated point of the upper-bound curve.

    mutual_info_ne is None when lambda ~ 1 (the bound is exactly 0 and
    rho_ne is not defined) and for failed solves.  iterations counts every
    solve of the decomposition; a failed point's, its failing solve only.
    """

    e: float
    qber: float
    lambda_max: float
    mutual_info_ne: float | None
    upper_bound: float
    duality_gap: float
    status: str
    mutual_info_ne_full: float | None = None
    iterations: int = 0
    protocol: str = ""
    direction: str = "direct"


def one_way_upper_bound(spec):
    """Evaluate the bound for one ProtocolSpec, at LAMBDA_TOL and the
    solver's fixed tolerances.

    Solver breakdowns are not raised: the returned point carries
    status "failed" with NaN numbers.  POVMs with key metadata but no
    matched-basis probability mass raise ValueError before any solve, and
    data that no state reproduces raise InconsistentDataError.
    """
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    # qber and the matched-basis information read the same bits: those
    # of the POVMs, in the class's (possibly swapped) party order.
    povms = (cls.alice, cls.bob)
    keyed = cls.alice.bases is not None and cls.bob.bases is not None
    qber_val = qber(cls.data, povms) if keyed else math.nan
    lam = bound = math.nan
    info = info_full = None
    try:
        res = best_extendible_decomposition(cls)
    except SolverError as err:
        sol, status, qber_val = err.solution, "failed", math.nan
        iterations = sol.iterations if sol is not None else 0
    else:
        sol, lam, bound = res.solution, res.lambda_max, 0.0
        status, iterations = sol.status, res.diagnostics["iterations"]
        if res.rho_ne is not None:
            data_ne = simulate_observed_data(res.rho_ne, povms)
            info_full = mutual_information(JointDistribution(data_ne.probs))
            info = mutual_information(matched_key_distribution(data_ne, povms)) \
                if keyed else info_full
            bound = (1.0 - lam) * info
    return BoundPoint(
        e=spec.e if spec.e is not None else math.nan,
        qber=qber_val,
        lambda_max=lam,
        mutual_info_ne=info,
        upper_bound=bound,
        duality_gap=sol.duality_gap if sol is not None else math.nan,
        status=status,
        mutual_info_ne_full=info_full,
        iterations=iterations,
        protocol=spec.kind,
        direction=spec.direction,
    )


def sweep(protocol, e_grid, direction="direct", source_constraint=None):
    """Evaluate the bound over a grid of error rates, in grid order.

    protocol: "four-state" or "six-state".  Failed points stay in the
    output with status "failed"; the sweep continues.
    """
    base = ProtocolSpec(protocol, e=0.0, direction=direction,
                        source_constraint=source_constraint)
    return [one_way_upper_bound(replace(base, e=float(e))) for e in e_grid]


def find_cutoff(protocol, tol=1e-3, bracket=(0.0, 0.25), direction="direct",
                source_constraint=None):
    """Smallest error rate at which the class turns extendible, certified
    by one witness solve.

    protocol: "four-state" or "six-state".  The cutoff is the least e in
    bracket whose class holds a state with lambda_max >= 1 - LAMBDA_TOL.
    The classes, affine in e, are interpolated from the bracket ends, which
    must share their rows, as b(e) = b(lo) + (e - lo) slope; the class at
    the answer must match b within 1e-9 (ValueError otherwise).  One
    decomposition runs at lo + (hi - lo) / 8, or at lo when that point is
    extendible.  Its witness y (diagnostics["witness"], from the witness
    solve or from the program its stall falls back to) has
    b(e).y <= 1 - lambda_max(e) for every e, so the root L of
    b(L).y = LAMBDA_TOL bounds the cutoff from below;
    its sigma_ext and rho_ne, which must pass verify_extension, lie on the
    family at e_s and e_n, so U = (1 - LAMBDA_TOL) e_s + LAMBDA_TOL e_n
    holds a state of extendible weight 1 - LAMBDA_TOL.  Returns L.  tol must be
    finite and positive; an interval [L, U] wider than tol, or none (a
    solve on a rank-deficient face carries no witness), raises SolverError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    base = ProtocolSpec(protocol, e=0.0, direction=direction,
                        source_constraint=source_constraint)

    def class_at(e):
        cls_spec = replace(base, e=float(e))
        return assemble_class(*realize_protocol(cls_spec), cls_spec)

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be an increasing pair")
    cls_lo, cls_hi = class_at(lo), class_at(hi)

    def rows_differ(cls):   # cls's rows are not those of the class at lo
        return cls.rows.shape != cls_lo.rows.shape \
            or np.max(np.abs(cls.rows - cls_lo.rows), initial=0.0) > 1e-9

    if rows_differ(cls_hi):
        raise ValueError("the classes at the bracket ends have different rows; "
                         "the family is not affine")
    slope = (cls_hi.rhs - cls_lo.rhs) / (hi - lo)
    e_w = lo + (hi - lo) / 8
    res = best_extendible_decomposition(
        replace(cls_lo, rhs=cls_lo.rhs + (e_w - lo) * slope))
    solves = [(e_w, res.diagnostics["iterations"])]
    if res.extendible:
        e_w, res = lo, best_extendible_decomposition(cls_lo)
        solves.append((lo, res.diagnostics["iterations"]))
        if res.extendible:
            raise ValueError(f"lower bracket e={lo} is already extendible")
    y = res.diagnostics["witness"]
    if y is None:   # a rank-deficient face: no witness, so no interval below
        y = np.zeros_like(slope)
    at_lo, rate = float(cls_lo.rhs @ y), float(slope @ y)
    if at_lo + (hi - lo) * rate > LAMBDA_TOL:
        raise ValueError(f"upper bracket e={hi} is not extendible")
    if at_lo <= LAMBDA_TOL or res.sigma_ext is None or not verify_extension(res).passed:
        raise SolverError(f"the decomposition at e={e_w} certifies no cutoff",
                          solution=res.solution)
    cut = lo + (LAMBDA_TOL - at_lo) / rate

    def place(state):   # the e at which state's statistics lie on the family
        stats = cls_lo.statistics(state.matrix)
        e = lo + float(slope @ (stats - cls_lo.rhs) / (slope @ slope))
        if np.max(np.abs(cls_lo.rhs + (e - lo) * slope - stats)) > 1e-9:
            raise SolverError(f"the decomposition at e={e_w} has a part off the "
                              "family", solution=res.solution)
        return e

    upper = (1.0 - LAMBDA_TOL) * place(res.sigma_ext) + LAMBDA_TOL * place(res.rho_ne)
    log.debug("cutoff in [%.12g, %.12g], width %.3e; solves (e, iterations): %s",
              cut, upper, upper - cut, solves)
    if abs(upper - cut) > tol:
        raise SolverError(f"certified interval [{cut!r}, {upper!r}] exceeds tol "
                          f"{tol:.3e}", solution=res.solution)
    cls_cut = class_at(cut)
    if rows_differ(cls_cut) \
            or np.max(np.abs(cls_cut.rhs - cls_lo.rhs - (cut - lo) * slope)) > 1e-9:
        raise ValueError(f"the class at e={cut} is not affine in e over the "
                         "bracket; the cutoff certificate does not apply")
    return cut


def _fmt(value):
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if isinstance(value, str):
        return value
    return f"{float(value):.10g}"


def bound_points_to_csv(points):
    """Render points as CSV with the seven contract columns, 10
    significant digits, deterministically."""
    lines = [",".join(CSV_COLUMNS)]
    for p in points:
        lines.append(",".join(_fmt(getattr(p, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def bound_points_to_json(points):
    """Render points as JSON, including the full-POVM mutual information;
    NaN becomes null."""
    out = [{k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in asdict(p).items()} for p in points]
    return json.dumps({"points": out}, indent=2, sort_keys=True) + "\n"


def gnuplot_script(csv_name):
    """A small gnuplot script plotting the bound and lambda columns."""
    return "\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'error rate e'",
        "set ylabel 'bits'",
        "set grid",
        f"plot '{csv_name}' using 1:5 with linespoints title 'upper bound', \\",
        f"     '{csv_name}' using 1:3 with linespoints title 'lambda_max'",
        "pause -1",
    ]) + "\n"
