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
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .extendibility import best_extendible_decomposition, extendibility_threshold
from .infotheory import mutual_information
from .protocols import (ProtocolSpec, assemble_class, full_joint,
                        matched_key_distribution, qber, realize_protocol,
                        simulate_observed_data)
from .sdp import SolverError, SolverSettings

CSV_COLUMNS = ("e", "qber", "lambda_max", "mutual_info_ne", "upper_bound",
               "duality_gap", "status")


@dataclass(frozen=True)
class BoundPoint:
    """One evaluated point of the upper-bound curve.

    mutual_info_ne is None when lambda ~ 1 (the bound is exactly 0 and
    rho_ne is not defined) and for failed solves.
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
    solver's default settings.

    Solver breakdowns are not raised: the returned point carries
    status "failed" with NaN numbers.
    """
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    # qber and the matched-basis information read the same bits: those
    # of the POVMs, in the class's (possibly swapped) party order.
    povms = (cls.alice, cls.bob)
    keyed = cls.alice.bases is not None and cls.bob.bases is not None
    try:
        qber_val = qber(cls.data, povms) if keyed else math.nan
    except ValueError:
        qber_val = math.nan
    lam = bound = math.nan
    info = info_full = None
    try:
        res = best_extendible_decomposition(cls)
    except SolverError as err:
        sol, status, qber_val = err.solution, "failed", math.nan
    else:
        sol, lam, bound = res.solution, res.lambda_max, 0.0
        status = sol.status
        if res.rho_ne is not None:
            data_ne = simulate_observed_data(res.rho_ne, povms)
            info_full = mutual_information(full_joint(data_ne))
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
        iterations=sol.iterations if sol is not None else 0,
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
    """Smallest error rate at which the class turns extendible, as one SDP.

    protocol: "four-state" or "six-state".  The threshold is the least e
    in bracket whose class contains a state with
    lambda_max >= 1 - LAMBDA_TOL (extendibility_threshold).  The
    built-in family depolarized_bell(e) is affine in e, so its classes
    are interpolated from the two bracket ends; the class re-assembled
    at the answer must match that interpolation within 1e-9, or
    ValueError.  The class must be extendible at bracket[1] and not at
    bracket[0] (ValueError otherwise).  tol is the certified accuracy:
    tol must be finite and positive, and a solve whose duality gap
    objective - dual objective exceeds tol raises SolverError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    base = ProtocolSpec(protocol, e=0.0, direction=direction,
                        source_constraint=source_constraint)

    def class_at(e):
        cls_spec = replace(base, e=float(e))
        povms, data = realize_protocol(cls_spec)
        return assemble_class(povms, data, cls_spec)

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be an increasing pair")
    cls_lo, cls_hi = class_at(lo), class_at(hi)
    sol = extendibility_threshold(cls_lo, cls_hi, (lo, hi))
    if sol.status == "infeasible":
        raise ValueError(f"upper bracket e={hi} is not extendible")
    if sol.status != "optimal":
        raise SolverError(f"threshold solve ended with status {sol.status}: "
                          f"{sol.message}", solution=sol)
    cut = float(sol.x[-1])
    gap = abs(sol.objective - sol.dual_objective)
    if cut - lo <= max(gap, SolverSettings().feas_tol):
        raise ValueError(f"lower bracket e={lo} is already extendible")
    if gap > tol:
        raise SolverError(f"threshold duality gap {gap:.3e} exceeds tol {tol:.3e}",
                          solution=sol)
    cls_cut = class_at(cut)
    expected = cls_lo.rhs + (cut - lo) * (cls_hi.rhs - cls_lo.rhs) / (hi - lo)
    if cls_cut.rows.shape != cls_lo.rows.shape \
            or np.max(np.abs(cls_cut.rows - cls_lo.rows), initial=0.0) > 1e-9 \
            or np.max(np.abs(cls_cut.rhs - expected), initial=0.0) > 1e-9:
        raise ValueError(f"the class at e={cut} is not affine in e over the "
                         "bracket; the threshold program does not apply")
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
