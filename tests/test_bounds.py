import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import cutoff_bisection_oracle
from keybound import bounds, extendibility
from keybound.bounds import (
    BoundPoint, bound_points_to_csv, bound_points_to_json, find_cutoff,
    gnuplot_script, one_way_upper_bound, sweep,
)
from keybound.protocols import ProtocolSpec
from keybound.sdp import SolverError

CUT4 = 0.5 * (1.0 - 1.0 / math.sqrt(2.0))
E_STAR = {"four-state": CUT4, "six-state": 1.0 / 6.0}


def test_zero_error_bound_is_one():
    for fac in (ProtocolSpec.four_state, ProtocolSpec.six_state):
        p = one_way_upper_bound(fac(0.0))
        assert p.status == "optimal"
        assert p.upper_bound == pytest.approx(1.0, abs=1e-6)
        assert p.lambda_max == pytest.approx(0.0, abs=1e-6)


def test_six_state_linear_law():
    for e in (0.03, 0.09, 0.14):
        p = one_way_upper_bound(ProtocolSpec.six_state(e))
        assert p.lambda_max == pytest.approx(6 * e, abs=2e-6)
        assert p.upper_bound == pytest.approx(1 - 6 * e, abs=1e-5)
        assert p.qber == pytest.approx(e, abs=1e-12)


def test_beyond_cutoff_bound_vanishes():
    p = one_way_upper_bound(ProtocolSpec.six_state(0.20))
    assert p.status == "optimal"
    assert p.lambda_max == pytest.approx(1.0, abs=1e-6)
    assert p.upper_bound == 0.0
    assert p.mutual_info_ne is None


def test_bound_point_identity():
    for e in (0.02, 0.07, 0.12):
        p = one_way_upper_bound(ProtocolSpec.six_state(e))
        assert abs(p.upper_bound - (1 - p.lambda_max) * p.mutual_info_ne) <= 1e-9


def test_raw_information_crossing():
    """The certified bound and the raw information cross near e = 0.0416.

    Both cap the extractable key separately, but neither caps the other:
    1 - lambda(e) = 1 - 6e is a line, while h'(e) = log2((1-e)/e) is
    unbounded at e = 0, so 1 - h(e) first falls faster than the line and
    stays below it until h(e) = 6e.  The certified bound therefore sits
    above the raw information for small e (by up to 0.0224 bits, at
    e = 1/65) and below it afterwards.  Document both sides of the crossing.
    """
    from keybound.infotheory import mutual_information
    from keybound.protocols import matched_key_distribution, realize_protocol, simulate_observed_data
    from keybound.states import depolarized_bell

    def raw_info(e):
        spec = ProtocolSpec.six_state(e)
        povms, _ = realize_protocol(spec)
        data = simulate_observed_data(depolarized_bell(e), povms)
        return mutual_information(matched_key_distribution(data, povms))

    for e in (0.01, 0.02):
        p = one_way_upper_bound(ProtocolSpec.six_state(e))
        assert p.upper_bound > raw_info(e) + 1e-3
    for e in (0.05, 0.11):
        p = one_way_upper_bound(ProtocolSpec.six_state(e))
        assert p.upper_bound < raw_info(e) - 1e-3
    # at e = 0 the two coincide exactly: both equal one bit
    p0 = one_way_upper_bound(ProtocolSpec.six_state(0.0))
    assert abs(p0.upper_bound - raw_info(0.0)) <= 1e-6


def test_sweep_preserves_grid_order():
    grid = [0.12, 0.0, 0.05]
    assert [p.e for p in sweep("six-state", grid)] == grid


def test_find_cutoff_values():
    cut6 = find_cutoff("six-state", tol=1e-3)
    assert cut6 == pytest.approx(1 / 6, abs=2e-3)
    cut4 = find_cutoff("four-state", tol=1e-3)
    assert cut4 == pytest.approx(CUT4, abs=2e-3)


@pytest.mark.parametrize("kind", ["four-state", "six-state"])
@pytest.mark.parametrize("direction", ["direct", "reverse"])
@pytest.mark.parametrize("source_constraint", [None, False, True])
def test_find_cutoff_matches_analytic(kind, direction, source_constraint):
    cut = find_cutoff(kind, tol=1e-4, direction=direction,
                      source_constraint=source_constraint)
    assert abs(cut - E_STAR[kind]) <= 1e-6


@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_find_cutoff_agrees_with_bisection_oracle(kind):
    oracle = cutoff_bisection_oracle(kind, tol=1e-5)
    assert abs(find_cutoff(kind, tol=1e-5) - oracle) <= 2e-5


def test_find_cutoff_validates_bracket():
    with pytest.raises(ValueError):
        find_cutoff("six-state", bracket=(0.2, 0.25))  # already extendible at lo
    with pytest.raises(ValueError):
        find_cutoff("six-state", bracket=(0.0, 0.1))  # not extendible at hi


@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_find_cutoff_bracket_edges(kind):
    e_star = E_STAR[kind]
    cut = find_cutoff(kind, tol=1e-4, bracket=(e_star - 1e-3, 0.25))
    assert abs(cut - e_star) <= 1e-6
    with pytest.raises(ValueError, match="lower bracket"):
        find_cutoff(kind, tol=1e-4, bracket=(e_star + 1e-5, 0.25))
    # The threshold solve ends in a Farkas certificate here, and the
    # bracket must be named from it.
    with pytest.raises(ValueError, match="upper bracket"):
        find_cutoff(kind, tol=1e-4, bracket=(0.0, 0.1))


def test_find_cutoff_gap_above_tol_raises():
    with pytest.raises(SolverError, match="exceeds tol"):
        find_cutoff("six-state", tol=1e-300)


def test_find_cutoff_rejects_non_affine_family(monkeypatch):
    from keybound.protocols import six_state_povms, simulate_observed_data
    from keybound.states import depolarized_bell

    def quadratic_family(spec):
        povms = six_state_povms()
        return povms, simulate_observed_data(
            depolarized_bell(4.0 * spec.e * spec.e), povms)

    monkeypatch.setattr(bounds, "realize_protocol", quadratic_family)
    with pytest.raises(ValueError, match="not affine"):
        find_cutoff("six-state", tol=1e-4)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_find_cutoff_rejects_bad_tol_before_solving(tol, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("find_cutoff solved before validating tol")

    monkeypatch.setattr(extendibility, "solve", no_solve)
    with pytest.raises(ValueError, match="tol"):
        find_cutoff("six-state", tol=tol)


def test_find_cutoff_stops_at_float_resolution(monkeypatch):
    # A tol below the float spacing near the threshold cannot be met; the
    # bisection must still end once the bracket is two adjacent floats.
    # The predicate is stubbed to a step at 1/6, so a loop that never ends
    # fails on the call count instead of hanging.
    calls = []

    def step_at_one_sixth(e):
        calls.append(e)
        assert len(calls) < 200, "bisection did not stop"
        return SimpleNamespace(lambda_max=1.0 if e >= 1 / 6 else 0.0)

    monkeypatch.setattr(bounds, "realize_protocol", lambda spec: (None, None))
    monkeypatch.setattr(bounds, "assemble_class", lambda povms, data, spec: spec.e)
    monkeypatch.setattr(bounds, "best_extendible_decomposition", step_at_one_sixth)
    cut = cutoff_bisection_oracle("six-state", tol=1e-300)
    assert cut == pytest.approx(1 / 6, abs=1e-15)


def test_csv_contract():
    pts = sweep("six-state", [0.0, 0.05, 0.2])
    text = bound_points_to_csv(pts)
    lines = text.strip().split("\n")
    assert lines[0] == "e,qber,lambda_max,mutual_info_ne,upper_bound,duality_gap,status"
    assert len(lines) == 4
    row = lines[2].split(",")
    assert len(row) == 7
    assert row[0] == "0.05"
    assert float(row[2]) == pytest.approx(0.3, abs=1e-5)
    assert row[6] == "optimal"
    # extendible point renders the missing information as nan
    assert lines[3].split(",")[3] == "nan"


def test_csv_deterministic():
    a = bound_points_to_csv(sweep("six-state", [0.0, 0.08]))
    b = bound_points_to_csv(sweep("six-state", [0.0, 0.08]))
    assert a == b


def test_json_rendering():
    pts = sweep("six-state", [0.05, 0.2])
    doc = json.loads(bound_points_to_json(pts))
    assert len(doc["points"]) == 2
    first = doc["points"][0]
    assert first["protocol"] == "six-state"
    assert first["mutual_info_ne_full"] is not None
    assert doc["points"][1]["mutual_info_ne"] is None


def test_failed_points_render_as_nan():
    p = BoundPoint(e=0.1, qber=math.nan, lambda_max=math.nan, mutual_info_ne=None,
                   upper_bound=math.nan, duality_gap=math.nan, status="failed")
    text = bound_points_to_csv([p])
    assert text.splitlines()[1] == "0.1,nan,nan,nan,nan,nan,failed"


@pytest.mark.parametrize("solution", [None, SimpleNamespace(duality_gap=0.25,
                                                            iterations=7)])
def test_solver_failure_gives_a_failed_point(solution, monkeypatch):
    def breakdown(cls):
        raise SolverError("breakdown", solution=solution)

    monkeypatch.setattr(bounds, "best_extendible_decomposition", breakdown)
    p = one_way_upper_bound(ProtocolSpec.six_state(0.05))
    assert (p.e, p.status, p.protocol, p.direction) == (0.05, "failed", "six-state",
                                                         "direct")
    assert math.isnan(p.qber) and math.isnan(p.lambda_max) and math.isnan(p.upper_bound)
    assert p.mutual_info_ne is None and p.mutual_info_ne_full is None
    assert p.iterations == (0 if solution is None else 7)
    (doc,) = json.loads(bound_points_to_json([p]))["points"]
    assert doc["duality_gap"] == (None if solution is None else 0.25)
    assert doc["qber"] is None and doc["upper_bound"] is None


def test_gnuplot_script_mentions_csv():
    script = gnuplot_script("sweep.csv")
    assert "sweep.csv" in script
    assert "upper_bound" in script or "using" in script
