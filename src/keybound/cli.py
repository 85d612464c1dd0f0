"""Command-line front end.

Subcommands: bound (one point), sweep (a grid of points), cutoff (the
extendibility threshold from one witness solve; --tol bounds its
certified interval), check-extendible (yes/no at one error rate).  Exit
codes: 0 on success, 1 when a solve fails or a point comes back failed,
2 on invalid input or an unwritable output path.  Output files are
written whole via a temporary file and atomic rename, so a failed run
leaves nothing partial behind.  When --out is a relative path and
KEYBOUND_OUTPUT_DIR is set, output lands there.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .bounds import (_fmt, bound_points_to_csv, bound_points_to_json, find_cutoff,
                     gnuplot_script, one_way_upper_bound, sweep)
from .extendibility import best_extendible_decomposition
from .protocols import (InconsistentDataError, ProtocolSpec, assemble_class,
                        load_protocol, realize_protocol)
from .sdp import SolverError

OUTPUT_DIR_ENV = "KEYBOUND_OUTPUT_DIR"


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:count")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be at least 1")
    return [float(v) for v in np.linspace(start, stop, count)]


def _parse_bracket(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError("bracket must be lo:hi")
    return float(parts[0]), float(parts[1])


def _resolve_out(path):
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_atomic(path, text):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            if os.path.exists(tmp):
                os.remove(tmp)
        except OSError:
            pass
        raise


def _spec_from_args(args):
    if args.protocol == "custom":
        if not args.custom_file:
            raise ValueError("--protocol custom needs --custom-file")
        if args.e is not None:
            raise ValueError("--e does not apply to --protocol custom")
        spec = load_protocol(args.custom_file)
        if args.direction:
            spec = replace(spec, direction=args.direction)
        if args.source_constraint is not None:
            spec = replace(spec, source_constraint=args.source_constraint)
        return spec
    if args.custom_file:
        raise ValueError("--custom-file applies only to --protocol custom")
    if args.e is None:
        raise ValueError(f"--protocol {args.protocol} needs --e")
    return ProtocolSpec(args.protocol, e=args.e,
                        direction=args.direction or "direct",
                        source_constraint=args.source_constraint)


def _add_common(sub, one_point=True):
    # sweep and cutoff (one_point=False) run the built-in family over e
    kinds = ["four-state", "six-state"] + (["custom"] if one_point else [])
    sub.add_argument("--protocol", required=True, choices=kinds)
    if one_point:
        sub.add_argument("--e", type=float, default=None,
                         help="error rate of the depolarized reference family")
        sub.add_argument("--custom-file", default=None,
                         help="protocol description JSON (with --protocol custom)")
    sub.add_argument("--direction", choices=["direct", "reverse"], default=None)
    sub.add_argument("--source-constraint", default=None,
                     action=argparse.BooleanOptionalAction,
                     help="pin the preparer's marginal (default: on for "
                          "four-state, off otherwise)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="keybound",
        description="Upper bounds on one-way secret-key rates from "
                    "symmetric-extension decompositions.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_bound = subs.add_parser("bound", help="evaluate the bound at one point")
    _add_common(p_bound)
    p_bound.add_argument("--out", default=None)
    p_bound.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sweep = subs.add_parser("sweep", help="evaluate the bound over a grid")
    _add_common(p_sweep, one_point=False)
    p_sweep.add_argument("--grid", required=True,
                         help="error-rate grid as start:stop:count")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--emit-gnuplot", action="store_true",
                         help="also write <out>.gp plotting the CSV")

    p_cut = subs.add_parser("cutoff", help="solve for the extendibility threshold")
    _add_common(p_cut, one_point=False)
    p_cut.add_argument("--tol", type=float, default=1e-3,
                       help="certified interval width: a wider interval exits 1")
    p_cut.add_argument("--bracket", default="0:0.25")

    p_chk = subs.add_parser("check-extendible",
                            help="is the class extendible at this error rate?")
    _add_common(p_chk)
    return parser


POINT_FIELDS = ("protocol", "direction", "e", "qber", "lambda_max", "mutual_info_ne",
                "mutual_info_ne_full", "upper_bound", "duality_gap", "status")


def _point_lines(point):
    return [f"{name:>20}: {_fmt(getattr(point, name))}" for name in POINT_FIELDS]


def _emit_points(points, args):
    text = bound_points_to_csv(points) if args.format == "csv" \
        else bound_points_to_json(points)
    if args.out:
        path = _resolve_out(args.out)
        _write_atomic(path, text)
        written = [path]
        if getattr(args, "emit_gnuplot", False):
            gp = path + ".gp"
            _write_atomic(gp, gnuplot_script(os.path.basename(path)))
            written.append(gp)
        for w in written:
            print(f"wrote {w}")
    else:
        sys.stdout.write(text)


def run(args):
    # refuse bad flag combinations before any solve, so they write nothing
    if getattr(args, "emit_gnuplot", False):
        if not args.out:
            raise ValueError("--emit-gnuplot needs --out")
        if args.format != "csv":
            raise ValueError("--emit-gnuplot needs --format csv")
    if args.command == "bound":
        point = one_way_upper_bound(_spec_from_args(args))
        for line in _point_lines(point):
            print(line)
        if args.out:
            _emit_points([point], args)
        return 1 if point.status == "failed" else 0

    if args.command == "sweep":
        grid = _parse_grid(args.grid)
        points = sweep(args.protocol, grid, direction=args.direction or "direct",
                       source_constraint=args.source_constraint)
        _emit_points(points, args)
        return 1 if any(p.status == "failed" for p in points) else 0

    if args.command == "cutoff":
        bracket = _parse_bracket(args.bracket)
        value = find_cutoff(args.protocol, tol=args.tol, bracket=bracket,
                            direction=args.direction or "direct",
                            source_constraint=args.source_constraint)
        print(f"{value:.10g}")
        return 0

    if args.command == "check-extendible":
        spec = _spec_from_args(args)
        povms, data = realize_protocol(spec)
        res = best_extendible_decomposition(assemble_class(povms, data, spec))
        print("extendible" if res.extendible else "not extendible")
        print(f"lambda_max: {res.lambda_max:.10g}")
        print(f"program: {res.diagnostics['program']}")
        print(f"class_residual: {res.diagnostics['class_residual']:.3e}")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ValueError, InconsistentDataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
