"""Solver census: iterations, fallbacks and program sizes of fixed solves.

Run from the repository root as ``PYTHONPATH=src python .github/census.py``.
The README's "Tests" section says what each line counts.  solve runs its
loop at one BLAS thread, so the output must not change with
OPENBLAS_NUM_THREADS.
"""

import hashlib
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np

from keybound import (DensityOperator, ProtocolSpec, SolverError, best_extendible_decomposition,
                      bound_points_to_csv, bound_points_to_json, bounds, build_sdp,
                      class_from_state, extendibility, find_cutoff, one_way_upper_bound, sdp,
                      sweep, verify_extension)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import achievable_rate  # noqa: E402

KINDS, DIRECTIONS = ("four-state", "six-state"), ("direct", "reverse")
CONFIGS = list(product(KINDS, DIRECTIONS, (None, True, False)))


def tapped(module, name, run):
    """run() with module.name wrapped to keep what each call returns:
    (run's value, those returns in call order, None for a call that
    raised)."""
    original, kept = getattr(module, name), []

    def tap(*args):
        kept.append(None)
        kept[-1] = out = original(*args)
        return out

    setattr(module, name, tap)
    try:
        return run(), kept
    finally:
        setattr(module, name, original)


def qubit_qutrit(rng, rank):
    g = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
    mat = g @ g.conj().T
    return best_extendible_decomposition(class_from_state(
        DensityOperator(mat / np.trace(mat).real, (2, 3))))


def nearly_singular_verified(seed, rank, dims):
    """Of (1 - eps) rho + eps I/d at eps = 1e-5..1e-8, rho the first
    G G^+ / Tr drawn from default_rng(seed) (the extend-qutrit recipe on
    dims), how many decompose with a passing verify_extension and rho*
    within 1e-6 of the state."""
    d = dims[0] * dims[1]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = g @ g.conj().T
    mat = 0.5 * (mat + mat.conj().T) / np.trace(mat).real
    verified = 0
    for eps in (1e-5, 1e-6, 1e-7, 1e-8):
        state = DensityOperator((1 - eps) * mat + eps * np.eye(d) / d, dims)
        try:
            res = best_extendible_decomposition(class_from_state(state))
        except SolverError:
            continue
        verified += (verify_extension(res).passed and
                     np.max(np.abs(res.rho_star.matrix - state.matrix)) <= 1e-6)
    return verified


def iterations(results):
    return sum(res.solution.iterations for res in results)


def all_iterations(results):   # a stalled witness solve's included
    return sum(res.diagnostics["iterations"] for res in results)


# the four sweeps as the CLI runs them, each point's decomposition kept
points, sweeps = tapped(bounds, "best_extendible_decomposition", lambda: [
    sweep(kind, np.linspace(0.0, 0.25, 26), direction=direction)
    for kind, direction in product(KINDS, DIRECTIONS)])
fallbacks = sum(res.diagnostics["program"] == "extension" for res in sweeps)
real = Counter(res.solution.x.size for res in sweeps if res.diagnostics["program"] == "witness"
               and not np.iscomplexobj(res.solution.z_blocks[0]))
builds = extendibility._extension_structure.cache_info().misses
layouts = sdp._layout.cache_info().misses
row_sets = extendibility._row_set.cache_info().misses
print(f"IPM iterations, four 26-point sweeps: {iterations(sweeps)}")
print(f"points solved by the (r, f) fallback, of 104: {fallbacks}")
print(f"witness solves in real arithmetic over the 104 points: {sum(real.values())} ("
      + ", ".join(f"{count} of {n} variables" for n, count in sorted(real.items())) + ")")
print(f"(r, f) structure builds over the 104 points: {builds}")
print(f"solver layouts and class-row sets built over the 104 points: {layouts} and {row_sets}")
dense, made = tapped(bounds, "best_extendible_decomposition", lambda: [
    one_way_upper_bound(ProtocolSpec(kind, e=float(e), direction=direction,
                                     source_constraint=source_constraint))
    for kind, direction, source_constraint in CONFIGS
    for e in np.geomspace(1e-9, 1e-6, 61)])
# the rates 20, 40 and 60 of each configuration are 1e-8, 1e-7 and 1e-6
near_zero = [res for i, res in enumerate(made) if i % 61 in (20, 40, 60)]
stalled = {program: [res for res in near_zero if res.diagnostics["program"] == program]
           for program in ("extension", "face")}
extension, face = stalled["extension"], stalled["face"]
print(f"near-zero census fallbacks, of 36 points: {len(extension)} (r, f) (expected 6), "
      f"{iterations(extension)} IPM iterations, {all_iterations(extension)} with the "
      f"stalled witness solves; {len(face)} face (expected 14), {iterations(face)} IPM "
      f"iterations, {all_iterations(face)} with the stalled witness solves")
print(f"near-zero bound points failed, 12 configurations x geomspace(1e-9, 1e-6, 61): "
      f"{sum(point.status == 'failed' for point in dense)} of {len(dense)}")
solved = [point for point in dense if point.status != "failed"]
below = sum(point.upper_bound < achievable_rate(point.protocol, point.e) for point in solved)
print(f"near-zero bound points below the proven one-way rate: {below} of {len(solved)} solved")
rng = np.random.default_rng(0)
faces = {rank: [qubit_qutrit(rng, rank) for _ in range(5)] for rank in (3, 4, 5)}
for rank, face in faces.items():
    print(f"rank-{rank} (2, 3) face program: {face[-1].solution.x.size} "
          f"variables, {iterations(face)} IPM iterations over 5 states")
rng = np.random.default_rng(0)
ranks = [qubit_qutrit(rng, rank) for rank in range(2, 7)]
print(f"IPM iterations, five (2, 3) states of ranks 2-6: {iterations(ranks)}")
singular = sum(nearly_singular_verified(*args)
               for args in ((0, 4, (2, 3)), (0, 3, (2, 2)), (2, 2, (2, 2))))
print(f"nearly singular pinned states, verified: {singular} of 12")
cutoffs, solutions = tapped(extendibility, "solve", lambda: [
    find_cutoff(kind, tol=1e-4, direction=direction, source_constraint=source_constraint)
    for kind, direction, source_constraint in CONFIGS])
print(f"find_cutoff(tol=1e-4), 12 configurations: {len(solutions)} "
      f"solves (expected 12), {sum(sol.iterations for sol in solutions)} IPM iterations")
sizes = [[blk.dim for blk in build_sdp(class_from_state(
    DensityOperator(np.eye(da * db) / (da * db), (da, db))))[0].blocks]
    for da, db in ((2, 2), (2, 3))]
print("witness program block sizes, (2, 2) and (2, 3): "
      + "; ".join(" and ".join(map(str, dims)) for dims in sizes))
decompositions = sweeps + near_zero + sum(faces.values(), []) + ranks
print("lambda_max and cutoff bytes (sha256):", hashlib.sha256(np.array(
    [res.lambda_max for res in decompositions] + cutoffs).tobytes()).hexdigest())

# the bytes of the 16 tracked CLI outputs, in-process: per kind and
# direction, `sweep --grid 0:0.25:26` as CSV and JSON, then `cutoff` at
# --tol 1e-3 and 1e-4, the latter the source_constraint=None cutoff above
cli = hashlib.sha256()
for (kind, direction), rows in zip(product(KINDS, DIRECTIONS), points):
    cli.update(bound_points_to_csv(rows).encode())
    cli.update(bound_points_to_json(rows).encode())
    for cutoff in (find_cutoff(kind, tol=1e-3, direction=direction),
                   cutoffs[CONFIGS.index((kind, direction, None))]):
        cli.update(f"{cutoff:.10g}\n".encode())
print("CLI sweep and cutoff output bytes (sha256):", cli.hexdigest())
