"""Solver census: iterations, fallbacks and program sizes of fixed solves.

Run from the repository root as ``PYTHONPATH=src python .github/census.py``.
The README's "Tests" section says what each line counts.  solve runs its
loop at one BLAS thread, so the output must not change with
OPENBLAS_NUM_THREADS.
"""

import hashlib
import math
from collections import Counter
from itertools import product

import numpy as np

from keybound import (DensityOperator, ProtocolSpec, SolverError, assemble_class,
                      best_extendible_decomposition, bound_points_to_csv, bound_points_to_json,
                      build_sdp, class_from_state, extendibility, find_cutoff,
                      one_way_upper_bound, realize_protocol, sdp, sweep, verify_extension)

KINDS, DIRECTIONS = ("four-state", "six-state"), ("direct", "reverse")
CONFIGS = list(product(KINDS, DIRECTIONS, (None, True, False)))
values = []   # lambda_max of every decomposition, then the 12 cutoffs


def decompose(cls):
    res = best_extendible_decomposition(cls)
    values.append(res.lambda_max)
    return res


def protocol_point(kind, direction, source_constraint, e):
    spec = ProtocolSpec(kind, e=e, direction=direction,
                        source_constraint=source_constraint)
    return decompose(assemble_class(*realize_protocol(spec), spec))


def qubit_qutrit(rng, rank):
    g = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
    mat = g @ g.conj().T
    return decompose(class_from_state(
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


def achievable_rate(kind, e):
    """The one-way key rate per sifted bit proven reachable at QBER e > 0,
    clipped at 0: 1 - 2h(e) for four-state (Shor & Preskill, PRL 85, 441
    (2000)), 1 + (1 - 3e/2) log2(1 - 3e/2) + (3e/2) log2(e/2) for
    six-state (Lo, Quantum Inf. Comput. 1, 81 (2001)); no valid upper bound
    lies below it."""
    if kind == "four-state":
        rate = 1.0 - 2.0 * (-e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e))
    else:
        q = 1.5 * e
        rate = 1.0 + (1.0 - q) * math.log2(1.0 - q) + q * math.log2(e / 2.0)
    return max(rate, 0.0)


def iterations(results):
    return sum(res.solution.iterations for res in results)


def all_iterations(results):   # a stalled witness solve's included
    return sum(res.diagnostics["iterations"] for res in results)


sweeps = [protocol_point(kind, direction, None, float(e))
          for kind, direction in product(KINDS, DIRECTIONS)
          for e in np.linspace(0.0, 0.25, 26)]
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
near_zero = [protocol_point(*config, e) for config in CONFIGS for e in (1e-8, 1e-7, 1e-6)]
stalled = {program: [res for res in near_zero if res.diagnostics["program"] == program]
           for program in ("extension", "face")}
extension, face = stalled["extension"], stalled["face"]
print(f"near-zero census fallbacks, of 36 points: {len(extension)} (r, f) (expected 6), "
      f"{iterations(extension)} IPM iterations, {all_iterations(extension)} with the "
      f"stalled witness solves; {len(face)} face (expected 14), {iterations(face)} IPM "
      f"iterations, {all_iterations(face)} with the stalled witness solves")
dense = [one_way_upper_bound(ProtocolSpec(kind, e=float(e), direction=direction,
                                          source_constraint=source_constraint))
         for kind, direction, source_constraint in CONFIGS
         for e in np.geomspace(1e-9, 1e-6, 61)]
print(f"near-zero bound points failed, 12 configurations x geomspace(1e-9, 1e-6, 61): "
      f"{sum(point.status == 'failed' for point in dense)} of {len(dense)}")
solved = [point for point in dense if point.status != "failed"]
below = sum(point.upper_bound < achievable_rate(point.protocol, point.e) for point in solved)
print(f"near-zero bound points below the proven one-way rate: {below} of {len(solved)} solved")
rng = np.random.default_rng(0)
for rank in (3, 4, 5):
    face = [qubit_qutrit(rng, rank) for _ in range(5)]
    print(f"rank-{rank} (2, 3) face program: {face[-1].solution.x.size} "
          f"variables, {iterations(face)} IPM iterations over 5 states")
rng = np.random.default_rng(0)
print("IPM iterations, five (2, 3) states of ranks 2-6: "
      f"{iterations([qubit_qutrit(rng, rank) for rank in range(2, 7)])}")
singular = sum(nearly_singular_verified(*args)
               for args in ((0, 4, (2, 3)), (0, 3, (2, 2)), (2, 2, (2, 2))))
print(f"nearly singular pinned states, verified: {singular} of 12")

solve, cutoff_iters = extendibility.solve, []


def counted(problem):
    sol = solve(problem)
    cutoff_iters.append(sol.iterations)
    return sol


extendibility.solve = counted
try:
    values += [find_cutoff(kind, tol=1e-4, direction=direction,
                           source_constraint=source_constraint)
               for kind, direction, source_constraint in CONFIGS]
finally:
    extendibility.solve = solve
print(f"find_cutoff(tol=1e-4), 12 configurations: {len(cutoff_iters)} "
      f"solves (expected 12), {sum(cutoff_iters)} IPM iterations")
sizes = [[blk.dim for blk in build_sdp(class_from_state(
    DensityOperator(np.eye(da * db) / (da * db), (da, db))))[0].blocks]
    for da, db in ((2, 2), (2, 3))]
print("witness program block sizes, (2, 2) and (2, 3): "
      + "; ".join(" and ".join(map(str, dims)) for dims in sizes))
print("lambda_max and cutoff bytes (sha256):",
      hashlib.sha256(np.array(values).tobytes()).hexdigest())

# the bytes of the 16 tracked CLI outputs, in-process: per kind and
# direction, `sweep --grid 0:0.25:26` as CSV and JSON, then `cutoff` at
# --tol 1e-3 and 1e-4
cli = hashlib.sha256()
for kind, direction in product(KINDS, DIRECTIONS):
    points = sweep(kind, [float(e) for e in np.linspace(0.0, 0.25, 26)], direction=direction)
    cli.update(bound_points_to_csv(points).encode())
    cli.update(bound_points_to_json(points).encode())
    for tol in (1e-3, 1e-4):
        cli.update(f"{find_cutoff(kind, tol=tol, direction=direction):.10g}\n".encode())
print("CLI sweep and cutoff output bytes (sha256):", cli.hexdigest())
