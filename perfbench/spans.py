"""Spans around the calls into each keybound layer, and per-layer numbers.

The tracer replaces public module-level functions at the name each
caller looks them up (``keybound.bounds.assemble_class`` is the name
``one_way_upper_bound`` and ``find_cutoff`` call, for example) with a
wrapper that records a span.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

FLOORED_PREFIX = "dual residual floored"

# (module, attribute, span name).  Only these call sites are wrapped; a
# call through any other name runs inside its caller's self time.
TARGETS = (
    ("keybound", "one_way_upper_bound", "bounds.point"),
    ("keybound", "find_cutoff", "bounds.cutoff"),
    ("keybound", "class_from_state", "protocols.class_from_state"),
    ("keybound", "best_extendible_decomposition", "extendibility.decompose"),
    ("keybound", "verify_extension", "extendibility.verify"),
    ("keybound.bounds", "realize_protocol", "protocols.realize"),
    ("keybound.bounds", "assemble_class", "protocols.assemble"),
    ("keybound.bounds", "best_extendible_decomposition", "extendibility.decompose"),
    ("keybound.bounds", "simulate_observed_data", "protocols.simulate_ne"),
    ("keybound.bounds", "mutual_information", "infotheory.mutual_information"),
    ("keybound.extendibility", "build_sdp", "extendibility.build_sdp"),
    ("keybound.extendibility", "solve", "sdp.solve"),
    ("keybound.extendibility", "build_basis", "basis.build_basis"),
    ("keybound.extendibility", "reconstruct", "basis.reconstruct"),
    ("keybound.protocols", "build_basis", "basis.build_basis"),
)

# Per-op self time of each span name, reported as this metric (ms/op).
SELF_MS = {
    "protocols.realize": "protocols.realize_ms",
    "protocols.assemble": "protocols.assemble_ms",
    "protocols.class_from_state": "protocols.class_from_state_ms",
    "protocols.simulate_ne": "protocols.simulate_ne_ms",
    "basis.build_basis": "basis.build_basis_ms",
    "basis.reconstruct": "basis.reconstruct_ms",
    "extendibility.build_sdp": "extendibility.build_sdp_ms",
    "extendibility.decompose": "extendibility.unpack_ms",
    "extendibility.verify": "extendibility.verify_ms",
    "sdp.solve": "sdp.solve_ms",
    "infotheory.mutual_information": "infotheory.mutual_information_ms",
    "bounds.point": "bounds.point_self_ms",
    "bounds.cutoff": "bounds.cutoff_self_ms",
}


def _solve_info(sol):
    return {"iterations": sol.iterations, "status": sol.status,
            "floored": sol.message.startswith(FLOORED_PREFIX)}


def _build_info(out):
    problem, _ = out
    return {"vars": problem.num_vars, "eq_rows": problem.eq_rows.shape[0]}


INFO = {"sdp.solve": _solve_info, "extendibility.build_sdp": _build_info}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int       # index into Tracer.spans, -1 for an op's root span
    op: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans; ``run_op`` opens the root span of one op."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        info_of = INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            info = {}
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._op, info)
            if info_of is not None:
                info.update(info_of(out))
            return out

        return traced

    def install(self):
        """Wrap every target for the rest of the process."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def run_op(self, op_id, fn, item):
        self._op = op_id
        try:
            return self.wrap("op", fn)(item)
        finally:
            self._op = -1

    def dump(self):
        return [[s.name, s.start_ns, s.end_ns, s.parent, s.op, s.info]
                for s in self.spans]


def span_cost_ns(calls=20000):
    """Extra wall time one traced call costs over a plain call."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibrate", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def layer_metrics(spans, n_ops):
    """Per-layer numbers from the spans of ``n_ops`` traced ops."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end_ns - s.start_ns
    self_ns = {name: 0 for name in list(SELF_MS) + ["op"]}
    op_ns = 0
    for i, s in enumerate(spans):
        self_ns[s.name] += (s.end_ns - s.start_ns) - child_ns[i]
        if s.name == "op":
            op_ns += s.end_ns - s.start_ns

    per_op = 1e-6 / n_ops
    out = {metric: self_ns[name] * per_op for name, metric in SELF_MS.items()}

    # A solve that raised counts as a non-optimal solve with no iterations.
    solves = [s.info for s in spans if s.name == "sdp.solve"]
    builds = [s.info for s in spans
              if s.name == "extendibility.build_sdp" and "error" not in s.info]
    iters = sum(i.get("iterations", 0) for i in solves)
    n_solves = max(len(solves), 1)
    out.update({
        "basis.build_basis_calls_per_op":
            sum(s.name == "basis.build_basis" for s in spans) / n_ops,
        "extendibility.sdp_vars":
            statistics.fmean(b["vars"] for b in builds) if builds else 0.0,
        "extendibility.sdp_eq_rows":
            statistics.fmean(b["eq_rows"] for b in builds) if builds else 0.0,
        "sdp.solves_per_op": len(solves) / n_ops,
        "sdp.iters_per_solve": iters / n_solves,
        "sdp.ms_per_iter": self_ns["sdp.solve"] * 1e-6 / max(iters, 1),
        "sdp.nonoptimal_share":
            sum(i.get("status") != "optimal" for i in solves) / n_solves,
        "sdp.floored_share":
            sum(i.get("status") == "optimal" and i["floored"] for i in solves)
            / n_solves,
        "trace.unaccounted_share": self_ns["op"] / max(op_ns, 1),
        "trace.spans_per_op": len(spans) / n_ops,
        "trace.op_ms_mean": op_ns * per_op,
    })
    return out
