"""Span tracing of the program's public functions, installed from outside.

Each function in ``LAYERS`` is wrapped once and the wrapper is bound in
every loaded ``probe_chroma.*`` namespace that held the original, because
the solver imports names with ``from .graphs import ...``.  Spans (name,
start, end, parent span, op id) live in parallel lists until the run ends.
A function that a later version of the program no longer has is listed in
``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from array import array
from collections import Counter

PACKAGE = "probe_chroma"

LAYERS = {
    "graphs": (
        "find_induced_subgraph", "induced_subgraph", "build_graph", "find_k4",
        "complement_components", "split_partition", "connected_components",
        "bipartition", "shortest_odd_cycle",
    ),
    "propagation": ("propagate",),
    "listcol": ("extend_by_2list", "build_list_formula", "solve_two_sat"),
    "solver": (
        "solve_3col", "pick_reference_cycle", "make_case_decomposition",
        "find_dominating_pair", "finalize_extension", "verify_colouring",
    ),
    "generators": ("gen_probe_instance",),
}
SETUP_ONLY = ("generators.gen_probe_instance",)
SETUP = -1  # op id of spans recorded while the inputs are built


def _hits(key):
    def observe(counts, result):
        if result is not None:
            counts[key] += 1
    return observe


def _conflicts(counts, result):
    if type(result).__name__ == "Conflict":
        counts["propagation.propagate.conflicts"] += 1


def _formula_size(counts, result):
    counts["listcol.build_list_formula.vars"] += getattr(result, "num_vars", 0)
    counts["listcol.build_list_formula.clauses"] += len(getattr(result, "clauses", ()))


def _cycle_length(counts, result):
    if len(result) == 5:
        counts["solver.case1_components"] += 1
    elif len(result) == 3:
        counts["solver.case2_components"] += 1


def _verdict(counts, result):
    counts["solver.verdict." + result.status] += 1
    stats = result.stats
    per_component = getattr(stats, "component_two_sat_calls", [])
    counts["solver.components"] += len(per_component)
    counts["solver.branches"] += getattr(stats, "branches", 0)
    counts["solver.two_sat_calls"] += getattr(stats, "two_sat_calls", 0)
    counts["solver.max_component_two_sat_calls"] = max(
        [counts["solver.max_component_two_sat_calls"]] + list(per_component))


OBSERVERS = {
    "graphs.find_induced_subgraph": _hits("graphs.find_induced_subgraph.hits"),
    "graphs.find_k4": _hits("graphs.find_k4.hits"),
    "propagation.propagate": _conflicts,
    "listcol.extend_by_2list": _hits("listcol.extend_by_2list.sat"),
    "listcol.build_list_formula": _formula_size,
    "solver.pick_reference_cycle": _cycle_length,
    "solver.solve_3col": _verdict,
}


class Tracer:
    """Records a span per call of a wrapped function while ``op`` is set.

    ``op`` is None outside measured work, ``SETUP`` while inputs are built
    and the op index during a solve.  Observers run only inside ops.
    """

    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        self.absent = []
        # typed arrays keep a few million spans within tens of megabytes
        self.fid, self.parent, self.op_of = array("l"), array("l"), array("l")
        self.start, self.end = array("d"), array("d")
        self.stack = []
        self.op = None
        self.counts = Counter()
        self._patches = []

    def install(self):
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for fid, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"{PACKAGE}.{layer}"), fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(fid, original, OBSERVERS.get(name))
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fid, fn, observe):
        tracer = self
        fids, starts, ends, parents, ops, stack = (
            self.fid, self.start, self.end, self.parent, self.op_of, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None and op >= 0:
                observe(tracer.counts, result)
            return result

        return wrapper

    def write(self, path):
        """Write every span as one CSV row, times in microseconds from the
        first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "op", "parent", "start_us", "end_us"))
            for i, f in enumerate(self.fid):
                out.writerow((i, self.names[f], self.op_of[i], self.parent[i],
                              round((self.start[i] - t0) * 1e6, 3),
                              round((self.end[i] - t0) * 1e6, 3)))


def self_times(starts, ends, parents):
    """Inclusive and self durations per span.  A span's self time is its
    duration minus the durations of its direct children; calls are
    synchronous, so children lie inside their parent's interval."""
    dur = [e - s for s, e in zip(starts, ends)]
    own = list(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def self_time_gaps(tracer):
    """Per op, |sum of self times - root duration| / root duration."""
    dur, own = self_times(tracer.start, tracer.end, tracer.parent)
    own_sum, root = Counter(), Counter()
    for i, op in enumerate(tracer.op_of):
        if op < 0:
            continue
        own_sum[op] += own[i]
        if tracer.parent[i] < 0:
            root[op] += dur[i]
    return {op: abs(own_sum[op] - root[op]) / root[op] if root[op] else 0.0
            for op in own_sum}


def layer_metrics(tracer, ops):
    """Per-layer metrics as ``{name: (value, unit)}``; call counts and times
    are per op, or for the one set-up when a function runs only there."""
    dur, own = self_times(tracer.start, tracer.end, tracer.parent)
    calls, incl, excl = Counter(), Counter(), Counter()
    fids, parents, op_of = tracer.fid, tracer.parent, tracer.op_of
    for i, f in enumerate(fids):
        name = tracer.names[f]
        if (op_of[i] == SETUP) != (name in SETUP_ONLY):
            continue
        calls[name] += 1
        excl[name] += own[i]
        p = parents[i]
        while p >= 0 and fids[p] != f:
            p = parents[p]
        if p < 0:  # outermost call of a recursion: count its time once
            incl[name] += dur[i]

    out = {}
    for name in tracer.names:
        per, unit = (1, "setup") if name in SETUP_ONLY else (ops, "op")
        out[f"{name}.calls"] = (calls[name] / per, f"calls/{unit}")
        out[f"{name}.ms"] = (incl[name] * 1e3 / per, f"ms/{unit}")
        out[f"{name}.self_ms"] = (excl[name] * 1e3 / per, f"ms/{unit}")

    def ratio(num, den):
        return tracer.counts[num] / calls[den] if calls[den] else 0.0

    c = tracer.counts
    out["graphs.find_induced_subgraph.hit_ratio"] = (
        ratio("graphs.find_induced_subgraph.hits", "graphs.find_induced_subgraph"), "ratio")
    out["graphs.find_k4.hit_ratio"] = (ratio("graphs.find_k4.hits", "graphs.find_k4"), "ratio")
    out["propagation.propagate.conflict_ratio"] = (
        ratio("propagation.propagate.conflicts", "propagation.propagate"), "ratio")
    out["listcol.extend_by_2list.sat_ratio"] = (
        ratio("listcol.extend_by_2list.sat", "listcol.extend_by_2list"), "ratio")
    out["listcol.build_list_formula.vars"] = (c["listcol.build_list_formula.vars"] / ops, "vars/op")
    out["listcol.build_list_formula.clauses"] = (
        c["listcol.build_list_formula.clauses"] / ops, "clauses/op")
    for key in ("solver.components", "solver.branches", "solver.two_sat_calls",
                "solver.case1_components", "solver.case2_components"):
        out[key] = (c[key] / ops, "count/op")
    out["solver.max_component_two_sat_calls"] = (c["solver.max_component_two_sat_calls"], "count")
    for status in ("colourable", "not_colourable", "not_probe_p5_free"):
        out[f"solver.verdict.{status}"] = (c[f"solver.verdict.{status}"] / ops, "share")
    return out
