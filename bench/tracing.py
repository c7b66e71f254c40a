"""In-memory spans for the traced run, and the per-layer metrics made from them.

The spans are recorded by the benchmark, around calls into the library's
public functions: nothing inside ``src/`` is instrumented.  A span has a
name ``<layer>.<function>``, start and end times, the span that was open when
it began (its parent) and the id of the benchmark operation it belongs to.
Module attributes are replaced by recording wrappers only while a traced
batch runs (``Tracer.installed``), and restored afterwards.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("graph", "operators", "spectral", "connes", "cli")

# Counts that must repeat exactly from batch to batch and from run to run.
EXACT = ("graph.directed_edges", "graph.max_degree", "operators.nnz", "spectral.power_iters",
         "spectral.matvec_bytes", "connes.newton_steps", "connes.profile_calls",
         "connes.certified_frac", "cli.out_bytes", "trace.spans")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int  # every root span (no parent) starts a new benchmark operation
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        s = Span(next(self._ids), name, parent.id if parent else None,
                 parent.op if parent else next(self._ops), time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def wrap(self, owner, attr, name, inspect=None):
        """Replace ``owner.attr`` by a recording wrapper until ``restore``.

        ``inspect(args, result)`` returns counters for the span's ``info``; it
        runs after the span has ended, so its cost is not in the span.
        """
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        span = self.span

        def traced(*args, **kwargs):
            with span(name) as s:
                result = fn(*args, **kwargs)
            if inspect is not None:
                s.info.update(inspect(args, result))
            return result

        traced.__wrapped__ = fn
        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
        self._undo.append((owner, attr, raw))

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        """Wrap the library's layer boundaries for the duration of one batch."""
        from graphdirac import connes, graph, spectral

        try:
            self.wrap(graph, "parse_graph", "graph.parse_graph")
            self.wrap(graph, "serialize_graph", "graph.serialize_graph")
            self.wrap(graph, "build_random", "graph.build_random")
            self.wrap(graph.Graph, "from_edges", "graph.from_edges", _graph_info)
            # spectral imported adjacency_map by name, so its own reference is the one to wrap
            self.wrap(spectral, "adjacency_map", "operators.adjacency_map", _map_info)
            self.wrap(spectral, "adjacency_norm_bounds", "spectral.adjacency_norm_bounds")
            self.wrap(spectral, "prefix_average_degrees", "spectral.prefix_average_degrees")
            self.wrap(spectral, "spectral_norm", "spectral.spectral_norm")
            self.wrap(spectral, "power_iteration_norm", "spectral.power_iteration_norm",
                      _power_info)
            self.wrap(connes, "connes_distance", "connes.connes_distance", _solve_info)
            self.wrap(connes, "constraint_profile", "connes.constraint_profile")
            yield self
        finally:
            self.restore()


def _graph_info(args, g):
    # read only ``adjacency``: touching a cached property would move the library's work here
    degrees = [len(nbrs) for nbrs in g.adjacency]
    return {"directed_edges": sum(degrees), "max_degree": max(degrees, default=0)}


def _map_info(args, m):
    return {"nnz": int(m.matrix.nnz)}


def _power_info(args, result):
    m = args[0]
    # bytes one CSR matvec reads and writes: the matrix arrays, x in, y out (computed, not measured)
    moved = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 2 * m.shape[0] * m.data.itemsize
    return {"iterations": result.iterations, "matvec_bytes": int(moved)}


def _solve_info(args, r):
    return {"iterations": r.iterations, "certified": r.certified, "kkt": r.kkt_residual}


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = s.duration - covered
    return out


def percentile(values, q):
    """Linear-interpolated percentile q in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, output_metrics):
    """Per-layer metrics of one traced batch; idle layers report 0."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in by[name])

    def info(name, key):
        return [s.info[key] for s in by[name]]

    m = {f"{layer}.self_s": sum(selfs[s.id] for s in spans if s.name.startswith(layer + "."))
         for layer in LAYERS}

    edges = sum(info("graph.from_edges", "directed_edges"))
    m.update({
        "graph.parse_s": total("graph.parse_graph"),
        "graph.from_edges_s": total("graph.from_edges"),
        "graph.serialize_s": total("graph.serialize_graph"),
        "graph.build_s": total("graph.build_random"),
        "graph.directed_edges": edges,
        "graph.edges_per_s": _ratio(edges, total("graph.from_edges")),
        "graph.max_degree": max(info("graph.from_edges", "max_degree"), default=0),
        "operators.assemble_s": total("operators.adjacency_map"),
        "operators.nnz": sum(info("operators.adjacency_map", "nnz")),
    })

    iters = sum(info("spectral.power_iteration_norm", "iterations"))
    norm_s = total("spectral.spectral_norm")
    m.update({
        "spectral.bounds_s": total("spectral.adjacency_norm_bounds"),
        "spectral.norm_s": norm_s,
        "spectral.prefix_s": total("spectral.prefix_average_degrees"),
        "spectral.power_iters": iters,
        "spectral.matvec_s": _ratio(norm_s, 2 * iters),
        "spectral.matvec_bytes": max(info("spectral.power_iteration_norm", "matvec_bytes"),
                                     default=0),
        "spectral.err": output_metrics.get("spectral.err", 0.0),
    })

    solves = [s.duration for s in by["connes.connes_distance"]]
    steps = sum(info("connes.connes_distance", "iterations"))
    profiles = by["connes.constraint_profile"]
    m.update({
        "connes.solve_p50_s": percentile(solves, 50),
        "connes.solve_p90_s": percentile(solves, 90),
        "connes.newton_steps": steps,
        "connes.step_s": _ratio(sum(solves), steps),
        "connes.profile_calls": len(profiles),
        "connes.profile_s": sum(selfs[s.id] for s in profiles),
        "connes.steps_per_profile": _ratio(steps, len(profiles)),
        "connes.certified_frac": _ratio(sum(info("connes.connes_distance", "certified")),
                                        len(solves)),
        "connes.kkt_max": max(info("connes.connes_distance", "kkt"), default=0.0),
        "connes.err_max": output_metrics.get("connes.err_max", 0.0),
    })

    m.update({
        "cli.verb_s": total("cli.main"),
        "cli.out_bytes": sum(s.info.get("out_bytes", 0) for s in by["cli.main"]),
        "trace.spans": len(spans),
    })
    return m
