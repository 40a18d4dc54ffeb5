"""In-memory spans around the calls the benchmark makes into each module.

The program is not edited: for a traced phase the benchmark replaces the
names one module uses to reach another (module attributes and Graph
methods) with wrappers that open a span, and puts the originals back
afterwards. Only bulk boundaries are wrapped; per-vertex scalar functions
such as tau_forward are not, so their time counts to the caller's span.

A span is (name, start, end, parent index, request id). A layer's self
time is the duration of its spans minus the time their child spans cover.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import sierham.cli
import sierham.codes
import sierham.graphs
import sierham.hanoi
import sierham.kernels
import sierham.maps
import sierham.serialize

# Span names that are layers; their self times become the *_busy_s metrics.
LAYERS = {
    "kernels": "kernels.busy_s",
    "graphs.canon": "graphs.canon_busy_s",
    "graphs.query": "graphs.query_busy_s",
    "maps.verify": "maps.verify_busy_s",
    "maps.coord": "maps.coord_busy_s",
    "hanoi": "hanoi.busy_s",
    "codes": "codes.busy_s",
    "serialize.write": "serialize.write_busy_s",
    "serialize.read": "serialize.read_busy_s",
    "cli.dispatch": "cli.dispatch_busy_s",
}


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.counts: dict[str, float] = defaultdict(float)
        self.request: object = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> bool:
        """End span idx; True when no enclosing span has the same name."""
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        return not any(self.spans[i][0] == self.spans[idx][0] for i in self._stack)

    @contextmanager
    def span(self, name: str, request: object = None):
        if request is not None:
            self.request = request
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def totals(self) -> dict[str, float]:
        """Layer self times and boundary counts, keyed by metric name."""
        out = {LAYERS[name]: busy for name, busy in self.self_times().items() if name in LAYERS}
        out.update(self.counts)
        return out

    def write(self, fh, phase: str) -> None:
        """Append the spans as JSON lines tagged with `phase`."""
        keys = ("name", "start", "end", "parent", "request")
        for s in self.spans:
            fh.write(json.dumps({"phase": phase, **dict(zip(keys, s))}) + "\n")


def _wrap(rec: Recorder, fn, name: str, count=None, outermost_only: bool = False):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            outermost = rec.close(idx)
        if count is not None and (outermost or not outermost_only):
            for key, value in count(args, result).items():
                rec.add(key, value)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _kernel_count(args, out):
    nbytes = out.nbytes + sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return {"kernels.rows": out.shape[0], "kernels.bytes_computed": nbytes}


def _canon_wrapper(rec: Recorder, fn):
    def post_init(self):
        rows_in = np.size(self.edges) // 2
        idx = rec.open("graphs.canon")
        try:
            fn(self)
        finally:
            rec.close(idx)
        rec.add("graphs.canon_rows_in", rows_in)
        rec.add("graphs.canon_rows_out", self.edges.shape[0])

    post_init.__wrapped__ = fn
    return post_init


def _query_count(args, result):
    return {"graphs.queries": 1}


def _verify_count(args, report):
    n, m = args[1], args[2]
    return {
        "maps.vertices_mapped": m**n,
        "maps.violations_listed": len(report.get("violations", ())),
    }


def _positions_count(args, result):
    rows = result.positions if hasattr(result, "positions") else result
    return {"hanoi.positions": len(rows)}


def _bytes_out_count(args, text):
    return {"serialize.bytes_out": len(text.encode())}


_KERNELS = ("sierpinski_edges", "hamming_edges", "single_twist_edges", "digit_diff_counts")
_BUILDERS = ("build_sierpinski", "build_hamming", "build_single_twist")
_RENDERERS = (
    "graph_to_edgelist", "graph_to_text", "graph_to_csv", "graph_to_json",
    "graph_to_dot", "render_graph", "matrix_to_text", "matrix_to_json",
    "map_table_to_text", "map_table_to_csv", "map_table_to_json",
    "hanoi_table_to_text", "hanoi_table_to_csv", "hanoi_table_to_json",
)
_SOLVERS = ("classic_solution", "solve_from_position", "shortest_path_to_zero", "diplomats_table")


def _targets(rec: Recorder):
    """(owner, attribute, replacement) for every wrapped name."""
    g, maps, cli = sierham.graphs, sierham.maps, sierham.cli
    ser, han, codes = sierham.serialize, sierham.hanoi, sierham.codes
    out = []

    def add(owners, attr, name, count=None, outermost_only=False):
        fn = getattr(owners[0], attr)
        wrapped = _wrap(rec, fn, name, count, outermost_only)
        out.extend((o, attr, wrapped) for o in owners if hasattr(o, attr))

    for attr in _KERNELS:
        add([sierham.kernels], attr, "kernels", _kernel_count)
    out.append((g.Graph, "__post_init__", _canon_wrapper(rec, g.Graph.__post_init__)))
    for attr in ("has_edge", "degrees"):
        add([g.Graph], attr, "graphs.query", _query_count)
    for attr in _BUILDERS:
        add([g, maps, cli], attr, "graphs.build")
    for attr in ("verify_embedding", "layout_metrics"):
        add([maps, cli], attr, "maps.verify", _verify_count)
    add([maps, cli], "verify_coordinatization", "maps.coord", lambda a, r: {"maps.coord_calls": 1})
    for attr in _SOLVERS:
        add([han, cli], attr, "hanoi", _positions_count, outermost_only=True)
    add([codes, cli], "gray_sequence", "codes", lambda a, r: {"codes.words": len(r)})
    for attr in _RENDERERS:
        add([ser], attr, "serialize.write", _bytes_out_count, outermost_only=True)
    add([ser], "graph_from_json", "serialize.read", lambda a, r: {"serialize.bytes_in": len(a[0].encode())})
    add([cli], "main", "cli.dispatch")
    return out


@contextmanager
def installed(rec: Recorder):
    """Route the wrapped names through rec for the duration of the block."""
    targets = _targets(rec)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapped in targets:
            setattr(owner, attr, wrapped)
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
