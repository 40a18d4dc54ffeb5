"""Text, CSV, JSON, DOT and edge-list renderings of graphs, maps, and tables.

Digit strings (exact._separators): for m <= 10 a vertex prints as concatenated
digits ("1020"); beyond, digits are space-separated and fields tab-separated.
All writers are deterministic: same input, same bytes. Graph writers read
only n, m, kind and edges, from a Graph or from the exact.EdgeList that the
cli builds for a small graph. They format each vertex once, into a list of
labels indexed by vertex code. Table writers take each digit column as a
(k, n) digit array or as a list of int tuples, and the step column as an
array, a range or a list of ints: one writer per table and format serves
the array path and the small tables the cli builds from the row formulas,
with the same bytes. Every column, edge codes included, is read through
_column: a list or a range as it is, an array's entries as Python objects
a graphs.row_blocks block at a time, so no writer holds a whole column of
them (the text play table keeps its S labels, which size their column).
The one other array path is vertex_labels' byte matrix for m <= 10. This
module imports numpy and graphs only when an array or a Graph reaches it.
Every writer, and the cli's verify and corners-search reports, is one
_lines or _json call: no other module joins output lines or encodes JSON.
format_vertex, parse_vertex, _lines, _json and the matrix writers need no
array, so they live in the integer layer (exact) and are re-exported here.
write(table, fmt, ...) finds <table>_to_<fmt> by name.
"""
from __future__ import annotations

from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .exact import (  # re-exported: the matrix writers, primitives and parse_vertex need no array
    _json,
    _lines,
    _separators,
    format_vertex,
    matrix_to_csv,
    matrix_to_json,
    matrix_to_text,
    parse_vertex,
)
from .exact import vertex_to_code as _code  # no <table>_to_<fmt> name for write to find

if TYPE_CHECKING:
    import numpy as np

    from .exact import EdgeList
    from .graphs import Graph

    AnyGraph = Graph | EdgeList
    Edges = np.ndarray | list[tuple[int, int]]
    Rows = np.ndarray | list[tuple[int, ...]]
    Steps = np.ndarray | Sequence[int]


def vertex_labels(rows: Rows, m: int) -> Iterator[str]:
    """format_vertex of every row of a list of int tuples, or of a (k, n) digit array.

    For m <= 10 an int array goes a block of rows at a time, each block one
    byte matrix (digit + ord("0"), a newline per row) decoded in one call.
    Lists, object arrays and multi-digit cells go row by row, through _column.
    """
    if isinstance(rows, list) or _separators(m)[0] or rows.dtype == object:
        return map(format_vertex, _column(rows), repeat(m))
    return _digit_labels(rows)


def _digit_labels(rows: np.ndarray) -> Iterator[str]:
    import numpy as np

    from .graphs import row_blocks

    for block in row_blocks(rows):
        text = np.full((len(block), block.shape[1] + 1), ord("\n"), np.uint8)
        np.add(block, ord("0"), out=text[:, :-1], casting="unsafe")
        yield from text.tobytes().decode("ascii").split("\n")[:-1]


def _column(values: Steps | Rows | Edges) -> Iterable:
    """A list or a range as it is, else an array's entries, converted a graphs.row_blocks
    block at a time: a 1-D array's as Python ints, a 2-D array's rows as tuples of them."""
    if isinstance(values, (list, range)):
        return values
    from .graphs import iter_rows, row_blocks

    if values.ndim == 2:
        return iter_rows(values)
    return chain.from_iterable(block.tolist() for block in row_blocks(values))


def _codes(rows: Rows, m: int) -> Iterable[int]:
    """The vertex code of every row of a list of int tuples or of a (k, n) digit array."""
    if isinstance(rows, list):
        return map(_code, rows, repeat(m))
    from .graphs import row_codes

    return _column(row_codes(rows, m))


def _vertex_labels(n: int, m: int) -> list[str]:
    """format_vertex of every vertex of {0..m-1}^n, indexed by vertex code."""
    digits = [str(d) for d in range(m)]
    sep = _separators(m)[0]
    labels = digits
    for _ in range(n - 1):
        labels = [p + sep + d for p in labels for d in digits]
    return labels


def _edge_strings(g: AnyGraph) -> Iterator[tuple[str, str]]:
    labels = _vertex_labels(g.n, g.m)
    return ((labels[u], labels[v]) for u, v in _column(g.edges))


def write(table: str, fmt: str, *args) -> str:
    """Print with <table>_to_<fmt>, looked up on each call, so a wrapper put on
    that module attribute (as a tracer does) is called; an import-time dict would bypass it."""
    writer = globals().get(f"{table}_to_{fmt}")
    if writer is None:
        raise ValueError(f"unknown format {fmt!r}")
    return writer(*args)


def graph_to_edgelist(g: AnyGraph) -> str:
    return _lines(_edge_strings(g), sep=_separators(g.m)[1])


def graph_to_text(g: AnyGraph) -> str:
    head = f"{g.kind} graph n={g.n} m={g.m} vertices={g.m**g.n} edges={len(g.edges)}"
    return _lines(_edge_strings(g), [head], _separators(g.m)[1])


def graph_to_csv(g: AnyGraph) -> str:
    return _lines(_edge_strings(g), ["u,v"], ",")


def graph_to_json(g: AnyGraph) -> str:
    return _json({"n": g.n, "m": g.m, "kind": g.kind, "edges": list(map(list, _edge_strings(g)))})


def graph_from_json(text: str) -> Graph:
    import json

    from .graphs import Graph

    payload = json.loads(text)
    if type(payload) is not dict:
        raise TypeError(f"graph JSON must be an object, got {type(payload).__name__}")
    for key, want in (("n", int), ("m", int), ("kind", str), ("edges", list)):
        if key not in payload:
            raise ValueError(f"graph JSON has no {key!r} field")
        if type(payload[key]) is not want:  # json gives exact types: true is a bool, not an int
            raise TypeError(f"graph JSON field {key!r} must be {want.__name__}, got {payload[key]!r}")
    n, m, kind, edges = payload["n"], payload["m"], payload["kind"], payload["edges"]
    for e in edges:
        if type(e) is not list or list(map(type, e)) != [str, str]:
            raise TypeError(f"graph JSON field 'edges' must hold [u, v] label pairs, got {e!r}")
    code = lambda label: _code(parse_vertex(label, m, n), m)  # noqa: E731
    # parse_vertex checks every label, and Graph checks n and m after them
    return Graph(n, m, kind, [(code(a), code(b)) for a, b in edges])


def graph_to_dot(g: AnyGraph) -> str:
    # whole lines, no cells, so all are head lines
    vertices = (f'  v{code} [label="{label}"];' for code, label in enumerate(_vertex_labels(g.n, g.m)))
    edges = (f"  v{u} -- v{v};" for u, v in _column(g.edges))
    return _lines((), chain([f'graph "{g.kind}_{g.n}_{g.m}" {{'], vertices, edges, ["}"]))


def render_graph(g: AnyGraph, fmt: str) -> str:
    return write("graph", fmt, g)


def map_table_to_text(v: Rows, w: Rows, m: int) -> str:
    return _lines(zip(vertex_labels(v, m), vertex_labels(w, m)), sep="  ")


def map_table_to_csv(v: Rows, w: Rows, m: int) -> str:
    return _lines(zip(vertex_labels(v, m), vertex_labels(w, m)), ["v,image"], ",")


def map_table_to_json(v: Rows, w: Rows, m: int) -> str:
    pairs = map(list, zip(vertex_labels(v, m), vertex_labels(w, m)))
    return _json({"n": len(v[0]), "m": m, "map": list(pairs)})


def hanoi_table_to_text(ell: Steps, s: Rows, t: Rows, m: int) -> str:
    """Step index, S and T positions, in columns sized first and padded row by row."""
    s_head, t_head = (f"{c}({len(s[0])},{m})" for c in "ST")
    s_labels = list(vertex_labels(s, m))
    top = max(_column(ell), default=0)
    wl = f">{max(3, len(str(top)))}"
    ws = f"<{max(len(s_head), max(map(len, s_labels), default=0))}"
    steps = map(format, _column(ell), repeat(wl))
    rows = zip(steps, map(format, s_labels, repeat(ws)), vertex_labels(t, m), strict=True)
    del s_labels  # strict runs each column to its end, so no label list outlives the rows
    return _lines(rows, [f"{'ell':{wl}}  {s_head:{ws}}  {t_head}"], "  ")


def hanoi_table_to_csv(ell: Steps, s: Rows, t: Rows, m: int) -> str:
    steps = map(str, _column(ell))
    return _lines(zip(steps, vertex_labels(s, m), vertex_labels(t, m)), ["ell,s,t"], ",")


def hanoi_table_to_json(ell: Steps, s: Rows, t: Rows, m: int) -> str:
    rows = zip(_column(ell), vertex_labels(s, m), vertex_labels(t, m))
    return _json({"n": len(s[0]), "m": m, "rows": [{"ell": e, "s": a, "t": b} for e, a, b in rows]})


def gray_to_bits(seq: Rows) -> str:
    return _lines(zip(vertex_labels(seq, 2)))


def gray_to_int(seq: Rows) -> str:
    return _lines(zip(map(str, _codes(seq, 2))))


def gray_to_both(seq: Rows) -> str:
    return _lines(zip(vertex_labels(seq, 2), map(str, _codes(seq, 2))))
