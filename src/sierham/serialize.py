"""Text, CSV, JSON, DOT and edge-list renderings of graphs, maps, and tables.

Digit strings: for m <= 10 a vertex prints as concatenated digits ("1020");
for larger alphabets digits are space-separated and fields tab-separated.
All writers are deterministic: same input, same bytes. Graph writers
format each vertex once, into a list of labels indexed by vertex code,
and read edge codes through graphs.iter_rows; table writers label (k, n)
digit-array columns. Edge codes, labels, steps and Gray codes become
Python objects a graphs.row_blocks block at a time, so no writer holds a
whole column of them (the text play table keeps its S labels, which size
their column). Every writer, and the cli's verify and corners-search
reports, is one _lines or _json call: no other module joins output lines
or encodes JSON.
write(table, fmt, ...) finds <table>_to_<fmt> by name.
"""
from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, Vertex, check_vertex, from_edge_list, iter_rows, row_blocks, row_codes
from .maps import LinearMap


def format_vertex(v: Sequence[int], m: int) -> str:
    if m <= 10:
        return "".join(str(d) for d in v)
    return " ".join(str(d) for d in v)


def vertex_labels(rows: np.ndarray, m: int) -> Iterator[str]:
    """Yield format_vertex of every row of a (k, n) digit array, a block of rows at a time.

    For m <= 10 each block becomes one byte matrix (digit + ord("0"), a
    newline per row), decoded in one call; multi-digit cells go row by row.
    """
    for block in row_blocks(np.asarray(rows)):
        if m > 10 or block.dtype == object:
            yield from map(format_vertex, block.tolist(), repeat(m))
            continue
        text = np.full((len(block), block.shape[1] + 1), ord("\n"), np.uint8)
        np.add(block, ord("0"), out=text[:, :-1], casting="unsafe")
        yield from text.tobytes().decode("ascii").split("\n")[:-1]


def _ints(column: np.ndarray) -> Iterator[int]:
    """The entries of a 1-D array as Python ints, converted a block at a time."""
    return chain.from_iterable(block.tolist() for block in row_blocks(np.asarray(column)))


def parse_vertex(s: str, m: int, n: int | None = None) -> Vertex:
    """Parse a digit string; accepts spaces or commas between digits for m > 10."""
    s = s.strip()
    if m <= 10 and " " not in s and "," not in s:
        digits = tuple(int(ch) for ch in s)
    else:
        digits = tuple(int(part) for part in s.replace(",", " ").split())
    if n is not None and len(digits) != n:
        raise ValueError(f"expected {n} digits, got {len(digits)} in {s!r}")
    if not digits:
        raise ValueError("empty vertex string")
    check_vertex(digits, len(digits), m)
    return digits


def _vertex_labels(n: int, m: int) -> list[str]:
    """format_vertex of every vertex of {0..m-1}^n, indexed by vertex code."""
    digits = [str(d) for d in range(m)]
    sep = "" if m <= 10 else " "
    labels = digits
    for _ in range(n - 1):
        labels = [p + sep + d for p in labels for d in digits]
    return labels


def _edge_strings(g: Graph) -> Iterator[tuple[str, str]]:
    labels = _vertex_labels(g.n, g.m)
    return ((labels[u], labels[v]) for u, v in iter_rows(g.edges))


def _lines(rows: Iterable[Iterable[str]], head: Iterable[str] = (), sep: str = " ") -> str:
    """The head lines, then each row's string cells joined by sep, one row per line."""
    return "\n".join([*head, *map(sep.join, rows)]) + "\n"


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def write(table: str, fmt: str, *args) -> str:
    """Print with <table>_to_<fmt>, looked up on each call, so a wrapper put on
    that module attribute (as a tracer does) is called; an import-time dict would bypass it."""
    writer = globals().get(f"{table}_to_{fmt}")
    if writer is None:
        raise ValueError(f"unknown format {fmt!r}")
    return writer(*args)


def graph_to_edgelist(g: Graph) -> str:
    return _lines(_edge_strings(g), sep=" " if g.m <= 10 else "\t")


def graph_to_text(g: Graph) -> str:
    head = f"{g.kind} graph n={g.n} m={g.m} vertices={g.num_vertices} edges={g.num_edges}"
    return _lines(_edge_strings(g), [head], " " if g.m <= 10 else "\t")


def graph_to_csv(g: Graph) -> str:
    return _lines(_edge_strings(g), ["u,v"], ",")


def graph_to_json(g: Graph) -> str:
    return _json({"n": g.n, "m": g.m, "kind": g.kind, "edges": list(map(list, _edge_strings(g)))})


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    n, m, kind = payload["n"], payload["m"], payload["kind"]
    pairs = [
        (parse_vertex(a, m, n), parse_vertex(b, m, n)) for a, b in payload["edges"]
    ]
    return from_edge_list(n, m, kind, pairs)


def graph_to_dot(g: Graph) -> str:
    # whole lines, no cells, so all are head lines
    vertices = (f'  v{code} [label="{label}"];' for code, label in enumerate(_vertex_labels(g.n, g.m)))
    edges = (f"  v{u} -- v{v};" for u, v in iter_rows(g.edges))
    return _lines((), chain([f'graph "{g.kind}_{g.n}_{g.m}" {{'], vertices, edges, ["}"]))


def render_graph(g: Graph, fmt: str) -> str:
    return write("graph", fmt, g)


def matrix_to_text(lm: LinearMap) -> str:
    return _lines(map(str, row) for row in lm.rows)


def matrix_to_csv(lm: LinearMap) -> str:
    return _lines((map(str, row) for row in lm.rows), sep=",")


def matrix_to_json(lm: LinearMap) -> str:
    return _json({"m": lm.m, "rows": list(map(list, lm.rows))})


def map_table_to_text(v: np.ndarray, w: np.ndarray, m: int) -> str:
    return _lines(zip(vertex_labels(v, m), vertex_labels(w, m)), sep="  ")


def map_table_to_csv(v: np.ndarray, w: np.ndarray, m: int) -> str:
    return _lines(zip(vertex_labels(v, m), vertex_labels(w, m)), ["v,image"], ",")


def map_table_to_json(v: np.ndarray, w: np.ndarray, m: int) -> str:
    pairs = map(list, zip(vertex_labels(v, m), vertex_labels(w, m)))
    return _json({"n": v.shape[1], "m": m, "map": list(pairs)})


def hanoi_table_to_text(ell: np.ndarray, s: np.ndarray, t: np.ndarray, m: int) -> str:
    """Step index, S and T positions, in columns sized first and padded row by row."""
    s_head, t_head = (f"{c}({s.shape[1]},{m})" for c in "ST")
    s_labels = list(vertex_labels(s, m))
    wl = f">{max(3, len(str(np.max(ell, initial=0))))}"
    ws = f"<{max(len(s_head), max(map(len, s_labels), default=0))}"
    steps = map(format, _ints(ell), repeat(wl))
    rows = zip(steps, map(format, s_labels, repeat(ws)), vertex_labels(t, m), strict=True)
    del s_labels  # strict runs each column to its end, so no label list outlives the rows
    return _lines(rows, [f"{'ell':{wl}}  {s_head:{ws}}  {t_head}"], "  ")


def hanoi_table_to_csv(ell: np.ndarray, s: np.ndarray, t: np.ndarray, m: int) -> str:
    steps = map(str, _ints(ell))
    return _lines(zip(steps, vertex_labels(s, m), vertex_labels(t, m)), ["ell,s,t"], ",")


def hanoi_table_to_json(ell: np.ndarray, s: np.ndarray, t: np.ndarray, m: int) -> str:
    rows = zip(_ints(ell), vertex_labels(s, m), vertex_labels(t, m))
    return _json({"n": s.shape[1], "m": m, "rows": [{"ell": e, "s": a, "t": b} for e, a, b in rows]})


def gray_to_bits(seq: np.ndarray) -> str:
    return _lines(zip(vertex_labels(seq, 2)))


def gray_to_int(seq: np.ndarray) -> str:
    return _lines(zip(map(str, _ints(row_codes(seq, 2)))))


def gray_to_both(seq: np.ndarray) -> str:
    return _lines(zip(vertex_labels(seq, 2), map(str, _ints(row_codes(seq, 2)))))
