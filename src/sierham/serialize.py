"""Text, CSV, JSON, DOT and edge-list renderings of graphs, maps, and tables.

Digit strings: for m <= 10 a vertex prints as concatenated digits ("1020");
for larger alphabets digits are space-separated and fields tab-separated.
All writers are deterministic: same input, same bytes. Graph writers
format each vertex once, into a list of labels indexed by vertex code.
"""
from __future__ import annotations

import json
from typing import Iterator, Sequence

from .graphs import Graph, Vertex, from_edge_list
from .maps import LinearMap


def format_vertex(v: Sequence[int], m: int) -> str:
    if m <= 10:
        return "".join(str(d) for d in v)
    return " ".join(str(d) for d in v)


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
    for d in digits:
        if not 0 <= d < m:
            raise ValueError(f"digit {d} out of range for alphabet {{0..{m - 1}}}")
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
    return ((labels[u], labels[v]) for u, v in zip(*g.edges.T.tolist()))


def graph_to_edgelist(g: Graph) -> str:
    sep = " " if g.m <= 10 else "\t"
    return "\n".join(f"{a}{sep}{b}" for a, b in _edge_strings(g)) + "\n"


def graph_to_text(g: Graph) -> str:
    head = f"{g.kind} graph n={g.n} m={g.m} vertices={g.num_vertices} edges={g.num_edges}\n"
    return head + graph_to_edgelist(g)


def graph_to_csv(g: Graph) -> str:
    lines = ["u,v"]
    for a, b in _edge_strings(g):
        lines.append(f"{a},{b}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Graph) -> str:
    payload = {
        "n": g.n,
        "m": g.m,
        "kind": g.kind,
        "edges": [[a, b] for a, b in _edge_strings(g)],
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> Graph:
    payload = json.loads(text)
    n, m, kind = payload["n"], payload["m"], payload["kind"]
    pairs = [
        (parse_vertex(a, m, n), parse_vertex(b, m, n)) for a, b in payload["edges"]
    ]
    return from_edge_list(n, m, kind, pairs)


def graph_to_dot(g: Graph) -> str:
    lines = [f'graph "{g.kind}_{g.n}_{g.m}" {{']
    for code, label in enumerate(_vertex_labels(g.n, g.m)):
        lines.append(f'  v{code} [label="{label}"];')
    for u, v in zip(*g.edges.T.tolist()):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_graph(g: Graph, fmt: str) -> str:
    renderers = {
        "text": graph_to_text,
        "csv": graph_to_csv,
        "json": graph_to_json,
        "dot": graph_to_dot,
        "edgelist": graph_to_edgelist,
    }
    if fmt not in renderers:
        raise ValueError(f"unknown format {fmt!r}")
    return renderers[fmt](g)


def matrix_to_text(lm: LinearMap) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in lm.rows) + "\n"


def matrix_to_json(lm: LinearMap) -> str:
    return json.dumps({"m": lm.m, "rows": [list(row) for row in lm.rows]}, indent=2) + "\n"


def map_table_to_text(rows: list[tuple[Vertex, Vertex]], m: int) -> str:
    return "\n".join(
        f"{format_vertex(v, m)}  {format_vertex(w, m)}" for v, w in rows
    ) + "\n"


def map_table_to_csv(rows: list[tuple[Vertex, Vertex]], m: int) -> str:
    out = ["v,image"]
    for v, w in rows:
        out.append(f"{format_vertex(v, m)},{format_vertex(w, m)}")
    return "\n".join(out) + "\n"


def map_table_to_json(rows: list[tuple[Vertex, Vertex]], n: int, m: int) -> str:
    payload = {
        "n": n,
        "m": m,
        "map": [[format_vertex(v, m), format_vertex(w, m)] for v, w in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def hanoi_table_to_text(
    rows: list[tuple[int, Vertex, Vertex]], n: int, m: int
) -> str:
    """Three-column solution table: step index, S position, T position."""
    s_head = f"S({n},{m})"
    t_head = f"T({n},{m})"
    wl = max(3, max((len(str(ell)) for ell, _, _ in rows), default=3))
    ws = max(
        len(s_head),
        max((len(format_vertex(s, m)) for _, s, _ in rows), default=0),
    )
    lines = [f"{'ell':>{wl}}  {s_head:<{ws}}  {t_head}"]
    for ell, s, t in rows:
        lines.append(
            f"{ell:>{wl}}  {format_vertex(s, m):<{ws}}  {format_vertex(t, m)}"
        )
    return "\n".join(lines) + "\n"


def hanoi_table_to_csv(rows: list[tuple[int, Vertex, Vertex]], m: int) -> str:
    out = ["ell,s,t"]
    for ell, s, t in rows:
        out.append(f"{ell},{format_vertex(s, m)},{format_vertex(t, m)}")
    return "\n".join(out) + "\n"


def hanoi_table_to_json(
    rows: list[tuple[int, Vertex, Vertex]], n: int, m: int
) -> str:
    payload = {
        "n": n,
        "m": m,
        "rows": [
            {"ell": ell, "s": format_vertex(s, m), "t": format_vertex(t, m)}
            for ell, s, t in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
