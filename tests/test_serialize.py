"""Render and parse round trips for graphs, matrices, and tables."""
from __future__ import annotations

import json

import numpy as np
import pytest

from sierham.graphs import build_hamming, build_sierpinski, code_to_vertex, digit_rows
from sierham.maps import embedding_matrix
from sierham.serialize import (
    format_vertex,
    graph_from_json,
    graph_to_csv,
    graph_to_dot,
    graph_to_edgelist,
    graph_to_json,
    graph_to_text,
    hanoi_table_to_csv,
    hanoi_table_to_json,
    hanoi_table_to_text,
    map_table_to_csv,
    map_table_to_json,
    map_table_to_text,
    matrix_to_json,
    matrix_to_text,
    parse_vertex,
    render_graph,
    vertex_labels,
)


def test_format_vertex():
    assert format_vertex((1, 0, 2, 0), 3) == "1020"
    assert format_vertex((10, 0, 3), 12) == "10 0 3"
    assert format_vertex((0,), 2) == "0"


def test_parse_vertex():
    assert parse_vertex("1020", 3) == (1, 0, 2, 0)
    assert parse_vertex(" 1020\n", 3) == (1, 0, 2, 0)
    assert parse_vertex("10 0 3", 12) == (10, 0, 3)
    assert parse_vertex("10,0,3", 12) == (10, 0, 3)
    assert parse_vertex("1020", 3, n=4) == (1, 0, 2, 0)


def test_parse_vertex_errors():
    with pytest.raises(ValueError):
        parse_vertex("1020", 3, n=3)
    with pytest.raises(ValueError):
        parse_vertex("1920", 3)
    with pytest.raises(ValueError):
        parse_vertex("", 3)


def test_format_parse_roundtrip():
    for m in (2, 3, 10, 11, 16):
        v = tuple(d % m for d in (0, 1, 7, 10, 15))
        assert parse_vertex(format_vertex(v, m), m) == v


def test_edgelist():
    text = graph_to_edgelist(build_sierpinski(1, 3))
    assert text == "0 1\n0 2\n1 2\n"
    wide = graph_to_edgelist(build_hamming(1, 12))
    first = wide.splitlines()[0]
    assert first == "0\t1"  # n=1, alphabet 12: tab between endpoints


@pytest.mark.parametrize("n,m", [(4, 2), (2, 10), (2, 11), (3, 12)])
def test_graph_writers_label_vertices_as_format_vertex(n, m):
    # the writers format each vertex once; the labels must be the ones
    # format_vertex gives, on both sides of the m <= 10 switch
    g = build_sierpinski(n, m)
    label = [format_vertex(code_to_vertex(c, n, m), m) for c in range(m**n)]
    sep = " " if m <= 10 else "\t"
    assert graph_to_edgelist(g) == "".join(f"{label[u]}{sep}{label[v]}\n" for u, v in g.edges.tolist())
    dot = graph_to_dot(g).splitlines()
    assert dot[1 : 1 + m**n] == [f'  v{c} [label="{label[c]}"];' for c in range(m**n)]


def test_text_header():
    text = graph_to_text(build_sierpinski(3, 3))
    lines = text.splitlines()
    assert lines[0] == "sierpinski graph n=3 m=3 vertices=27 edges=39"
    assert len(lines) == 40


def test_csv():
    text = graph_to_csv(build_sierpinski(1, 3))
    assert text == "u,v\n0,1\n0,2\n1,2\n"


def test_json_roundtrip():
    g = build_sierpinski(3, 4)
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert back.kind == g.kind
    payload = json.loads(graph_to_json(g))
    assert payload["n"] == 3 and payload["m"] == 4
    assert len(payload["edges"]) == g.num_edges


def test_dot():
    text = graph_to_dot(build_sierpinski(2, 2))
    lines = text.splitlines()
    assert lines[0] == 'graph "sierpinski_2_2" {'
    assert '  v0 [label="00"];' in lines
    assert sum(1 for ln in lines if " -- " in ln) == 3
    assert lines[-1] == "}"


def test_render_graph_dispatch():
    g = build_sierpinski(1, 3)
    assert render_graph(g, "edgelist") == graph_to_edgelist(g)
    assert render_graph(g, "dot") == graph_to_dot(g)
    with pytest.raises(ValueError):
        render_graph(g, "yaml")


def test_matrix_text_frozen():
    lm = embedding_matrix("tau", 4, 3)
    assert matrix_to_text(lm) == "1 0 0 0\n2 2 0 0\n2 1 1 0\n2 1 2 2\n"


def test_matrix_json():
    payload = json.loads(matrix_to_json(embedding_matrix("tau", 2, 5)))
    assert payload == {"m": 5, "rows": [[1, 0], [3, 3]]}


def test_map_tables():
    v = np.array([(0, 1), (1, 0)])
    w = np.array([(0, 1), (1, 1)])
    assert map_table_to_text(v, w, 3) == "01  01\n10  11\n"
    assert map_table_to_csv(v, w, 3) == "v,image\n01,01\n10,11\n"
    payload = json.loads(map_table_to_json(v, w, 3))
    assert payload == {"n": 2, "m": 3, "map": [["01", "01"], ["10", "11"]]}


def test_hanoi_table_text_frozen():
    ell = np.array([14, 13])
    s = np.array([(1, 2, 1, 0), (1, 2, 0, 1)])
    t = np.array([(1, 0, 2, 0), (1, 0, 1, 0)])
    text = hanoi_table_to_text(ell, s, t, 3)
    assert text == (
        "ell  S(4,3)  T(4,3)\n"
        " 14  1210    1020\n"
        " 13  1201    1010\n"
    )


def test_hanoi_table_wide_alphabet():
    s = t = np.array([(10, 0)])
    text = hanoi_table_to_text(np.array([0]), s, t, 11)
    lines = text.splitlines()
    # the S column pads to the wider of the header and the digit strings
    assert lines[0].startswith("ell  S(2,11)")
    assert lines[1] == "  0  10 0     10 0"


def test_hanoi_tables_read_n_from_the_s_column():
    # five discs, three pegs: the header and the json "n" come from s.shape[1]
    ell, s, t = np.array([0]), np.zeros((1, 5), np.int64), np.zeros((1, 5), np.int64)
    assert hanoi_table_to_text(ell, s, t, 3).splitlines()[0] == "ell  S(5,3)  T(5,3)"
    assert json.loads(hanoi_table_to_json(ell, s, t, 3))["n"] == 5
    assert json.loads(map_table_to_json(s, t, 3))["n"] == 5


def test_hanoi_table_csv_and_json():
    ell, s, t = np.array([1]), np.array([(0, 1)]), np.array([(0, 2)])
    assert hanoi_table_to_csv(ell, s, t, 3) == "ell,s,t\n1,01,02\n"
    payload = json.loads(hanoi_table_to_json(ell, s, t, 3))
    assert payload == {"n": 2, "m": 3, "rows": [{"ell": 1, "s": "01", "t": "02"}]}


@pytest.mark.parametrize("n,m", [(5, 2), (4, 3), (3, 10), (3, 11), (2, 13)])
def test_vertex_labels_match_format_vertex(n, m):
    rows = digit_rows(np.arange(m**n), n, m)
    assert vertex_labels(rows, m) == [format_vertex(v, m) for v in rows.tolist()]


def test_vertex_labels_of_exact_and_wide_images():
    # an object array with digits past int64, and an int64 tau image whose
    # digits have ten characters each
    big = 10**29 + 1
    rows = np.array([(big - 1, 0, 12345), (0, 0, 0), (7, big - 2, 1)], dtype=object)
    assert vertex_labels(rows, big) == [format_vertex(v, big) for v in rows.tolist()]
    m = 10**9 + 7
    tau = embedding_matrix("tau", 3, m).image(digit_rows(np.arange(27), 3, 3))
    assert tau.dtype == np.int64
    assert vertex_labels(tau, m) == [format_vertex(v, m) for v in tau.tolist()]


def test_vertex_labels_of_no_rows():
    assert vertex_labels(np.zeros((0, 3), np.int64), 3) == []
    assert vertex_labels(np.zeros((0, 3), np.int64), 12) == []
