"""Render and parse round trips for graphs, matrices, and tables."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest

import oracles
from sierham import cli, graphs, serialize
from sierham.codes import gray_sequence
from sierham.graphs import build_hamming, build_sierpinski, code_to_vertex, digit_cube, digit_rows
from sierham.hanoi import classic_solution, shortest_path_to_zero
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
    assert list(vertex_labels(rows, m)) == [format_vertex(v, m) for v in rows.tolist()]


def test_vertex_labels_of_exact_and_wide_images():
    # an object array with digits past int64, and an int64 tau image whose
    # digits have ten characters each
    big = 10**29 + 1
    rows = np.array([(big - 1, 0, 12345), (0, 0, 0), (7, big - 2, 1)], dtype=object)
    assert list(vertex_labels(rows, big)) == [format_vertex(v, big) for v in rows.tolist()]
    m = 10**9 + 7
    tau = embedding_matrix("tau", 3, m).image(digit_rows(np.arange(27), 3, 3))
    assert tau.dtype == np.int64
    assert list(vertex_labels(tau, m)) == [format_vertex(v, m) for v in tau.tolist()]


def test_vertex_labels_of_no_rows():
    assert list(vertex_labels(np.zeros((0, 3), np.int64), 3)) == []
    assert list(vertex_labels(np.zeros((0, 3), np.int64), 12)) == []


# ---------------------------------------------------------------- references


def classic_table(n, m):
    """The columns hanoi classic prints: step, binary count, classic play."""
    return np.arange(2**n), digit_cube(n, 2), classic_solution(n, m).positions, m


def solve_table(v, m):
    """The columns hanoi solve --coords S prints: steps left, geodesic, its tau image."""
    s = shortest_path_to_zero(v, m).positions
    return np.arange(len(s) - 1, -1, -1), s, embedding_matrix("tau", len(v), m).image(s), m


HANOI_TABLES = {
    "classic-n10-m3": classic_table(10, 3),  # 1024 rows: ell is wider than its header
    "classic-n4-m3": classic_table(4, 3),  # S(4,3) is wider than the labels
    **{f"classic-n{n}-m{m}": classic_table(n, m) for n in (7, 8, 9) for m in (3, 5, 9)},
    # digits of one and two characters: S labels of several widths
    **{
        f"solve-m13-{i}": solve_table(v, 13)
        for i, v in enumerate([(1, 0, 7, 12), (12, 12, 12), (10, 3, 11, 0, 5)])
    },
    "solve-m2^64+13": solve_table((2**64 + 12, 5, 2**63, 0), 2**64 + 13),
}


@pytest.mark.parametrize("name", HANOI_TABLES)
def test_hanoi_table_text_equals_the_reference(name):
    ell, s, t, m = HANOI_TABLES[name]
    # line lists, which pytest compares quickly when they differ
    text, reference = hanoi_table_to_text(ell, s, t, m), oracles.hanoi_table_text(ell, s, t, m)
    assert text.splitlines(keepends=True) == reference.splitlines(keepends=True)


def test_hanoi_reference_tables_cover_wide_ell_and_object_digits():
    ell, s, *_ = HANOI_TABLES["classic-n10-m3"]
    assert len(ell) >= 1000 and len(str(ell.max())) > len("ell")
    assert HANOI_TABLES["solve-m2^64+13"][1].dtype == object
    widths = {len(format_vertex(v, 13)) for v in HANOI_TABLES["solve-m13-2"][1].tolist()}
    assert len(widths) > 1


@pytest.mark.parametrize("block", [7, graphs.ROW_BLOCK])
@pytest.mark.parametrize(
    "g",
    [build_sierpinski(1, 2), build_sierpinski(3, 3), build_hamming(2, 3), build_sierpinski(2, 12)],
    ids=["S(1,2)", "S(3,3)", "K_3^2", "S(2,12)"],
)
def test_graph_to_dot_equals_the_reference(g, block, monkeypatch, block_passes):
    monkeypatch.setattr(graphs, "ROW_BLOCK", block)  # edge codes become ints a block at a time
    assert graph_to_dot(g).splitlines(keepends=True) == oracles.graph_dot(g).splitlines(keepends=True)
    assert block_passes == [[min(block, g.num_edges - s) for s in range(0, g.num_edges, block)]]


# every <table>_to_<fmt> writer, by name
WRITERS = [w.groups() for w in map(re.compile(r"(\w+)_to_(\w+)").fullmatch, vars(serialize)) if w]

BLOCKED_INPUTS = {
    "graph": [(g,) for g in (build_sierpinski(3, 3), build_hamming(2, 3), build_sierpinski(2, 12))],
    "matrix": [(embedding_matrix("tau", 3, 5),), (embedding_matrix("phi", 2, 12),)],
    "map_table": [
        (digit_cube(n, m), embedding_matrix(kind, n, m).cube_image(m), m)
        for kind, n, m in [("phi", 3, 3), ("phi", 2, 12), ("tau", 2, 13)]
    ],
    "hanoi_table": [
        classic_table(5, 13),
        *(HANOI_TABLES[k] for k in ("classic-n7-m3", "solve-m13-2", "solve-m2^64+13")),
    ],
    "gray": [(gray_sequence(5),)],
}


def test_writers_print_the_same_bytes_in_blocks_of_seven_rows(monkeypatch, block_passes):
    assert {table for table, _ in WRITERS} == set(BLOCKED_INPUTS)
    calls = [(table, fmt, args) for table, fmt in WRITERS for args in BLOCKED_INPUTS[table]]
    whole = [serialize.write(table, fmt, *args) for table, fmt, args in calls]
    assert max(map(len, block_passes)) == 1  # every input fits one default block
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)
    for (table, fmt, args), text in zip(calls, whole):
        block_passes.clear()
        assert serialize.write(table, fmt, *args) == text, (table, fmt)
        # a table of rows spans several blocks; a matrix prints no table of rows
        assert table == "matrix" or max(map(len, block_passes)) > 1, (table, fmt)


# ---------------------------------------------------------------- one output seam

WRITER_INPUTS = {
    "graph": (build_sierpinski(2, 3),),
    "matrix": (embedding_matrix("tau", 3, 5),),
    "map_table": (digit_cube(2, 3), embedding_matrix("phi", 2, 3).cube_image(3), 3),
    "hanoi_table": classic_table(3, 3),
    "gray": (gray_sequence(3),),
}

REPORTS = [
    ["verify", "tau", "--n", "3", "--m", "5"],
    ["verify", "single-twist", "--n", "4", "--m", "3"],
    ["corners-search", "--m", "4"],
    ["corners-search", "--m", "5"],
]


def test_every_writer_and_report_is_one_lines_or_json_call(monkeypatch):
    calls = []

    def counted(primitive):
        def wrapper(*args, **kwargs):
            calls.append(primitive(*args, **kwargs))
            return calls[-1]

        return wrapper

    for name in ("_lines", "_json"):
        monkeypatch.setattr(serialize, name, counted(getattr(serialize, name)))
    assert {table for table, _ in WRITERS} == set(WRITER_INPUTS)
    for table, fmt in WRITERS:
        calls.clear()
        out = serialize.write(table, fmt, *WRITER_INPUTS[table])
        assert len(calls) == 1 and calls[0] is out, (table, fmt)
    for argv in REPORTS:
        for fmt in ("text", "json"):
            calls.clear()
            out, _ = cli.run_command([*argv, "--format", fmt])
            assert len(calls) == 1 and calls[0] is out, (argv, fmt)
    assert "json" not in vars(cli)
