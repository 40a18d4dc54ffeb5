"""The two paths of every CLI table and graph: integer formulas, or arrays.

A table of at most exact.SMALL_TABLE rows is built by exact.table as tuples
of Python ints from its row function, and a gen graph of at most SMALL_TABLE
edges as a list of code pairs from the closed-form edge sets, without numpy;
a larger one as digit or edge arrays, a table by exact.table_array from the
same row function. Each argv here runs through main on both paths, forced
by setting the threshold, and must print the same bytes, to stdout or to
--out, with the same exit code and the same stderr. Refusals must be the
same on both.
"""
from __future__ import annotations

import numpy as np
import pytest

from sierham import exact, graphs, hanoi, serialize
from sierham.cli import main
from sierham.exact import embedding_matrix, parse_vertex

SMALL = exact.SMALL_TABLE
FORMATS = ("text", "csv", "json")
GRAPH_FORMATS = ("text", "csv", "json", "dot", "edgelist")

TABLES = [
    *(
        ["embed", *argv, "--format", fmt]
        for argv in (
            ["phi", "--n", "3", "--m", "3"],
            ["tau", "--n", "3", "--m", "5", "--invert"],
            ["epsilon", "--n", "3", "--m", "7", "--c", "3"],
            ["epsilon", "--n", "2", "--m", "12", "--c-list", "5,7"],
            ["phi", "--n", "2", "--m", "13", "--invert"],
        )
        for fmt in FORMATS
    ),
    *(
        [*argv, "--format", fmt]
        for argv in (
            ["hanoi", "classic", "--n", "4"],
            ["hanoi", "classic", "--n", "3", "--m", "13"],
            ["diplomats", "--n", "5"],
            ["hanoi", "solve", "--from", "1020"],
            ["hanoi", "solve", "--coords", "S", "--from", "1020"],
            ["hanoi", "solve", "--m", "13", "--from", "1 12 9"],
            ["hanoi", "solve", "--coords", "S", "--m", "13", "--from", "12,0,7"],
            ["hanoi", "solve", "--coords", "S", "--from", "0" * 40 + "121"],
        )
        for fmt in FORMATS
    ),
    *(["gray", "--n", "4", "--format", fmt] for fmt in ("bits", "int", "both")),
    *(
        ["gen", kind, "--n", n, "--m", m, "--format", fmt]
        for kind in ("sierpinski", "hamming", "single-twist")
        for n, m in (("1", "2"), ("3", "4"), ("2", "12"))
        for fmt in GRAPH_FORMATS
    ),
]

# tables of SMALL / 2, SMALL and 2 SMALL rows (or one row fewer and more)
BOUNDARY = [
    ["hanoi", "classic", "--n", "11"],
    ["hanoi", "classic", "--n", "12", "--format", "json"],
    ["hanoi", "classic", "--n", "13", "--format", "csv"],
    ["diplomats", "--n", "12"],
    ["gray", "--n", "11", "--format", "both"],
    ["gray", "--n", "12"],
    ["gray", "--n", "13", "--format", "int"],
    ["embed", "tau", "--n", "7", "--m", "3"],
    ["embed", "phi", "--n", "6", "--m", "4", "--format", "json"],
    ["embed", "tau", "--n", "8", "--m", "3", "--invert", "--format", "csv"],
    ["embed", "phi", "--n", "1", "--m", "4095"],
    ["embed", "epsilon", "--n", "1", "--m", "4096", "--c", "5", "--format", "json"],
    ["embed", "phi", "--n", "1", "--m", "4097", "--invert"],
    ["hanoi", "solve", "--coords", "S", "--from", "111111111110"],
    ["hanoi", "solve", "--coords", "S", "--from", "111111111111", "--format", "json"],
    ["hanoi", "solve", "--coords", "S", "--from", "1000000000000"],
    ["hanoi", "solve", "--from", "1" * 12],
    # graphs of 2304 to 4095 edges, and of 4186 to 8191
    ["gen", "sierpinski", "--n", "12", "--m", "2"],
    ["gen", "sierpinski", "--n", "13", "--m", "2", "--format", "csv"],
    ["gen", "sierpinski", "--n", "1", "--m", "91", "--format", "dot"],
    ["gen", "sierpinski", "--n", "1", "--m", "92", "--format", "edgelist"],
    ["gen", "hamming", "--n", "1", "--m", "91", "--format", "json"],
    ["gen", "hamming", "--n", "6", "--m", "3"],
    ["gen", "hamming", "--n", "9", "--m", "2", "--format", "dot"],
    ["gen", "hamming", "--n", "10", "--m", "2", "--format", "csv"],
    ["gen", "single-twist", "--n", "2", "--m", "20", "--format", "json"],
    ["gen", "single-twist", "--n", "2", "--m", "21"],
]

REFUSALS = [
    ["hanoi", "classic", "--n", "0"],
    ["diplomats", "--n", "0"],
    ["gray", "--n", "0"],
    ["gray", "--n", "-1"],
    ["embed", "phi", "--n", "0", "--m", "3"],
    ["embed", "phi", "--n", "2", "--m", "1"],
    ["hanoi", "classic", "--n", "2", "--m", "1"],
    ["hanoi", "solve", "--from", "12", "--m", "1"],
    ["embed", "tau", "--n", "3", "--m", "4"],
    ["hanoi", "classic", "--n", "3", "--m", "4"],
    ["hanoi", "solve", "--m", "4", "--from", "1020"],
    ["hanoi", "solve", "--from", "1930"],
    ["hanoi", "solve", "--m", "13", "--from", "1 13 0"],
    ["embed", "epsilon", "--n", "3", "--m", "5", "--c-list", "1,2"],
    ["embed", "epsilon", "--n", "2", "--m", "4", "--c", "2"],
    ["embed", "phi", "--n", "2", "--m", "3", "--c", "2"],
    # one step, but the tau matrix of 3164 x 3164 entries is refused on both paths
    ["hanoi", "solve", "--coords", "S", "--from", "0" * 3163 + "1"],
    # 2^23 steps of 3023 digits: more digits than the largest classic play's table
    ["hanoi", "solve", "--coords", "S", "--from", "0" * 3000 + "1" * 23],
    ["gen", "sierpinski", "--n", "0", "--m", "3"],
    ["gen", "hamming", "--n", "-1", "--m", "3"],
    ["gen", "single-twist", "--n", "2", "--m", "1"],
    ["gen", "hamming", "--n", "3", "--m", "1"],
    # 3^15 and 2^24 vertices; 5 * 10^7 and 9.6 * 10^7 edges
    ["gen", "hamming", "--n", "15", "--m", "3"],
    ["gen", "single-twist", "--n", "24", "--m", "2"],
    ["gen", "sierpinski", "--n", "1", "--m", "10000"],
    ["gen", "hamming", "--n", "23", "--m", "2"],
]


def answer(argv, limit, monkeypatch, capsys):
    monkeypatch.setattr(exact, "SMALL_TABLE", limit)
    code = main(argv)
    return code, *capsys.readouterr()


def both_paths(argv, monkeypatch, capsys):
    """(integer path, array path) answers: (exit code, stdout, stderr) each."""
    return answer(argv, 2**64, monkeypatch, capsys), answer(argv, 0, monkeypatch, capsys)


@pytest.mark.parametrize("argv", TABLES + BOUNDARY, ids=" ".join)
def test_both_paths_print_the_same_table(argv, monkeypatch, capsys):
    small, array = both_paths(argv, monkeypatch, capsys)
    assert small[0] == 0 and small[1]
    assert small == array


@pytest.mark.parametrize("argv", REFUSALS, ids=" ".join)
def test_both_paths_refuse_alike(argv, monkeypatch, capsys):
    small, array = both_paths(argv, monkeypatch, capsys)
    assert small[0] == 2 and small[1] == "" and small[2].startswith("error: ")
    assert small == array


def test_gray_n0_is_refused_on_both_paths(monkeypatch, capsys):
    for limit in (SMALL, 0):
        assert answer(["gray", "--n", "0"], limit, monkeypatch, capsys) == (
            2, "", "error: n must be >= 1, got 0\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["hanoi", "classic", "--n", "5", "--format", "json"],
        ["gray", "--n", "12"],
        ["gen", "single-twist", "--n", "3", "--m", "5", "--format", "dot"],
    ],
    ids=" ".join,
)
def test_both_paths_write_the_same_file(argv, tmp_path, monkeypatch, capsys):
    files = []
    for limit in (2**64, 0):
        files.append(tmp_path / f"limit{limit}.txt")
        assert answer([*argv, "--out", str(files[-1])], limit, monkeypatch, capsys) == (0, "", "")
    assert files[0].read_bytes() == files[1].read_bytes()


# for each table: an argv of SMALL rows (or edges, at most), one of more, and
# the array functions the larger one calls; every table's is exact.table_array
SELECTION = [
    (["hanoi", "classic", "--n", "12"], ["hanoi", "classic", "--n", "13"], [(exact, "table_array")]),
    (["diplomats", "--n", "12"], ["diplomats", "--n", "13"], [(exact, "table_array")]),
    (
        ["hanoi", "solve", "--coords", "S", "--from", "1" * 12],
        ["hanoi", "solve", "--coords", "S", "--from", "1" * 13],
        [(exact, "table_array")],
    ),
    (["gray", "--n", "12"], ["gray", "--n", "13"], [(exact, "table_array")]),
    (
        ["embed", "phi", "--n", "6", "--m", "4", "--invert"],
        ["embed", "phi", "--n", "1", "--m", "4097", "--invert"],
        [(exact, "table_array")],
    ),
    (["gen", "sierpinski", "--n", "12", "--m", "2"], ["gen", "sierpinski", "--n", "3", "--m", "10"],
     [(graphs, "build_sierpinski")]),
    (["gen", "hamming", "--n", "1", "--m", "91"], ["gen", "hamming", "--n", "6", "--m", "3"],
     [(graphs, "build_hamming")]),
    (["gen", "single-twist", "--n", "2", "--m", "20"], ["gen", "single-twist", "--n", "2", "--m", "21"],
     [(graphs, "build_single_twist")]),
]


@pytest.mark.parametrize("small,large,functions", SELECTION, ids=[s[0][0] + " " + s[0][1] for s in SELECTION])
def test_the_row_count_selects_the_path(small, large, functions, monkeypatch, capsys):
    assert SMALL == 2**12
    calls = []
    for owner, name in functions:
        original = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    assert main(small) == 0 and calls == []
    assert main(large) == 0 and sorted(calls) == sorted(name for _, name in functions)
    capsys.readouterr()


def test_small_embed_rows_take_the_family_recurrence(monkeypatch, capsys):
    # O(n) per row by epsilon_forward, or epsilon_inverse with --invert: no matrix is applied or inverted
    calls = []
    apply = exact.LinearMap.apply
    monkeypatch.setattr(exact.LinearMap, "apply", lambda lm, v: calls.append(v) or apply(lm, v))
    monkeypatch.setattr(exact, "invert_linear_map", lambda lm: calls.append(lm))
    assert main(["embed", "epsilon", "--n", "3", "--m", "7", "--c", "3"]) == 0 and calls == []
    assert main(["embed", "tau", "--n", "3", "--m", "5", "--invert"]) == 0 and calls == []
    assert main(["embed", "tau", "--n", "4", "--m", "5", "--matrix", "--invert"]) == 0 and calls == []
    capsys.readouterr()

@pytest.mark.parametrize(
    "m,start",
    [
        (3, "0" * 40 + "1" * 13),
        (5, "0" * 7 + "4" * 12 + "3"),
        (9, "0" * 3 + "8" + "0" * 11 + "5"),
        (13, " ".join(["0"] * 5 + ["12"] + ["7"] * 12)),
    ],
    ids=["m3", "m5", "m9", "m13"],
)
def test_a_long_solve_maps_only_the_digits_that_move(m, start, capsys):
    # past SMALL steps, the row function's tau image equals the full n x n product
    s = hanoi.shortest_path_to_zero(parse_vertex(start, m), m).positions
    assert len(s) > SMALL
    t = embedding_matrix("tau", s.shape[1], m).image(s)
    expected = serialize.write("hanoi_table", "text", np.arange(len(s) - 1, -1, -1), s, t, m)
    assert main(["hanoi", "solve", "--coords", "S", "--m", str(m), "--from", start]) == 0
    assert capsys.readouterr() == (expected, "")


# one argv of each table kind, map, inverse map, classic, diplomats, gray and
# solve in both coordinates, with leading zeros and digits past one character
BLOCKED = [
    ["embed", "tau", "--n", "3", "--m", "5", "--invert"],
    ["embed", "epsilon", "--n", "2", "--m", "12", "--c-list", "5,7", "--format", "json"],
    ["hanoi", "classic", "--n", "6", "--m", "13", "--format", "csv"],
    ["diplomats", "--n", "5"],
    ["gray", "--n", "6", "--format", "both"],
    ["hanoi", "solve", "--from", "0" * 5 + "21012"],
    ["hanoi", "solve", "--coords", "S", "--m", "13", "--from", "0,0,12,0,7,3", "--format", "json"],
]


@pytest.mark.parametrize("argv", BLOCKED, ids=" ".join)
def test_tables_filled_in_blocks_of_seven_print_the_int_path_bytes(argv, monkeypatch, capsys):
    small = answer(argv, 2**64, monkeypatch, capsys)
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)  # the last block is short
    calls = []
    table_array = exact.table_array
    monkeypatch.setattr(exact, "table_array", lambda *a: calls.append(a[1]) or table_array(*a))
    assert answer(argv, 0, monkeypatch, capsys) == small and small[0] == 0
    assert len(calls) == 1 and calls[0] % 7
