"""Hanoi solvers: geodesics, closed-form digits, legality, the searches.

Positions are peg tuples with disc 1 the largest disc. The library solves
by algebra; everything here re-derives answers by search and comparison.
"""
from __future__ import annotations

import re
from itertools import permutations

import numpy as np
import pytest

from sierham import exact, hanoi
from sierham.graphs import (
    MAX_VERTICES,
    PermutationSymmetry,
    apply_symmetry,
    build_sierpinski,
    code_to_vertex,
    is_sierpinski_edge,
    vertex_to_code,
)
from sierham.hanoi import (
    MovePath,
    classic_solution,
    constant_corner_search,
    diplomats_table,
    is_legal_move,
    is_legal_move_physical,
    path_length_to_zero,
    position_coordinate,
    shortest_path_to_zero,
    solve_from_position,
    wolfe_coordinate,
)
from sierham.codes import eta_inverse
from sierham.maps import tau_forward, tau_inverse

import oracles


# ---------------------------------------------------------------- distance


def test_path_length_examples():
    assert path_length_to_zero((1, 2, 1, 0)) == 14
    assert path_length_to_zero((0, 0, 0, 0)) == 0
    assert path_length_to_zero((0, 0, 1)) == 1
    assert path_length_to_zero((2, 0, 0)) == 4
    assert path_length_to_zero((1,) * 10) == 2**10 - 1


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (1, 5), (2, 5), (3, 5), (4, 5)])
def test_distance_formula_matches_bfs(n, m):
    g = build_sierpinski(n, m)
    dist = oracles.bfs_distances(oracles.adjacency(g), 0)
    for code in range(g.num_vertices):
        v = code_to_vertex(code, n, m)
        assert path_length_to_zero(v) == dist[code]


@pytest.mark.parametrize("n,m", [(1, 3), (3, 3), (5, 3), (6, 3), (3, 5), (4, 5)])
def test_geodesic_to_zero_is_unique(n, m):
    g = build_sierpinski(n, m)
    counts = oracles.geodesic_counts(oracles.adjacency(g), 0)
    assert counts == [1] * g.num_vertices


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (5, 3), (3, 5)])
def test_shortest_path_walks_edges(n, m):
    for code in range(m**n):
        v = code_to_vertex(code, n, m)
        path = shortest_path_to_zero(v, m)
        positions = oracles.as_tuples(path.positions)
        assert path.coords == "S"
        assert positions[0] == v
        assert positions[-1] == (0,) * n
        assert path.moves == path_length_to_zero(v)
        for a, b in zip(positions, positions[1:]):
            assert is_sierpinski_edge(a, b, m)
            assert path_length_to_zero(b) == path_length_to_zero(a) - 1


def test_case_two_step():
    # when the last digit is already zero, the deepest nonzero digit c
    # trades places with its all-zero tail: c 0 ... 0 -> 0 c ... c
    path = shortest_path_to_zero((1, 0, 0), 3)
    assert oracles.as_tuples(path.positions) == [(1, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 1), (0, 0, 0)]


def test_shortest_path_from_the_far_corner():
    path = shortest_path_to_zero((1, 2, 1, 0), 3)
    assert oracles.as_tuples(path.positions) == [
        (1, 2, 1, 0),
        (1, 2, 0, 1),
        (1, 2, 0, 0),
        (1, 0, 2, 2),
        (1, 0, 2, 0),
        (1, 0, 0, 2),
        (1, 0, 0, 0),
        (0, 1, 1, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 1, 0, 0),
        (0, 0, 1, 1),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    ]


GEODESIC_SIZES = (
    [(n, 2) for n in range(1, 9)]
    + [(n, 3) for n in range(1, 7)]
    + [(n, m) for m in (4, 5) for n in range(1, 5)]
    + [(n, m) for m in (6, 7) for n in range(1, 4)]
)


@pytest.mark.parametrize("n,m", GEODESIC_SIZES)
def test_geodesic_matches_the_walk(n, m):
    for code in range(m**n):
        v = code_to_vertex(code, n, m)
        closed = shortest_path_to_zero(v, m).positions
        walked = oracles.geodesic_walk(v, m).positions
        assert closed.dtype == walked.dtype
        assert oracles.as_tuples(closed) == oracles.as_tuples(walked)
        assert oracles.geodesic_to_zero(v) == oracles.as_tuples(walked)  # the scalar closed form


@pytest.mark.parametrize(
    "v,m",
    [
        ((0,) * 97 + (1, 2, 1), 3),  # digit bits past 2^63
        ((10**29, 0, 7, 10**29 - 1, 0), 10**29 + 1),  # digits past int64
    ],
)
def test_geodesic_matches_the_walk_past_int64(v, m):
    closed = shortest_path_to_zero(v, m).positions
    walked = oracles.geodesic_walk(v, m).positions
    assert closed.dtype == walked.dtype
    assert oracles.as_tuples(closed) == oracles.as_tuples(walked)
    assert oracles.geodesic_to_zero(v) == oracles.as_tuples(walked)


@pytest.mark.parametrize(
    "v,message",
    [
        ((), "n must be >= 1, got 0"),
        ((1,) * 24, f"refusing to build a geodesic of {2**24} positions"),
        ((1,) * 5000, "refusing to build a geodesic of more than 2^4999 positions"),
        ((1,) * 10**5, "refusing to build a geodesic of more than 2^99999 positions"),
    ],
)
def test_geodesic_refuses_empty_and_oversize_starts(v, message):
    # refused before any step is built: (1,) * 5000 has 2^5000 positions
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        shortest_path_to_zero(v, 3)
    if v:  # the scalar form runs the geodesic guard; n >= 1 is its caller's check
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            oracles.geodesic_to_zero(v)


# ---------------------------------------------------------------- solving


def test_solve_from_1020():
    path = solve_from_position((1, 0, 2, 0), 3)
    assert path.coords == "T"
    assert path.moves == 14
    assert oracles.as_tuples(path.positions) == [
        (1, 0, 2, 0),
        (1, 0, 1, 0),
        (1, 0, 1, 1),
        (1, 2, 1, 1),
        (1, 2, 1, 0),
        (1, 2, 2, 0),
        (1, 2, 2, 2),
        (0, 2, 2, 2),
        (0, 2, 2, 0),
        (0, 2, 1, 0),
        (0, 2, 1, 1),
        (0, 0, 1, 1),
        (0, 0, 1, 2),
        (0, 0, 0, 2),
        (0, 0, 0, 0),
    ]


def test_solve_every_start_n4_m3():
    # each optimal play ends on peg 0, has the predicted length, and every
    # move is legal under the algebraic and the physical rule alike
    for code in range(3**4):
        t = code_to_vertex(code, 4, 3)
        path = solve_from_position(t, 3)
        positions = oracles.as_tuples(path.positions)
        assert positions[0] == t
        assert positions[-1] == (0, 0, 0, 0)
        assert path.moves == path_length_to_zero(tau_inverse(t, 3))
        for a, b in zip(positions, positions[1:]):
            assert is_legal_move(a, b, 3)
            assert is_legal_move_physical(a, b)


def test_solve_every_start_n3_m5():
    for code in range(5**3):
        t = code_to_vertex(code, 3, 5)
        positions = oracles.as_tuples(solve_from_position(t, 5).positions)
        assert positions[-1] == (0, 0, 0)
        for a, b in zip(positions, positions[1:]):
            assert is_legal_move(a, b, 5)


def test_solve_rejects_even_m():
    with pytest.raises(ValueError):
        solve_from_position((0, 1), 4)


@pytest.mark.parametrize("t", [(5, 0), (3, 0), (-1, 0, 2)])
def test_solve_rejects_digits_outside_the_alphabet(t):
    # tau_inverse alone reduces digits mod m and would solve from (2, 0)
    with pytest.raises(ValueError, match="out of range"):
        solve_from_position(t, 3)


def test_solve_path_lengths_match_bfs_on_the_move_graph():
    # the move graph is the tau image of S(n,m); distances must agree
    n, m = 4, 3
    edges = oracles.legal_move_edges(n, m, lambda a, b: is_legal_move(a, b, m))
    adj = [[] for _ in range(m**n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = oracles.bfs_distances(adj, 0)
    for code in range(m**n):
        t = code_to_vertex(code, n, m)
        assert solve_from_position(t, m).moves == dist[code]


# ---------------------------------------------------------------- classic


def test_classic_two_discs():
    assert oracles.as_tuples(classic_solution(2, 3).positions) == [(0, 0), (0, 2), (1, 2), (1, 1)]


def test_classic_one_disc():
    assert oracles.as_tuples(classic_solution(1, 3).positions) == [(0,), (1,)]


def test_classic_n4_m5_frozen():
    expected = [
        (0, 0, 0, 0),
        (0, 0, 0, 2),
        (0, 0, 4, 2),
        (0, 0, 4, 4),
        (0, 3, 4, 4),
        (0, 3, 4, 1),
        (0, 3, 3, 1),
        (0, 3, 3, 3),
        (1, 3, 3, 3),
        (1, 3, 3, 0),
        (1, 3, 2, 0),
        (1, 3, 2, 2),
        (1, 1, 2, 2),
        (1, 1, 2, 4),
        (1, 1, 1, 4),
        (1, 1, 1, 1),
    ]
    assert oracles.as_tuples(classic_solution(4, 5).positions) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_classic_moves_everything_to_peg_one(n):
    mp = classic_solution(n, 3)
    positions = oracles.as_tuples(mp.positions)
    assert mp.moves == 2**n - 1
    assert positions[0] == (0,) * n
    assert positions[-1] == (1,) * n
    assert len(set(positions)) == 2**n  # no position repeats


@pytest.mark.parametrize("n", range(1, 11))
def test_classic_is_legal_both_rules(n):
    positions = oracles.as_tuples(classic_solution(n, 3).positions)
    for a, b in zip(positions, positions[1:]):
        assert is_legal_move(a, b, 3)
        assert is_legal_move_physical(a, b)


def test_classic_m5_is_legal():
    positions = oracles.as_tuples(classic_solution(4, 5).positions)
    for a, b in zip(positions, positions[1:]):
        assert is_legal_move(a, b, 5)


def test_classic_rejects_even_m():
    with pytest.raises(ValueError):
        classic_solution(3, 4)


# odd moduli from 3 up to 10**29 + 1; from 10**10 + 19 on, tau's matrix
# products leave int64 and run in exact Python integers
BIG_MODULI = [(1, 3), (5, 3), (4, 5), (3, 7), (3, 13), (4, 10**10 + 19), (3, 10**29 + 1)]


@pytest.mark.parametrize("n,m", BIG_MODULI)
def test_classic_matches_the_scalar_loop(n, m):
    assert oracles.as_tuples(classic_solution(n, m).positions) == oracles.classic_positions_loop(n, m)


@pytest.mark.parametrize("n,m", BIG_MODULI)
def test_solve_matches_the_scalar_loop(n, m):
    starts = [(m - 1,) * n, tuple((7 * i + 1) % m for i in range(n)), (0,) * n]
    for t in starts:
        assert oracles.as_tuples(solve_from_position(t, m).positions) == oracles.solve_positions_loop(t, m)


# ---------------------------------------------------------------- digit formulas


@pytest.mark.parametrize("n", range(1, 11))
def test_digit_formulas_agree_with_classic(n):
    mp = classic_solution(n, 3)
    for ell in range(2**n):
        for i in range(1, n + 1):
            digit = mp.positions[ell][i - 1]
            assert position_coordinate(ell, i, n) == digit
            assert wolfe_coordinate(ell, i, n) == digit


def test_digit_formula_spot_values():
    # step 14 of the four-disc play is (1, 1, 1, 2)
    assert [wolfe_coordinate(14, i, 4) for i in (1, 2, 3, 4)] == [1, 1, 1, 2]
    assert [position_coordinate(14, i, 4) for i in (1, 2, 3, 4)] == [1, 1, 1, 2]


def test_digit_formula_range_errors():
    with pytest.raises(ValueError):
        wolfe_coordinate(16, 1, 4)
    with pytest.raises(ValueError):
        wolfe_coordinate(3, 0, 4)
    with pytest.raises(ValueError):
        wolfe_coordinate(3, 5, 4)
    with pytest.raises(ValueError):
        position_coordinate(-1, 1, 4)
    with pytest.raises(ValueError):
        position_coordinate(0, 1, 0)


# ---------------------------------------------------------------- legality


def test_legal_move_examples():
    # disc 2 free to hop: no smaller discs exist
    assert is_legal_move((0, 0), (0, 2), 3)
    # disc 1 needs disc 2 parked on the third peg
    assert is_legal_move((0, 2), (1, 2), 3)
    assert not is_legal_move((0, 0), (1, 0), 3)
    # unchanged or multiply-changed positions are not moves
    assert not is_legal_move((0, 0), (0, 0), 3)
    assert not is_legal_move((0, 0), (1, 2), 3)


def test_legal_move_five_pegs():
    # disc 1 from peg 0 to peg 4: smaller discs belong on (0+4)/2 = 2
    assert is_legal_move((0, 2, 2), (4, 2, 2), 5)
    assert not is_legal_move((0, 2, 1), (4, 2, 1), 5)
    # from peg 1 to peg 2: (1+2) * inv2 = 3 * 3 = 9 = 4 mod 5
    assert is_legal_move((1, 4), (2, 4), 5)
    assert not is_legal_move((1, 3), (2, 3), 5)


def test_legal_move_validation():
    with pytest.raises(ValueError):
        is_legal_move((0, 1), (0, 1, 2), 3)
    with pytest.raises(ValueError):
        is_legal_move((0, 3), (1, 3), 3)
    with pytest.raises(ValueError):
        is_legal_move((0, 1), (1, 1), 4)  # even m has no halving
    with pytest.raises(ValueError):
        is_legal_move_physical((0, 3), (1, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_algebraic_equals_physical_for_three_pegs(n):
    vs = oracles.all_vertices(n, 3)
    for a in vs:
        for b in vs:
            if a == b:
                continue
            assert is_legal_move(a, b, 3) == is_legal_move_physical(a, b)


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (3, 3), (4, 3), (1, 5), (2, 5), (3, 5), (4, 5)])
def test_move_graph_is_the_tau_image_of_sierpinski(n, m):
    moves = oracles.legal_move_edges(n, m, lambda a, b: is_legal_move(a, b, m))
    mapped = set()
    for a, b in oracles.edge_set(build_sierpinski(n, m)):
        u = vertex_to_code(tau_forward(code_to_vertex(a, n, m), m), m)
        v = vertex_to_code(tau_forward(code_to_vertex(b, n, m), m), m)
        mapped.add((min(u, v), max(u, v)))
    assert moves == mapped


def test_peg_permutations_preserve_three_peg_legality():
    vs = oracles.all_vertices(3, 3)
    pairs = [
        (a, b) for a in vs for b in vs if a != b and is_legal_move(a, b, 3)
    ]
    for perm in permutations(range(3)):
        pi = PermutationSymmetry(perm)
        for a, b in pairs:
            assert is_legal_move(apply_symmetry(pi, a), apply_symmetry(pi, b), 3)


def test_affine_peg_relabelings_preserve_five_peg_legality():
    # x -> a x + b keeps midpoints, so it carries legal moves to legal moves
    vs = oracles.all_vertices(2, 5)
    pairs = [
        (a, b) for a in vs for b in vs if a != b and is_legal_move(a, b, 5)
    ]
    for mult in (1, 2, 3, 4):
        for shift in range(5):
            pi = PermutationSymmetry(tuple((mult * x + shift) % 5 for x in range(5)))
            for a, b in pairs:
                assert is_legal_move(apply_symmetry(pi, a), apply_symmetry(pi, b), 5)


# ---------------------------------------------------------------- tables, search


def test_diplomats_table_rows():
    rows = diplomats_table(4)
    assert rows.shape == (16, 2, 4) and rows.dtype == np.int64
    assert rows[0].tolist() == [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert rows[5].tolist() == [[0, 1, 0, 1], [0, 3, 4, 1]]
    assert rows[15].tolist() == [[1, 1, 1, 1], [1, 1, 1, 1]]


def test_diplomats_table_is_the_five_peg_classic():
    rows = diplomats_table(4)
    assert oracles.as_tuples(rows[:, 0]) == [eta_inverse(ell, 4) for ell in range(16)]
    assert oracles.as_tuples(rows[:, 1]) == oracles.as_tuples(classic_solution(4, 5).positions)


@pytest.mark.parametrize("n", range(1, 8))
def test_diplomats_table_matches_the_scalar_loop(n):
    rows = diplomats_table(n)
    assert rows.dtype == np.int64
    pairs = zip(oracles.as_tuples(rows[:, 0]), oracles.as_tuples(rows[:, 1]))
    assert list(pairs) == oracles.diplomats_rows_loop(n)


def test_diplomats_rejects_bad_n():
    with pytest.raises(ValueError):
        diplomats_table(0)


@pytest.mark.parametrize("build", [lambda: classic_solution(24), lambda: diplomats_table(24)])
def test_tables_refuse_more_than_max_vertices_rows_before_building_one(build, monkeypatch):
    def refuse(*args):
        raise AssertionError("a table was built past the row guard")

    monkeypatch.setattr(exact, "twist_family", refuse)
    monkeypatch.setattr(hanoi, "table_array", refuse)
    # 2^24 rows is the first power of two above MAX_VERTICES
    message = f"rows of the classic solution for n=24 (limit {MAX_VERTICES})"
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("m", [3, 5, 7])
def test_corner_search_odd(m):
    report = constant_corner_search(m)
    assert report["exists"] is True
    assert report["witness"] == "tau_forward"


def test_corner_search_m4():
    report = constant_corner_search(4)
    assert report["exists"] is False
    assert report["witness"] is None
    assert report["max_exterior_edges"] == 4
    assert report["required_exterior_edges"] == 6
    assert report["decompositions_searched"] == 2


def test_corner_search_m2():
    report = constant_corner_search(2)
    assert report["exists"] is False
    assert report["max_exterior_edges"] == 0
    assert report["required_exterior_edges"] == 1


@pytest.mark.parametrize("m", [2, 4, 6, 1000])
def test_corner_search_even_m_single_disc_is_the_identity(m):
    # S(1,m) is K_m = K_m^1, so the identity keeps every corner
    assert constant_corner_search(m, n=1) == {
        "m": m,
        "n": 1,
        "exists": True,
        "witness": "identity",
        "detail": "S(1,m) is K_m = K_m^1, and the identity keeps every corner",
    }


@pytest.mark.parametrize("m", [3, 5])
def test_corner_search_odd_m_single_disc_keeps_the_halved_map(m):
    report = constant_corner_search(m, n=1)
    assert report["witness"] == "tau_forward"
    assert report.keys() == constant_corner_search(m).keys()


def test_corner_search_refuses_deep_even():
    with pytest.raises(ValueError):
        constant_corner_search(4, n=3)
    with pytest.raises(ValueError):
        constant_corner_search(1)


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("n", [0, -5])
def test_corner_search_rejects_bad_n(n, m):
    with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
        constant_corner_search(m, n)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_corner_search_matches_the_exhaustive_search(m):
    assert constant_corner_search(m) == oracles.constant_corner_search_loop(m)


def column_matchings(m: int) -> dict[int, list[tuple[int, int]]]:
    """Exterior edges reaching m(m-2)/2 for even m, all rows as the lines.

    Column y lists pairs {i, j} of rows, the edge (i, y) - (j, y). Rows are
    Z_(m-1) plus inf = m - 1: column a takes {a-t, a+t}; column inf takes
    {2t-1, 2t}, and the column that held that pair takes {inf, 2t-1}.
    """
    k, inf = m - 1, m - 1
    cols = {
        a: [tuple(sorted(((a - t) % k, (a + t) % k))) for t in range(1, m // 2)]
        for a in range(k)
    }
    cols[inf] = []
    for t in range(1, m // 2):
        pair = tuple(sorted((2 * t - 1, 2 * t % k)))
        donor = next(a for a in range(k) if pair in cols[a])
        cols[donor][cols[donor].index(pair)] = (2 * t - 1, inf)
        cols[inf].append(pair)
    return cols


@pytest.mark.parametrize("m", range(2, 41, 2))
def test_column_matchings_reach_the_reported_maximum(m):
    used = []
    for y, pairs in column_matchings(m).items():
        ends = [(i, y) for pair in pairs for i in pair]
        assert len(set(ends)) == len(ends)  # vertex-disjoint
        assert (y, y) not in ends  # off the corner
        for i, j in pairs:
            assert 0 <= i < m and 0 <= j < m
            assert sum(x != z for x, z in zip((i, y), (j, y))) == 1
        used += [frozenset(pair) for pair in pairs]
    assert len(set(used)) == len(used)  # no block pair twice
    assert len(used) == constant_corner_search(m)["max_exterior_edges"] == m * (m - 2) // 2


# ---------------------------------------------------------------- MovePath


def test_move_path_validation():
    with pytest.raises(ValueError):
        MovePath("X", 3, ((0, 0),))
    with pytest.raises(ValueError):
        MovePath("S", 3, ())
    with pytest.raises(ValueError):
        MovePath("T", 3, ((0, 3),))
    mp = MovePath("S", 3, ((0, 1), (0, 0)))
    assert mp.n == 2
    assert mp.moves == 1


@pytest.mark.parametrize(
    "positions",
    [
        (),  # empty
        np.zeros((0, 2), np.int64),  # no rows
        ((0, 1), (0,)),  # ragged
        (0, 1),  # one flat row, not a (k, n) array
        ((0, 1), (0, -1)),  # below the alphabet
        np.array([(0, 1), (3, 0)]),  # past the alphabet
        ((10**29 + 1, 0),),  # past the alphabet, beyond int64
    ],
)
def test_move_path_rejects_bad_positions(positions):
    with pytest.raises(ValueError):
        MovePath("S", 3, positions)


def test_move_path_positions_are_read_only():
    rows = np.array([(0, 1), (0, 0)])
    mp = MovePath("S", 3, rows)
    assert mp.positions.dtype == np.int64
    assert not mp.positions.flags.writeable
    with pytest.raises(ValueError):
        mp.positions[0, 0] = 2
    assert rows.flags.writeable  # the path holds a read-only view of it
    for path in (classic_solution(3, 3), solve_from_position((1, 0, 2), 3), shortest_path_to_zero((1, 2), 3)):
        assert not path.positions.flags.writeable


def test_move_path_keeps_digits_beyond_int64_exact():
    m = 10**29 + 1
    mp = MovePath("T", m, ((m - 1, 0), (0, 0)))
    assert mp.positions.dtype == object
    assert oracles.as_tuples(mp.positions) == [(m - 1, 0), (0, 0)]
