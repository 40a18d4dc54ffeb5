"""Graph construction: codes, edge rules, counts, symmetry, decomposition."""
from __future__ import annotations

import dataclasses
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from sierham import graphs, kernels
from sierham.codes import gray_sequence
from sierham.graphs import (
    Graph,
    MAX_EDGES,
    MAX_VERTICES,
    PermutationSymmetry,
    apply_symmetry,
    build_hamming,
    build_sierpinski,
    build_single_twist,
    check_vertex,
    code_to_vertex,
    corners,
    digit_rows,
    edge_density,
    from_edge_list,
    hamming_edge_count,
    is_sierpinski_edge,
    iter_rows,
    km_decomposition,
    row_codes,
    row_tuples,
    sierpinski_edge_count,
    vertex_to_code,
)
from sierham.hanoi import (
    classic_solution,
    diplomats_table,
    shortest_path_to_zero,
    solve_from_position,
)
from sierham.maps import (
    compose_linear_maps, embedding_matrix, invert_linear_map, phi_recursive,
)

import oracles

GRAPH_FIELDS = {"n", "m", "kind", "edges", "_built"}


def holds_only_its_rows(g: Graph) -> bool:
    """Whether g holds its fields and nothing derived from its rows, no key array included."""
    return set(vars(g)) == GRAPH_FIELDS and not hasattr(g, "_keys")


def answers_every_pair(g: Graph, expected: set[tuple[int, int]]) -> bool:
    """Whether g.has_edge(u, v) is (min, max) in expected for every ordered pair of vertices."""
    vs = oracles.all_vertices(g.n, g.m)
    return all(
        g.has_edge(u, v) == ((min(a, b), max(a, b)) in expected)
        for a, u in enumerate(vs)
        for b, v in enumerate(vs)
    )


# ---------------------------------------------------------------- codes


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 2)])
def test_code_roundtrip_exhaustive(n, m):
    for code in range(m**n):
        v = code_to_vertex(code, n, m)
        assert len(v) == n
        assert all(0 <= d < m for d in v)
        assert vertex_to_code(v, m) == code


def test_code_is_lexicographic():
    # integer order on codes must equal lexicographic order on tuples
    vs = oracles.all_vertices(3, 4)
    assert vs == sorted(vs)


def test_code_examples():
    assert vertex_to_code((1, 0, 2, 0), 3) == 33
    assert code_to_vertex(33, 4, 3) == (1, 0, 2, 0)
    assert vertex_to_code((0, 0, 0), 5) == 0
    assert vertex_to_code((4, 4, 4), 5) == 124


def test_code_bigint():
    v = (2,) + (0,) * 68 + (1,)  # 70 digits, far beyond 64-bit codes
    code = vertex_to_code(v, 3)
    assert code == 2 * 3**69 + 1
    assert code_to_vertex(code, 70, 3) == v


def test_code_of_numpy_digits_stays_exact_past_int64():
    # int64 digits once made every partial code an int64, which wrapped at 3^40
    assert vertex_to_code(np.array([1] * 45), 3) == 1477156353275416849321
    assert vertex_to_code([1] * 45, 3) == (3**45 - 1) // 2 == 1477156353275416849321
    assert vertex_to_code([np.int8(2), np.uint64(1)], np.int64(3)) == 7
    with pytest.raises(TypeError):
        vertex_to_code((1, 0.0), 3)


def test_check_vertex_errors():
    with pytest.raises(ValueError):
        check_vertex((0, 1), 3, 3)  # wrong length
    with pytest.raises(ValueError):
        check_vertex((0, 3), 2, 3)  # digit out of range
    with pytest.raises(ValueError):
        check_vertex((-1, 0), 2, 3)


# ---------------------------------------------------------------- counts


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(2, 6))
def test_edge_counts_match_built_graphs(n, m):
    s = build_sierpinski(n, m)
    k = build_hamming(n, m)
    assert s.num_edges == sierpinski_edge_count(n, m) == (m ** (n + 1) - m) // 2
    assert k.num_edges == hamming_edge_count(n, m) == n * (m - 1) * m**n // 2


def test_count_examples():
    assert sierpinski_edge_count(1, 4) == 6
    assert sierpinski_edge_count(3, 3) == 39
    assert sierpinski_edge_count(4, 3) == 120
    assert hamming_edge_count(1, 4) == 6
    assert hamming_edge_count(4, 3) == 324
    assert hamming_edge_count(2, 5) == 100


def test_counts_are_exact_bigint():
    # formulas stay exact far beyond the construction guard
    assert sierpinski_edge_count(100, 10) == (10**101 - 10) // 2
    assert hamming_edge_count(80, 7) == 80 * 6 * 7**80 // 2


@pytest.mark.parametrize("n,m", [(1, 2), (1, 9), (4, 3), (5, 2), (3, 5)])
def test_edge_density_value(n, m):
    assert edge_density(n, m) == Fraction(1, n)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6) for m in range(2, 6)])
def test_edge_density_equals_the_block_share_of_the_built_graphs(n, m):
    assert edge_density(n, m) == oracles.block_edge_density(n, m)


def test_edge_density_is_fraction():
    d = edge_density(4, 3)
    assert isinstance(d, Fraction)
    assert (d.numerator, d.denominator) == (1, 4)
    # huge parameters stay exact
    assert edge_density(60, 11) == Fraction(1, 60)


def test_param_errors():
    for bad in [(0, 3), (1, 1), (-2, 3), (3, 0)]:
        with pytest.raises(ValueError):
            sierpinski_edge_count(*bad)
        with pytest.raises(ValueError):
            edge_density(*bad)


def test_scale_guard():
    assert MAX_VERTICES == 10**7
    with pytest.raises(ValueError):
        build_sierpinski(8, 10)  # 10^8 vertices
    with pytest.raises(ValueError):
        build_hamming(25, 5)
    g = build_hamming(2, 100)  # 10^4 vertices is fine
    assert g.num_edges == hamming_edge_count(2, 100)


def no_kernels(monkeypatch):
    """Make every edge kernel fail, so a guard that lets a build through
    fails the test instead of allocating."""
    def refuse(*args):
        raise AssertionError("an edge kernel ran past the scale guard")

    for name in ("sierpinski_edges", "hamming_edges", "single_twist_edges"):
        monkeypatch.setattr(kernels, name, refuse)


def test_edge_guard_refuses_before_any_kernel(monkeypatch):
    assert MAX_EDGES == 3 * 10**7
    # the largest graph of the performance baseline stays buildable
    assert sierpinski_edge_count(8, 7) <= MAX_EDGES
    no_kernels(monkeypatch)
    # S(2,1001): 1,002,001 vertices pass MAX_VERTICES, 5.0e8 edges do not
    for build in (build_sierpinski, build_single_twist):
        with pytest.raises(ValueError, match=r"refusing to build a graph with 501501000 edges"):
            build(2, 1001)
    with pytest.raises(ValueError, match=r"with 96468992 edges on 2\^23 vertices"):
        build_hamming(23, 2)
    # the vertex guard speaks first
    with pytest.raises(ValueError, match=r"graph on 3\^15 = 14348907 vertices"):
        build_hamming(15, 3)


# ---------------------------------------------------------------- digit rows


@pytest.mark.parametrize("n,m", [(1, 2), (3, 4), (4, 5), (2, 12), (5, 2)])
def test_digit_rows_round_trip(n, m):
    codes = np.arange(m**n)
    rows = digit_rows(codes, n, m)
    assert rows.shape == (m**n, n)
    assert row_tuples(rows) == [code_to_vertex(c, n, m) for c in range(m**n)]
    assert np.array_equal(row_codes(rows, m), codes)
    assert row_tuples(rows[:0]) == []
    assert row_tuples(np.zeros((2, 0), np.int64)) == [(), ()]


def test_iter_rows_zips_python_ints_across_uneven_blocks(monkeypatch):
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)
    rows = digit_rows(np.arange(3**3), 3, 3)
    out = list(iter_rows(rows))
    assert out == [code_to_vertex(c, 3, 3) for c in range(3**3)]
    assert all(type(d) is int for row in out for d in row)
    assert list(iter_rows(np.zeros((2, 0), np.int64))) == []


# Each builder, handed an input past its guard, and a factory for its arguments,
# which are the caller's objects and are made before tracing starts. n = 3000
# keeps even a build quadratic in n to tens of megabytes, should a guard run late.
OVERSIZE_CALLS = {
    "classic_solution": (classic_solution, lambda: (3000,)),
    "diplomats_table": (diplomats_table, lambda: (3000,)),
    "gray_sequence": (gray_sequence, lambda: (3000,)),
    "embedding_matrix": (embedding_matrix, lambda: ("phi", 3163, 3)),
    "build_sierpinski": (build_sierpinski, lambda: (3000, 3)),
    "build_hamming": (build_hamming, lambda: (23, 2)),
    "build_single_twist": (build_single_twist, lambda: (2, 1001)),
    "phi_recursive": (phi_recursive, lambda: (3000, 3)),
    "km_decomposition": (km_decomposition, lambda: (3000, 3)),
    "invert_linear_map": (invert_linear_map, lambda: (embedding_matrix("phi", 392, 3),)),
    "compose_linear_maps": (
        compose_linear_maps, lambda: (embedding_matrix("phi", 391, 3), embedding_matrix("tau", 391, 3)),
    ),
    "shortest_path_to_zero": (shortest_path_to_zero, lambda: ((1,) * 3000, 3)),
    "solve_from_position": (solve_from_position, lambda: ((1,) * 3000, 3)),
    # 2^23 positions, but of 3023 digits: more digits than the largest classic play's
    "shortest_path_to_zero-digits": (shortest_path_to_zero, lambda: ((0,) * 3000 + (1,) * 23, 3)),
    "solve_from_position-digits": (solve_from_position, lambda: ((0,) * 3000 + (1,) * 23, 3)),
    "Graph": (Graph, lambda: (3000, 3, "x", [])),
}


@pytest.mark.parametrize("name", sorted(OVERSIZE_CALLS))
def test_every_builder_refuses_before_it_allocates(name):
    build, make_args = OVERSIZE_CALLS[name]
    args = make_args()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^refusing"):
            build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{name} traced {peak} bytes before refusing"


# ---------------------------------------------------------------- edge rule


def test_edge_rule_examples():
    assert is_sierpinski_edge((0, 1), (1, 0), 3)
    assert is_sierpinski_edge((0, 1, 1), (1, 0, 0), 3)
    assert is_sierpinski_edge((2, 0), (2, 1), 3)  # same block, last digit
    assert not is_sierpinski_edge((0, 1), (1, 2), 3)
    assert not is_sierpinski_edge((0, 0, 1), (1, 0, 0), 3)
    assert not is_sierpinski_edge((0, 1, 2), (1, 0, 0), 3)


def test_edge_rule_refuses_non_integer_digits():
    for u, v in [((0.5, 1), (1, 0)), ((0, 1), (1.0, 0))]:
        with pytest.raises(TypeError):
            is_sierpinski_edge(u, v, 3)
    assert is_sierpinski_edge(np.array([0, 1]), (np.int8(1), np.uint64(0)), np.int64(3))
    # NumPy digits whose codes pass int64: 3^45 > 2^63
    u, v = np.array([1] + [0] * 44), np.array([0] + [1] * 44)
    assert is_sierpinski_edge(u, v, np.int64(3))
    assert not is_sierpinski_edge(u, v[::-1], 3)


def test_edge_rule_rejects_equal_and_mismatched():
    with pytest.raises(ValueError):
        is_sierpinski_edge((0, 1), (0, 1), 3)
    with pytest.raises(ValueError):
        is_sierpinski_edge((0, 1), (0, 1, 2), 3)


@pytest.mark.parametrize(
    "n,m",
    [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)],
)
def test_builder_matches_pairwise_rule(n, m):
    # the kernel enumerates by level; the rule tests every pair directly
    assert oracles.edge_set(build_sierpinski(n, m)) == oracles.pairwise_sierpinski_edges(n, m)


@pytest.mark.parametrize(
    "n,m",
    [(1, 2), (2, 3), (2, 5), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (6, 2)],
)
def test_builder_matches_recursion(n, m):
    assert oracles.edge_set(build_sierpinski(n, m)) == oracles.recursive_sierpinski_edges(n, m)


def test_degrees_of_sierpinski():
    g = build_sierpinski(3, 3)
    degs = g.degrees()
    corner_codes = {vertex_to_code(c, 3) for c in corners(3, 3)}
    for code in range(27):
        assert degs[code] == (2 if code in corner_codes else 3)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (5, 2)])
def test_binary_sierpinski_is_a_path(n, m):
    # S(n,2) is a path on 2^n vertices: two ends of degree 1, rest degree 2
    degs = sorted(int(d) for d in build_sierpinski(n, m).degrees())
    assert degs == [1, 1] + [2] * (2**n - 2)


def test_hamming_examples():
    g = build_hamming(1, 4)
    assert oracles.edge_set(g) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    g2 = build_hamming(2, 2)  # the 4-cycle
    assert sorted(int(d) for d in g2.degrees()) == [2, 2, 2, 2]
    assert oracles.edge_set(g2) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_hamming_edges_are_distance_one():
    g = build_hamming(3, 4)
    for a, b in oracles.edge_set(g):
        u = code_to_vertex(a, 3, 4)
        v = code_to_vertex(b, 3, 4)
        assert sum(x != y for x, y in zip(u, v)) == 1


# ---------------------------------------------------------------- single twist


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 5), (3, 4), (4, 3)])
def test_single_twist_edge_count(n, m):
    assert build_single_twist(n, m).num_edges == sierpinski_edge_count(n, m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_single_twist_depth_two_is_sierpinski(m):
    # the depth-two twist moves connector endpoints but stays a relabeled
    # S(2,m); isomorphism is asserted in test_maps via the full checker
    t = build_single_twist(2, m)
    s = build_sierpinski(2, m)
    assert sorted(int(d) for d in t.degrees()) == sorted(int(d) for d in s.degrees())


def test_single_twist_differs_at_depth_three():
    s = build_sierpinski(3, 3)
    t = build_single_twist(3, 3)
    assert oracles.edge_set(t) != oracles.edge_set(s)
    # (0,1,1) picks up simultaneous connector duty for two level-1 pairs
    code = vertex_to_code((0, 1, 1), 3)
    assert int(t.degrees()[code]) == 4


def test_single_twist_level_edges():
    t = build_single_twist(3, 3)
    # level-1 connector between blocks 0 and 1 lands on tail k=(0+1)%3=1
    assert t.has_edge((0, 1, 1), (1, 1, 1))
    # blocks 1 and 2 connect through tail 0
    assert t.has_edge((1, 0, 0), (2, 0, 0))
    # the untwisted connectors are gone
    assert not t.has_edge((0, 1, 1), (1, 0, 0))


# ---------------------------------------------------------------- Graph type


def test_graph_canonicalizes_edges():
    # reversed, duplicated input rows collapse to one sorted array
    g = Graph(1, 3, "sierpinski", np.array([[2, 0], [0, 1], [1, 2], [0, 1]]))
    assert oracles.edge_set(g) == {(0, 1), (0, 2), (1, 2)}
    assert g.num_edges == 3
    assert g == build_sierpinski(1, 3)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 4), (4, 5), (6, 2)])
def test_graph_canonical_rows_match_rowwise_unique(n, m):
    # reversed and duplicated rows in random order, against the np.unique oracle
    rng = np.random.default_rng(n * 100 + m)
    size = m**n
    u = rng.integers(0, size, 400)
    v = (u + rng.integers(1, size, 400)) % size  # never equal to u
    rows = np.stack((u, v), axis=1)
    rows = np.concatenate((rows, rows[:150, ::-1], rows[50:120]))
    rng.shuffle(rows)
    g = Graph(n, m, "x", rows)
    expected = oracles.canonical_rows(rows)
    assert g.edges.dtype == np.int64
    assert g.edges.shape == expected.shape
    assert np.array_equal(g.edges, expected)


@pytest.mark.parametrize("build", [build_sierpinski, build_single_twist, build_hamming])
def test_graph_sorts_scrambled_kernel_rows_back(build):
    # the canonical rows every kernel emits, shuffled, flipped and repeated,
    # take the sorting path and come back to the same arrays
    g = build(4, 3)
    rng = np.random.default_rng(4)
    rows = np.array(g.edges)
    flip = rng.random(rows.shape[0]) < 0.5
    rows[flip] = rows[flip, ::-1]
    rows = np.concatenate((rows, rows[: rows.shape[0] // 3]))
    rng.shuffle(rows)
    expected = oracles.edge_set(g)
    for scrambled in (rows, g.edges[::-1], np.repeat(g.edges, 2, axis=0)):
        h = Graph(4, 3, "x", scrambled)
        assert np.array_equal(h.edges, g.edges)
        assert np.array_equal(h.edges, oracles.canonical_rows(scrambled))
        assert answers_every_pair(h, expected)
        assert holds_only_its_rows(h)


@pytest.mark.parametrize("rows", [[[0, 1], [0, 2], [1, 2]], [[2, 0], [0, 1], [1, 2]]])
def test_graph_owns_its_edges(rows):
    # canonical input is copied, not aliased; other input is rebuilt
    given = np.array(rows, np.int64)
    g = Graph(1, 3, "x", given)
    given[:] = 0
    assert np.array_equal(g.edges, [[0, 1], [0, 2], [1, 2]])
    assert answers_every_pair(g, {(0, 1), (0, 2), (1, 2)})
    assert not g.edges.flags.writeable
    assert holds_only_its_rows(g)


@pytest.mark.parametrize(
    "build,kernel",
    [
        (build_sierpinski, "sierpinski_edges"),
        (build_hamming, "hamming_edges"),
        (build_single_twist, "single_twist_edges"),
    ],
)
def test_builders_keep_the_kernel_rows(build, kernel, monkeypatch):
    # a builder's fresh kernel array becomes the graph's edges without a copy
    made = []
    original = getattr(kernels, kernel)

    def kept(n, m):
        made.append(original(n, m))
        return made[-1]

    monkeypatch.setattr(kernels, kernel, kept)
    g = build(3, 3)
    assert np.shares_memory(g.edges, made[0])
    assert type(g.edges) is np.ndarray and not g.edges.flags.writeable
    assert np.array_equal(g.edges, original(3, 3))
    assert answers_every_pair(g, oracles.edge_set(g))
    assert holds_only_its_rows(g)


@pytest.mark.parametrize(
    "rows,error",
    [
        ([[0, 1], [1, 3]], r"^edge endpoint out of vertex range$"),
        ([[-1, 0], [0, 1]], r"^edge endpoint out of vertex range$"),
        ([[0, 1], [1, 1], [1, 2]], r"^self-loop in edge list$"),
        ([[0, 1, 2]], r"^edges must be an \(E, 2\) array, got shape \(1, 3\)$"),
    ],
)
def test_adopted_rows_get_every_check(rows, error):
    # the builders' path skips only the copy: bad rows fail as in Graph(...)
    with pytest.raises(ValueError, match=error):
        graphs._adopt(1, 3, "x", np.array(rows))


def test_adopted_rows_out_of_order_are_rebuilt():
    # S(1,3) is K_3: its rows out of order and repeated are sorted back
    g = graphs._adopt(1, 3, "sierpinski", np.array([[1, 2], [2, 0], [0, 1], [0, 1]]))
    assert np.array_equal(g.edges, [[0, 1], [0, 2], [1, 2]])
    assert answers_every_pair(g, {(0, 1), (0, 2), (1, 2)})
    assert holds_only_its_rows(g)


def test_graph_checks_sorted_input_as_any_other():
    # ascending keys do not excuse an endpoint out of range or a self-loop,
    # and the range check still comes first
    with pytest.raises(ValueError, match="^edge endpoint out of vertex range$"):
        Graph(1, 3, "x", np.array([[0, 1], [1, 3]]))
    with pytest.raises(ValueError, match="^edge endpoint out of vertex range$"):
        Graph(1, 3, "x", np.array([[-1, 0], [0, 1]]))
    with pytest.raises(ValueError, match="^self-loop in edge list$"):
        Graph(1, 3, "x", np.array([[0, 1], [1, 1], [1, 2]]))
    with pytest.raises(ValueError, match="^edge endpoint out of vertex range$"):
        Graph(1, 3, "x", np.array([[1, 1], [1, 3]]))  # both faults: range first


def test_graph_checks_rows_a_block_at_a_time(monkeypatch):
    monkeypatch.setattr(graphs, "ROW_BLOCK", 3)
    sorts = []
    monkeypatch.setattr(graphs, "edge_keys", lambda *a, f=graphs.edge_keys: sorts.append(a) or f(*a))
    canonical = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5], [6, 7]]
    g = Graph(2, 3, "x", np.array(canonical))
    assert not sorts  # ascending across both boundaries: no sort
    assert g.edges.tolist() == canonical
    assert answers_every_pair(g, set(map(tuple, canonical))) and holds_only_its_rows(g)
    # ascending inside each block, descending (or repeated) across a boundary: sorted
    for rows in ([[3, 4], [3, 5], [4, 5], [0, 1], [0, 2], [1, 2]], [[0, 1], [0, 2], [1, 2], [1, 2], [3, 4]]):
        sorts.clear()
        g = Graph(2, 3, "x", np.array(rows))
        assert g.edges.tolist() == sorted(map(list, set(map(tuple, rows))))
        assert len(sorts) == 1
        assert answers_every_pair(g, set(map(tuple, rows))) and holds_only_its_rows(g)
    # a later block's fault is still found, and range still comes before a self-loop
    with pytest.raises(ValueError, match="^edge endpoint out of vertex range$"):
        Graph(2, 3, "x", np.array([[0, 1], [1, 1], [1, 2], [2, 3], [3, 4], [4, 9]]))
    with pytest.raises(ValueError, match="^edge endpoint out of vertex range$"):
        Graph(2, 3, "x", np.array([[0, 1], [0, 2], [1, 2], [2, 3], [-1, 4]]))
    with pytest.raises(ValueError, match="^self-loop in edge list$"):
        Graph(2, 3, "x", np.array([[0, 1], [0, 2], [1, 2], [3, 4], [4, 4]]))


def test_built_graphs_hold_no_whole_key_array():
    n, m = 10, 3
    rows = kernels.sierpinski_edges(n, m)
    key_bytes = rows.shape[0] * 8
    del rows
    tracemalloc.start()
    try:
        kernels.sierpinski_edges(n, m)
        _, kernel_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g = build_sierpinski(n, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the check's block buffers fit beside the rows where one whole key array did not
    assert peak < max(kernel_peak, g.edges.nbytes + key_bytes), (peak, kernel_peak)
    assert np.array_equal(g.edges, kernels.sierpinski_edges(n, m))
    for u, v in g.edges[::997].tolist():  # the row search answers, in either order, and keeps no keys
        x, y = code_to_vertex(u, n, m), code_to_vertex(v, n, m)
        assert g.has_edge(x, y) and g.has_edge(y, x) and is_sierpinski_edge(x, y, m)
    assert holds_only_its_rows(g)


@pytest.mark.parametrize("build", [build_sierpinski, build_single_twist, build_hamming])
def test_outside_graphs_hold_their_rows_and_nothing_derived(build):
    # a graph no builder made answers has_edge from its sorted rows alone:
    # on every pair, whether its rows came canonical or scrambled
    g = build(3, 3)
    expected = oracles.edge_set(g)
    rng = np.random.default_rng(33)
    scrambled = g.edges[rng.permutation(g.num_edges)]
    scrambled[::2] = scrambled[::2, ::-1]
    for h in (Graph(3, 3, "x", g.edges.copy()), Graph(3, 3, "x", scrambled)):
        assert answers_every_pair(h, expected)
        assert holds_only_its_rows(h)
    # the first query on a canonical outside copy at (10, 3) makes no key array,
    # and a sorted one holds its rows without one
    n, m = 10, 3
    rows = build(n, m).edges
    key_bytes = 8 * rows.shape[0]
    canonical = Graph(n, m, "x", rows.copy())
    scrambled = rows[rng.permutation(rows.shape[0])]
    tracemalloc.start()
    try:
        assert canonical.has_edge((0,) * n, (0,) * (n - 1) + (1,))  # an edge of all three kinds
        _, first_query = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sorted_back = Graph(n, m, "x", scrambled)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first_query < key_bytes, first_query
    assert np.array_equal(sorted_back.edges, rows)
    assert held < rows.nbytes + key_bytes, (held, rows.nbytes)
    assert holds_only_its_rows(canonical) and holds_only_its_rows(sorted_back)


def test_graph_empty_edge_list():
    for empty in (np.empty((0, 2), np.int64), []):
        g = Graph(2, 3, "x", empty)
        assert g.edges.shape == (0, 2)
        assert g.num_edges == 0
        assert not g.has_edge((0, 0), (0, 1))
        assert np.array_equal(g.degrees(), np.zeros(9, np.int64))


def test_graph_refuses_an_edge_array_that_is_not_e_by_2():
    # reshape(-1, 2) would read this as the three edges 0-1, 2-3 and 4-5
    for shape in [(2, 3), (6,), (1, 2, 2)]:
        with pytest.raises(ValueError, match=r"edges must be an \(E, 2\) array"):
            Graph(2, 3, "x", np.arange(int(np.prod(shape))).reshape(shape))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(1, 3, "x", np.array([[0, 3]]))  # endpoint out of range
    with pytest.raises(ValueError):
        Graph(2, 3, "x", np.array([[-1, 5]]))  # negative endpoint, V = 9
    with pytest.raises(ValueError):
        Graph(1, 3, "x", np.array([[1, 1]]))  # self-loop
    with pytest.raises(ValueError):
        Graph(2, 3, "x", np.array([[0, 1], [4, 4]]))  # self-loop among edges


def test_graph_scale_guard():
    # V**2 would overflow the int64 edge keys; refuse as build_sierpinski does
    with pytest.raises(ValueError, match="refusing to build"):
        Graph(8, 10, "x", np.array([[0, 1]]))
    with pytest.raises(ValueError, match="refusing to build"):
        Graph(40, 3, "x", np.empty((0, 2), np.int64))


def test_graph_is_immutable():
    g = build_sierpinski(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 5
    with pytest.raises(ValueError):
        g.edges[0, 0] = 7  # numpy read-only array


def test_graph_equality_ignores_kind():
    a = build_sierpinski(2, 2)
    b = from_edge_list(2, 2, "copy", [(code_to_vertex(u, 2, 2), code_to_vertex(v, 2, 2)) for u, v in oracles.edge_set(a)])
    assert a == b
    assert a != build_hamming(2, 2)
    assert a.__eq__(42) is NotImplemented


def test_has_edge_and_adjacency_agree():
    g = build_sierpinski(2, 4)
    adj = oracles.adjacency(g)
    for a in range(16):
        for b in range(a + 1, 16):
            u = code_to_vertex(a, 2, 4)
            v = code_to_vertex(b, 2, 4)
            assert g.has_edge(u, v) == (b in adj[a])


def _oracle_edges(kind: str, n: int, m: int) -> set[tuple[int, int]]:
    if kind == "sierpinski":
        return oracles.pairwise_sierpinski_edges(n, m)
    if kind == "single-twist":
        return {(min(a, b), max(a, b)) for a, b in oracles.single_twist_edges_loop(n, m)}
    vs = oracles.all_vertices(n, m)
    return {
        (a, b)
        for a in range(len(vs))
        for b in range(a + 1, len(vs))
        if sum(x != y for x, y in zip(vs[a], vs[b])) == 1
    }


@pytest.mark.parametrize(
    "kind,build",
    [("sierpinski", build_sierpinski), ("single-twist", build_single_twist), ("hamming", build_hamming)],
)
def test_has_edge_matches_oracle_on_every_pair(kind, build):
    # every graph answers from its sorted rows, a builder's and the same rows
    # given to Graph(...) alike: both must agree with the oracle
    n, m = 3, 3
    built = build(n, m)
    expected = _oracle_edges(kind, n, m)
    vs = oracles.all_vertices(n, m)
    for g in (built, Graph(n, m, "x", built.edges.copy())):
        for a, u in enumerate(vs):
            for b, v in enumerate(vs):
                assert g.has_edge(u, v) == ((min(a, b), max(a, b)) in expected)


def test_graph_refuses_non_integer_edges():
    for edges in ([(0.5, 1.7)], [(0.0, 1.0)], np.array([[0, 1]], np.float32)):
        with pytest.raises(TypeError, match="edge endpoints must be integers"):
            Graph(2, 3, "sierpinski", edges)
    expected = Graph(2, 3, "sierpinski", [(0, 1)])
    for edges in (np.array([[0, 1]], np.int32), np.array([[1, 0]], np.uint8), [(np.int64(0), np.int16(1))]):
        assert Graph(2, 3, "sierpinski", edges) == expected
    assert Graph(2, 3, "x", []).num_edges == 0  # an empty list reads as float64 and holds no endpoint


def test_from_edge_list_refuses_non_integer_digits():
    for pairs in ([((0.5,), (1,))], [((0, 1), (0, 2.0))]):
        with pytest.raises(TypeError):
            from_edge_list(len(pairs[0][0]), 3, "k", pairs)
    g = from_edge_list(2, 3, "k", [((np.int64(0), np.uint8(1)), np.array([0, 2]))])
    assert g.edges.tolist() == [[1, 2]]


def test_has_edge_refuses_non_integer_digits():
    g = build_sierpinski(2, 3)
    for u, v in [((0.0, 1), (1, 0)), ((0, 1), (1, 0.5))]:
        with pytest.raises(TypeError):
            g.has_edge(u, v)
    assert g.has_edge(np.array([0, 1]), (np.int8(1), np.uint64(0)))


def test_from_edge_list_validates():
    with pytest.raises(ValueError):
        from_edge_list(2, 3, "x", [((0, 1), (0, 3))])


# ---------------------------------------------------------------- degrees

BUILDERS = {"sierpinski": build_sierpinski, "single-twist": build_single_twist, "hamming": build_hamming}
# every (n, m) with m^n <= 2 * 10^4 and m <= 141, the largest m with n = 2; then
# n = 1 at m = 3000, K_3000 with 4.5 million edges
DEGREE_SIZES = [(n, m) for n in range(1, 15) for m in range(2, 142) if m**n <= 2 * 10**4]
DEGREE_SIZES.append((1, 3000))


def counted_degrees(g):
    return np.bincount(g.edges.ravel(), minlength=g.num_vertices)


@pytest.mark.parametrize("kind", BUILDERS)
def test_built_graphs_take_their_degrees_from_the_closed_form(kind, monkeypatch):
    from sierham import exact

    calls = []
    closed_form = kernels.vertex_degrees
    monkeypatch.setattr(kernels, "vertex_degrees", lambda *args: calls.append(args) or closed_form(*args))
    for n, m in DEGREE_SIZES:
        g = BUILDERS[kind](n, m)
        degrees = g.degrees()
        assert calls.pop() == (kind, n, m)
        assert degrees.dtype == np.int64
        assert np.array_equal(degrees, counted_degrees(g)), (n, m)
        again = g.degrees()
        assert again is not degrees and np.array_equal(again, degrees)
        degrees[:] = -1  # a fresh array: the next call does not see the write
        assert np.array_equal(g.degrees(), again)
        if kind == "single-twist" and m**n <= 3000:
            assert again.tolist() == [len(exact._neighbors(kind, x, m)) for x in oracles.all_vertices(n, m)]


@pytest.mark.parametrize("kind", BUILDERS)
def test_graphs_not_made_by_a_builder_count_their_edges(kind, monkeypatch):
    from sierham import serialize

    def closed_form(*args):
        raise AssertionError("a graph from outside input took a closed form")

    rng = np.random.default_rng(3)
    for n, m in [(1, 2), (1, 5), (2, 3), (3, 3), (3, 4), (4, 3), (5, 2)]:
        built = BUILDERS[kind](n, m)
        perm = rng.permutation(built.num_vertices)
        monkeypatch.setattr(kernels, "vertex_degrees", closed_form)
        subgraph = built.edges[: built.num_edges // 2]
        pairs = [(code_to_vertex(a, n, m), code_to_vertex(b, n, m)) for a, b in subgraph.tolist()]
        relabeled = Graph(n, m, kind, perm[build_sierpinski(n, m).edges])
        outside = [
            Graph(n, m, kind, built.edges),
            Graph(n, m, kind, subgraph),
            from_edge_list(n, m, kind, pairs),
            serialize.graph_from_json(serialize.graph_to_json(relabeled)),
        ]
        for g in outside:
            assert g.kind == kind
            assert np.array_equal(g.degrees(), counted_degrees(g))
        monkeypatch.undo()
        assert np.array_equal(outside[0].degrees(), built.degrees())


def _typed(report):
    return [(key, type(value), repr(value)) for key, value in report.items()]


@pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (3, 3), (3, 4), (4, 3), (5, 2), (5, 3)])
def test_coordinatization_reports_read_the_same_from_either_degree_path(n, m):
    from sierham.maps import verify_coordinatization

    # the built twist's closed-form degrees against its rows given as outside input
    twist = build_single_twist(n, m)
    counted = verify_coordinatization(Graph(n, m, twist.kind, twist.edges))
    assert _typed(verify_coordinatization(twist)) == _typed(counted)
    # a relabeled S(n,m) counts its degrees, and its report keeps the built one's layout
    s = build_sierpinski(n, m)
    relabeled = Graph(n, m, "sierpinski", np.random.default_rng(n * m).permutation(s.num_vertices)[s.edges])
    moved = verify_coordinatization(relabeled)
    built = verify_coordinatization(s)
    assert [(k, type(v)) for k, v in moved.items()] == [(k, type(v)) for k, v in built.items()]
    assert moved["degree_sequence_matches"] and moved["isomorphic_to_sierpinski"]


def test_single_twist_degrees_at_one_digit_build_no_digit_table():
    # the m x m table [2a != k mod m] serves only n >= 2: at (1, 3000) it would be 9 MB
    tracemalloc.start()
    try:
        degrees = kernels.vertex_degrees("single-twist", 1, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced {peak} bytes"
    assert np.array_equal(degrees, np.full(3000, 2999))


def test_closed_form_degrees_refuse_a_kind_without_one():
    with pytest.raises(ValueError, match="^no degree formula for graph kind 'x'$"):
        kernels.vertex_degrees("x", 2, 3)


# ---------------------------------------------------------------- symmetry


@pytest.mark.parametrize("n,m", [(1, 3), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_alphabet_permutations_preserve_edges(n, m):
    g = build_sierpinski(n, m)
    edges = oracles.edge_set(g)
    for perm in permutations(range(m)):
        pi = PermutationSymmetry(perm)
        mapped = set()
        for a, b in edges:
            u = vertex_to_code(apply_symmetry(pi, code_to_vertex(a, n, m)), m)
            v = vertex_to_code(apply_symmetry(pi, code_to_vertex(b, n, m)), m)
            mapped.add((min(u, v), max(u, v)))
        assert mapped == edges


def test_symmetry_examples_and_errors():
    pi = PermutationSymmetry((1, 2, 0))
    assert apply_symmetry(pi, (0, 1, 2, 0)) == (1, 2, 0, 1)
    with pytest.raises(ValueError):
        PermutationSymmetry((0, 0, 1))
    with pytest.raises(ValueError):
        apply_symmetry(pi, (0, 3))


# ---------------------------------------------------------------- corners, blocks


def test_corners():
    assert corners(2, 3) == [(0, 0), (1, 1), (2, 2)]
    assert corners(4, 2) == [(0, 0, 0, 0), (1, 1, 1, 1)]
    g = build_sierpinski(3, 5)
    degs = g.degrees()
    for c in corners(3, 5):
        assert int(degs[vertex_to_code(c, 5)]) == 4  # m - 1


def test_km_decomposition_blocks():
    blocks = km_decomposition(2, 3)
    assert blocks == [
        [(0, 0), (0, 1), (0, 2)],
        [(1, 0), (1, 1), (1, 2)],
        [(2, 0), (2, 1), (2, 2)],
    ]
    g = build_sierpinski(2, 3)
    for block in blocks:
        for u, v in combinations(block, 2):
            assert g.has_edge(u, v)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 4), (4, 3), (2, 7)])
def test_km_decomposition_blocks_are_the_prefix_runs_of_the_codes(n, m):
    vs = row_tuples(digit_rows(np.arange(m**n), n, m))
    blocks = km_decomposition(n, m)
    assert blocks == [vs[p : p + m] for p in range(0, m**n, m)]
    assert all(type(d) is int for block in blocks for v in block for d in v)


def test_km_decomposition_covers_vertices():
    blocks = km_decomposition(3, 4)
    flat = [v for block in blocks for v in block]
    assert len(flat) == 4**3
    assert len(set(flat)) == 4**3
    assert len(blocks) == 4**2


def test_km_decomposition_is_unique_for_2_3():
    # brute force: among all 280 partitions of the 9 vertices into triples,
    # exactly one consists of cliques, and it is the prefix-block partition
    g = build_sierpinski(2, 3)
    vs = oracles.all_vertices(2, 3)

    def partitions(items):
        if not items:
            yield []
            return
        first = items[0]
        for pair in combinations(items[1:], 2):
            rest = [x for x in items[1:] if x not in pair]
            for sub in partitions(rest):
                yield [[first, *pair]] + sub

    clique_partitions = []
    for part in partitions(vs):
        if all(
            g.has_edge(u, v) for block in part for u, v in combinations(block, 2)
        ):
            clique_partitions.append(sorted(tuple(sorted(b)) for b in part))
    assert len(clique_partitions) == 1
    expected = sorted(tuple(sorted(b)) for b in km_decomposition(2, 3))
    assert clique_partitions[0] == expected


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (2, 5), (3, 4)])
def test_exterior_edge_budget(n, m):
    # within the block partition, corners have no crossing edge and every
    # other vertex has exactly one
    g = build_sierpinski(n, m)
    block_of = {}
    for idx, block in enumerate(km_decomposition(n, m)):
        for v in block:
            block_of[vertex_to_code(v, m)] = idx
    crossing = [0] * g.num_vertices
    for a, b in oracles.edge_set(g):
        if block_of[a] != block_of[b]:
            crossing[a] += 1
            crossing[b] += 1
    corner_codes = {vertex_to_code(c, m) for c in corners(n, m)}
    for code in range(g.num_vertices):
        assert crossing[code] == (0 if code in corner_codes else 1)
