"""The row functions of the tables, and the library tables built from them.

Each table has one row function in exact (map_row, solve_row and its
geodesic_step), evaluated on a Python int for the small CLI tables and on
index arrays for exact.table_array. Both must give the same digits, and
every library table must equal its per-row reference in oracles, also when
exact.table_array fills it in blocks of seven rows.
"""
from __future__ import annotations

import random
import re

import numpy as np
import pytest

import oracles
from sierham import exact, graphs
from sierham.codes import gray_sequence
from sierham.exact import MAX_CELLS, TwistFamily, map_row, solve_row, twist_family
from sierham.hanoi import classic_solution, diplomats_table, shortest_path_to_zero, solve_from_position


def index_dtypes(count, m):
    """Every dtype that holds the values the row functions reach on count rows mod m."""
    bound = max(4 * count, 2 * m * m)
    return [t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max] + [object]


def assert_same_digits(row, x, count, m):
    """row on the int x, against row on index arrays that hold x among other indices."""
    expected = row(x)
    for dtype in index_dtypes(count, m):
        others = random.Random(x).sample(range(count), min(count, 5))
        index = np.array([*others, x, *others], dtype=dtype)
        for got in (row(index), row(index.view(graphs.ModIndex))):  # table_array passes both
            assert len(got) == len(expected)
            for group, want in zip(got, expected):
                assert len(group) == len(want)
                for column, digit in zip(group, want):
                    value = column[len(others)] if isinstance(column, np.ndarray) else column
                    assert type(digit) is int and value == digit, (dtype, x)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, object])
def test_a_mod_index_reduces_as_numpy_does(dtype):
    x = np.arange(-300, 300).astype(dtype)
    for m in (2, 3, 7, 13, 101):
        got = x.view(graphs.ModIndex) % m
        assert isinstance(got, graphs.ModIndex) and got.dtype == x.dtype
        assert got.tolist() == (x % m).tolist() == [int(v) % m for v in x.tolist()]


FAMILIES = [
    twist_family("phi", 4, 3),
    twist_family("tau", 3, 7),
    TwistFamily(12, (5, 7, 11)),
    TwistFamily(2**61 - 1, (3, 5)),
    TwistFamily(10**29 + 1, (2, 3, 7)),
]


@pytest.mark.parametrize("tw", FAMILIES, ids=lambda tw: f"m{tw.m}n{len(tw.multipliers)}")
@pytest.mark.parametrize("invert", [False, True])
def test_map_row_gives_the_same_digits_on_an_int_and_on_an_array(tw, invert):
    n, m = len(tw.multipliers), tw.m
    for base in sorted({2, min(m, 13)}):
        count = base**n
        for x in random.Random(base).sample(range(count), min(count, 20)):
            assert_same_digits(lambda v: map_row(v, tw, base, invert), x, count, m)


STARTS = [
    ((1, 0, 2, 0), 3),
    ((0,) * 6 + (2, 1, 1, 0, 2), 3),
    ((0, 0, 12, 0, 7, 3), 13),
    ((4, 4, 4, 4, 4), 5),
    ((0, 0, 10**29, 0, 7), 10**29 + 1),
]


@pytest.mark.parametrize("v,m", STARTS)
def test_solve_row_gives_the_same_digits_on_an_int_and_on_an_array(v, m):
    d = exact.path_length_to_zero(v)
    tw = twist_family("tau", len(v), m)
    for k in sorted({0, d, *random.Random(d).sample(range(d + 1), min(d + 1, 20))}):
        assert_same_digits(lambda k: solve_row(k, v, d, tw), k, d + 1, m)


def test_digits_above_the_distance_stay_python_ints():
    # the geodesic never moves a digit whose bit is above d's: a constant column
    v = (0,) * 40 + (1, 2, 1)
    d = exact.path_length_to_zero(v)
    step = exact.geodesic_step(np.arange(d + 1, dtype=np.int16), v, d)
    assert step[:40] == [0] * 40 and all(type(c) is int for c in step[:40])
    assert all(isinstance(c, np.ndarray) for c in step[40:])
    table = exact.table_array(lambda k: solve_row(k, v, d, twist_family("tau", len(v), 3)), d + 1, 3)
    assert not table[:, :, :40].any() and table.shape == (d + 1, 2, 43)


def test_table_builds_small_tables_as_python_int_tuples(monkeypatch):
    tw = twist_family("tau", 3, 5)
    row = lambda v: map_row(v, tw, 5)  # noqa: E731
    small = exact.table(row, 125, 5)
    assert all(type(d) is int for group in small for r in group for d in r)
    monkeypatch.setattr(exact, "SMALL_TABLE", 0)
    arrays = exact.table(row, 125, 5)
    assert [a.tolist() for a in arrays] == [list(map(list, group)) for group in small]


# Each library table against its per-row reference, filled in blocks of seven
# rows, so that the last block is short.


@pytest.mark.parametrize("n,m", [(1, 3), (3, 3), (6, 3), (4, 5), (3, 13), (2, 2**61 - 1)])
def test_classic_solution_is_the_scalar_loop_in_blocks(n, m, monkeypatch):
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)
    assert oracles.as_tuples(classic_solution(n, m).positions) == oracles.classic_positions_loop(n, m)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_diplomats_table_and_gray_sequence_are_their_loops_in_blocks(n, monkeypatch):
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)
    rows = diplomats_table(n)
    assert rows.dtype == np.int64 and rows.shape == (2**n, 2, n)
    assert list(zip(oracles.as_tuples(rows[:, 0]), oracles.as_tuples(rows[:, 1]))) == oracles.diplomats_rows_loop(n)
    words = gray_sequence(n)
    assert words.dtype == np.int64 and oracles.as_tuples(words) == oracles.gray_sequence_loop(n)


@pytest.mark.parametrize("v,m", STARTS + [((0,) * 20 + (1,) * 6, 7)])
def test_solves_are_the_walk_in_blocks(v, m, monkeypatch):
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)
    path = shortest_path_to_zero(v, m)
    assert oracles.as_tuples(path.positions) == oracles.as_tuples(oracles.geodesic_walk(v, m).positions)
    t = exact.tau_forward(v, m)
    assert oracles.as_tuples(solve_from_position(t, m).positions) == oracles.solve_positions_loop(t, m)


@pytest.mark.parametrize("mod_rows", [0, 7], ids=["mod-index", "mixed"])
def test_library_tables_in_blocks_of_seven_through_mod_index(mod_rows, monkeypatch):
    # the tests above fill plain blocks, below graphs.MOD_ROWS; here every
    # block is a ModIndex, or the full blocks are and the short last one is not
    monkeypatch.setattr(graphs, "ROW_BLOCK", 7)
    monkeypatch.setattr(graphs, "MOD_ROWS", mod_rows)
    for n, m in [(3, 3), (6, 3), (3, 13), (2, 2**61 - 1)]:
        assert oracles.as_tuples(classic_solution(n, m).positions) == oracles.classic_positions_loop(n, m)
    rows = diplomats_table(6)
    assert list(zip(oracles.as_tuples(rows[:, 0]), oracles.as_tuples(rows[:, 1]))) == oracles.diplomats_rows_loop(6)
    assert oracles.as_tuples(gray_sequence(6)) == oracles.gray_sequence_loop(6)
    for v, m in STARTS:
        path = shortest_path_to_zero(v, m)
        assert oracles.as_tuples(path.positions) == oracles.as_tuples(oracles.geodesic_walk(v, m).positions)
        t = exact.tau_forward(v, m)
        assert oracles.as_tuples(solve_from_position(t, m).positions) == oracles.solve_positions_loop(t, m)


def test_solves_refuse_more_digits_than_the_largest_classic_play():
    # 2^23 positions pass the position guard, but of 3023 digits they hold
    # about 2.5 * 10^10; the largest classic play holds 2^23 positions of 23
    assert MAX_CELLS == 2**23 * 23
    v = (0,) * 3000 + (1,) * 23
    message = f"refusing to build a geodesic of {2**23} positions of 3023 digits (limit {MAX_CELLS} digits)"
    for solve in (shortest_path_to_zero, solve_from_position):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            solve(v, 3)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        exact.geodesic_to_zero(v)
    # the largest table the guard admits: 2^23 positions of 23 digits
    assert exact._check_geodesic((1,) * 23) == 2**23 - 1
