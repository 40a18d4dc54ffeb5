"""The numpy kernels emit the rows of their loop forms in tests/oracles.py, in canonical order,
and so does the integer layer's exact.graph_edges."""
from __future__ import annotations

import numpy as np
import pytest

from sierham import exact, kernels
from sierham.graphs import code_to_vertex, hamming_edge_count, sierpinski_edge_count

import oracles

PAIRS = [
    (1, 2), (1, 5), (2, 3), (2, 10), (2, 12), (3, 3), (3, 7),
    (4, 5), (5, 4), (6, 3), (7, 2), (10, 2),
]

KERNEL_ORACLES = [
    (kernels.sierpinski_edges, oracles.sierpinski_edges_loop, sierpinski_edge_count),
    (kernels.hamming_edges, oracles.hamming_edges_loop, hamming_edge_count),
    (kernels.single_twist_edges, oracles.single_twist_edges_loop, sierpinski_edge_count),
]


@pytest.mark.parametrize("n,m", PAIRS)
def test_backends_agree(n, m):
    for kernel, loop, count in KERNEL_ORACLES:
        a = kernel(n, m)
        b = np.array(loop(n, m), np.int64).reshape(-1, 2)
        assert a.dtype == np.int64
        assert a.shape == b.shape == (count(n, m), 2)
        assert (a[:, 0] < a[:, 1]).all()  # smaller endpoint first
        ca = oracles.canonical_rows(a)
        assert ca.shape[0] == count(n, m)  # no duplicate rows hidden by unique
        assert np.array_equal(ca, oracles.canonical_rows(b))
        assert np.array_equal(a, oracles.canonical_rows(b))  # canonical order, row for row


# every (n, m) with m <= 12 and m^n <= 10^4
SMALL_GRAPHS = [(n, m) for m in range(2, 13) for n in range(1, 14) if m**n <= 10**4]


@pytest.mark.parametrize("n,m", SMALL_GRAPHS)
def test_graph_edges_are_the_kernel_rows(n, m):
    for kind, (kernel, loop, count) in zip(("sierpinski", "hamming", "single-twist"), KERNEL_ORACLES):
        edges = exact.graph_edges(kind, n, m)
        assert edges == list(map(tuple, kernel(n, m).tolist()))
        assert len(edges) == count(n, m)
        assert edges == sorted(loop(n, m))  # the loop rows are already smaller endpoint first
        assert all(type(c) is int for pair in edges for c in pair)


def test_graph_edges_refuse_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown graph kind 'moebius'"):
        exact.graph_edges("moebius", 2, 3)


def diff_by_tuples(x: int, y: int, n: int, m: int) -> int:
    u = code_to_vertex(x, n, m)
    v = code_to_vertex(y, n, m)
    return sum(a != b for a, b in zip(u, v))


@pytest.mark.parametrize("n,m", [(5, 3), (7, 2), (4, 10), (3, 5)])
def test_digit_diff_counts(n, m):
    rng = np.random.default_rng(7)
    a = rng.integers(0, m**n, size=200)
    b = rng.integers(0, m**n, size=200)
    expected = np.array([diff_by_tuples(int(x), int(y), n, m) for x, y in zip(a, b)])
    assert np.array_equal(kernels.digit_diff_counts(a, b, n, m), expected)
    assert np.array_equal(oracles.digit_diff_counts_loop(a, b, n, m), expected)


def test_digit_diff_extremes():
    n, m = 4, 3
    same = np.array([17, 0, 80])
    assert np.array_equal(kernels.digit_diff_counts(same, same, n, m), np.zeros(3, np.int64))
    lo = np.array([0])  # 0000
    hi = np.array([m**n - 1])  # 2222
    assert kernels.digit_diff_counts(lo, hi, n, m)[0] == n
