"""Array kernels for bulk edge generation and digit comparisons.

Each kernel is a closed form in numpy; the loop forms it replaces live in
tests/oracles.py as references. Kernels emit rows in generation order, not
canonical order; graph constructors canonicalize.

Vertices are encoded as integers: code(v) = sum(v_i * m**(n-i)), digit v_1
most significant, so integer order equals lexicographic order on tuples.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# (i, j, m) -> (tail digit after i, tail digit after j) for a level-h edge
# between the digits i < j at position h.
TailRule = Callable[[int, int, int], tuple[int, int]]


def _crossed_tails(i: int, j: int, m: int) -> tuple[int, int]:
    return j, i


def _shared_tail(i: int, j: int, m: int) -> tuple[int, int]:
    k = (i + j) % m
    return k, k


def _level_edges(n: int, m: int, tails: TailRule) -> np.ndarray:
    """Edges joining i and j at position h after a shared prefix, by level h.

    The tail rule fixes the constant run of digits after position h on
    each side; (m^(n+1) - m) / 2 rows, smaller endpoint first.
    """
    chunks = []
    for h in range(1, n + 1):
        span = m ** (n - h)  # weight of digit h
        rep = (span - 1) // (m - 1)  # code of a length-(n-h) run of 1s
        bases = np.arange(m ** (h - 1), dtype=np.int64) * (span * m)
        for i in range(m - 1):
            for j in range(i + 1, m):
                ti, tj = tails(i, j, m)
                u = bases + (i * span + ti * rep)
                v = bases + (j * span + tj * rep)
                chunks.append(np.stack((u, v), axis=1))
    return np.concatenate(chunks, axis=0)


def sierpinski_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of S(n,m), one row per edge, smaller endpoint first."""
    return _level_edges(n, m, _crossed_tails)


def single_twist_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of the single twist: S(n,m) with the shared tail (i+j) mod m."""
    return _level_edges(n, m, _shared_tail)


def hamming_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of K_m^n, one row per edge, smaller endpoint first."""
    chunks = []
    for pos in range(n):  # 0 = least significant digit
        w = m**pos
        t = np.arange(m ** (n - 1), dtype=np.int64)
        bases = (t // w) * (w * m) + (t % w)
        for i in range(m - 1):
            for j in range(i + 1, m):
                chunks.append(np.stack((bases + i * w, bases + j * w), axis=1))
    return np.concatenate(chunks, axis=0)


def digit_diff_counts(a: np.ndarray, b: np.ndarray, n: int, m: int) -> np.ndarray:
    """Number of differing base-m digits between paired codes a[t], b[t]."""
    x = np.array(a, np.int64)
    y = np.array(b, np.int64)
    out = np.zeros(x.shape[0], np.int64)
    for _ in range(n):
        out += (x % m) != (y % m)
        x //= m
        y //= m
    return out
