"""Invariants the benchmark computes itself, without calling sierham.

Every check of a program output is made against these closed forms and
rules. Vertices are digit rows, most significant digit first; the integer
code of a vertex is its value in base m.
"""
from __future__ import annotations

from collections import Counter
from math import comb
from typing import Sequence

import numpy as np


class Mismatch(Exception):
    """A program output disagrees with the benchmark's own invariant."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


def digits_of(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    """(len, n) digit rows of integer codes."""
    codes = np.asarray(codes, np.int64)
    out = np.empty((codes.shape[0], n), np.int64)
    for i in range(n - 1, -1, -1):
        codes, out[:, i] = np.divmod(codes, m)
    return out


def code_of(v: Sequence[int], m: int) -> int:
    c = 0
    for d in v:
        c = c * m + d
    return c


def edge_count(kind: str, n: int, m: int) -> int:
    if kind == "hamming":
        return n * (m - 1) * m**n // 2
    return (m ** (n + 1) - m) // 2  # sierpinski and single-twist alike


def degree_histogram(kind: str, n: int, m: int) -> Counter:
    """Multiset of vertex degrees, as {degree: number of vertices}."""
    if kind == "sierpinski":
        return Counter({m - 1: m, m: m**n - m})
    if kind == "hamming":
        return Counter({n * (m - 1): m**n})
    # Single twist: every vertex has its m-1 last-level neighbours, plus one
    # at each level h whose tail after h is constant k = v_last, unless
    # 2 v_h = k (mod m), where the partner digit would equal v_h itself.
    d = digits_of(np.arange(m**n), n, m)
    k = d[:, -1]
    deg = np.full(m**n, m - 1, np.int64)
    run = np.ones(m**n, bool)
    for h in range(n - 2, -1, -1):
        run &= d[:, h + 1] == k
        deg += run & ((2 * d[:, h]) % m != k)
    return histogram(deg)


def histogram(values: np.ndarray) -> Counter:
    """{value: occurrences} of non-negative integers."""
    counts = np.bincount(values)
    return Counter({v: int(c) for v, c in enumerate(counts.tolist()) if c})


def edge_rows_ok(kind: str, rows: np.ndarray, n: int, m: int) -> bool:
    """True when every (u, v) code row is an edge under the closed-form rule."""
    rows = np.asarray(rows, np.int64).reshape(-1, 2)
    u, v = digits_of(rows[:, 0], n, m), digits_of(rows[:, 1], n, m)
    differ = u != v
    if not differ.any(axis=1).all():
        return False
    if kind == "hamming":
        return bool((differ.sum(axis=1) == 1).all())
    h = differ.argmax(axis=1)
    r = np.arange(rows.shape[0])
    uh, vh = u[r, h][:, None], v[r, h][:, None]
    later = np.arange(n)[None, :] > h[:, None]
    if kind == "sierpinski":
        tails = (u == vh) & (v == uh)
    else:
        k = (uh + vh) % m
        tails = (u == k) & (v == k)
    return bool((tails | ~later).all())


def sierpinski_rows(n: int, m: int) -> np.ndarray:
    """Edge code rows of S(n,m) from the definition, level by level."""
    rows = []
    for h in range(n):
        for p in range(m**h):
            prefix = digits_of([p], h, m)[0].tolist() if h else []
            for i in range(m):
                for j in range(i + 1, m):
                    tail = n - h - 1
                    u = prefix + [i] + [j] * tail
                    v = prefix + [j] + [i] * tail
                    rows.append((code_of(u, m), code_of(v, m)))
    return np.array(rows, np.int64)


def inverse_of_two(m: int) -> int:
    return (m + 1) // 2


def tau_scales(n: int, m: int) -> list[int]:
    inv2 = inverse_of_two(m)
    return [pow(inv2, i, m) for i in range(n)]


def twist_scales(multipliers: Sequence[int], m: int) -> list[int]:
    """Per-coordinate scales of the twist family with level multipliers c:
    c_1 / c_2 for coordinate 1, c_2 * ... * c_i for coordinate i >= 2."""
    c = [x % m for x in multipliers]
    if len(c) == 1:
        return [1]
    scales = [c[0] * pow(c[1], -1, m) % m]
    acc = 1
    for x in c[1:]:
        acc = acc * x % m
        scales.append(acc)
    return scales


def map_matrix(scales: Sequence[int], m: int) -> np.ndarray:
    """Lower-triangular matrix of phi followed by a unit scale per coordinate.

    Output coordinate i is s_i * (v_i + sum_{j<i} 2^(i-1-j) v_j) mod m.
    """
    n = len(scales)
    a = np.zeros((n, n), np.int64)
    for i in range(n):
        for j in range(i):
            a[i, j] = scales[i] * pow(2, i - 1 - j, m) % m
        a[i, i] = scales[i] % m
    return a


def apply_matrix(a: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    return np.asarray(rows, np.int64) @ a.T % m


def binary_rows(ells: np.ndarray, n: int) -> np.ndarray:
    ells = np.asarray(ells, np.int64)
    return (ells[:, None] >> np.arange(n - 1, -1, -1)) & 1


def distance_to_zero(s: Sequence[int]) -> int:
    """Length of the S(n,m) geodesic from s to the all-zero corner."""
    n = len(s)
    return sum(1 << (n - 1 - i) for i, d in enumerate(s) if d)


def legal_moves(p: np.ndarray, m: int) -> bool:
    """Each step moves one disc d from peg i to peg j, every smaller disc
    (later digit) sitting on peg (i + j) / 2 mod m."""
    a, b = p[:-1], p[1:]
    changed = a != b
    if not (changed.sum(axis=1) == 1).all():
        return False
    d = changed.argmax(axis=1)
    r = np.arange(a.shape[0])
    k = inverse_of_two(m) * (a[r, d] + b[r, d]) % m
    later = np.arange(p.shape[1])[None, :] > d[:, None]
    return bool(((a == k[:, None]) | ~later).all())


def identity_layout(n: int, m: int) -> dict:
    """Wirelength and bandwidth of S(n,m) laid out in K_m^n by its own labels.

    A level-h edge p i j^(n-h) -- p j i^(n-h) differs in n-h+1 digits.
    """
    return {
        "wirelength": sum(m ** (h - 1) * comb(m, 2) * (n - h + 1) for h in range(1, n + 1)),
        "bandwidth": n,
    }


def identity_bad_edges(n: int, m: int) -> int:
    """Edges of S(n,m) whose own labels differ in more than one digit."""
    return edge_count("sierpinski", n, m) - m ** (n - 1) * comb(m, 2)


def one_bit_steps(words: np.ndarray) -> bool:
    return bool((np.abs(np.diff(words, axis=0)).sum(axis=1) == 1).all())
