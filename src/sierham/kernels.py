"""Array kernels for bulk edge generation, vertex degrees and digit comparisons.

Each kernel is a closed form in numpy; the loop forms it replaces live in
tests/oracles.py as references. The edge kernels emit their rows in
canonical order: smaller endpoint first, rows sorted by (smaller, larger)
endpoint with no repeats, so Graph only checks that order, a block of
rows at a time with no whole key array. vertex_degrees gives a built
graph's degrees from the same closed forms, without reading its rows.

A build's fixed cost is a few numpy calls per level of S(n,m) (one
nonzero for K_m, the 1 digit graph; then one np.add per run of copy rows
and one put of the bridges) or per block of K_m^n's candidates, whose
digit weights are made once per (n, m). Per call, medians over processes
on a 2-vCPU Xeon (Python 3.11.7, numpy 2.4.6): S(6,3), 1092 rows, 51 us;
S(12,3), 797160 rows, 1.7 ms, about 2.2 ns a row; K_3^6, 4374 rows,
91 us; K_3^12, 6.4 million rows, 107 ms, about 17 ns a row
(BENCH_small_builds.json has every size).

Vertices are encoded as integers: code(v) = sum(v_i * m**(n-i)), digit v_1
most significant, so integer order equals lexicographic order on tuples.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import count, repeat
from typing import Iterator

import numpy as np

from .exact import _digits

_CANDIDATE_BLOCK = 1 << 16  # candidate partners per step of hamming_edges


def _cuts(m: int, shared: bool) -> Iterator[list[int]]:
    """For k = 0, 1, ...: cut[t], the k digit graph's rows whose smaller endpoint is at most t^k.

    The k+1 digit rows up to t^(k+1) are the blocks below t, each a copy
    and its bridges, then block t's copy rows up to t^k and its bridges
    that leave below t^(k+1): all of them at k = 0 (they leave t), later
    none for crossed tails (their tails are above t) and min(t, m - 1 - t)
    for shared ones (those with (t + b) mod m < t).
    """
    below = [0] * m  # bridges of the blocks below t: sum of m - 1 - c over c < t
    for t in range(1, m):
        below[t] = below[t - 1] + m - t
    first = [m - 1 - t for t in range(m)]
    later = [min(t, m - 1 - t) if shared else 0 for t in range(m)]
    cut, size = [0] * m, 0  # size: rows of the k digit graph
    for k in count():
        yield cut
        extra = later if k else first
        cut = [t * size + below[t] + cut[t] + extra[t] for t in range(m)]
        size = m * size + m * (m - 1) // 2


def _bridges(a: int, m: int, shared: bool) -> Iterator[tuple[int, int, int]]:
    """(tail after a, tail after b, b) for each bridge of block a, by the tail after a.

    Crossed tails are b and a; the shared tail (a + b) mod m is below a for
    b >= m - a and above a for b < m - a.
    """
    if not shared:
        return zip(range(a + 1, m), repeat(a), range(a + 1, m))
    heads = [*range(max(a + 1, m - a), m), *range(a + 1, m - a)]
    tails = [(a + b) % m for b in heads]
    return zip(tails, tails, heads)


def _level_edges(n: int, m: int, shared: bool) -> np.ndarray:
    """Edges joining i and j at position h after a shared prefix, in canonical order.

    After position h the side of digit i carries a constant run of j and
    the side of j one of i (crossed tails), or both carry (i + j) mod m
    when shared; (m^(n+1) - m) / 2 rows. The k+1 digit graph is m copies of
    the k digit one, one per leading digit a, plus one bridge per digit
    pair a < b. Each copy is in canonical order, and a bridge leaves block a
    from a t^k, t the tail after a, so it sorts right after the copy rows
    whose smaller endpoint is at most t^k: cut[t] of them, the same in every
    block. The 1 digit graph, K_m, is one numpy pass; from there the
    bridges and cuts are Python ints, and each run of copy rows
    between two bridges is one np.add into the buffer of the next level.
    Two buffers take turns holding the last level and the next, the
    smaller one every level but the last.
    """
    total = (m ** (n + 1) - m) // 2
    big = np.empty((total, 2), np.int64)
    small = np.empty(((m**n - m) // 2, 2), np.int64)
    prev, out = (big, small) if n % 2 else (small, big)
    digits = np.arange(m)
    size = m * (m - 1) // 2  # the 1 digit graph is K_m: row (a, b) for each a < b
    prev[:size, 0], prev[:size, 1] = np.less.outer(digits, digits).nonzero()
    cuts = _cuts(m, shared)
    next(cuts)  # skip the 0 digit graph's, all 0
    for k, cut in zip(range(1, n), cuts):
        span = m**k  # weight of the new leading digit
        rep = (span - 1) // (m - 1)  # code of a length-k run of 1s
        at, cells = [], []  # flat positions and values of the bridge rows
        w = 0  # rows of out written
        for a in range(m):
            # base 0-d: np.add takes it faster than an int; s: copy rows of block a written
            base, s = np.array(a * span), 0
            for ti, tj, b in _bridges(a, m, shared):
                c = cut[ti]  # above s: cut grows with t, and cut[0] > 0 from k = 1
                np.add(prev[s:c], base, out[w : w + c - s])
                w += c - s
                s = c
                at += (2 * w, 2 * w + 1)
                cells += (a * span + ti * rep, b * span + tj * rep)
                w += 1
            if size > s:  # else block a's last bridge leaves its corner (m-1)^k
                np.add(prev[s:size], base, out[w : w + size - s])
                w += size - s
        out.put(at, cells)
        prev, out, size = out, prev, w
    return prev


def sierpinski_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of S(n,m) in canonical order, one row per edge."""
    return _level_edges(n, m, shared=False)


def single_twist_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of the single twist, S(n,m) with the shared tail (i+j) mod m.

    Canonical order, one row per edge.
    """
    return _level_edges(n, m, shared=True)


@lru_cache(maxsize=64)
def _hamming_steps(n: int, m: int) -> tuple:
    """hamming_edges' fixed arrays for K_m^n, made once per (n, m) and read-only.

    Digits are int32: the builders refuse m^n above exact.MAX_VERTICES =
    10^7, so every vertex code and its quotients fit. Weights are
    m^pos, least significant first, and m^n; lifts are s * m^pos by (pos, s);
    u + s * m^pos changes only digit u_pos iff u_pos is below m - s.
    """
    weights = np.array([m**pos for pos in range(n + 1)], np.int32)[:, None]
    lifts = np.array([s * m**pos for pos in range(n) for s in range(1, m)])
    below = np.arange(m - 1, 0, -1)[:, None]
    for a in (weights, lifts, below):
        a.setflags(write=False)
    return weights, lifts, below


def hamming_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of K_m^n in canonical order, one row per edge.

    Vertex u's larger partners are u + s * m^pos with s = 1..m-1-u_pos;
    taken least significant position first and s ascending, they ascend,
    since (m-1-u_pos) * m^pos < m^(pos+1). So the kept (u, pos, s) cells,
    read row-major, list the rows in canonical order. Over a block of
    vertices the mask has one row per (pos, s), compared digit by digit,
    and is read transposed.
    """
    size = m**n
    out = np.empty((n * (m - 1) * size // 2, 2), np.int64)
    weights, lifts, below = _hamming_steps(n, m)
    width = lifts.size
    block = max(1, _CANDIDATE_BLOCK // width)
    w = 0
    for start in range(0, size, block):
        q = np.arange(start, min(start + block, size), dtype=np.int32) // weights
        q[:-1] -= m * q[1:]  # the digits u_pos
        keep = (q[:-1, None] < below).reshape(width, -1)  # one row per (pos, s)
        cells = keep.T.ravel().nonzero()[0]  # u * width + (pos, s), ascending
        lo, hi = out[w : w + cells.size].T
        np.floor_divide(cells, width, out=lo)
        cells -= lo * width
        lo += start
        np.add(lo, lifts[cells], out=hi)
        w += cells.size
    return out


def vertex_degrees(kind: str, n: int, m: int) -> np.ndarray:
    """Degree of every vertex of the builders' graph of kind, by code, as a fresh int64 array.

    K_m^n is n(m-1)-regular. S(n,m) has degree m except at its m corners
    i^n, codes c (m^n - 1)/(m - 1), which have m - 1. In the single twist,
    x has m - 1 neighbours differing at its last digit k = x_(n-1), and
    one more at each h < n-1 whose later digits are all k, unless
    2 x_h = k mod m (the partners exact._neighbors lists):
    deg(x) = m - 1 + sum_h [x_(h+1..n-1) = k^(n-1-h)] [2 x_h != k mod m].
    The sum grows one leading digit a at a time: the j-digit degrees, one
    row per a, gain the m x m table [2a != k mod m] at the columns k^j,
    codes k (m^j - 1)/(m - 1), a basic slice.
    """
    size = m**n
    if kind == "hamming":
        return np.full(size, n * (m - 1), np.int64)
    if kind == "sierpinski":
        out = np.full(size, m, np.int64)
        out[:: (size - 1) // (m - 1)] = m - 1
        return out
    if kind != "single-twist":
        raise ValueError(f"no degree formula for graph kind {kind!r}")
    out = np.empty(size, np.int64)
    out[:m] = m - 1  # the 1 digit degrees, K_m's
    if n > 1:
        a = np.arange(m)
        step = np.not_equal.outer(2 * a % m, a)  # [2a != k mod m] at [a, k]
        span, rep = m, 1  # m^j and the code of a length-j run of 1s
        while span < size:
            level = out[: m * span].reshape(m, span)
            level[1:] = out[:span]
            level[:, ::rep] += step
            rep += span
            span *= m
    return out


def digit_diff_counts(a: np.ndarray, b: np.ndarray, n: int, m: int) -> np.ndarray:
    """Differing base-m digits of paired codes a[t], b[t], by exact._digits a ROW_BLOCK at a time."""
    from .graphs import ROW_BLOCK as step  # at call time: graphs imports this module

    a, b = np.asarray(a, np.int64), np.asarray(b, np.int64)
    out = np.zeros(a.shape[0], np.int64)
    for s in range(0, a.shape[0], step):
        for x, y in zip(_digits(a[s : s + step], n, m), _digits(b[s : s + step], n, m)):
            out[s : s + step] += x != y
    return out
