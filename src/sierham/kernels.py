"""Array kernels for bulk edge generation and digit comparisons.

Each kernel is a closed form in numpy; the loop forms it replaces live in
tests/oracles.py as references. The edge kernels emit their rows in
canonical order: smaller endpoint first, rows sorted by (smaller, larger)
endpoint with no repeats, so Graph only checks that order.

Vertices are encoded as integers: code(v) = sum(v_i * m**(n-i)), digit v_1
most significant, so integer order equals lexicographic order on tuples.
"""
from __future__ import annotations

import numpy as np

_CANDIDATE_BLOCK = 1 << 16  # candidate partners per step of hamming_edges


def _level_edges(n: int, m: int, shared: bool) -> np.ndarray:
    """Edges joining i and j at position h after a shared prefix, in canonical order.

    After position h the side of digit i carries a constant run of j and
    the side of j one of i (crossed tails), or both carry (i + j) mod m
    when shared; (m^(n+1) - m) / 2 rows. The k+1 digit graph is m copies of
    the k digit one, one per leading digit, plus one bridge per digit pair
    i < j. Each copy is in canonical order, and a bridge leaves block i
    from a corner of it for a later block, so it sorts right after the
    copy rows of its smaller endpoint. Two buffers take turns holding the
    last level and the next.
    """
    total = (m ** (n + 1) - m) // 2
    prev = np.empty((total, 2), np.int64)
    out = np.empty((total, 2), np.int64)
    size = 0  # rows of the k digit graph, held in prev[:size]
    i, j = np.triu_indices(m, 1)  # one bridge per digit pair, from block i to block j
    ti, tj = ((i + j) % m,) * 2 if shared else (j, i)  # tail digits after i and after j
    for k in range(n):
        span = m**k  # weight of the new leading digit
        rep = (span - 1) // (m - 1)  # code of a length-k run of 1s
        near = i * span + ti * rep  # smaller endpoint: a corner of block i
        far = j * span + tj * rep
        order = np.argsort(near * (m * span) + far)
        near, far, block = near[order], far[order], i[order]
        # a bridge follows the copy rows whose smaller endpoint is <= its own
        cuts = np.searchsorted(prev[:size, 0], near - block * span, side="right")
        at = block * size + cuts + np.arange(cuts.size)  # rows of the bridges
        out[at, 0] = near
        out[at, 1] = far
        if size:  # at k = 0 the blocks are single vertices with no rows to copy
            w = t = 0
            for a in range(m):
                s = 0  # copy rows of block a written
                for c in cuts[t : t + m - 1 - a].tolist():
                    np.add(prev[s:c], a * span, out=out[w : w + c - s])
                    w += c - s + 1  # and the bridge at row w + c - s
                    s = c
                np.add(prev[s:size], a * span, out=out[w : w + size - s])
                w += size - s
                t += m - 1 - a
        prev, out, size = out, prev, m * size + i.size
    return prev


def sierpinski_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of S(n,m) in canonical order, one row per edge."""
    return _level_edges(n, m, shared=False)


def single_twist_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of the single twist, S(n,m) with the shared tail (i+j) mod m.

    Canonical order, one row per edge.
    """
    return _level_edges(n, m, shared=True)


def hamming_edges(n: int, m: int) -> np.ndarray:
    """Edge codes of K_m^n in canonical order, one row per edge.

    Vertex u's larger partners are u + s * m^pos with s = 1..m-1-u_pos;
    taken least significant position first and s ascending, they ascend,
    since (m-1-u_pos) * m^pos < m^(pos+1). So the masked (u, pos, s)
    candidate array, read row-major, lists the rows in canonical order.
    """
    size = m**n
    out = np.empty((n * (m - 1) * size // 2, 2), np.int64)
    weights = m ** np.arange(n, dtype=np.int64)  # least significant first
    steps = np.arange(1, m, dtype=np.int64)
    lifts = (weights[:, None] * steps).ravel()  # s * m^pos, by (pos, s)
    block = max(1, _CANDIDATE_BLOCK // lifts.size)
    w = 0
    for start in range(0, size, block):
        u = np.arange(start, min(start + block, size), dtype=np.int64)
        keep = (u[:, None] // weights % m)[:, :, None] + steps < m  # (b, n, m-1)
        lo, col = np.divmod(np.flatnonzero(keep), lifts.size)
        lo += start
        dest = out[w : w + lo.size]
        dest[:, 0] = lo
        np.add(lo, lifts[col], out=dest[:, 1])
        w += lo.size
    return out


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
