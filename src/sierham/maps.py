"""Recoordinatization maps from S(n,m) into the Hamming graph K_m^n.

Three families, all lower-triangular linear maps mod m:

- the additive map phi: coordinate i becomes v_i + sum_{j<i} 2^(i-1-j) v_j,
- the halved map tau (odd m only): phi followed by scaling coordinate i
  with 2^(-(i-1)); tau fixes every constant vertex,
- the twist family epsilon: phi followed by an arbitrary unit scale per
  coordinate, parameterized by one multiplier per recursion level.

phi and tau are the twist families with every multiplier 1 and 2^(-1).
The scalar maps, TwistFamily, LinearMap (whose image maps a (k, n) digit
array), embedding_matrix (a family's matrix or its inverse's, in closed
form), invert_linear_map and verify_embedding live in the integer layer
(exact), which imports no numpy, and are re-exported here. phi_forward and
tau_forward keep the paper's per-vertex formulas as independent forms.
phi_recursive rebuilds phi by the level-by-level recursion instead of the
closed form; the two must agree pointwise.

verify_embedding checks that a vertex map (a LinearMap, a callable or a
mapping) is a bijection sending every S(n,m) edge to a Hamming-distance-1
pair. A LinearMap whose rows obey the row rule is decided from them;
every other map reaches _verify_images here, where a callable or a
mapping is called once per vertex and its outputs are checked a block at
a time. layout_metrics reads a LinearMap's layout off the same rows.
sierpinski_isomorphism decides whether a
graph is a relabeled S(n,m) by reading every vertex's digits off its
distances to the m corners, and returns the isomorphism as its witness;
verify_coordinatization adds the gates that place the graph inside K_m^n.
Both reports come from exact._report, as the integer layer's do.
"""
from __future__ import annotations

import math
import struct
from itertools import chain, islice, product
from typing import Iterator, Mapping

import numpy as np

from . import kernels
from .exact import (  # re-exported: the scalar maps and the matrices live in the integer layer
    LinearMap,
    TwistFamily,
    Vertex,
    VertexMap,
    _check_adds,
    _check_digits,
    _edge_differences,
    _report,
    embedding_matrix,
    epsilon_forward,
    invert_linear_map,
    phi_forward,
    phi_inverse,
    tau_forward,
    tau_inverse,
    verify_embedding,
)
from .graphs import (
    Graph,
    _check_scale,
    build_sierpinski,
    digit_rows,
    edge_keys,
    row_blocks,
    row_codes,
    row_tuples,
    sierpinski_edge_count,
)


def phi_recursive(n: int, m: int) -> dict[Vertex, Vertex]:
    """The additive map built by literal recursion, as a full vertex table.

    Level 1 is the identity on the alphabet; level k maps (i,)+w to
    (i,) + previous_level(w shifted by i). Oracle for phi_forward.
    """
    _check_scale(n, m)
    table: dict[Vertex, Vertex] = {(d,): (d,) for d in range(m)}
    for _ in range(2, n + 1):
        prev = table
        table = {}
        for i in range(m):
            for w in prev:
                shifted = tuple((i + x) % m for x in w)
                table[(i,) + w] = (i,) + prev[shifted]
    return table


def compose_linear_maps(outer: LinearMap, inner: LinearMap) -> LinearMap:
    """The product outer @ inner mod m: the map that applies inner, then outer.

    A product of lower-triangular matrices takes n(n+1)(n+2)/6
    multiply-adds, so more than MAX_VERTICES of them (n >= 391) are
    refused before the first.
    """
    if outer.m != inner.m or outer.n != inner.n:
        raise ValueError("matrix shape or modulus mismatch")
    n = outer.n
    _check_adds(n * (n + 1) * (n + 2) // 6, f"the product of two {n}x{n} matrices, n(n+1)(n+2)/6")
    # outer.image(B) = B @ outer.T, so the image of inner's columns is (outer @ inner).T
    product = outer.image(np.array(inner.rows, object).T).T
    return LinearMap(outer.m, tuple(map(tuple, product.tolist())))


def _labels(codes: np.ndarray, n: int, m: int) -> list[Vertex]:
    return row_tuples(digit_rows(codes, n, m))


def _checked_rows(out: list, n: int, m: int) -> np.ndarray:
    """Vertex-map outputs as a (k, n) int64 array, each checked by _check_digits.

    When every output holds n integers in [0, m), one pass converts them
    all. struct.pack takes integers only (a float or a str raises, and so
    does a digit past int64), and such a block goes the other way:
    _check_digits runs on each output in vertex order and raises on the
    first bad one, as it would have when that output arrived.
    """
    try:
        if set(map(len, out)) == {n}:
            packed = struct.pack(f"{len(out) * n}q", *chain.from_iterable(out))
            rows = np.frombuffer(packed, np.int64).reshape(len(out), n)
            if rows.min() >= 0 and rows.max() < m:
                return rows
    except (TypeError, struct.error):
        pass
    for v in out:
        _check_digits(v, n, m)
    return np.asarray(out, np.int64)


def _mapped_blocks(f: VertexMap, n: int, m: int) -> Iterator[np.ndarray]:
    """f of every vertex in code order, one checked (k, n) block per row_blocks block."""
    vertices = product(range(m), repeat=n)  # tuples of Python ints, in code order
    for block in row_blocks(range(m**n)):
        out: list = []
        try:
            out.extend(map(f, islice(vertices, len(block))))
        finally:  # when f raises, a bad output before that call is named instead
            rows = _checked_rows(out, n, m)
        yield rows


def _edge_images(
    vmap: LinearMap | VertexMap | Mapping[Vertex, Vertex], n: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """S(n,m)'s edges, the image code of every vertex, and the images of both edge ends.

    A LinearMap, already checked against n and m, maps digit_rows blocks
    by image. A callable or a mapping is called once per vertex tuple, a
    row_blocks block at a time, and each block of outputs is checked at
    once (_checked_rows): _check_digits runs per output only when the block
    holds a bad one, so the first bad vertex and its message are those a
    check on arrival would give.
    """
    edges = build_sierpinski(n, m).edges
    if isinstance(vmap, LinearMap):
        blocks = (vmap.image(digit_rows(codes, n, m)) for codes in row_blocks(np.arange(m**n)))
    else:
        blocks = _mapped_blocks(vmap.__getitem__ if isinstance(vmap, Mapping) else vmap, n, m)
    img = np.concatenate([row_codes(rows, m) for rows in blocks])
    return edges, img, img[edges[:, 0]], img[edges[:, 1]]


def _verify_images(vmap: LinearMap | VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """verify_embedding's report from the image of every vertex, for the maps its rows do not decide.

    violations holds at most 10 collisions and every distance violation.
    """
    edges, img, a, b = _edge_images(vmap, n, m)
    counts = np.bincount(img, minlength=m**n)
    hit = np.flatnonzero(counts > 1)
    violations: list[dict] = [
        {"kind": "collision", "image": w, "count": c}
        for w, c in zip(_labels(hit[:10], n, m), counts[hit[:10]].tolist())
    ]

    diffs = kernels.digit_diff_counts(a, b, n, m)
    bad = np.flatnonzero(diffs != 1)
    violations += [
        {"kind": "distance", "edge": (u, v), "images": (x, y), "distance": d}
        for u, v, x, y, d in zip(
            _labels(edges[bad, 0], n, m),
            _labels(edges[bad, 1], n, m),
            _labels(a[bad], n, m),
            _labels(b[bad], n, m),
            diffs[bad].tolist(),
        )
    ]
    return _report(
        {
            "is_bijection": hit.shape[0] == 0,
            "all_edges_distance_one": bad.shape[0] == 0,
            "edge_count_preserved": edge_keys(a, b, m**n).shape[0] == sierpinski_edge_count(n, m),
        },
        violations,
    )


def _corner_distances(g: Graph, corners: np.ndarray, degrees: np.ndarray) -> np.ndarray | None:
    """Breadth-first distances from each corner, shape (len(corners), V).

    One search runs over len(corners) disjoint copies of g at once: state
    k * V + v is vertex v seen from corner k. Neighbours come from CSR
    arrays built once from g.edges and degrees, and each frontier is
    expanded with numpy. Returns None once a search needs 2^n levels, since
    no vertex of S(n,m) lies that far from a corner. Unreached keep -1.
    """
    size = g.num_vertices
    src = g.edges.ravel()  # row t holds (u, v): slot 2t is u, 2t + 1 is v
    order = np.argsort(src, kind="stable")
    nbrs = g.edges[:, ::-1].ravel()[order]
    start = np.zeros(size + 1, np.int64)
    np.cumsum(degrees, out=start[1:])

    limit = 2**g.n
    dist = np.full(corners.shape[0] * size, -1, np.int32)
    frontier = np.arange(corners.shape[0]) * size + corners
    dist[frontier] = 0
    level = 0
    while frontier.shape[0]:
        level += 1
        copy, v = np.divmod(frontier, size)
        counts = start[v + 1] - start[v]
        ends = np.cumsum(counts)
        slots = np.repeat(start[v] - ends + counts, counts) + np.arange(ends[-1])
        nxt = np.repeat(copy * size, counts) + nbrs[slots]
        nxt = nxt[dist[nxt] < 0]
        if nxt.shape[0] and level >= limit:
            return None
        dist[nxt] = level
        nxt.sort()
        fresh = np.ones(nxt.shape[0], bool)
        np.not_equal(nxt[1:], nxt[:-1], out=fresh[1:])
        frontier = nxt[fresh]
    return dist.reshape(corners.shape[0], size)


def _corner_certificate(g: Graph, degrees: np.ndarray) -> tuple[np.ndarray | None, str]:
    """Labels that carry g onto S(n,m), or None with the reason there are none.

    In S(n,m), d(v, i^n) = sum of 2^(n-j) over the digits v_j != i, so
    bit n-j of the distance is clear for exactly one corner, i = v_j.
    Alphabet permutations are automorphisms of S(n,m), so if g is a
    relabeled S(n,m) some isomorphism sends its k-th corner (degree m-1,
    ascending code) to k^n, and reading every vertex's digits off its
    corner distances recovers that isomorphism. The labels are accepted
    only if they are a bijection that carries the edge set of g onto the
    edge set of S(n,m), so an accepted labeling is its own proof.
    degrees is g.degrees(), counted once by the caller.
    """
    n, m, size = g.n, g.m, g.num_vertices
    corners = np.flatnonzero(degrees == m - 1)
    if corners.shape[0] != m:
        return None, f"{corners.shape[0]} vertices of degree {m - 1}, expected {m} corners"
    dist = _corner_distances(g, corners, degrees)
    if dist is None:
        return None, f"a vertex lies {2**n} or more steps from a corner"
    unreached = int((dist < 0).any(axis=0).sum())
    if unreached:
        return None, f"{unreached} vertices are not reachable from the corners"
    labels = np.zeros(size, np.int64)
    for bit in range(n - 1, -1, -1):  # bit n-j of the distances holds digit j
        clear = ((dist >> bit) & 1) == 0
        ambiguous = int((clear.sum(axis=0) != 1).sum())
        if ambiguous:
            return None, f"{ambiguous} vertices have no single corner for digit {n - bit}"
        labels = labels * m + clear.argmax(axis=0)
    if np.bincount(labels, minlength=size).max() > 1:
        return None, "the corner-distance labels are not a bijection"
    keys = edge_keys(labels[g.edges[:, 0]], labels[g.edges[:, 1]], size)
    if not np.array_equal(keys, build_sierpinski(n, m).edges @ (size, 1)):
        return None, f"the corner-distance labels do not carry the edges onto S({n},{m})"
    return labels, ""


def sierpinski_isomorphism(g: Graph) -> np.ndarray | None:
    """An isomorphism from g onto S(g.n, g.m), or None if g is not one.

    labels[c] is the S(n,m) code of the candidate vertex with code c; every
    edge (u, v) of g is sent to the S(n,m) edge (labels[u], labels[v]).
    Polynomial: one breadth-first search from the m corners, O(m E) work
    spread over at most 2^n numpy steps.
    """
    return _corner_certificate(g, g.degrees())[0]


def verify_coordinatization(candidate: Graph) -> dict:
    """Check whether a graph on {0..m-1}^n is a relabeled S(n,m) inside K_m^n.

    Four gates: every edge joins vertices at Hamming distance 1, the edge
    count matches, the degree multiset matches (m vertices of degree m-1,
    the rest of degree m), and the graph is isomorphic to S(n,m), decided
    by the corner-distance certificate of sierpinski_isomorphism. The
    certificate runs once the edge count and degree gates pass, whatever
    the distance gate says, so a relabeled S(n,m) that does not sit in
    K_m^n reads isomorphic_to_sierpinski true with verdict false.

    violations lists at most 10 items per kind; violations_total counts
    them all.
    """
    n, m = candidate.n, candidate.m
    diffs = kernels.digit_diff_counts(
        candidate.edges[:, 0], candidate.edges[:, 1], n, m
    )
    bad = np.flatnonzero(diffs != 1)
    first = bad[:10]
    violations: list[dict] = [
        {"kind": "distance", "edge": (u, v), "distance": d}
        for u, v, d in zip(
            _labels(candidate.edges[first, 0], n, m),
            _labels(candidate.edges[first, 1], n, m),
            diffs[first].tolist(),
        )
    ]
    total = bad.shape[0]

    expected_edges = sierpinski_edge_count(n, m)
    edge_count_matches = candidate.num_edges == expected_edges
    if not edge_count_matches:
        violations.append(
            {
                "kind": "edge_count",
                "found": candidate.num_edges,
                "expected": expected_edges,
            }
        )
        total += 1

    degs = candidate.degrees()  # one entry per vertex, m^n in all
    degree_sequence_matches = (
        np.count_nonzero(degs == m - 1) == m and np.count_nonzero(degs == m) == m**n - m
    )
    if not degree_sequence_matches:
        off = np.flatnonzero((degs != m - 1) & (degs != m))
        violations += [
            {"kind": "degree", "vertex": v, "degree": d, "allowed": [m - 1, m]}
            for v, d in zip(_labels(off[:10], n, m), degs[off[:10]].tolist())
        ]
        total += off.shape[0]

    isomorphic = False
    if edge_count_matches and degree_sequence_matches:
        labels, reason = _corner_certificate(candidate, degs)
        isomorphic = labels is not None
        if not isomorphic:
            violations.append({"kind": "isomorphism", "detail": reason})
            total += 1

    return _report(
        {
            "all_edges_distance_one": bad.shape[0] == 0,
            "edge_count_matches": edge_count_matches,
            "degree_sequence_matches": degree_sequence_matches,
            "isomorphic_to_sierpinski": isomorphic,
        },
        violations,
        total,
    )


def layout_metrics(vmap: LinearMap | VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """Wirelength and bandwidth of laying S(n,m) out in K_m^n via vmap.

    vmap is a LinearMap, a callable or a mapping, as in verify_embedding.
    Wirelength sums the Hamming distances of the edge images; bandwidth is
    their maximum.

    A LinearMap builds no S(n,m). Its m^h edges at position h between
    digits i and j have images at distance wt((i-j) c_h), the nonzero
    entries of (i-j) c_h mod m (see exact's row rule). An entry c is
    nonzero for all but gcd(c, m) - 1 of the differences d = 1..m-1, so
    summed over the digit pairs, (m - d) pairs per d, it counts
    m (m - gcd(c, m)) / 2. Bandwidth is the largest wt(c_h), at d = 1.
    """
    if isinstance(vmap, LinearMap):
        c = _edge_differences(vmap, n, m)  # c[r][h] is entry r of c_h
        pairs = sum(m**h * sum(m - math.gcd(row[h], m) for row in c) for h in range(n))
        widest = max(sum(1 for row in c if row[h]) for h in range(n))
        return {"wirelength": pairs * m // 2, "bandwidth": widest}
    _, _, a, b = _edge_images(vmap, n, m)
    diffs = kernels.digit_diff_counts(a, b, n, m)
    return {"wirelength": int(diffs.sum()), "bandwidth": int(diffs.max())}
