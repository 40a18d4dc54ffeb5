"""Recoordinatization maps from S(n,m) into the Hamming graph K_m^n.

Three families, all lower-triangular linear maps mod m:

- the additive map phi: coordinate i becomes v_i + sum_{j<i} 2^(i-1-j) v_j,
- the halved map tau (odd m only): phi followed by scaling coordinate i
  with 2^(-(i-1)); tau fixes every constant vertex,
- the twist family epsilon: phi followed by an arbitrary unit scale per
  coordinate, parameterized by one multiplier per recursion level.

phi and tau are the twist families with every multiplier 1 and 2^(-1).
embedding_matrix reads column j of any family's LinearMap off
epsilon_forward of the j-th unit vector. LinearMap.cube_image maps the
whole cube {0..b-1}^n by the paper's level-by-level doubling, and every
full table (embed, the classic and diplomats plays, the Gray sequence)
comes from it; LinearMap.image maps any other (k, n) digit array.
phi_forward and tau_forward keep the paper's per-vertex formulas as
independent forms. phi_recursive rebuilds phi by the level-by-level
recursion instead of the closed form; the two must agree pointwise.
verify_embedding checks that a vertex map (a LinearMap, a callable or a
mapping) is a bijection sending every S(n,m) edge to a Hamming-distance-1
pair; a callable or a mapping is called once per vertex, and its outputs
are checked a block at a time. sierpinski_isomorphism decides whether a
graph is a relabeled S(n,m) by reading every vertex's digits off its
distances to the m corners, and returns the isomorphism as its witness;
verify_coordinatization adds the gates that place the graph inside K_m^n.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import chain, islice, product
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .graphs import (
    MAX_VERTICES,
    Graph,
    Vertex,
    _check_matrix,
    _check_params,
    _check_scale,
    _cube,
    build_sierpinski,
    check_vertex,
    digit_rows,
    edge_keys,
    row_blocks,
    row_codes,
    row_tuples,
    sierpinski_edge_count,
)

VertexMap = Callable[[Vertex], Vertex]


def _inverse_of_two(m: int) -> int:
    if m % 2 == 0:
        raise ValueError(f"no multiplicative inverse of 2 mod {m}")
    return (m + 1) // 2


def phi_forward(v: Sequence[int], m: int) -> Vertex:
    """Additive recoordinatization: w_i = (v_i + sum_{j<i} 2^(i-1-j) v_j) mod m."""
    out = []
    s = 0  # running sum_{j<i} 2^(i-1-j) v_j mod m
    for d in v:
        out.append((d + s) % m)
        s = (2 * s + d) % m
    return tuple(out)


def _unscale_and_subtract(w: Sequence[int], m: int, ratio: int) -> Vertex:
    """Shared inverse of phi (ratio 1) and tau (ratio 2), p_i = ratio^(i-1):
    v_i = (p_i w_i - sum_{j<i} p_j w_j) mod m."""
    out = []
    s = 0  # sum_{j<i} p_j w_j mod m
    p = 1  # p_i mod m
    for d in w:
        x = p * d
        out.append((x - s) % m)
        s = (s + x) % m
        p = p * ratio % m
    return tuple(out)


def phi_inverse(w: Sequence[int], m: int) -> Vertex:
    """Inverse of phi_forward: v_i = (w_i - sum_{j<i} w_j) mod m."""
    return _unscale_and_subtract(w, m, 1)


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


def tau_forward(v: Sequence[int], m: int) -> Vertex:
    """Halved recoordinatization (odd m): t_i = 2^(-(i-1)) * phi(v)_i mod m.

    Fixes every constant vertex, so the m corners keep their labels.
    """
    inv2 = _inverse_of_two(m)
    out = []
    s = 0
    f = 1  # 2^(-(i-1)) mod m
    for d in v:
        out.append(f * (d + s) % m)
        s = (2 * s + d) % m
        f = f * inv2 % m
    return tuple(out)


def tau_inverse(t: Sequence[int], m: int) -> Vertex:
    """Inverse of tau_forward: v_i = (2^(i-1) t_i - sum_{j<i} 2^(j-1) t_j) mod m."""
    _inverse_of_two(m)  # reject even m up front
    return _unscale_and_subtract(t, m, 2)


@dataclass(frozen=True)
class TwistFamily:
    """One invertible multiplier per recursion level, defining one epsilon map.

    The level multipliers (c_1,...,c_n) combine into a single unit scale per
    output coordinate: coordinate 1 is scaled by c_1 * c_2^(-1), coordinate
    i >= 2 by c_2 * c_3 * ... * c_i (a lone level, n = 1, scales by 1). The
    all-ones family is phi, the all-2^(-1) family is tau, and distinct
    multiplier tuples give distinct maps.
    """

    m: int
    multipliers: tuple[int, ...]
    _scales: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if len(self.multipliers) < 1:
            raise ValueError("need at least one multiplier")
        cs = tuple(c % self.m for c in self.multipliers)
        for c in cs:
            if math.gcd(c, self.m) != 1:
                raise ValueError(f"multiplier {c} is not invertible mod {self.m}")
        object.__setattr__(self, "multipliers", cs)
        scales = [1] if len(cs) == 1 else [cs[0] * pow(cs[1], -1, self.m) % self.m]
        acc = 1
        for c in cs[1:]:
            acc = acc * c % self.m
            scales.append(acc)
        object.__setattr__(self, "_scales", tuple(scales))

    def scales(self) -> tuple[int, ...]:
        return self._scales


def epsilon_forward(v: Sequence[int], tw: TwistFamily) -> Vertex:
    """Twist-family recoordinatization: e_i = scale_i * phi(v)_i mod m, in one pass."""
    if len(v) != len(tw.multipliers):
        raise ValueError(
            f"vertex has {len(v)} digits, twist family has {len(tw.multipliers)} levels"
        )
    m = tw.m
    out = []
    s = 0  # running sum_{j<i} 2^(i-1-j) v_j mod m
    for c, d in zip(tw.scales(), v):
        out.append(c * (d + s) % m)
        s = (2 * s + d) % m
    return tuple(out)


@dataclass(frozen=True)
class LinearMap:
    """Lower-triangular matrix over Z_m; row i gives output coordinate i."""

    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        _check_params(n, self.m)
        norm = []
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            row = tuple(x % self.m for x in row)
            if any(row[i + 1 :]):
                raise ValueError(f"row {i + 1} has a nonzero entry above the diagonal")
            if math.gcd(row[i], self.m) != 1:
                raise ValueError(
                    f"diagonal entry {row[i]} in row {i + 1} is not invertible mod {self.m}"
                )
            norm.append(row)
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.rows)

    def image(self, rows) -> np.ndarray:
        """The images of the rows of a (k, n) digit array: rows @ A.T mod m.

        Digits must lie in [0, m). Every dot product is below n (m-1)^2, so
        the arithmetic runs in int64 while that bound is under 2^63, and in
        exact Python integers (an object array) beyond it.
        """
        dtype = np.int64 if self.n * (self.m - 1) ** 2 < 2**63 else object
        out = np.asarray(rows, dtype) @ np.array(self.rows, dtype).reshape(self.n, self.n).T
        out %= self.m
        return out

    def cube_image(self, base: int, out: np.ndarray | None = None) -> np.ndarray:
        """The images of all base^n digit rows in code order, 2 <= base <= m.

        Equals image(digit_rows(np.arange(base**n), n, base)), built by the
        paper's recursion on the leading digit: the rows whose digit k is d
        are those whose digit k is 0, plus d * A[:, k] mod m. That costs
        O(base^n n), against O(base^n n^2) for image, and allocates no
        input rows. int64 while 2m < 2^63, exact Python integers beyond it;
        refuses more than MAX_VERTICES rows. out, if given, is a zeroed
        (base^n, n) array to fill.
        """
        if not 2 <= base <= self.m:
            raise ValueError(f"base {base} is outside 2..{self.m}")
        return _cube(self.n, base, self.m, self.rows, out)

    def apply(self, v: Sequence[int]) -> Vertex:
        check_vertex(v, self.n, self.m)
        return tuple(self.image([v])[0].tolist())


def embedding_matrix(kind: str | TwistFamily, n: int | None = None, m: int | None = None) -> LinearMap:
    """Coefficient matrix of phi, tau, or a twist family, as a LinearMap.

    phi is the all-ones twist family and tau the all-2^(-1) one; column j
    is epsilon_forward of the j-th unit vector. A family is passed alone.
    Refuses more than MAX_VERTICES entries before building a row.
    """
    if isinstance(kind, TwistFamily):
        _check_matrix(len(kind.multipliers))
        if n is not None or m is not None:
            raise ValueError("a twist family carries its own n and m; pass it alone")
    else:
        if n is None or m is None:
            raise ValueError("n and m are required for named map kinds")
        _check_params(n, m)  # the rows below are reduced mod m
        if kind not in ("phi", "tau"):
            raise ValueError(f"unknown map kind {kind!r}")
        c = 1 if kind == "phi" else _inverse_of_two(m)
        _check_matrix(n)
        kind = TwistFamily(m, (c,) * n)
    n = len(kind.multipliers)
    columns = [epsilon_forward((0,) * j + (1,) + (0,) * (n - 1 - j), kind) for j in range(n)]
    return LinearMap(kind.m, tuple(zip(*columns)))


def invert_linear_map(lm: LinearMap) -> LinearMap:
    """Inverse of a unit-diagonal lower-triangular matrix mod m.

    Column-by-column forward substitution; the product with the input is
    the identity mod m in either order. Its n(n^2-1)/6 multiply-adds run in
    Python, so more than MAX_VERTICES of them (n >= 392) are refused.
    """
    n, m = lm.n, lm.m
    adds = n * (n * n - 1) // 6
    if adds > MAX_VERTICES:
        what = f"the inverse of a {n}x{n} matrix, n(n^2-1)/6 = {adds} multiply-adds"
        raise ValueError(f"refusing to build {what} (limit {MAX_VERTICES})")
    a = lm.rows
    inv_diag = [pow(a[i][i], -1, m) for i in range(n)]
    x = [[0] * n for _ in range(n)]
    for c in range(n):
        for i in range(c, n):
            s = (1 if i == c else 0) - sum(a[i][k] * x[k][c] for k in range(c, i))
            x[i][c] = s * inv_diag[i] % m
    return LinearMap(m, tuple(tuple(row) for row in x))


def compose_linear_maps(outer: LinearMap, inner: LinearMap) -> LinearMap:
    if outer.m != inner.m or outer.n != inner.n:
        raise ValueError("matrix shape or modulus mismatch")
    # outer.image(B) = B @ outer.T, so the image of inner's columns is (outer @ inner).T
    product = outer.image(np.array(inner.rows, object).T).T
    return LinearMap(outer.m, tuple(map(tuple, product.tolist())))


def _labels(codes: np.ndarray, n: int, m: int) -> list[Vertex]:
    return row_tuples(digit_rows(codes, n, m))


def _checked_rows(out: list, n: int, m: int) -> np.ndarray:
    """Vertex-map outputs as a (k, n) int64 array, each checked as check_vertex checks it.

    When every output holds n integers in [0, m), one pass converts them
    all. struct.pack takes integers only (a float or a str raises, and so
    does a digit past int64), and such a block goes the other way:
    check_vertex runs on each output in vertex order and raises on the
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
        check_vertex(v, n, m)
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

    A LinearMap maps digit_rows blocks by image. A callable or a mapping is
    called once per vertex tuple, a row_blocks block at a time, and each
    block of outputs is checked at once (_checked_rows): check_vertex runs
    per output only when the block holds a bad one, so the first bad
    vertex and its message are those a check on arrival would give.
    """
    if isinstance(vmap, LinearMap) and (vmap.n, vmap.m) != (n, m):
        raise ValueError(f"a {vmap.n}x{vmap.n} matrix mod {vmap.m} does not map S({n},{m})")
    edges = build_sierpinski(n, m).edges
    if isinstance(vmap, LinearMap):
        blocks = (vmap.image(digit_rows(codes, n, m)) for codes in row_blocks(np.arange(m**n)))
    else:
        blocks = _mapped_blocks(vmap.__getitem__ if isinstance(vmap, Mapping) else vmap, n, m)
    img = np.concatenate([row_codes(rows, m) for rows in blocks])
    return edges, img, img[edges[:, 0]], img[edges[:, 1]]


def verify_embedding(vmap: LinearMap | VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """Check that vmap relabels S(n,m) onto a subgraph of K_m^n.

    Every form of vmap is mapped a row_blocks block at a time: a LinearMap
    by LinearMap.image on digit rows, a callable or a mapping once per
    vertex tuple, with each block of outputs checked at once and
    check_vertex's error for the first bad one.

    Report: is_bijection, all_edges_distance_one, edge_count_preserved,
    verdict, violations (at most 10 collisions, every distance violation).
    Bijectivity plus one differing coordinate per edge image certifies an
    isomorphism onto the image, because the edge counts already agree.
    """
    edges, img, a, b = _edge_images(vmap, n, m)
    counts = np.bincount(img, minlength=m**n)
    hit = np.flatnonzero(counts > 1)
    is_bijection = hit.shape[0] == 0
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
    all_edges_distance_one = bad.shape[0] == 0

    image_edges = edge_keys(a, b, m**n)
    edge_count_preserved = image_edges.shape[0] == sierpinski_edge_count(n, m)

    return {
        "is_bijection": bool(is_bijection),
        "all_edges_distance_one": bool(all_edges_distance_one),
        "edge_count_preserved": bool(edge_count_preserved),
        "verdict": bool(is_bijection and all_edges_distance_one and edge_count_preserved),
        "violations": violations,
    }


def _corner_distances(g: Graph, corners: np.ndarray) -> np.ndarray | None:
    """Breadth-first distances from each corner, shape (len(corners), V).

    One search runs over len(corners) disjoint copies of g at once: state
    k * V + v is vertex v seen from corner k. Neighbours come from CSR
    arrays built once from g.edges, and each frontier is expanded with
    numpy. Returns None once a search needs 2^n levels, since no vertex of
    S(n,m) lies that far from a corner. Unreached vertices keep -1.
    """
    size = g.num_vertices
    src = g.edges.ravel()  # row t holds (u, v): slot 2t is u, 2t + 1 is v
    order = np.argsort(src, kind="stable")
    nbrs = g.edges[:, ::-1].ravel()[order]
    start = np.zeros(size + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=size), out=start[1:])

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


def _corner_certificate(g: Graph) -> tuple[np.ndarray | None, str]:
    """Labels that carry g onto S(n,m), or None with the reason there are none.

    In S(n,m), d(v, i^n) = sum of 2^(n-j) over the digits v_j != i, so
    bit n-j of the distance is clear for exactly one corner, i = v_j.
    Alphabet permutations are automorphisms of S(n,m), so if g is a
    relabeled S(n,m) some isomorphism sends its k-th corner (degree m-1,
    ascending code) to k^n, and reading every vertex's digits off its
    corner distances recovers that isomorphism. The labels are accepted
    only if they are a bijection that carries the edge set of g onto the
    edge set of S(n,m), so an accepted labeling is its own proof.
    """
    n, m, size = g.n, g.m, g.num_vertices
    corners = np.flatnonzero(g.degrees() == m - 1)
    if corners.shape[0] != m:
        return None, f"{corners.shape[0]} vertices of degree {m - 1}, expected {m} corners"
    dist = _corner_distances(g, corners)
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
    if not np.array_equal(keys, build_sierpinski(n, m)._keys):
        return None, f"the corner-distance labels do not carry the edges onto S({n},{m})"
    return labels, ""


def sierpinski_isomorphism(g: Graph) -> np.ndarray | None:
    """An isomorphism from g onto S(g.n, g.m), or None if g is not one.

    labels[c] is the S(n,m) code of the candidate vertex with code c; every
    edge (u, v) of g is sent to the S(n,m) edge (labels[u], labels[v]).
    Polynomial: one breadth-first search from the m corners, O(m E) work
    spread over at most 2^n numpy steps.
    """
    return _corner_certificate(g)[0]


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
    all_edges_distance_one = bad.shape[0] == 0
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
        labels, reason = _corner_certificate(candidate)
        isomorphic = labels is not None
        if not isomorphic:
            violations.append({"kind": "isomorphism", "detail": reason})
            total += 1

    return {
        "all_edges_distance_one": bool(all_edges_distance_one),
        "edge_count_matches": bool(edge_count_matches),
        "degree_sequence_matches": bool(degree_sequence_matches),
        "isomorphic_to_sierpinski": bool(isomorphic),
        "verdict": bool(
            all_edges_distance_one
            and edge_count_matches
            and degree_sequence_matches
            and isomorphic
        ),
        "violations": violations,
        "violations_total": int(total),
    }


def layout_metrics(vmap: LinearMap | VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """Wirelength and bandwidth of laying S(n,m) out in K_m^n via vmap.

    vmap is a LinearMap, a callable or a mapping, as in verify_embedding.
    Wirelength sums the Hamming distances of the edge images; bandwidth is
    their maximum.
    """
    _, _, a, b = _edge_images(vmap, n, m)
    diffs = kernels.digit_diff_counts(a, b, n, m)
    return {"wirelength": int(diffs.sum()), "bandwidth": int(diffs.max())}
