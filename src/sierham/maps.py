"""Recoordinatization maps from S(n,m) into the Hamming graph K_m^n.

Three families, all lower-triangular linear maps mod m:

- the additive map phi: coordinate i becomes v_i + sum_{j<i} 2^(i-1-j) v_j,
- the halved map tau (odd m only): phi followed by scaling coordinate i
  with 2^(-(i-1)); tau fixes every constant vertex,
- the twist family epsilon: phi followed by an arbitrary unit scale per
  coordinate, parameterized by one multiplier per recursion level.

phi_recursive rebuilds phi by the level-by-level recursion instead of the
closed form; the two must agree pointwise. verify_embedding checks that a
vertex map is a bijection sending every S(n,m) edge to a Hamming-distance-1
pair; verify_coordinatization checks whether a candidate graph on the same
vertex set actually is a relabeled S(n,m).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import kernels
from .graphs import (
    Graph,
    Vertex,
    _check_scale,
    build_sierpinski,
    check_vertex,
    code_to_vertex,
    edge_keys,
    sierpinski_edge_count,
    vertex_to_code,
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


def phi_inverse(w: Sequence[int], m: int) -> Vertex:
    """Inverse of phi_forward: v_i = (w_i - sum_{j<i} w_j) mod m.

    The formula holds even over the plain integers, without reducing the
    intermediate sums.
    """
    out = []
    s = 0
    for d in w:
        out.append((d - s) % m)
        s += d
    return tuple(out)


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
    out = []
    s = 0  # sum_{j<i} 2^(j-1) t_j mod m
    p = 1  # 2^(i-1) mod m
    for d in t:
        out.append((p * d - s) % m)
        s = (s + p * d) % m
        p = p * 2 % m
    return tuple(out)


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

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if len(self.multipliers) < 1:
            raise ValueError("need at least one multiplier")
        reduced = tuple(c % self.m for c in self.multipliers)
        for c in reduced:
            if math.gcd(c, self.m) != 1:
                raise ValueError(f"multiplier {c} is not invertible mod {self.m}")
        object.__setattr__(self, "multipliers", reduced)

    def scales(self) -> tuple[int, ...]:
        cs = self.multipliers
        m = self.m
        if len(cs) == 1:
            return (1,)
        s = [cs[0] * pow(cs[1], -1, m) % m]
        acc = 1
        for c in cs[1:]:
            acc = acc * c % m
            s.append(acc)
        return tuple(s)


def epsilon_forward(v: Sequence[int], tw: TwistFamily) -> Vertex:
    """Twist-family recoordinatization: phi followed by per-coordinate scaling."""
    if len(v) != len(tw.multipliers):
        raise ValueError(
            f"vertex has {len(v)} digits, twist family has {len(tw.multipliers)} levels"
        )
    w = phi_forward(v, tw.m)
    return tuple(s * d % tw.m for s, d in zip(tw.scales(), w))


@dataclass(frozen=True)
class LinearMap:
    """Lower-triangular matrix over Z_m; row i gives output coordinate i."""

    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        norm = []
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            row = tuple(x % self.m for x in row)
            if any(row[j] for j in range(i + 1, n)):
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

    def apply(self, v: Sequence[int]) -> Vertex:
        check_vertex(v, self.n, self.m)
        return tuple(
            sum(row[j] * v[j] for j in range(i + 1)) % self.m
            for i, row in enumerate(self.rows)
        )


def embedding_matrix(kind: str | TwistFamily, n: int | None = None, m: int | None = None) -> LinearMap:
    """Coefficient matrix of phi, tau, or a twist family, as a LinearMap."""
    if isinstance(kind, TwistFamily):
        if n is not None and n != len(kind.multipliers):
            raise ValueError(
                f"twist family has {len(kind.multipliers)} levels, asked for n={n}"
            )
        n = len(kind.multipliers)
        m = kind.m
        scales = kind.scales()
    else:
        if n is None or m is None:
            raise ValueError("n and m are required for named map kinds")
        if kind == "phi":
            scales = (1,) * n
        elif kind == "tau":
            inv2 = _inverse_of_two(m)
            scales = tuple(pow(inv2, i, m) for i in range(n))
        else:
            raise ValueError(f"unknown map kind {kind!r}")
    rows = []
    for i in range(n):
        row = [scales[i] * pow(2, i - 1 - j, m) % m for j in range(i)]
        row.append(scales[i] % m)
        row.extend([0] * (n - 1 - i))
        rows.append(tuple(row))
    return LinearMap(m, tuple(rows))


def invert_linear_map(lm: LinearMap) -> LinearMap:
    """Inverse of a unit-diagonal lower-triangular matrix mod m.

    Column-by-column forward substitution; the product with the input is
    the identity mod m in either order.
    """
    n, m = lm.n, lm.m
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
    n, m = outer.n, outer.m
    rows = tuple(
        tuple(
            sum(outer.rows[i][k] * inner.rows[k][j] for k in range(n)) % m
            for j in range(n)
        )
        for i in range(n)
    )
    return LinearMap(m, rows)


def _as_callable(vmap: VertexMap | Mapping[Vertex, Vertex]) -> VertexMap:
    if isinstance(vmap, Mapping):
        return vmap.__getitem__
    return vmap


def _image_codes(vmap: VertexMap, n: int, m: int) -> np.ndarray:
    f = _as_callable(vmap)
    img = np.empty(m**n, np.int64)
    for code in range(m**n):
        w = f(code_to_vertex(code, n, m))
        check_vertex(w, n, m)
        img[code] = vertex_to_code(w, m)
    return img


def verify_embedding(vmap: VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """Check that vmap relabels S(n,m) onto a subgraph of K_m^n.

    Report: is_bijection, all_edges_distance_one, edge_count_preserved,
    verdict, violations. Bijectivity plus one differing coordinate per edge
    image certifies an isomorphism onto the image, because the edge counts
    already agree.
    """
    g = build_sierpinski(n, m)
    img = _image_codes(vmap, n, m)
    violations: list[dict] = []

    is_bijection = np.unique(img).shape[0] == m**n
    if not is_bijection:
        values, counts = np.unique(img, return_counts=True)
        for val in values[counts > 1][:10]:
            violations.append(
                {
                    "kind": "collision",
                    "image": code_to_vertex(int(val), n, m),
                    "count": int(counts[values == val][0]),
                }
            )

    a = img[g.edges[:, 0]]
    b = img[g.edges[:, 1]]
    diffs = kernels.digit_diff_counts(a, b, n, m)
    bad = np.nonzero(diffs != 1)[0]
    for idx in bad:
        u, v = g.edges[idx]
        violations.append(
            {
                "kind": "distance",
                "edge": (code_to_vertex(int(u), n, m), code_to_vertex(int(v), n, m)),
                "images": (
                    code_to_vertex(int(a[idx]), n, m),
                    code_to_vertex(int(b[idx]), n, m),
                ),
                "distance": int(diffs[idx]),
            }
        )
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


def _find_isomorphism(adj_a: list[list[int]], adj_b: list[list[int]]) -> list[int] | None:
    """Degree-pruned depth-first search for a graph isomorphism.

    Vertices of A are assigned in breadth-first order so each new vertex has
    at least one mapped neighbor to constrain it (graphs here are
    connected). Returns the mapping as a list, or None.
    """
    na, nb = len(adj_a), len(adj_b)
    if na != nb:
        return None
    deg_a = [len(x) for x in adj_a]
    deg_b = [len(x) for x in adj_b]
    if sorted(deg_a) != sorted(deg_b):
        return None

    sets_a = [set(x) for x in adj_a]
    sets_b = [set(x) for x in adj_b]

    order: list[int] = []
    seen = [False] * na
    queue = [0]
    seen[0] = True
    while queue:
        u = queue.pop(0)
        order.append(u)
        for w in adj_a[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    if len(order) != na:  # disconnected candidate cannot match
        order.extend(u for u in range(na) if not seen[u])

    mapping = [-1] * na
    used = [False] * nb

    def extend(pos: int) -> bool:
        if pos == na:
            return True
        u = order[pos]
        for v in range(nb):
            if used[v] or deg_b[v] != deg_a[u]:
                continue
            ok = True
            for w in order[:pos]:
                if (w in sets_a[u]) != (mapping[w] in sets_b[v]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = v
            used[v] = True
            if extend(pos + 1):
                return True
            mapping[u] = -1
            used[v] = False
        return False

    return mapping if extend(0) else None


def verify_coordinatization(candidate: Graph, n: int | None = None, m: int | None = None) -> dict:
    """Check whether a graph on {0..m-1}^n is a relabeled S(n,m).

    Four gates: every edge joins vertices at Hamming distance 1, the edge
    count matches, the degree multiset matches (m vertices of degree m-1,
    the rest of degree m), and finally an explicit isomorphism search. The
    search only runs once the cheap gates pass.
    """
    n = candidate.n if n is None else n
    m = candidate.m if m is None else m
    if (candidate.n, candidate.m) != (n, m):
        raise ValueError("candidate graph has different (n, m)")
    violations: list[dict] = []

    diffs = kernels.digit_diff_counts(
        candidate.edges[:, 0], candidate.edges[:, 1], n, m
    )
    bad = np.nonzero(diffs != 1)[0]
    for idx in bad[:10]:
        u, v = candidate.edges[idx]
        violations.append(
            {
                "kind": "distance",
                "edge": (code_to_vertex(int(u), n, m), code_to_vertex(int(v), n, m)),
                "distance": int(diffs[idx]),
            }
        )
    all_edges_distance_one = bad.shape[0] == 0

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

    degs = candidate.degrees()
    expected_multiset = sorted([m - 1] * m + [m] * (m**n - m))
    degree_sequence_matches = sorted(int(d) for d in degs) == expected_multiset
    if not degree_sequence_matches:
        allowed = {m - 1, m}
        for code in np.nonzero(~np.isin(degs, list(allowed)))[0][:10]:
            violations.append(
                {
                    "kind": "degree",
                    "vertex": code_to_vertex(int(code), n, m),
                    "degree": int(degs[code]),
                    "allowed": sorted(allowed),
                }
            )

    isomorphic = False
    if all_edges_distance_one and edge_count_matches and degree_sequence_matches:
        reference = build_sierpinski(n, m)
        isomorphic = (
            _find_isomorphism(candidate.adjacency(), reference.adjacency()) is not None
        )
        if not isomorphic:
            violations.append({"kind": "isomorphism", "detail": "no isomorphism found"})

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
    }


def layout_metrics(vmap: VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """Wirelength and bandwidth of laying S(n,m) out in K_m^n via vmap.

    Wirelength sums the Hamming distances of the edge images; bandwidth is
    their maximum.
    """
    g = build_sierpinski(n, m)
    img = _image_codes(vmap, n, m)
    diffs = kernels.digit_diff_counts(img[g.edges[:, 0]], img[g.edges[:, 1]], n, m)
    return {"wirelength": int(diffs.sum()), "bandwidth": int(diffs.max())}
