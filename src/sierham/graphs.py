"""Sierpinski graphs S(n,m), Hamming graphs K_m^n, and the single-twist variant.

Vertices are n-tuples over {0,...,m-1}, written most significant digit
first. S(n,m) joins u and v when some position h has equal digits before h,
differing digits at h, and crossed constant tails after h (u carries v_h,
v carries u_h). K_m^n joins tuples at Hamming distance 1. The single-twist
graph replaces the crossed tails with a shared tail k = (i+j) mod m.

Graphs store edges as an (E, 2) array of integer vertex codes,
code(v) = sum(v_i * m**(n-i)), canonically sorted and frozen. Constructors
refuse instances over 10**7 vertices or, by the closed-form counts, 3 * 10**7
edges, and _check_rows refuses the 2^n-row tables of hanoi and codes past
10**7 rows; the counting and density formulas below work at any size with
exact integer arithmetic. In bulk, vertices are rows of a (k, n) digit array:
digit_rows decodes any codes, and digit_cube builds the whole cube
{0..b-1}^n in code order by the doubling that also maps it (_cube, which
refuses an oversize cube before it builds even the identity). Passes that
turn whole tables into Python objects slice them by row_blocks, as
iter_rows does to yield a table's rows as tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels

Vertex = tuple[int, ...]

MAX_VERTICES = 10**7
MAX_EDGES = 3 * 10**7
ROW_BLOCK = 1 << 16  # rows per row_blocks slice, where a whole-table pass would hold copies


def vertex_to_code(v: Sequence[int], m: int) -> int:
    c = 0
    for d in v:
        c = c * m + d
    return c


def code_to_vertex(code: int, n: int, m: int) -> Vertex:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        code, out[i] = divmod(code, m)
    return tuple(out)


def digit_rows(codes: np.ndarray, n: int, m: int) -> np.ndarray:
    """The (k, n) base-m digits of k codes, most significant digit first.

    Row t equals code_to_vertex(codes[t], n, m); needs n >= 1, m >= 2 and m**n in int64.
    """
    _check_params(n, m)
    weights = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.asarray(codes, np.int64)[:, None] // weights
    rows %= m
    return rows


def _cube(n: int, base: int, m: int, matrix: Sequence | None, out: np.ndarray | None) -> np.ndarray:
    """x @ A.T mod m for every x in {0..base-1}^n, in code order, by doubling.

    matrix holds the rows of the lower-triangular n x n matrix A, entries
    in [0, m), or is None for the identity; either is read after the row
    check. The block of rows whose digit k is d equals the block whose
    digit k is 0 plus d * A[:, k] mod m, and the digits before k are 0 in
    both, so only columns k on are written; one numpy call writes the
    base - 1 blocks of a level. Entries stay below m and sums below 2m:
    int64 while 2m < 2^63, exact Python integers (an object array) beyond
    it. out, if given, is a zeroed (base^n, n) array.
    """
    _check_rows(n, f"the digit cube {{0..{base - 1}}}^{n}", base)
    if out is None:
        out = np.zeros((base**n, n), np.int64 if 2 * m < 2**63 else object)
    exact = np.int64 if (base - 1) * (m - 1) < 2**63 else object  # for d * A[i, k]
    columns = np.eye(n, dtype=exact) if matrix is None else np.array(matrix, exact).T
    steps = np.arange(1, base, dtype=exact)[:, None, None] * columns % m
    steps = steps.astype(out.dtype)  # steps[d - 1, k] = d * A[:, k] mod m
    size = 1  # out[:size] holds the rows whose digits 0..k are 0
    for k in range(n - 1, -1, -1):
        blocks = out[size : base * size].reshape(base - 1, size, n)[:, :, k:]
        np.add(out[:size, k:], steps[:, None, k, k:], out=blocks)
        if steps[:, k, k + 1 :].any():  # column k of out[:size] is 0: only later sums pass m
            blocks[:, :, 1:] %= m
        size *= base
    return out


def digit_cube(n: int, base: int, out: np.ndarray | None = None) -> np.ndarray:
    """All base^n digit rows in code order, as digit_rows(np.arange(base**n), n, base).

    The doubling of _cube with the identity matrix; refuses more than
    MAX_VERTICES rows. out, if given, is a zeroed (base^n, n) int64 array.
    """
    _check_params(n, base)
    return _cube(n, base, base, None, out)


def row_codes(rows: np.ndarray, m: int) -> np.ndarray:
    """Inverse of digit_rows: the int64 code of every row of a (k, n) digit array."""
    rows = np.asarray(rows, np.int64)
    return rows @ (m ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64))


def row_blocks(a: np.ndarray | range) -> Iterator:
    """The consecutive ROW_BLOCK-row slices of an array or a range, the last one short."""
    for start in range(0, len(a), ROW_BLOCK):
        yield a[start : start + ROW_BLOCK]


def iter_rows(rows: np.ndarray) -> Iterator[tuple]:
    """The rows of a (k, n) array as tuples of Python ints, made a row_blocks block at a time.

    One list per column per block, zipped (so no rows if no columns): a list
    per row made the cyclic garbage collector run every few hundred rows.
    """
    return chain.from_iterable(zip(*block.T.tolist()) for block in row_blocks(np.asarray(rows)))


def row_tuples(rows: np.ndarray) -> list[Vertex]:
    """The rows of a (k, n) array as Vertex tuples of Python ints."""
    rows = np.asarray(rows)
    return list(iter_rows(rows)) if rows.shape[1] else [()] * rows.shape[0]


def check_vertex(v: Sequence[int], n: int, m: int) -> None:
    if len(v) != n:
        raise ValueError(f"expected {n} digits, got {len(v)}")
    for d in v:
        if not 0 <= d < m:
            raise ValueError(f"digit {d} out of range for alphabet {{0..{m - 1}}}")


def check_pair(u: Sequence[int], v: Sequence[int], m: int) -> None:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    check_vertex(u, len(u), m)
    check_vertex(v, len(v), m)


def _check_params(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")


def _power_text(m: int, n: int) -> str:
    """'m^n = value' for small powers (n * floor(log2 m) < 60, so below 2^120), else 'm^n'."""
    return f"{m}^{n} = {m**n}" if n * (m.bit_length() - 1) < 60 else f"{m}^{n}"


def _check_scale(n: int, m: int) -> None:
    _check_params(n, m)
    # m**n > MAX_VERTICES for every m >= 2 once n reaches 24: skip computing it
    if n >= MAX_VERTICES.bit_length() or m**n > MAX_VERTICES:
        raise ValueError(
            f"refusing to build a graph on {_power_text(m, n)} vertices "
            f"(limit {MAX_VERTICES}); the counting formulas remain available"
        )


def _check_rows(n: int, what: str, base: int = 2) -> None:
    """Refuse a table of base^n rows, more than MAX_VERTICES, before computing it."""
    if n >= MAX_VERTICES.bit_length() or base**n > MAX_VERTICES:
        raise ValueError(
            f"refusing to build {_power_text(base, n)} rows of {what} (limit {MAX_VERTICES})"
        )


def _check_matrix(n: int) -> None:
    """Refuse an n x n matrix of more than MAX_VERTICES entries before building a row."""
    if n * n > MAX_VERTICES:
        raise ValueError(f"refusing to build a {n}x{n} matrix (limit {MAX_VERTICES} entries)")


def _check_edges(n: int, m: int, count: int) -> None:
    if count > MAX_EDGES:
        raise ValueError(
            f"refusing to build a graph with {count} edges on {m}^{n} vertices "
            f"(limit {MAX_EDGES}); the counting formulas remain available"
        )


def sierpinski_edge_count(n: int, m: int) -> int:
    """|E(S(n,m))| = (m^(n+1) - m) / 2, exact at any size."""
    _check_params(n, m)
    return (m ** (n + 1) - m) // 2


def hamming_edge_count(n: int, m: int) -> int:
    """|E(K_m^n)| = n (m-1) m^n / 2, exact at any size."""
    _check_params(n, m)
    return n * (m - 1) * m**n // 2


def edge_density(n: int, m: int) -> Fraction:
    """Density of S(n,m)'s clique blocks inside K_m^n: exactly 1/n.

    The m^(n-1) blocks of the clique decomposition each fill a complete
    line of the host, which has n * m^(n-1) lines in all; equivalently the
    block (interior) edges occupy m^n (m-1)/2 of the n m^n (m-1)/2 host
    edges. Exact at any size.
    """
    _check_params(n, m)
    return Fraction(1, n)


def edge_keys(u: np.ndarray, v: np.ndarray, num_vertices: int) -> np.ndarray:
    """Sorted, distinct keys min * V + max of the int64 code pairs (u[t], v[t]).

    Integer order on keys is lexicographic order on (min, max) rows, so
    np.divmod(keys, V) gives the rows a row-wise np.unique would. Endpoints
    must lie in [0, V), and V**2 must fit in int64, which holds for every
    V <= MAX_VERTICES.
    """
    key = np.minimum(u, v) * num_vertices
    key += np.maximum(u, v)
    # the kernels' rows arrive sorted and never reach this sort; its callers
    # are vertex-map images (maps.verify_embedding), certificate labels
    # (maps.sierpinski_isomorphism) and outside input (from_edge_list,
    # serialize.graph_from_json, Graph(...)), whose keys come in short runs
    # at best: on the phi and tau images of S(9,3) and S(7,5) the default
    # sort took under two fifths of the stable sort's time
    key.sort()
    fresh = np.ones(key.shape[0], bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    return key if fresh.all() else key[fresh]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable graph on {0,...,m-1}^n with a canonical edge array."""

    n: int
    m: int
    kind: str
    edges: np.ndarray = field(repr=False)
    _keys: np.ndarray = field(init=False, repr=False)  # edge_keys of edges

    def __post_init__(self) -> None:
        _check_scale(self.n, self.m)
        size = self.m**self.n
        e = np.asarray(self.edges, np.int64).reshape(-1, 2)
        # range first: a negative endpoint could alias the key of a real edge
        if e.size and not (0 <= e.min() and e.max() < size):
            raise ValueError("edge endpoint out of vertex range")
        u, v = e[:, 0], e[:, 1]
        keys = u * size
        keys += v
        if (u < v).all() and (keys[1:] > keys[:-1]).all():
            edges = e.copy()  # canonical already, as every kernel emits it
        else:
            if (u == v).any():
                raise ValueError("self-loop in edge list")
            keys = edge_keys(u, v, size)
            edges = np.stack(np.divmod(keys, size), axis=1)
        keys.setflags(write=False)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_keys", keys)

    @property
    def num_vertices(self) -> int:
        return self.m**self.n

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.num_vertices)

    def has_edge(self, u: Sequence[int], v: Sequence[int]) -> bool:
        check_vertex(u, self.n, self.m)
        check_vertex(v, self.n, self.m)
        a = vertex_to_code(u, self.m)
        b = vertex_to_code(v, self.m)
        key = min(a, b) * self.num_vertices + max(a, b)
        idx = int(np.searchsorted(self._keys, key))
        return idx < self._keys.shape[0] and int(self._keys[idx]) == key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.edges, other.edges)
        )


def build_sierpinski(n: int, m: int) -> Graph:
    _check_scale(n, m)
    _check_edges(n, m, sierpinski_edge_count(n, m))
    return Graph(n, m, "sierpinski", kernels.sierpinski_edges(n, m))


def build_hamming(n: int, m: int) -> Graph:
    _check_scale(n, m)
    _check_edges(n, m, hamming_edge_count(n, m))
    return Graph(n, m, "hamming", kernels.hamming_edges(n, m))


def build_single_twist(n: int, m: int) -> Graph:
    _check_scale(n, m)
    _check_edges(n, m, sierpinski_edge_count(n, m))  # one row per S(n,m) edge
    return Graph(n, m, "single-twist", kernels.single_twist_edges(n, m))


def from_edge_list(n: int, m: int, kind: str, pairs: Iterable[tuple[Vertex, Vertex]]) -> Graph:
    """Build a Graph from vertex-tuple pairs (used when re-ingesting exports)."""
    _check_scale(n, m)
    rows = []
    for u, v in pairs:
        check_vertex(u, n, m)
        check_vertex(v, n, m)
        rows.append((vertex_to_code(u, m), vertex_to_code(v, m)))
    arr = np.array(rows, np.int64).reshape(-1, 2)
    return Graph(n, m, kind, arr)


def is_sierpinski_edge(u: Sequence[int], v: Sequence[int], m: int) -> bool:
    """Edge rule of S(n,m): equal prefix, one differing digit, crossed tails.

    True iff some position h has u_i = v_i for i < h, u_h != v_h, and
    u_j = v_h, v_j = u_h for every j > h.
    """
    check_pair(u, v, m)
    if tuple(u) == tuple(v):
        raise ValueError("u and v must be distinct")
    h = 0  # first differing position, 0-based
    while u[h] == v[h]:
        h += 1
    return all(u[j] == v[h] and v[j] == u[h] for j in range(h + 1, len(u)))


@dataclass(frozen=True)
class PermutationSymmetry:
    """A permutation of the alphabet, applied to every digit at once."""

    pi: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.pi) != list(range(len(self.pi))):
            raise ValueError(f"not a permutation of 0..{len(self.pi) - 1}: {self.pi}")


def apply_symmetry(pi: PermutationSymmetry, v: Sequence[int]) -> Vertex:
    for d in v:
        if not 0 <= d < len(pi.pi):
            raise ValueError(f"digit {d} outside the permutation's domain")
    return tuple(pi.pi[d] for d in v)


def corners(n: int, m: int) -> list[Vertex]:
    """The m constant vertices i^n, the only degree-(m-1) vertices of S(n,m)."""
    _check_params(n, m)
    return [(i,) * n for i in range(m)]


def km_decomposition(n: int, m: int) -> list[list[Vertex]]:
    """The blocks of the unique partition of E(S(n,m)) into m-cliques.

    Each block holds the m vertices sharing an (n-1)-digit prefix; S(n,m)
    restricted to a block is complete, and every other edge crosses blocks.
    """
    _check_scale(n, m)
    vs = list(product(range(m), repeat=n))  # in code order: a prefix owns m consecutive codes
    return [vs[p : p + m] for p in range(0, m**n, m)]
