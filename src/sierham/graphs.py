"""Sierpinski graphs S(n,m), Hamming graphs K_m^n, and the single-twist variant.

Vertices are n-tuples over {0,...,m-1}, written most significant digit
first. S(n,m) joins u and v when some position h has equal digits before h,
differing digits at h, and crossed constant tails after h (u carries v_h,
v carries u_h). K_m^n joins tuples at Hamming distance 1. The single-twist
graph replaces the crossed tails with a shared tail k = (i+j) mod m.

Graphs store edges as an (E, 2) array of integer vertex codes,
code(v) = sum(v_i * m**(n-i)), canonically sorted and frozen. Graph checks
that order a ROW_BLOCK of rows at a time and sorts only rows that fail it.
A builder's graph keeps no key array: has_edge asks its kind's edge rule
(exact._neighbors), and any other graph binary-searches its sorted keys.
Constructors refuse instances over 10**7 vertices or, by the closed-form
counts, 3 * 10**7 edges. Those guards and the counting and density
formulas, exact at any size, live in the integer layer (exact), which
imports no numpy; this module re-exports them. In bulk, vertices are rows
of a (k, n) digit array (digit_rows decodes codes). Whole-table passes go
a row_blocks slice at a time, as iter_rows does to yield a table's rows as
tuples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernels
from .exact import (  # re-exported: the guards, counts and vertex codes live in the integer layer
    MAX_EDGES,
    MAX_VERTICES,
    Vertex,
    _check_edges,
    _check_digits,
    _check_graph,
    _check_params,
    _check_scale,
    _check_sierpinski,
    _neighbors,
    check_vertex,
    edge_density,
    hamming_edge_count,
    sierpinski_edge_count,
    vertex_to_code,
)

# rows per row_blocks slice, where a whole-table pass would hold copies, and per
# block of _canonical's check, whose build times were lowest at 32-64 Ki rows
ROW_BLOCK = 1 << 16
MOD_ROWS = 1 << 11  # index rows from which a ModIndex's % pays for its ufunc wrapping


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


def row_codes(rows: np.ndarray, m: int) -> np.ndarray:
    """Inverse of digit_rows: the int64 code of every row of a (k, n) digit array."""
    rows = np.asarray(rows, np.int64)
    return rows @ (m ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64))


class ModIndex(np.ndarray):
    """An index array whose % by a scalar is x - x // m * m: numpy vectorises // but not %.

    The three steps run on a plain view, so only the result pays the subclass's
    ufunc wrapping. That wrapping costs every operation on a ModIndex about a
    microsecond, so below MOD_ROWS rows numpy's own % on a plain array is
    cheaper: the row functions of the tables ran 1.8-1.9x faster on plain
    arrays of 256 rows, alike at 2048 and 1.1-1.4x slower at 4096.
    """

    def __mod__(self, m):
        x = self.view(np.ndarray)
        return (x - x // m * m).view(ModIndex)


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


def check_pair(u: Sequence[int], v: Sequence[int], m: int) -> None:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    check_vertex(u, len(u), m)
    check_vertex(v, len(v), m)


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


def _canonical(e: np.ndarray, size: int) -> bool:
    """Whether int64 rows e are canonical: every endpoint in [0, size), u < v,
    and keys u * size + v strictly ascending.

    Checked a ROW_BLOCK of rows at a time into two block-sized buffers, the
    last key carried across each boundary, so no whole key array is made:
    on a fresh S(12,3) that array alone is 6.4 MB of page faults.
    """
    step = ROW_BLOCK
    keys = np.empty(min(len(e), step) + 1, np.int64)  # keys[0]: the key before the block
    ok = np.empty(len(keys) - 1, bool)
    keys[0] = -1
    for start in range(0, len(e), step):
        block = e[start : start + step]
        t = len(block)
        if block.min() < 0 or block.max() >= size:
            return False
        u, v = block[:, 0], block[:, 1]
        fine, k = ok[:t], keys[1 : t + 1]
        np.less(u, v, out=fine)
        if not fine.all():
            return False
        np.multiply(u, size, out=k)
        k += v
        np.greater(k, keys[:t], out=fine)
        if not fine.all():
            return False
        keys[0] = k[-1]
    return True


class _Fresh(np.ndarray):
    """Kernel rows a builder hands to Graph: held by nothing else, so Graph need not copy them."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable graph on {0,...,m-1}^n with a canonical edge array."""

    n: int
    m: int
    kind: str
    edges: np.ndarray = field(repr=False)
    _built: bool = field(init=False, repr=False)  # edges came as a builder's _Fresh rows

    def __post_init__(self) -> None:
        _check_scale(self.n, self.m)
        size = self.m**self.n
        fresh = isinstance(self.edges, _Fresh)
        e = np.asarray(self.edges)
        if e.size and e.dtype.kind not in "iu":  # refused, not truncated by the cast below
            raise TypeError(f"edge endpoints must be integers, got dtype {e.dtype}")
        if e.size and (e.ndim != 2 or e.shape[1] != 2):
            raise ValueError(f"edges must be an (E, 2) array, got shape {e.shape}")
        e = e.astype(np.int64, copy=False).reshape(-1, 2)
        if _canonical(e, size):
            edges = e if fresh else e.copy()  # canonical already, as every kernel emits it
        else:
            # range first: a negative endpoint could alias the key of a real edge
            if not (0 <= e.min() and e.max() < size):
                raise ValueError("edge endpoint out of vertex range")
            u, v = e[:, 0], e[:, 1]
            if (u == v).any():
                raise ValueError("self-loop in edge list")
            keys = edge_keys(u, v, size)
            edges = np.stack(np.divmod(keys, size), axis=1)
            keys.setflags(write=False)
            object.__setattr__(self, "_keys", keys)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_built", fresh)

    @cached_property
    def _keys(self) -> np.ndarray:
        """The edge_keys of edges: stored by the sorting path, else made on first read."""
        keys = self.edges[:, 0] * self.num_vertices
        keys += self.edges[:, 1]
        keys.setflags(write=False)
        return keys

    @property
    def num_vertices(self) -> int:
        return self.m**self.n

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        """The degree of every vertex, by code, as a fresh int64 array.

        A builder's graph takes them from its kind's closed form
        (kernels.vertex_degrees); any other graph, whatever its kind,
        counts the endpoints of its edges.
        """
        if self._built:
            return kernels.vertex_degrees(self.kind, self.n, self.m)
        return np.bincount(self.edges.ravel(), minlength=self.num_vertices)

    def has_edge(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """Whether u and v are joined, for vertices given as n digits in [0, m).

        Each digit is read once with operator.index and checked. A builder's
        graph looks v's code up among exact._neighbors of u, its kind's edge
        rule; any other graph binary-searches its sorted _keys.
        """
        n, m = self.n, self.m
        u, v = tuple(map(index, u)), tuple(map(index, v))
        _check_digits(u, n, m)
        _check_digits(v, n, m)
        if self._built:
            return vertex_to_code(v, m) in _neighbors(self.kind, u, m)
        a, b = vertex_to_code(u, m), vertex_to_code(v, m)
        key = min(a, b) * self.num_vertices + max(a, b)
        keys = self._keys
        idx = int(np.searchsorted(keys, key))
        return idx < keys.shape[0] and int(keys[idx]) == key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.edges, other.edges)
        )


def _adopt(n: int, m: int, kind: str, rows: np.ndarray) -> Graph:
    """A builder's Graph on its kernel's fresh rows: the same checks, without the
    copy, and degrees from kind's closed form."""
    return Graph(n, m, kind, rows.view(_Fresh))


def build_sierpinski(n: int, m: int) -> Graph:
    _check_sierpinski(n, m)
    return _adopt(n, m, "sierpinski", kernels.sierpinski_edges(n, m))


def build_hamming(n: int, m: int) -> Graph:
    _check_graph("hamming", n, m)
    return _adopt(n, m, "hamming", kernels.hamming_edges(n, m))


def build_single_twist(n: int, m: int) -> Graph:
    _check_sierpinski(n, m)
    return _adopt(n, m, "single-twist", kernels.single_twist_edges(n, m))


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
    u_j = v_h, v_j = u_h for every j > h: iff v is among exact._neighbors of u.
    """
    check_pair(u, v, m)
    # as Python ints, so that codes of NumPy digits stay exact past int64
    u, v, m = tuple(map(index, u)), tuple(map(index, v)), index(m)
    if u == v:
        raise ValueError("u and v must be distinct")
    return vertex_to_code(v, m) in _neighbors("sierpinski", u, m)


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
