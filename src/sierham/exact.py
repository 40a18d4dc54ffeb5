"""The integer layer: the array-free code a command needs before numpy loads.

It holds the size guards and closed-form counts, the maps phi, tau and
epsilon with their inverses and matrices (TwistFamily, twist_family,
LinearMap, embedding_matrix, invert_linear_map), the row rule of
verify_embedding, verify_single_twist, constant_corner_search, the one
edge rule of the three graphs (_neighbors, a vertex's neighbour codes:
graph_edges lists them in code order for gen, in an EdgeList,
verify_single_twist counts them, graphs.is_sierpinski_edge and a built
Graph's has_edge look one up), the vertex text format (_separators,
format_vertex, parse_vertex, vertex_to_code), and the matrix writers
with the two output primitives _lines and _json.

Each table has one row function, integer arithmetic on a row index that is
a Python int or an index array: map_row (the digits of v and their image;
the classic play and the Gray sequence are map_row of binary ell) and
solve_row (geodesic_step and its tau image). classic_table, gray_table and
solve_table define those tables once, for the CLI's table and the library's
table_array: the guards in order, then (row function, row count). table
builds at most SMALL_TABLE rows as Python int tuples, and more as
table_array's array; graph forks gen's graph at SMALL_TABLE edges alike.
This module imports no numpy (only table_array, graph and LinearMap.image
load it), no dataclasses (TwistFamily and LinearMap are __slots__ values),
and json and fractions only when used; graphs, hanoi, maps and serialize
re-export its names. verify_single_twist answers every n from its formula,
and verify_embedding imports maps only when the rows do not decide. _report
builds every verifier's report, here and in maps: the checks as bools,
verdict (every check holds), violations and, when counted, violations_total.

The row rule: an S(n,m) edge at position h between digits i and j has
u - v = (0^h, d, (-d)^(n-h-1)) with d = i - j, so a lower-triangular map A
sends it to d * c_h mod m, with c_h = A[:,h] - sum_{k>h} A[:,k]. The
Hamming distance of the two images is the number of nonzero entries of
d * c_h, the same for all m^h prefixes. Entry h of c_h is the unit
A[h][h], so A embeds S(n,m) exactly when every entry of c_h past h is 0,
that is when A[r][k] = 2^(r-1-k) A[r][r] (mod m) for every k < r: the
twist family whose scales are the diagonal.
"""
from __future__ import annotations

import math
from itertools import accumulate, product, repeat
from operator import index, mul
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

Vertex = tuple[int, ...]
VertexMap = Callable[[Vertex], Vertex]

MAX_VERTICES = 10**7
MAX_EDGES = 3 * 10**7
# CLI tables and gen graphs of at most this many rows or edges are built as Python
# ints: importing numpy costs about as much as formatting this many rows.
SMALL_TABLE = 2**12
MAX_CELLS = 23 * 2**23  # digits in the largest classic play the row guard admits


def vertex_to_code(v: Sequence[int], m: int) -> int:
    """The code sum(v_i * m**(n-i)) as a Python int, each digit read with operator.index:
    exact past int64 for NumPy digits too."""
    c, m = 0, index(m)
    for d in v:
        c = c * m + index(d)
    return c


def _check_digits(v: Sequence, n: int, m: int) -> None:
    """n digits in [0, m), compared as they are: vertex-map outputs, read as their int64 values."""
    if len(v) != n:
        raise ValueError(f"expected {n} digits, got {len(v)}")
    for d in v:
        if not 0 <= d < m:
            raise ValueError(f"digit {d} out of range for alphabet {{0..{m - 1}}}")


def check_vertex(v: Sequence[int], n: int, m: int) -> None:
    """n integer digits in [0, m): a float digit raises TypeError (operator.index), as in LinearMap."""
    _check_digits(list(map(index, v)), n, m)


def _check_modulus(m: int) -> None:
    if index(m) < 2:
        raise ValueError(f"m must be >= 2, got {m}")


def _check_params(n: int, m: int) -> None:
    if index(n) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_modulus(m)


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


def _check_rows(n: int, what: str) -> None:
    """Refuse a table of 2^n rows, more than MAX_VERTICES, before computing it."""
    if n >= MAX_VERTICES.bit_length() or 2**n > MAX_VERTICES:
        raise ValueError(
            f"refusing to build {_power_text(2, n)} rows of {what} (limit {MAX_VERTICES})"
        )


def _check_matrix(n: int) -> None:
    """Refuse an n x n matrix of more than MAX_VERTICES entries before building a row."""
    if n * n > MAX_VERTICES:
        raise ValueError(f"refusing to build a {n}x{n} matrix (limit {MAX_VERTICES} entries)")


def _check_adds(adds: int, what: str) -> None:
    """Refuse more than MAX_VERTICES multiply-adds, `what` naming them, before the first."""
    if adds > MAX_VERTICES:
        raise ValueError(f"refusing to build {what} = {adds} multiply-adds (limit {MAX_VERTICES})")


def _check_edges(n: int, m: int, count: int) -> None:
    if count > MAX_EDGES:
        raise ValueError(
            f"refusing to build a graph with {count} edges on {m}^{n} vertices "
            f"(limit {MAX_EDGES}); the counting formulas remain available"
        )


def _check_sierpinski(n: int, m: int) -> None:
    """The guards of S(n,m), and of the single twist, which has one edge per S(n,m) edge."""
    _check_scale(n, m)
    _check_edges(n, m, sierpinski_edge_count(n, m))


def _check_graph(kind: str, n: int, m: int) -> int:
    """The guards of K_m^n ("hamming"), or else of S(n,m) and the single
    twist, in their builders' order; returns the graph's edge count."""
    if kind != "hamming":
        _check_sierpinski(n, m)
        return sierpinski_edge_count(n, m)
    _check_scale(n, m)
    count = hamming_edge_count(n, m)
    _check_edges(n, m, count)
    return count


def sierpinski_edge_count(n: int, m: int) -> int:
    """|E(S(n,m))| = (m^(n+1) - m) / 2, exact at any size."""
    _check_params(n, m)
    return (m ** (n + 1) - m) // 2


def hamming_edge_count(n: int, m: int) -> int:
    """|E(K_m^n)| = n (m-1) m^n / 2, exact at any size."""
    _check_params(n, m)
    return n * (m - 1) * m**n // 2


class EdgeList(NamedTuple):
    """A gen graph as the serialize graph writers read it: Graph's n, m, kind
    and edges, with the edges a list of graph_edges' code pairs."""

    n: int
    m: int
    kind: str
    edges: list[tuple[int, int]]


def _neighbors(kind: str, x: Sequence[int], m: int) -> list[int]:
    """The codes of vertex x's neighbours in S(n,m), the single twist or K_m^n, ascending.

    K_m^n changes one digit. S(n,m) and the twist change the last digit k,
    and join x = p i k^r to p j t^r when j != i, where j = k and t = i in
    S(n,m), j = k - i mod m and t = k in the twist: S(n,m) at the end of x's
    trailing run of k alone, the twist for each r while the digit before
    the run still equals k.
    """
    if kind not in ("sierpinski", "single-twist", "hamming"):
        raise ValueError(f"unknown graph kind {kind!r}")
    c, k, w = vertex_to_code(x, m), x[-1], 1
    if kind == "hamming":  # each digit i, of weight w, takes all m values: x itself once per digit
        out = []
        for i in reversed(x):
            lo = c - i * w
            out += range(lo, lo + m * w, w)
            w *= m
        out.sort()
        at = out.index(c)
        del out[at : at + len(x)]
        return out
    out = [c + s - k for s in range(m) if s != k]
    for i in reversed(x[:-1]):
        w *= m  # m^r
        j, t = (k, i) if kind == "sierpinski" else ((k - i) % m, k)
        if j != i:
            out.append(c + (j - i) * w + (t - k) * ((w - 1) // (m - 1)))
        if i != k:
            break
    return sorted(out)


def graph_edges(kind: str, n: int, m: int) -> list[tuple[int, int]]:
    """The edge codes of S(n,m), K_m^n or the single twist, as the kernels emit them:
    each vertex u in code order with its larger _neighbors. Runs no guard: graph
    runs _check_graph before it calls this."""
    vertices = enumerate(product(range(m), repeat=n))
    return [(u, w) for u, x in vertices for w in _neighbors(kind, x, m) if w > u]


def edge_density(n: int, m: int) -> Fraction:
    """Density of S(n,m)'s clique blocks inside K_m^n: exactly 1/n.

    The m^(n-1) blocks of the clique decomposition each fill a complete
    line of the host, which has n * m^(n-1) lines in all; equivalently the
    block (interior) edges occupy m^n (m-1)/2 of the n m^n (m-1)/2 host
    edges. Exact at any size.
    """
    _check_params(n, m)
    from fractions import Fraction

    return Fraction(1, n)


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


def _unscale_and_subtract(w: Sequence[int], m: int, unscales: Iterable[int]) -> Vertex:
    """epsilon_inverse of the family whose s_i^(-1) are unscales: phi's are 1, tau's 2^(i-1)."""
    out = []
    s = 0  # sum_{j<i} s_j^(-1) w_j mod m
    for p, d in zip(unscales, w):
        x = p * d
        out.append((x - s) % m)
        s = (s + x) % m
    return tuple(out)


def phi_inverse(w: Sequence[int], m: int) -> Vertex:
    """Inverse of phi_forward: v_i = (w_i - sum_{j<i} w_j) mod m."""
    return _unscale_and_subtract(w, m, repeat(1))


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
    return _unscale_and_subtract(t, m, accumulate(repeat(2), lambda p, two: p * two % m, initial=1))


def path_length_to_zero(v: Sequence[int]) -> int:
    """Distance from v to the all-zero corner: sum of 2^(n-i) over nonzero digits.

    Read as one binary numeral, so a start of 10^5 digits costs linear time.
    """
    return int("".join("0" if d == 0 else "1" for d in v) or "0", 2)


def _check_geodesic(v: Sequence[int]) -> int:
    """Refuse the geodesic from v to 0^n past MAX_VERTICES positions or MAX_CELLS digits."""
    d = path_length_to_zero(v)
    if d >= MAX_VERTICES:  # d + 1 positions; 2^k <= d < 2^(k+1)
        count = d + 1 if d < 2**60 else f"more than 2^{d.bit_length() - 1}"
        what = f"a geodesic of {count} positions from a {len(v)}-disc start"
        raise ValueError(f"refusing to build {what} (limit {MAX_VERTICES})")
    if (d + 1) * len(v) > MAX_CELLS:
        what = f"a geodesic of {d + 1} positions of {len(v)} digits"
        raise ValueError(f"refusing to build {what} (limit {MAX_CELLS} digits)")
    return d


def geodesic_step(k, v: Sequence[int], d: int) -> list:
    """The digits of step k of the geodesic from v to 0^n, d = path_length_to_zero(v).

    Digit i carries bit 2^(n-1-i) of d. With r = d - k moves left and h the
    first digit whose bit is set in d and clear in r, step k keeps v before
    h, has 0 at h, and v_h at each later digit whose bit is set in r: digit
    i is bit i of r times w_i, which is v_i while d and r agree above digit
    i (i <= h), else w_(i-1). Digits above d's top bit stay Python int 0s.
    """
    n, top = len(v), d.bit_length()
    r = d - k
    apart = d ^ r  # below 2^top, and its top bit is digit h's
    ones = (1 << top) - 1
    digits, w = [0] * (n - top), 0
    for i in range(n - top, n):
        s = n - 1 - i
        agree = 1 - ((apart >> (s + 1)) + ones >> top)  # 1 when apart >> (s + 1) is 0
        w = agree * v[i] + (1 - agree) * w
        digits.append((r >> s & 1) * w)
    return digits


class _Value:
    """An immutable value: __init__ sets the slots, later assignment raises.

    Equality, hash and repr read the public fields, which are also the
    constructor's arguments (so copy and pickle rebuild through __init__).
    Instances compare equal only within one class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class TwistFamily(_Value):
    """One invertible multiplier per recursion level, defining one epsilon map.

    The level multipliers (c_1,...,c_n) combine into a single unit scale per
    output coordinate: coordinate 1 is scaled by c_1 * c_2^(-1), coordinate
    i >= 2 by c_2 * c_3 * ... * c_i (a lone level, n = 1, scales by 1). The
    all-ones family is phi, the all-2^(-1) family is tau, and distinct
    multiplier tuples give distinct maps.
    """

    __slots__ = ("m", "multipliers", "_scales", "_inverse")
    _fields = ("m", "multipliers")
    m: int
    multipliers: tuple[int, ...]

    def __init__(self, m: int, multipliers: Sequence[int]) -> None:
        _check_modulus(m)
        if len(multipliers) < 1:
            raise ValueError("need at least one multiplier")
        cs = tuple(c % m for c in multipliers)
        for c in cs:
            if math.gcd(c, m) != 1:
                raise ValueError(f"multiplier {c} is not invertible mod {m}")
        scales = [1] if len(cs) == 1 else [cs[0] * pow(cs[1], -1, m) % m]
        acc = 1
        for c in cs[1:]:
            acc = acc * c % m
            scales.append(acc)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "multipliers", cs)
        object.__setattr__(self, "_scales", tuple(scales))
        object.__setattr__(self, "_inverse", tuple(pow(s, -1, m) for s in scales))

    def scales(self) -> tuple[int, ...]:
        return self._scales

    def inverse_scales(self) -> tuple[int, ...]:
        return self._inverse


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


def epsilon_inverse(w: Sequence[int], tw: TwistFamily) -> Vertex:
    """Inverse of epsilon_forward: v_i = (s_i^(-1) w_i - sum_{j<i} s_j^(-1) w_j) mod m."""
    if len(w) != len(tw.multipliers):
        raise ValueError(
            f"vertex has {len(w)} digits, twist family has {len(tw.multipliers)} levels"
        )
    return _unscale_and_subtract(w, tw.m, tw.inverse_scales())


class LinearMap(_Value):
    """Lower-triangular matrix over Z_m; row i gives output coordinate i.

    Entries are integers, stored reduced mod m as Python ints: a NumPy
    integer is accepted, and a float raises TypeError (operator.index).
    """

    __slots__ = ("m", "rows")
    _fields = ("m", "rows")
    m: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, m: int, rows: Sequence[Sequence[int]]) -> None:
        n = len(rows)
        _check_params(n, m)
        norm = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("matrix must be square")
            row = tuple([index(x) % m for x in row])  # a list is built faster than a generator
            if any(row[i + 1 :]):
                raise ValueError(f"row {i + 1} has a nonzero entry above the diagonal")
            if math.gcd(row[i], m) != 1:
                raise ValueError(
                    f"diagonal entry {row[i]} in row {i + 1} is not invertible mod {m}"
                )
            norm.append(row)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.rows)

    def image(self, rows):
        """The images of the rows of a (k, n) digit array: rows @ A.T mod m, a numpy array.

        Digits must lie in [0, m). Every dot product is below n (m-1)^2, so
        the arithmetic runs in int64 while that bound is under 2^63, and in
        exact Python integers (an object array) beyond it.
        """
        import numpy as np

        dtype = np.int64 if self.n * (self.m - 1) ** 2 < 2**63 else object
        out = np.asarray(rows, dtype) @ np.array(self.rows, dtype).reshape(self.n, self.n).T
        out %= self.m
        return out

    def apply(self, v: Sequence[int]) -> Vertex:
        """The image of one vertex, A v mod m, in exact Python integers."""
        check_vertex(v, self.n, self.m)
        return tuple(sum(map(mul, row, v)) % self.m for row in self.rows)


def twist_family(kind: str, n: int, m: int) -> TwistFamily:
    """phi (the all-ones family) or tau (the all-2^(-1) one) on n levels mod m.

    Checks n and m, the kind, tau's odd m and the n x n matrix guard, in
    that order, before it builds the family.
    """
    _check_params(n, m)  # the multipliers are reduced mod m
    if kind not in ("phi", "tau"):
        raise ValueError(f"unknown map kind {kind!r}")
    c = 1 if kind == "phi" else _inverse_of_two(m)
    _check_matrix(n)
    return TwistFamily(m, (c,) * n)


def embedding_matrix(
    kind: str | TwistFamily, n: int | None = None, m: int | None = None, invert: bool = False
) -> LinearMap:
    """The matrix of phi, tau or a twist family, or with invert its inverse's, as a LinearMap.

    A named kind is its twist_family; a family is passed alone. Row i has s_i
    2^(i-1-j) mod m at j < i and s_i on the diagonal, or -s_j^(-1) mod m and
    s_i^(-1). Refuses more than MAX_VERTICES entries before building a row.
    """
    if isinstance(kind, TwistFamily):
        _check_matrix(len(kind.multipliers))
        if n is not None or m is not None:
            raise ValueError("a twist family carries its own n and m; pass it alone")
    else:
        if n is None or m is None:
            raise ValueError("n and m are required for named map kinds")
        kind = twist_family(kind, n, m)
    n, m = len(kind.multipliers), kind.m
    if invert:
        diagonal = kind.inverse_scales()
        left = [-u % m for u in diagonal]
        rows = [left[:i] + [u] for i, u in enumerate(diagonal)]
    else:
        powers = [pow(2, k, m) for k in range(n - 1, -1, -1)]
        rows = [[c * p % m for p in powers[n - i :]] + [c] for i, c in enumerate(kind.scales())]
    return LinearMap(m, [row + [0] * (n - 1 - i) for i, row in enumerate(rows)])


def invert_linear_map(lm: LinearMap) -> LinearMap:
    """Inverse of a unit-diagonal lower-triangular matrix mod m.

    Column-by-column forward substitution; the product with the input is
    the identity mod m in either order. Its n(n^2-1)/6 multiply-adds run in
    Python, so more than MAX_VERTICES of them (n >= 392) are refused.
    """
    n, m = lm.n, lm.m
    _check_adds(n * (n * n - 1) // 6, f"the inverse of a {n}x{n} matrix, n(n^2-1)/6")
    a = lm.rows
    inv_diag = [pow(a[i][i], -1, m) for i in range(n)]
    x = [[0] * n for _ in range(n)]
    for c in range(n):
        for i in range(c, n):
            s = (1 if i == c else 0) - sum(a[i][k] * x[k][c] for k in range(c, i))
            x[i][c] = s * inv_diag[i] % m
    return LinearMap(m, tuple(tuple(row) for row in x))


def _digits(x, n: int, base: int) -> list:
    """The n base-`base` digits of x, most significant first: q_k - base q_(k+1), q = x // base^k."""
    out, high = [], 0
    for k in range(n - 1, -1, -1):
        q = x // base**k
        out.append(q - high * base)
        high = q
    return out


def map_row(v, family: TwistFamily, base: int, invert: bool = False) -> tuple[list, Vertex]:
    """Row v of a map table: v's base-`base` digits and their image under family or its inverse."""
    x = _digits(v, len(family.multipliers), base)
    return x, (epsilon_inverse if invert else epsilon_forward)(x, family)


def solve_row(k, v: Sequence[int], d: int, family: TwistFamily) -> tuple[list, Vertex]:
    """Step k of the play solved from v: the geodesic's step and its image under family (tau's)."""
    s = geodesic_step(k, v, d)
    return s, epsilon_forward(s, family)


def classic_table(n: int, m: int) -> tuple[Callable, int]:
    """The classic play's guards, then its row (binary ell, its tau image) and row count."""
    _check_rows(n, f"the classic solution for n={n}")  # before 2^n steps exist
    family = twist_family("tau", n, m)  # then n, m and tau's odd m
    return lambda ell: map_row(ell, family, 2), 2**n


def gray_table(n: int) -> tuple[Callable, int]:
    """The Gray sequence's guards, then its row (phi of binary ell) and row count."""
    _check_rows(n, f"the Gray sequence for n={n}")
    family = twist_family("phi", n, 2)  # then n
    return lambda ell: map_row(ell, family, 2)[1:], 2**n


def solve_table(t: Sequence[int], m: int, coords: str = "T") -> tuple[Callable, int]:
    """The play solved from t (coords T, or S for S(n,m)): its guards, then its row and count."""
    _check_modulus(m)  # m, then tau's odd m, then the digits and the size
    _inverse_of_two(m)
    if not t:
        raise ValueError("empty vertex string")  # as parse_vertex refuses --from ""
    check_vertex(t, len(t), m)
    v = tau_inverse(t, m) if coords == "T" else t
    d = _check_geodesic(v)
    family = twist_family("tau", len(t), m)  # with the n x n matrix guard
    return lambda k: solve_row(k, v, d, family), d + 1


def graph(kind: str, n: int, m: int):
    """gen's graph after its guards: graph_edges up to SMALL_TABLE edges, else the graphs
    builder's, read as an attribute at call time so that a tracer's wrapper sees the call."""
    if _check_graph(kind, n, m) <= SMALL_TABLE:
        return EdgeList(n, m, kind, graph_edges(kind, n, m))
    from . import graphs

    return getattr(graphs, f"build_{kind.replace('-', '_')}")(n, m)


def table(row: Callable, count: int, m: int) -> list:
    """The rows row(x), x < count, with digits below m, one entry per group of columns:
    lists of digit tuples up to SMALL_TABLE rows, without numpy, else table_array's."""
    if count <= SMALL_TABLE:
        return [list(map(tuple, group)) for group in zip(*map(row, range(count)))]
    return list(table_array(row, count, m).swapaxes(0, 1))


def table_array(row: Callable, count: int, m: int):
    """The rows row(x), x < count, with digits below m, as a (count, groups, n) array.

    row returns groups of n digit columns, arrays or (if constant) Python ints,
    for a graphs.row_blocks block of indices of the narrowest dtype that holds
    every value the row functions reach (below 4 count and 2 m^2), else
    object; a block of at least graphs.MOD_ROWS rows comes as a ModIndex. The
    digits go column by column into the narrowest dtype for m.
    """
    import numpy as np

    from .graphs import MOD_ROWS, ModIndex, row_blocks

    bound = max(4 * count, 2 * m * m)
    index = next((t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max), object)
    first = row(0)
    out = np.empty((count, len(first), len(first[0])), np.min_scalar_type(-m), order="F")
    for block in row_blocks(range(count)):
        rows = out[block.start : block.stop]
        x = np.arange(block.start, block.stop, dtype=index)
        if len(x) >= MOD_ROWS:
            x = x.view(ModIndex)
        for g, group in enumerate(row(x)):
            for i, column in enumerate(group):
                rows[:, g, i] = column
    return out


def _edge_differences(lm: LinearMap, n: int, m: int) -> list[list[int]]:
    """c[r][h] = entry r of c_h = A[:,h] - sum_{k>h} A[:,k] mod m, from suffix sums of row r.

    Runs the guards of S(n,m) first, as every verifier does, after checking
    that the matrix is n x n mod m. c[r][h] is 0 for h > r, since A is
    lower triangular, and the unit A[r][r] for h = r.
    """
    if (lm.n, lm.m) != (n, m):
        raise ValueError(f"a {lm.n}x{lm.n} matrix mod {lm.m} does not map S({n},{m})")
    _check_sierpinski(n, m)
    out = []
    for r, row in enumerate(lm.rows):
        diffs = [0] * n
        tail = 0  # sum_{k>h} A[r][k]
        for h in range(r, -1, -1):
            diffs[h] = (row[h] - tail) % m
            tail += row[h]
        out.append(diffs)
    return out


def _report(checks: Mapping[str, object], violations: list, total: int | None = None) -> dict:
    """A verifier's report: each check as a bool, in the order given, then verdict
    (every check holds), violations, and violations_total when total is given."""
    report = {name: bool(ok) for name, ok in checks.items()}
    report["verdict"] = all(report.values())
    report["violations"] = violations
    if total is not None:
        report["violations_total"] = int(total)
    return report


def verify_embedding(vmap: LinearMap | VertexMap | Mapping[Vertex, Vertex], n: int, m: int) -> dict:
    """Check that vmap relabels S(n,m) onto a subgraph of K_m^n.

    A LinearMap whose rows obey the row rule (see the module docstring) is
    an embedding: its unit diagonal makes it a bijection, and a bijection
    that keeps every edge at distance 1 keeps the edge count. That report
    builds no S(n,m). Any other LinearMap, callable or mapping goes to
    maps, which maps every vertex a row_blocks block at a time: a
    LinearMap by LinearMap.image on digit rows, a callable or a mapping
    once per vertex tuple, with each block of outputs checked at once and
    _check_digits' error for the first bad one.

    Report: is_bijection, all_edges_distance_one, edge_count_preserved,
    verdict, violations (at most 10 collisions, every distance violation).
    Bijectivity plus one differing coordinate per edge image certifies an
    isomorphism onto the image, because the edge counts already agree.
    """
    if isinstance(vmap, LinearMap):
        c = _edge_differences(vmap, n, m)
        if not any(any(row[:r]) for r, row in enumerate(c)):
            checks = ("is_bijection", "all_edges_distance_one", "edge_count_preserved")
            return _report(dict.fromkeys(checks, True), [])
    from .maps import _verify_images

    return _verify_images(vmap, n, m)


def verify_single_twist(n: int, m: int) -> dict:
    """maps.verify_coordinatization's report on graphs.build_single_twist(n, m), from digits.

    Every edge of the twist joins digit strings that differ at one place,
    and no two edges coincide, so only the degree and isomorphism gates can
    fail. Both hold exactly when violations_total, the number of vertices of
    degree above m, is 0.

    For n <= 2 it is 0: the twist is S(n,m) relabeled, by the identity for
    n = 1 and by (x, t) -> (x, t - x mod m) for n = 2. That map permutes
    each block x, and so keeps its clique, and sends the twist's bridge
    (i, i + j) -- (j, i + j) to S(2,m)'s bridge (i, j) -- (j, i).

    For n >= 3, count _neighbors. If x ends in exactly t copies of k, its
    partners are one for each r < t when k != 0 (there i = k, and 2k != k)
    and one for r = t < n when 2 x_(n-1-t) != k mod m, 0-based, so deg(x) =
    (m-1) + (t-1) [k != 0] + [t < n] [2 x_(n-1-t) != k]. 1^n has degree
    m + n - 2 > m. A degree above m needs k != 0 and, if t = 2, 2 x_(n-3)
    != k. For each k != 0 that is t = n (one vertex), 3 <= t < n (m^(n-3)
    - 1 vertices in all), or t = 2 (m^(n-3) times the x != k with 2x !=
    k). Summed over k, with g = gcd(2, m) solutions of 2x = 0, there are
    m^(n-3) (m^2 - 2m + g). The sampled violations are the first 10 such
    vertices in code order.
    """
    _check_sierpinski(n, m)
    total = m ** (n - 3) * (m * m - 2 * m + math.gcd(2, m)) if n >= 3 else 0
    violations = []
    for x in product(range(m), repeat=n) if total else ():
        d = len(_neighbors("single-twist", x, m))
        if d > m:
            violations.append({"kind": "degree", "vertex": x, "degree": d, "allowed": [m - 1, m]})
            if len(violations) == 10:
                break
    return _report(
        {
            "all_edges_distance_one": True,
            "edge_count_matches": True,
            "degree_sequence_matches": total == 0,
            "isomorphic_to_sierpinski": total == 0,
        },
        violations,
        total,
    )


def constant_corner_search(m: int, n: int = 2) -> dict:
    """Can S(n,m) be relabeled inside K_m^n keeping every corner constant?

    Odd m: yes, the halved map is a witness. Even m, n = 1: yes, S(1,m) is
    K_m = K_m^1 and the identity keeps every corner. Even m with n >= 3 is
    refused: the argument below is two-dimensional. Even m, n = 2: no.
    Block i of S(2,m) is an m-clique through the corner (i, i), so it lands
    on the row or the column through (i, i); each of the m(m-1)/2 block
    pairs {i, j} then needs one exterior edge joining line i to line j off
    the corners.

    * Two decompositions. A row line and a column line always meet, so the
      lines partition the vertices only when all are rows or all columns.
    * At most m(m-2)/2 edges. With all rows, pair {i, j} needs an edge
      (i, y) - (j, y), y not in {i, j}, and no vertex serves twice. Column
      y holds m - 1 non-corner vertices, an odd count, so it hosts at most
      (m-2)/2 of these edges.
    * The maximum is reached. Number the rows Z_(m-1) plus inf = m - 1.
      Column a in Z_(m-1) takes {a-t, a+t} for 1 <= t <= (m-2)/2, the
      round-robin near-1-factorization of K_(m-1). Column inf takes
      {2t-1, 2t mod (m-1)}, and the column that held that pair takes
      {inf, 2t-1} in its place.
    """
    _check_params(n, m)
    if m % 2 == 1 or n == 1:
        odd = m % 2 == 1
        return {
            "m": m,
            "n": n,
            "exists": True,
            "witness": "tau_forward" if odd else "identity",
            "detail": "the halved map fixes every corner and embeds S(n,m)"
            if odd
            else "S(1,m) is K_m = K_m^1, and the identity keeps every corner",
        }
    if n != 2:
        raise ValueError(
            "the even-m argument is only implemented for n=2; whether "
            "constant-corner relabelings exist for even m and larger n "
            "is not attempted here"
        )
    best = m * (m - 2) // 2
    required = m * (m - 1) // 2
    return {
        "m": m,
        "n": 2,
        "exists": False,
        "witness": None,
        "max_exterior_edges": best,
        "required_exterior_edges": required,
        "decompositions_searched": 2,
        "detail": f"max exterior edges {best} < {required} required",
    }

def _separators(m: int) -> tuple[str, str]:
    """How vertices over {0..m-1} print: (between digits, between fields). Up to
    m = 10 digits are one character, concatenated, and fields space-separated;
    beyond, digits are space-separated and fields tab-separated."""
    return ("", " ") if m <= 10 else (" ", "\t")


def format_vertex(v: Sequence[int], m: int) -> str:
    return _separators(m)[0].join(map(str, v))


def parse_vertex(s: str, m: int, n: int | None = None) -> Vertex:
    """Parse a digit string; accepts spaces or commas between digits for m > 10."""
    s = s.strip()
    if not _separators(m)[0] and " " not in s and "," not in s:
        digits = tuple(int(ch) for ch in s)
    else:
        digits = tuple(int(part) for part in s.replace(",", " ").split())
    if n is not None and len(digits) != n:
        raise ValueError(f"expected {n} digits, got {len(digits)} in {s!r}")
    if not digits:
        raise ValueError("empty vertex string")
    check_vertex(digits, len(digits), m)
    return digits


def _lines(rows: Iterable[Iterable[str]], head: Iterable[str] = (), sep: str = " ") -> str:
    """The head lines, then each row's string cells joined by sep, one row per line."""
    return "\n".join([*head, *map(sep.join, rows)]) + "\n"


def _json(payload: object) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def matrix_to_text(lm: LinearMap) -> str:
    return _lines(map(str, row) for row in lm.rows)


def matrix_to_csv(lm: LinearMap) -> str:
    return _lines((map(str, row) for row in lm.rows), sep=",")


def matrix_to_json(lm: LinearMap) -> str:
    return _json({"m": lm.m, "rows": list(map(list, lm.rows))})
