"""Tower-of-Hanoi solvers on the halved coordinatization of S(n,m).

A position is an n-tuple whose digit i is the peg holding disc i, with
disc 1 the LARGEST disc (radii shrink as the index grows; most folklore
numbers discs the other way around). For odd m, the halved map tau turns
puzzle positions into S(n,m) coordinates where shortest plays become
graph geodesics: solve by pulling a position back through tau, reading
off the unique geodesic to the all-zero corner in closed form, and
pushing each step forward again. The classic play and the diplomats
schedule are one LinearMap.cube_image call of the tau matrix on the whole
binary cube, a solved play one LinearMap.image call on its geodesic, and
every table stays a digit array up to serialize's writers
(diplomats_table is one (2^n, 2, n) array).

A single move of disc d from peg i to peg j is legal when every smaller
disc sits on peg (i+j)/2 mod m; for m = 3 that is the familiar physical
rule, and both formulations are implemented so tests can compare them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .codes import eta_inverse
from .graphs import (
    MAX_VERTICES, Vertex, _check_params, _check_rows, check_pair, check_vertex, digit_cube,
)
from .maps import _inverse_of_two, embedding_matrix, phi_forward, tau_inverse

HanoiPosition = Vertex


@dataclass(frozen=True, eq=False)
class MovePath:
    """An ordered run of positions, tagged with its coordinatization.

    positions is a read-only (k, n) digit array, k >= 1: int64, or an
    object array of Python ints when the digits do not fit in int64. An
    array passed in is not copied; the path holds a read-only view of it.
    """

    coords: str  # "S" for graph coordinates, "T" for peg-per-disc
    m: int
    positions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.coords not in ("S", "T"):
            raise ValueError(f"coords must be 'S' or 'T', got {self.coords!r}")
        try:
            p = np.asarray(self.positions, np.int64)
        except OverflowError:
            p = np.asarray(self.positions, object)
        if p.ndim != 2 or p.shape[0] == 0:
            raise ValueError("a path holds at least its starting position, as rows of digits")
        if p.size and (p.min() < 0 or p.max() >= self.m):
            raise ValueError(f"a digit is out of range for alphabet {{0..{self.m - 1}}}")
        p = p.view()  # read-only without changing the caller's array
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)

    @property
    def n(self) -> int:
        return self.positions.shape[1]

    @property
    def moves(self) -> int:
        return self.positions.shape[0] - 1


def path_length_to_zero(v: Sequence[int]) -> int:
    """Distance from v to the all-zero corner: sum of 2^(n-i) over nonzero digits.

    Read as one binary numeral, so a start of 10^5 digits costs linear time.
    """
    return int("".join("0" if d == 0 else "1" for d in v) or "0", 2)


def shortest_path_to_zero(v: Sequence[int], m: int) -> MovePath:
    """The unique geodesic from v to 0^n in S(n,m), every step in closed form.

    Digit i carries bit 2^(n-1-i) of d = path_length_to_zero(v). Step k has
    r = d - k moves left; h is the first digit whose bit is set in d and
    clear in r. Step k keeps v before h, has 0 at h, and has v_h at each
    later digit whose bit is set in r; step 0, with no such h, is v.
    """
    n = len(v)
    _check_params(n, m)
    check_vertex(v, n, m)
    d = path_length_to_zero(v)
    if d >= MAX_VERTICES:  # d + 1 positions; 2^k <= d < 2^(k+1)
        count = d + 1 if d < 2**60 else f"more than 2^{d.bit_length() - 1}"
        what = f"a geodesic of {count} positions from a {n}-disc start"
        raise ValueError(f"refusing to build {what} (limit {MAX_VERTICES})")
    shift = np.minimum(np.arange(n - 1, -1, -1), 63)  # r < 2^63 reads 0 past bit 63
    r_bits = ((np.arange(d, -1, -1)[:, None] >> shift) & 1).astype(bool)
    lost = r_bits < np.array([x != 0 for x in v])  # set in d, clear in r
    h = np.where(lost.any(axis=1), lost.argmax(axis=1), n)[:, None]
    index = np.where(r_bits, h, n)  # into (*v, 0): v_h where r keeps the bit, else 0
    np.copyto(index, np.arange(n), where=np.arange(n) < h)
    digits = np.array((*v, 0), np.int64 if m <= 2**63 else object)  # exact past int64
    return MovePath("S", m, digits[index])


def solve_from_position(t: Sequence[int], m: int) -> MovePath:
    """Optimal play from an arbitrary position to all-discs-on-peg-0 (odd m)."""
    check_vertex(t, len(t), m)
    spath = shortest_path_to_zero(tau_inverse(t, m), m)
    return MovePath("T", m, embedding_matrix("tau", len(t), m).image(spath.positions))


def classic_solution(n: int, m: int = 3) -> MovePath:
    """The 2^n - 1 move play carrying all n discs from peg 0 to peg 1 (odd m).

    Position number ell is tau applied to the n-bit binary expansion of
    ell; the untransformed expansions walk the S(n,m) geodesic between the
    two corners in increasing lexicographic order. Refuses more than
    MAX_VERTICES positions before building any of them.
    """
    _check_rows(n, f"the classic solution for n={n}")
    return MovePath("T", m, embedding_matrix("tau", n, m).cube_image(2))


def _check_step(ell: int, i: int, n: int) -> None:
    _check_params(n, 3)  # m = 3, the modulus of both formulas
    if not 0 <= ell < 2**n:
        raise ValueError(f"step index {ell} out of range for n={n}")
    if not 1 <= i <= n:
        raise ValueError(f"disc index {i} out of range for n={n}")


def position_coordinate(ell: int, i: int, n: int) -> int:
    """Digit i of classic-solution position ell for m = 3, by direct formula.

    Evaluates 2^(i-1) times digit i of phi applied to the binary expansion
    of ell, everything mod 3.
    """
    _check_step(ell, i, n)
    return pow(2, i - 1, 3) * phi_forward(eta_inverse(ell, n)[:i], 3)[-1] % 3


def wolfe_coordinate(ell: int, i: int, n: int) -> int:
    """Digit i of classic-solution position ell for m = 3, by the floor formula.

    Twice the digit is ((i mod 2) + 1) * floor((ell + 2^(n-i)) / 2^(n+1-i))
    mod 3; multiply by the inverse of 2 to recover the digit itself. The
    inner power counts positions from the smallest disc, which is why n is
    a genuine input here.
    """
    _check_step(ell, i, n)
    doubled = ((i % 2) + 1) * ((ell + 2 ** (n - i)) // 2 ** (n + 1 - i)) % 3
    return 2 * doubled % 3


def _moved_disc(a: Sequence[int], b: Sequence[int], m: int) -> int | None:
    """The one digit where positions a and b differ, or None if not exactly one."""
    check_pair(a, b, m)
    diffs = [idx for idx in range(len(a)) if a[idx] != b[idx]]
    return diffs[0] if len(diffs) == 1 else None


def is_legal_move(a: Sequence[int], b: Sequence[int], m: int) -> bool:
    """True when a -> b moves one disc legally (odd m, algebraic rule).

    Exactly one digit may change, say disc d going from peg i to peg j;
    every smaller disc (index > d) must sit on peg (i + j) / 2 mod m.
    """
    inv2 = _inverse_of_two(m)
    d = _moved_disc(a, b, m)
    if d is None:
        return False
    k = inv2 * (a[d] + b[d]) % m
    return all(x == k for x in a[d + 1 :])


def is_legal_move_physical(a: Sequence[int], b: Sequence[int]) -> bool:
    """Three-peg physical rule: smaller discs must be clear of both pegs.

    Disc d can move from peg i to peg j when no smaller disc lies on i
    (it would be on top of d) or on j (d would land on it). m = 3 only;
    must agree with is_legal_move there.
    """
    d = _moved_disc(a, b, 3)
    if d is None:
        return False
    return all(x != a[d] and x != b[d] for x in a[d + 1 :])


def diplomats_table(n: int) -> np.ndarray:
    """The five-peg transport schedule, an int64 (2^n, 2, n) digit array:
    [ell, 0] is binary ell and [ell, 1] is step ell of the five-peg classic
    play, its halved-map image over m = 5. Both columns are filled in place."""
    _check_rows(n, f"the classic solution for n={n}")
    tau = embedding_matrix("tau", n, 5)
    table = np.zeros((2**n, 2, n), np.int64)
    digit_cube(n, 2, out=table[:, 0])
    tau.cube_image(2, out=table[:, 1])
    return table


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
