"""Tower-of-Hanoi solvers on the halved coordinatization of S(n,m).

A position is an n-tuple whose digit i is the peg holding disc i, with
disc 1 the LARGEST disc (radii shrink as the index grows; most folklore
numbers discs the other way around). For odd m, the halved map tau turns
puzzle positions into S(n,m) coordinates where shortest plays become
graph geodesics: solve by pulling a position back through tau, reading
off the unique geodesic to the all-zero corner in closed form, and
pushing each step forward again. Every table is one exact.table_array
call, of its definition in exact (classic_table, solve_table) or of
exact.geodesic_step, and stays a digit array up to serialize's writers
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
from .exact import (  # re-exported: the corner search and the geodesic guard need no array
    Vertex, _check_geodesic, _check_params, _inverse_of_two, check_vertex, classic_table,
    constant_corner_search, geodesic_step, path_length_to_zero, phi_forward, solve_table,
    table_array,
)
from .graphs import check_pair

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


def shortest_path_to_zero(v: Sequence[int], m: int) -> MovePath:
    """The unique geodesic from v to 0^n in S(n,m), by exact.geodesic_step."""
    n = len(v)
    _check_params(n, m)
    check_vertex(v, n, m)
    d = _check_geodesic(v)
    return MovePath("S", m, table_array(lambda k: (geodesic_step(k, v, d),), d + 1, m)[:, 0])


def solve_from_position(t: Sequence[int], m: int) -> MovePath:
    """Optimal play from t to all discs on peg 0 (odd m): exact.solve_table's tau images."""
    row, count = solve_table(t, m)
    return MovePath("T", m, table_array(lambda k: row(k)[1:], count, m)[:, 0])


def classic_solution(n: int, m: int = 3) -> MovePath:
    """The 2^n - 1 move play carrying all n discs from peg 0 to peg 1 (odd m).

    Position number ell is tau applied to the n-bit binary expansion of
    ell (exact.map_row); the untransformed expansions walk the S(n,m)
    geodesic between the two corners in increasing lexicographic order.
    Refuses more than MAX_VERTICES positions before building any of them.
    """
    row, count = classic_table(n, m)
    return MovePath("T", m, table_array(lambda ell: row(ell)[1:], count, m)[:, 0])


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
    play, its halved-map image over m = 5 (exact.map_row)."""
    return table_array(*classic_table(n, 5), 5).astype(np.int64)
