"""verify-solve: the checkers and the Hanoi solvers.

Loads the per-vertex code in maps, hanoi and codes, the exponential
isomorphism search in maps.verify_coordinatization, and the read path of
serialize. kernels and graphs only see graphs of at most 3125 vertices.
Two relabeled S(2,7) searches (about 0.3 s each) per round of 52 requests
put the 98th percentile on the search; the median falls among ~8 ms
checker and solver calls. Times are from a 2-vCPU Intel Xeon, Python
3.11, numpy 2.4.
"""
from __future__ import annotations

import json
import math
import random

import numpy as np

import oracle
import sierham.codes
import sierham.graphs
import sierham.hanoi
import sierham.maps
import sierham.serialize
from common import Request
from oracle import expect
from sierham.maps import TwistFamily, epsilon_forward, phi_forward, tau_forward

TAIL_PCT = 98

# verify_embedding + layout_metrics, for each map on each S(n,m).
CHECK_SIZES = ((4, 3), (5, 3), (6, 3), (7, 3), (4, 5), (5, 5), (4, 7))
CHECK_MAPS = ("phi", "tau", "epsilon", "identity")  # identity is not an embedding
TWIST_SIZES = ((3, 3), (4, 3), (5, 3), (4, 5))  # single twist: never S(n,m)
RELABELED_SIZES = ((3, 3), (4, 3), (2, 5), (2, 7), (2, 7))  # relabeled S(n,m)
CLASSIC = ((8, 3), (10, 5), (12, 7), (14, 3))
SOLVE = ((9, 3), (11, 5), (13, 7))  # start has nonzero S digits at even indices
DIPLOMATS = (8, 11, 14)
GRAY = (8, 11, 14)
COORD_BATCHES = (10, 14)
COORD_BATCH = 256  # (step, disc) pairs per batch


def _units(m: int, count: int, rng: random.Random) -> tuple[int, ...]:
    units = [c for c in range(1, m) if math.gcd(c, m) == 1]
    return tuple(rng.choice(units) for _ in range(count))


def _rows(positions) -> np.ndarray:
    return np.array(positions, np.int64)


def _tau_rows(bits: np.ndarray, n: int, m: int) -> np.ndarray:
    return oracle.apply_matrix(oracle.map_matrix(oracle.tau_scales(n, m), m), bits, m)


def coordinate_batch(pairs, n: int) -> list[tuple[int, int]]:
    """Digit i of classic position ell, by the additive and the floor formula."""
    pos, wolfe = sierham.hanoi.position_coordinate, sierham.hanoi.wolfe_coordinate
    return [(pos(ell, i, n), wolfe(ell, i, n)) for ell, i in pairs]


class Workload:
    name = "verify-solve"
    tail_pct = TAIL_PCT

    def __init__(self) -> None:
        self.sierpinski = {nm: oracle.sierpinski_rows(*nm) for nm in set(RELABELED_SIZES)}
        self.twist_bad = {
            (n, m): sum(c for d, c in oracle.degree_histogram("single-twist", n, m).items()
                        if d not in (m - 1, m))
            for n, m in TWIST_SIZES
        }

    def checker(self, kind: str, n: int, m: int, rng: random.Random) -> Request:
        if kind == "phi":
            f = lambda v: phi_forward(v, m)  # noqa: E731
        elif kind == "tau":
            f = lambda v: tau_forward(v, m)  # noqa: E731
        elif kind == "epsilon":
            tw = TwistFamily(m, _units(m, n, rng))
            f = lambda v: epsilon_forward(v, tw)  # noqa: E731
        else:
            f = tuple
        edges = oracle.edge_count("sierpinski", n, m)

        def run():
            maps = sierham.maps
            return maps.verify_embedding(f, n, m), maps.layout_metrics(f, n, m)

        def check(out):
            report, layout = out
            what = f"{kind} on S({n},{m})"
            if kind == "identity":
                expect(report["is_bijection"] and report["edge_count_preserved"], f"{what}: report {report}")
                expect(not report["all_edges_distance_one"] and not report["verdict"], f"{what} verdict True")
                bad = oracle.identity_bad_edges(n, m)
                expect(len(report["violations"]) == bad, f"{what}: {len(report['violations'])} violations, expected {bad}")
                expect(layout == oracle.identity_layout(n, m), f"{what}: layout {layout}")
            else:
                expect(report["verdict"] and not report["violations"], f"{what}: verdict False")
                expect(layout == {"wirelength": edges, "bandwidth": 1}, f"{what}: layout {layout}")

        return Request(f"check-{kind}-{n}-{m}", run, check)

    def twist(self, n: int, m: int) -> Request:
        def run():
            return sierham.maps.verify_coordinatization(sierham.graphs.build_single_twist(n, m))

        def check(report):
            what = f"single twist ({n},{m})"
            expect(report["all_edges_distance_one"] and report["edge_count_matches"], f"{what}: {report}")
            expect(not report["degree_sequence_matches"] and not report["verdict"], f"{what}: verdict True")
            listed = len(report["violations"])
            expect(listed == min(10, self.twist_bad[(n, m)]), f"{what}: {listed} violations listed")

        return Request(f"twist-{n}-{m}", run, check)

    def relabeled(self, n: int, m: int, rng: random.Random) -> Request:
        """S(n,m) relabeled by phi and seeded unit scales, written as JSON."""
        a = oracle.map_matrix(_units(m, n, rng), m)
        rows = self.sierpinski[(n, m)]
        img = [oracle.apply_matrix(a, oracle.digits_of(rows[:, k], n, m), m) for k in (0, 1)]
        words = [["".join(map(str, r)) for r in side.tolist()] for side in img]
        text = json.dumps({"n": n, "m": m, "kind": "relabeled", "edges": [list(p) for p in zip(*words)]})

        def run():
            g = sierham.serialize.graph_from_json(text)
            return g, sierham.maps.verify_coordinatization(g)

        def check(out):
            g, report = out
            expect(g.num_edges == rows.shape[0], f"relabeled S({n},{m}) read back {g.num_edges} edges")
            expect(report["verdict"] and report["isomorphic_to_sierpinski"], f"relabeled S({n},{m}) rejected")

        return Request(f"relabeled-{n}-{m}", run, check)

    def classic(self, n: int, m: int) -> Request:
        def check(path):
            p = _rows(path.positions)
            expect(p.shape == (2**n, n), f"classic({n},{m}) has {p.shape[0]} positions")
            expect(not p[0].any() and (p[-1] == 1).all(), f"classic({n},{m}) does not run 0^n to 1^n")
            expect(oracle.legal_moves(p, m), f"classic({n},{m}) makes an illegal move")

        return Request(f"classic-{n}-{m}", lambda: sierham.hanoi.classic_solution(n, m), check)

    def solve(self, n: int, m: int, rng: random.Random) -> Request:
        s = [rng.randrange(1, m) if i % 2 == 0 else 0 for i in range(n)]
        start = tuple(_tau_rows(np.array([s]), n, m)[0].tolist())
        moves = oracle.distance_to_zero(s)

        def check(path):
            p = _rows(path.positions)
            expect(path.moves == moves, f"solve {start} took {path.moves} moves, expected {moves}")
            expect(tuple(p[0].tolist()) == start and not p[-1].any(), f"solve {start} has wrong ends")
            expect(oracle.legal_moves(p, m), f"solve {start} makes an illegal move")

        return Request(f"solve-{n}-{m}", lambda: sierham.hanoi.solve_from_position(start, m), check)

    def diplomats(self, n: int) -> Request:
        bits = oracle.binary_rows(np.arange(2**n), n)
        t = _tau_rows(bits, n, 5)

        def check(table):
            expect(len(table) == 2**n, f"diplomats({n}) has {len(table)} rows")
            s_col, t_col = _rows([r[0] for r in table]), _rows([r[1] for r in table])
            expect(np.array_equal(s_col, bits) and np.array_equal(t_col, t), f"diplomats({n}) rows differ")
            expect((t_col[-1] == 1).all() and oracle.legal_moves(t_col, 5), f"diplomats({n}) is not a legal play")

        return Request(f"diplomats-{n}", lambda: sierham.hanoi.diplomats_table(n), check)

    def gray(self, n: int) -> Request:
        def check(seq):
            w = _rows(seq)
            expect(w.shape == (2**n, n) and not w[0].any(), f"gray({n}) has wrong shape or start")
            expect(oracle.one_bit_steps(w), f"gray({n}) changes more than one bit in a step")
            codes = w @ (1 << np.arange(n - 1, -1, -1))
            expect(np.unique(codes).shape[0] == 2**n, f"gray({n}) repeats a word")

        return Request(f"gray-{n}", lambda: sierham.codes.gray_sequence(n), check)

    def coordinates(self, n: int, rng: random.Random) -> Request:
        pairs = [(rng.randrange(2**n), rng.randrange(1, n + 1)) for _ in range(COORD_BATCH)]
        ells = np.array([ell for ell, _ in pairs])
        cols = np.array([i - 1 for _, i in pairs])
        truth = _tau_rows(oracle.binary_rows(ells, n), n, 3)[np.arange(COORD_BATCH), cols].tolist()

        def check(digits):
            expect([d for d, _ in digits] == truth, f"position_coordinate differs for n={n}")
            expect([d for _, d in digits] == truth, f"wolfe_coordinate differs for n={n}")

        return Request(
            f"coordinates-{n}", lambda: coordinate_batch(pairs, n), check,
            span="hanoi", counts={"hanoi.positions": COORD_BATCH},
        )

    def round(self, rng: random.Random) -> list[Request]:
        reqs = [self.checker(k, n, m, rng) for n, m in CHECK_SIZES for k in CHECK_MAPS]
        reqs += [self.twist(n, m) for n, m in TWIST_SIZES]
        reqs += [self.relabeled(n, m, rng) for n, m in RELABELED_SIZES]
        reqs += [self.classic(n, m) for n, m in CLASSIC]
        reqs += [self.solve(n, m, rng) for n, m in SOLVE]
        reqs += [self.diplomats(n) for n in DIPLOMATS]
        reqs += [self.gray(n) for n in GRAY]
        reqs += [self.coordinates(n, rng) for n in COORD_BATCHES]
        return reqs

    def warmup(self, rng: random.Random) -> Request:
        return self.checker("phi", *CHECK_SIZES[0], rng)

    def dispatch(self, rng: random.Random) -> list[Request]:
        return []
