"""build-query: construct graphs from closed-form edge sets, then read them.

Loads kernels (edge generation) and graphs (canonicalization on write,
has_edge and degrees on read). A round mixes graphs that fit in L2 with
graphs that do not, in fixed shares: the small ones hold the median
request, the S(11,3) builds hold the 90th percentile, and one S(12,3)
build (531441 vertices) sits above it.
"""
from __future__ import annotations

import random

import numpy as np

import oracle
import sierham.graphs
from common import Request
from oracle import expect

BUILDERS = {
    "sierpinski": "build_sierpinski",
    "single-twist": "build_single_twist",
    "hamming": "build_hamming",
}

# (kind, n, m, copies per round). Shares of the 20 requests in a round:
# 40% are ~1.3 ms builds of 729-1024 vertices, 20% are K_3^6 (the median
# falls in the middle of these), 15% are ~2*10^4-vertex builds, 20% are
# 177147-vertex S(11,3) and single-twist builds (the 90th percentile falls
# among the S(11,3) ones), and 5% is one 531441-vertex S(12,3). Times are
# from a 2-vCPU Intel Xeon (2 MiB L2 per core), Python 3.11, numpy 2.4.
ROUND = (
    ("sierpinski", 6, 3, 2),
    ("single-twist", 6, 3, 2),
    ("sierpinski", 5, 4, 2),
    ("single-twist", 5, 4, 2),
    ("hamming", 6, 3, 4),
    ("sierpinski", 9, 3, 1),
    ("single-twist", 9, 3, 1),
    ("hamming", 7, 3, 1),
    ("single-twist", 11, 3, 2),
    ("sierpinski", 11, 3, 2),
    ("sierpinski", 12, 3, 1),
)
TAIL_PCT = 90
EDGE_SAMPLE = 16  # edge rows per graph checked against the edge rule


def _edge_of(kind: str, n: int, m: int, rng: random.Random) -> tuple:
    """A seeded pair that is an edge by the closed-form rule."""
    if kind == "hamming":
        u = [rng.randrange(m) for _ in range(n)]
        v = list(u)
        pos = rng.randrange(n)
        v[pos] = (u[pos] + rng.randrange(1, m)) % m
        return tuple(u), tuple(v)
    h = rng.randrange(n)
    prefix = [rng.randrange(m) for _ in range(h)]
    i, j = rng.sample(range(m), 2)
    tail = n - h - 1
    if kind == "sierpinski":
        return tuple(prefix + [i] + [j] * tail), tuple(prefix + [j] + [i] * tail)
    k = (i + j) % m
    return tuple(prefix + [i] + [k] * tail), tuple(prefix + [j] + [k] * tail)


class Workload:
    name = "build-query"
    tail_pct = TAIL_PCT

    def __init__(self) -> None:
        self.expected = {
            (kind, n, m): (oracle.edge_count(kind, n, m), oracle.degree_histogram(kind, n, m))
            for kind, n, m, _ in ROUND
        }

    def request(self, kind: str, n: int, m: int, rng: random.Random) -> Request:
        queries = [_edge_of(kind, n, m, rng) for _ in range(2)]
        for _ in range(2):
            queries.append(tuple(tuple(rng.randrange(m) for _ in range(n)) for _ in range(2)))
        truth = [oracle.edge_rows_ok(kind, [(oracle.code_of(u, m), oracle.code_of(v, m))], n, m)
                 for u, v in queries]
        sample_seed = rng.randrange(2**32)
        edges, hist = self.expected[(kind, n, m)]

        def run():
            g = getattr(sierham.graphs, BUILDERS[kind])(n, m)
            answers = [g.has_edge(u, v) for u, v in queries]
            return g, answers, g.degrees()

        def check(out):
            g, answers, degrees = out
            expect(g.num_edges == edges, f"{kind}({n},{m}) has {g.num_edges} edges, expected {edges}")
            expect(oracle.histogram(degrees) == hist, f"{kind}({n},{m}) degree multiset differs")
            expect(answers == truth, f"{kind}({n},{m}) has_edge answers {answers}, expected {truth}")
            key = g.edges[:, 0] * m**n + g.edges[:, 1]
            expect(bool((np.diff(key) > 0).all()), f"{kind}({n},{m}) edges are not sorted and unique")
            idx = np.random.default_rng(sample_seed).integers(0, edges, EDGE_SAMPLE)
            expect(oracle.edge_rows_ok(kind, g.edges[idx], n, m), f"{kind}({n},{m}) lists a non-edge")

        return Request(f"{kind}-{n}-{m}", run, check)

    def round(self, rng: random.Random) -> list[Request]:
        return [
            self.request(kind, n, m, rng)
            for kind, n, m, copies in ROUND
            for _ in range(copies)
        ]

    def warmup(self, rng: random.Random) -> Request:
        kind, n, m, _ = ROUND[0]
        return self.request(kind, n, m, rng)

    def dispatch(self, rng: random.Random) -> list[Request]:
        return []
