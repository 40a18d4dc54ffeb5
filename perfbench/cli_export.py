"""cli-export: whole `python -m sierham.cli ...` invocations, one at a time.

The only workload that pays interpreter start-up on every request. It also
loads the write path of serialize. Each round runs every command class
once; three of them are oversize requests: two the guards refuse with exit
code 2, and `hanoi classic --n 30`, which has no guard and runs past the
timeout (it counts as failed until a guard answers it with exit code 2).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import statistics
import sys
from pathlib import Path

import numpy as np

import oracle
import sierham.cli
from common import ChildResult, Request, run_child
from oracle import expect

ROOT = Path(__file__).resolve().parent.parent
TAIL_PCT = 80
IMPORT_PROBE = "import time; t = time.perf_counter(); import sierham.cli; print(time.perf_counter() - t)"

GEN = (  # kind, n, m, format
    ("sierpinski", 6, 3, "text"),
    ("single-twist", 5, 3, "csv"),
    ("hamming", 4, 4, "json"),
    ("sierpinski", 4, 5, "dot"),
    ("single-twist", 4, 4, "edgelist"),
)
CHECKS = {
    "single-twist": (
        "all_edges_distance_one", "edge_count_matches",
        "degree_sequence_matches", "isomorphic_to_sierpinski",
    ),
    "map": ("is_bijection", "all_edges_distance_one", "edge_count_preserved"),
}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(argv: list[str]) -> ChildResult:
    return run_child([sys.executable, "-m", "sierham.cli", *argv], child_env(), str(ROOT))


def run_in_process(argv: list[str]) -> ChildResult:
    """The same argv through sierham.cli.main, without a new interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sierham.cli.main(argv)
    return ChildResult(code, out.getvalue(), err.getvalue(), 0, False)


def import_ms(repeats: int = 3) -> float:
    """Median time of a fresh `import sierham.cli`, interpreter start excluded."""
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    return 1e3 * statistics.median(
        float(run_child(cmd, child_env(), str(ROOT)).out) for _ in range(repeats)
    )


def _lines(res: ChildResult, code: int) -> list[str]:
    expect(res.code == code, f"exit code {res.code}, expected {code}: {res.err.strip()[:200]}")
    expect(res.out.endswith("\n"), "output does not end with a newline")
    return res.out.splitlines()


def _codes(words, n: int, m: int) -> np.ndarray:
    words = list(words)
    expect(all(len(w) == n for w in words), "a vertex has the wrong number of digits")
    return np.array([int(w, m) for w in words], np.int64)


def _digits(words, n: int) -> np.ndarray:
    rows = np.array([[int(ch) for ch in w] for w in words], np.int64)
    expect(rows.shape[1:] == (n,), "a vertex has the wrong number of digits")
    return rows


def check_graph(kind: str, n: int, m: int, fmt: str, res: ChildResult) -> None:
    lines = _lines(res, 0)
    v, e = m**n, oracle.edge_count(kind, n, m)
    expected_lines = {"text": 1 + e, "csv": 1 + e, "json": 4 * e + 7, "dot": 2 + v + e, "edgelist": e}
    expect(len(lines) == expected_lines[fmt], f"{fmt} output has {len(lines)} lines")
    if fmt == "text":
        expect(lines[0] == f"{kind} graph n={n} m={m} vertices={v} edges={e}", "wrong header")
        pairs = [line.split(" ") for line in lines[1:]]
    elif fmt == "csv":
        expect(lines[0] == "u,v", "wrong csv header")
        pairs = [line.split(",") for line in lines[1:]]
    elif fmt == "json":
        payload = json.loads(res.out)
        expect((payload["n"], payload["m"], payload["kind"]) == (n, m, kind), "wrong json header")
        pairs = payload["edges"]
    elif fmt == "edgelist":
        pairs = [line.split(" ") for line in lines]
    if fmt == "dot":
        expect(lines[0] == f'graph "{kind}_{n}_{m}" {{' and lines[-1] == "}", "wrong dot frame")
        labels = [re.fullmatch(r'  v(\d+) \[label="(\d+)"\];', line) for line in lines[1:1 + v]]
        expect(all(labels), "malformed dot vertex line")
        expect([int(x[1]) for x in labels] == list(range(v)), "dot vertices out of order")
        expect(np.array_equal(_codes((x[2] for x in labels), n, m), np.arange(v)), "wrong dot label")
        matches = [re.fullmatch(r"  v(\d+) -- v(\d+);", line) for line in lines[1 + v:-1]]
        expect(all(matches), "malformed dot edge line")
        rows = np.array([(int(x[1]), int(x[2])) for x in matches], np.int64)
    else:
        expect(all(len(p) == 2 for p in pairs), "an edge line does not hold two vertices")
        rows = np.stack([_codes((p[k] for p in pairs), n, m) for k in (0, 1)], axis=1)
    expect(oracle.edge_rows_ok(kind, rows, n, m), "output lists a non-edge")
    keys = np.unique(rows.min(axis=1) * v + rows.max(axis=1))
    expect(keys.shape[0] == e, "output repeats an edge")
    degrees = np.bincount(rows.ravel(), minlength=v)
    expect(oracle.histogram(degrees) == oracle.degree_histogram(kind, n, m), "wrong degree multiset")


def check_table(n: int, m: int, scales, res: ChildResult) -> None:
    lines = _lines(res, 0)
    expect(len(lines) == m**n, f"map table has {len(lines)} lines")
    cols = [line.split("  ") for line in lines]
    expect(all(len(c) == 2 for c in cols), "a table line does not hold two vertices")
    v = _digits((c[0] for c in cols), n)
    expect(np.array_equal(v, oracle.digits_of(np.arange(m**n), n, m)), "table rows out of order")
    w = _digits((c[1] for c in cols), n)
    expect(np.array_equal(w, oracle.apply_matrix(oracle.map_matrix(scales, m), v, m)), "wrong image")


def check_matrix(n: int, m: int, scales, invert: bool, res: ChildResult) -> None:
    lines = _lines(res, 0)
    expect(len(lines) == n, f"matrix has {len(lines)} lines")
    b = np.array([[int(x) for x in line.split(" ")] for line in lines], np.int64)
    a = oracle.map_matrix(scales, m)
    if invert:
        expect(np.array_equal(a @ b % m, np.eye(n, dtype=np.int64)), "printed inverse is not an inverse")
    else:
        expect(np.array_equal(a, b), "wrong matrix")


def _hanoi_rows(res: ChildResult, n: int, m: int, count: int):
    lines = _lines(res, 0)
    expect(len(lines) == 1 + count, f"table has {len(lines)} lines, expected {1 + count}")
    expect(lines[0].split() == ["ell", f"S({n},{m})", f"T({n},{m})"], "wrong table header")
    cols = [line.split() for line in lines[1:]]
    expect(all(len(c) == 3 for c in cols), "a table line does not hold three columns")
    ells = np.array([int(c[0]) for c in cols], np.int64)
    return ells, _digits((c[1] for c in cols), n), _digits((c[2] for c in cols), n)


def check_classic(n: int, m: int, res: ChildResult) -> None:
    ells, s, t = _hanoi_rows(res, n, m, 2**n)
    expect(np.array_equal(ells, np.arange(2**n)), "steps out of order")
    expect(np.array_equal(s, oracle.binary_rows(ells, n)), "S column is not binary")
    expect(not t[0].any() and (t[-1] == 1).all(), "play does not run from 0^n to 1^n")
    expect(oracle.legal_moves(t, m), "illegal move")


def check_diplomats(n: int, res: ChildResult) -> None:
    ells, s, t = _hanoi_rows(res, n, 5, 2**n)
    expect(np.array_equal(s, oracle.binary_rows(np.arange(2**n), n)), "S column is not binary")
    tau = oracle.map_matrix(oracle.tau_scales(n, 5), 5)
    expect(np.array_equal(t, oracle.apply_matrix(tau, s, 5)), "T column is not tau of S")
    expect((t[-1] == 1).all() and oracle.legal_moves(t, 5), "not a legal play")


def check_solve(start: tuple, moves: int, m: int, res: ChildResult) -> None:
    n = len(start)
    ells, s, t = _hanoi_rows(res, n, m, moves + 1)
    expect(np.array_equal(ells, np.arange(moves, -1, -1)), "steps out of order")
    expect([oracle.distance_to_zero(r) for r in s.tolist()] == ells.tolist(), "S column off the geodesic")
    expect(tuple(t[0].tolist()) == start and not t[-1].any(), "play has wrong ends")
    expect(oracle.legal_moves(t, m), "illegal move")


def check_gray(n: int, res: ChildResult) -> None:
    lines = _lines(res, 0)
    expect(len(lines) == 2**n, f"gray output has {len(lines)} lines")
    w = _digits(lines, n)
    expect(not w[0].any() and oracle.one_bit_steps(w), "not a Gray sequence")
    expect(np.unique(w @ (1 << np.arange(n - 1, -1, -1))).shape[0] == 2**n, "repeated word")


def check_verify(kind: str, n: int, m: int, passes: bool, listed: int, res: ChildResult) -> None:
    lines = _lines(res, 0 if passes else 1)
    checks = CHECKS["single-twist" if kind == "single-twist" else "map"]
    shown = min(5, listed) + (1 if listed > 5 else 0)
    expect(len(lines) == 2 + len(checks) + shown, f"verify printed {len(lines)} lines")
    expect(lines[0] == f"verify {kind} n={n} m={m}", "wrong verify header")
    values = {c: "true" for c in checks}
    if kind == "single-twist":
        values.update(degree_sequence_matches="false", isomorphic_to_sierpinski="false")
    expect(lines[1:1 + len(checks)] == [f"{c}: {values[c]}" for c in checks], "wrong check lines")
    expect(lines[-1] == ("PASS" if passes else "FAIL"), "wrong verdict line")


def check_fixtures(res: ChildResult) -> None:
    lines = _lines(res, 0)
    expect(len(lines) == 6 and lines[-1] == "5/5 fixtures match", "fixtures do not match")
    expect(all(line.startswith("ok ") for line in lines[:5]), "a fixture mismatches")


def check_refused(res: ChildResult) -> None:
    expect(res.code == 2, f"exit code {res.code}, expected a refusal with 2")
    expect(res.out == "" and res.err.startswith("error:"), "refusal without an error message")


class Workload:
    name = "cli-export"
    tail_pct = TAIL_PCT

    def __init__(self) -> None:
        n, m = 4, 3
        bad = sum(c for d, c in oracle.degree_histogram("single-twist", n, m).items() if d not in (m - 1, m))
        self.twist_listed = min(10, bad)

    def commands(self, rng: random.Random) -> list[tuple[str, list[str], object]]:
        """(class, argv, check) for every command class of one round."""
        out = []
        for kind, n, m, fmt in GEN:
            argv = ["gen", kind, "--n", str(n), "--m", str(m), "--format", fmt]
            out.append((f"gen-{fmt}", argv, lambda r, a=(kind, n, m, fmt): check_graph(*a, r)))
        eps = [rng.choice((1, 2, 3, 4)) for _ in range(4)]
        c_list = ",".join(map(str, eps))
        out += [
            ("embed-tau", ["embed", "tau", "--n", "5", "--m", "3"],
             lambda r: check_table(5, 3, oracle.tau_scales(5, 3), r)),
            ("embed-epsilon", ["embed", "epsilon", "--n", "4", "--m", "5", "--c-list", c_list],
             lambda r: check_table(4, 5, oracle.twist_scales(eps, 5), r)),
            ("embed-matrix", ["embed", "phi", "--n", "6", "--m", "5", "--matrix"],
             lambda r: check_matrix(6, 5, [1] * 6, False, r)),
            ("embed-invert", ["embed", "tau", "--n", "6", "--m", "7", "--matrix", "--invert"],
             lambda r: check_matrix(6, 7, oracle.tau_scales(6, 7), True, r)),
            ("hanoi-classic", ["hanoi", "classic", "--n", "10", "--m", "5"], lambda r: check_classic(10, 5, r)),
        ]
        s = [rng.randrange(1, 3) if i % 2 == 0 else 0 for i in range(9)]
        start = tuple(oracle.apply_matrix(oracle.map_matrix(oracle.tau_scales(9, 3), 3), [s], 3)[0].tolist())
        moves = oracle.distance_to_zero(s)
        out += [
            ("hanoi-solve", ["hanoi", "solve", "--from", "".join(map(str, start))],
             lambda r: check_solve(start, moves, 3, r)),
            ("diplomats", ["diplomats", "--n", "9"], lambda r: check_diplomats(9, r)),
            ("gray", ["gray", "--n", "10"], lambda r: check_gray(10, r)),
            ("verify-phi", ["verify", "phi", "--n", "5", "--m", "3"],
             lambda r: check_verify("phi", 5, 3, True, 0, r)),
            ("verify-epsilon", ["verify", "epsilon", "--n", "4", "--m", "5", "--c-list", c_list],
             lambda r: check_verify("epsilon", 4, 5, True, 0, r)),
            ("verify-twist", ["verify", "single-twist", "--n", "4", "--m", "3"],
             lambda r: check_verify("single-twist", 4, 3, False, self.twist_listed, r)),
            ("check-fixtures", ["--check-fixtures"], check_fixtures),
            ("refuse-scale", ["gen", "hamming", "--n", "15", "--m", "3"], check_refused),
            ("refuse-even-tau", ["embed", "tau", "--n", "4", "--m", "4"], check_refused),
            # No guard yet: 2^30 rows. Only a refusal can answer it in time.
            ("unguarded-classic-30", ["hanoi", "classic", "--n", "30"], check_refused),
        ]
        return out

    def round(self, rng: random.Random) -> list[Request]:
        return [Request(cls, lambda a=argv: run_cli(a), check) for cls, argv, check in self.commands(rng)]

    def warmup(self, rng: random.Random) -> Request:
        return self.round(rng)[0]

    def dispatch(self, rng: random.Random) -> list[Request]:
        """One round in process, for per-layer times; the unguarded command
        cannot be interrupted there, so it is left out."""
        return [
            Request(cls, lambda a=argv: run_in_process(a), check)
            for cls, argv, check in self.commands(rng)
            if not cls.startswith("unguarded")
        ]
