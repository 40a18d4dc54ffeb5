"""Acceptance gate: eleven exact-integer criteria, one pass/fail line each.

Every check is equality on integers, tuples, or exact fractions; there are
no tolerances anywhere. Run with -s to see the per-criterion lines.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources
from itertools import product

from sierham.cli import run_command
from sierham.codes import eta, gamma, gray_sequence
from sierham.graphs import (
    build_hamming,
    build_sierpinski,
    build_single_twist,
    code_to_vertex,
    corners,
    edge_density,
    sierpinski_edge_count,
    vertex_to_code,
)
from sierham.hanoi import (
    classic_solution,
    constant_corner_search,
    is_legal_move,
    is_legal_move_physical,
    path_length_to_zero,
    position_coordinate,
    wolfe_coordinate,
)
from sierham.maps import (
    TwistFamily,
    compose_linear_maps,
    embedding_matrix,
    epsilon_forward,
    invert_linear_map,
    layout_metrics,
    phi_forward,
    phi_inverse,
    phi_recursive,
    tau_forward,
    verify_coordinatization,
    verify_embedding,
)

import oracles


def run_criterion(num: int, check) -> None:
    try:
        ok = bool(check())
    except Exception:
        print(f"criterion {num}: FAIL")
        raise
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed"


def test_criterion_01_edge_counts_and_degrees():
    def check():
        for n in range(1, 6):
            for m in range(2, 6):
                s = build_sierpinski(n, m)
                k = build_hamming(n, m)
                if s.num_edges != (m ** (n + 1) - m) // 2:
                    return False
                if k.num_edges != n * (m - 1) * m**n // 2:
                    return False
                degs = sorted(int(d) for d in s.degrees())
                if degs != sorted([m - 1] * m + [m] * (m**n - m)):
                    return False
        return True

    run_criterion(1, check)


def test_criterion_02_phi_embeds_and_matches_recursion():
    def check():
        for n in range(1, 5):
            for m in range(2, 6):
                if not verify_embedding(lambda v: phi_forward(v, m), n, m)["verdict"]:
                    return False
                table = phi_recursive(n, m)
                for v, w in table.items():
                    if phi_forward(v, m) != w:
                        return False
                for v in table:
                    if phi_inverse(phi_forward(v, m), m) != v:
                        return False
        return True

    run_criterion(2, check)


def test_criterion_03_single_twist_is_no_coordinatization():
    def check():
        t = build_single_twist(3, 3)
        if t.num_edges != sierpinski_edge_count(3, 3):
            return False
        if int(t.degrees()[vertex_to_code((0, 1, 1), 3)]) != 4:
            return False
        report = verify_coordinatization(t)
        if report["verdict"] or report["degree_sequence_matches"]:
            return False
        offenders = {
            item["vertex"] for item in report["violations"] if item["kind"] == "degree"
        }
        return (0, 1, 1) in offenders

    run_criterion(3, check)


def test_criterion_04_halved_map_matrices():
    def check():
        lm3 = embedding_matrix("tau", 4, 3)
        if lm3.rows != ((1, 0, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (2, 1, 2, 2)):
            return False
        ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        if compose_linear_maps(lm3, lm3).rows != ident:
            return False
        lm5 = embedding_matrix("tau", 4, 5)
        if lm5.rows != ((1, 0, 0, 0), (3, 3, 0, 0), (3, 4, 4, 0), (3, 4, 2, 2)):
            return False
        if invert_linear_map(lm5).rows != (
            (1, 0, 0, 0),
            (4, 2, 0, 0),
            (4, 3, 4, 0),
            (4, 3, 1, 3),
        ):
            return False
        return compose_linear_maps(lm5, lm5).rows != ident

    run_criterion(4, check)


def test_criterion_05_solver_fixtures_byte_exact():
    def check():
        for name, argv in [
            ("solve_1020_m3.txt", ["hanoi", "solve", "--from", "1020"]),
            ("classic_n4_m5.txt", ["hanoi", "classic", "--n", "4", "--m", "5"]),
        ]:
            expected = resources.files("sierham").joinpath("fixtures", name).read_text()
            text, code = run_command(argv)
            if code != 0 or text != expected:
                return False
        return True

    run_criterion(5, check)


def test_criterion_06_distance_formula_and_unique_geodesics():
    def check():
        if path_length_to_zero((1, 2, 1, 0)) != 14:
            return False
        for n in range(1, 7):
            g = build_sierpinski(n, 3)
            adj = oracles.adjacency(g)
            dist = oracles.bfs_distances(adj, 0)
            for code in range(g.num_vertices):
                if path_length_to_zero(code_to_vertex(code, n, 3)) != dist[code]:
                    return False
            if oracles.geodesic_counts(adj, 0) != [1] * g.num_vertices:
                return False
        return True

    run_criterion(6, check)


def test_criterion_07_gray_sequence_and_index_map():
    def check():
        for n in range(1, 17):
            if oracles.as_tuples(gray_sequence(n)) != oracles.reflected_gray(n):
                return False
        for n in range(1, 13):
            for code in range(2**n):
                w = code_to_vertex(code, n, 2)
                if gamma(w) != eta(phi_inverse(w, 2)):
                    return False
        return True

    run_criterion(7, check)


def test_criterion_08_digit_formulas_and_legality():
    def check():
        for n in range(1, 11):
            mp = classic_solution(n, 3)
            for ell in range(2**n):
                pos = mp.positions[ell]
                for i in range(1, n + 1):
                    if position_coordinate(ell, i, n) != pos[i - 1]:
                        return False
                    if wolfe_coordinate(ell, i, n) != pos[i - 1]:
                        return False
            for a, b in zip(mp.positions, mp.positions[1:]):
                if not is_legal_move(a, b, 3):
                    return False
                if not is_legal_move_physical(a, b):
                    return False
        return True

    run_criterion(8, check)


def test_criterion_09_sixteen_distinct_twist_embeddings():
    def check():
        tables = set()
        for cs in product((1, 2, 3, 4), repeat=2):
            tw = TwistFamily(5, cs)
            if not verify_embedding(lambda v: epsilon_forward(v, tw), 2, 5)["verdict"]:
                return False
            tables.add(
                tuple(epsilon_forward(v, tw) for v in oracles.all_vertices(2, 5))
            )
        return len(tables) == 16

    run_criterion(9, check)


def test_criterion_10_corner_fixing_and_even_search():
    def check():
        for m in (3, 5, 7):
            for n in range(1, 6):
                for c in corners(n, m):
                    if tau_forward(c, m) != c:
                        return False
        report = constant_corner_search(4)
        if report["exists"] or report["witness"] is not None:
            return False
        return (
            report["max_exterior_edges"] == 4
            and report["required_exterior_edges"] == 6
        )

    run_criterion(10, check)


def test_criterion_11_layout_and_density():
    def check():
        for n in range(1, 5):
            for m in range(2, 6):
                metrics = layout_metrics(lambda v: phi_forward(v, m), n, m)
                if metrics["wirelength"] != (m ** (n + 1) - m) // 2:
                    return False
                if metrics["bandwidth"] != 1:
                    return False
        for n in range(1, 6):
            for m in range(2, 6):
                if edge_density(n, m) != Fraction(1, n):
                    return False
        return True

    run_criterion(11, check)
