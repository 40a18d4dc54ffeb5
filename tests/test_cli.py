"""End-to-end command checks: exact output, exit codes, fixture parity."""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from sierham import cli, codes, exact, hanoi, kernels
from sierham.cli import FIXTURES, main, run_command
from sierham.graphs import MAX_VERTICES, build_sierpinski, sierpinski_edge_count
from sierham.serialize import graph_from_json


def run(argv):
    return run_command(argv)


# ---------------------------------------------------------------- fixtures


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_matches_live_output(name):
    expected = resources.files("sierham").joinpath("fixtures", name).read_text()
    text, code = run(FIXTURES[name])
    assert code == 0
    assert text == expected


def test_check_fixtures_flag(capsys):
    assert main(["--check-fixtures"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [f"ok        {name}" for name in sorted(FIXTURES)] + ["5/5 fixtures match"]
    assert run_command(["--check-fixtures"]) == (out, 0)


def test_fixture_check_reports_a_mismatch(monkeypatch):
    broken = {**FIXTURES, "classic_n4_m5.txt": ["hanoi", "classic", "--n", "4", "--m", "3"]}
    monkeypatch.setattr(cli, "FIXTURES", broken)
    text, code = run_command(["--check-fixtures"])
    assert code == 1
    assert "MISMATCH  classic_n4_m5.txt\n" in text
    assert text.endswith("\n4/5 fixtures match\n")


# ---------------------------------------------------------------- gen


def test_gen_edgelist_counts():
    text, code = run(["gen", "sierpinski", "--n", "3", "--m", "3", "--format", "edgelist"])
    assert code == 0
    assert len(text.splitlines()) == 39
    text, _ = run(["gen", "hamming", "--n", "1", "--m", "4", "--format", "edgelist"])
    assert text == "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_gen_text_header():
    text, _ = run(["gen", "single-twist", "--n", "3", "--m", "3"])
    assert text.splitlines()[0] == "single-twist graph n=3 m=3 vertices=27 edges=39"


def test_gen_json_reingests():
    text, _ = run(["gen", "sierpinski", "--n", "2", "--m", "4", "--format", "json"])
    assert graph_from_json(text) == build_sierpinski(2, 4)


def test_gen_wide_alphabet():
    text, code = run(["gen", "sierpinski", "--n", "2", "--m", "100", "--format", "edgelist"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == sierpinski_edge_count(2, 100)
    assert lines[0] == "0 0\t0 1"


def test_out_writes_the_file_or_reports_why_not(tmp_path, capsys):
    argv = ["gen", "sierpinski", "--n", "2", "--m", "3"]
    assert main([*argv, "--out", str(tmp_path / "out.txt")]) == 0
    assert (tmp_path / "out.txt").read_text() == run(argv)[0]
    assert run_command([*argv, "--out", str(tmp_path / "run.txt")]) == ("", 0)
    assert (tmp_path / "run.txt").read_text() == run(argv)[0]
    assert main([*argv, "--out", str(tmp_path / "missing" / "out.txt")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


def test_gen_scale_guard(capsys):
    assert main(["gen", "sierpinski", "--n", "8", "--m", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_determinism():
    a, _ = run(["gen", "sierpinski", "--n", "3", "--m", "4", "--format", "json"])
    b, _ = run(["gen", "sierpinski", "--n", "3", "--m", "4", "--format", "json"])
    assert a == b


# ---------------------------------------------------------------- embed


def test_embed_identity_table():
    text, _ = run(["embed", "phi", "--n", "1", "--m", "3"])
    assert text == "0  0\n1  1\n2  2\n"


def test_embed_matrix_csv():
    text, _ = run(["embed", "tau", "--n", "2", "--m", "3", "--matrix", "--format", "csv"])
    assert text == "1,0\n2,2\n"


def test_embed_table_and_inverse_cancel():
    fwd, _ = run(["embed", "tau", "--n", "3", "--m", "5", "--format", "csv"])
    inv, _ = run(["embed", "tau", "--n", "3", "--m", "5", "--format", "csv", "--invert"])
    forward = dict(line.split(",") for line in fwd.splitlines()[1:])
    backward = dict(line.split(",") for line in inv.splitlines()[1:])
    for v, w in forward.items():
        assert backward[w] == v


def test_embed_epsilon_all_ones_is_phi():
    a, _ = run(["embed", "epsilon", "--n", "2", "--m", "5", "--c", "1"])
    b, _ = run(["embed", "phi", "--n", "2", "--m", "5"])
    assert a == b


def test_embed_epsilon_c_list():
    text, code = run(["embed", "epsilon", "--n", "3", "--m", "5", "--c-list", "2,3,4"])
    assert code == 0
    assert len(text.splitlines()) == 125


def test_embed_epsilon_usage_errors(capsys):
    assert main(["embed", "epsilon", "--n", "2", "--m", "5"]) == 2
    assert "needs --c or --c-list" in capsys.readouterr().err
    assert main(["embed", "epsilon", "--n", "3", "--m", "5", "--c-list", "2,3"]) == 2
    assert capsys.readouterr().err == "error: --c-list has 2 entries, expected n=3\n"
    for argv in (["embed", "--c-list", "1,,2"], ["verify", "--c-list", "1,x,2"]):
        assert main([argv[0], "epsilon", "--n", "3", "--m", "5", *argv[1:]]) == 2
        bad = argv[-1].split(",")[1]
        assert capsys.readouterr() == ("", f"error: --c-list entry {bad!r} is not an integer\n")
    assert main(["embed", "epsilon", "--n", "2", "--m", "4", "--c", "2"]) == 2
    assert main(["embed", "epsilon", "--n", "2", "--m", "5", "--c", "2", "--c-list", "2,3"]) == 2
    assert "not allowed with argument --c" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["embed", "tau", "--n", "2", "--m", "3", "--c", "2"],
        ["embed", "phi", "--n", "2", "--m", "3", "--c-list", "1,1", "--matrix"],
        ["verify", "phi", "--n", "2", "--m", "3", "--c-list", "1,1"],
        ["verify", "tau", "--n", "2", "--m", "3", "--c", "2"],
        ["verify", "single-twist", "--n", "2", "--m", "3", "--c", "2"],
    ],
)
def test_multipliers_apply_to_epsilon_only(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --c and --c-list apply to epsilon, not {argv[1]}\n"


def test_embed_tau_even_m(capsys):
    assert main(["embed", "tau", "--n", "3", "--m", "4"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_phi_passes():
    text, code = run(["verify", "phi", "--n", "4", "--m", "4"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "verify phi n=4 m=4"
    assert "is_bijection: true" in lines
    assert lines[-1] == "PASS"


def test_verify_single_twist_fails():
    text, code = run(["verify", "single-twist", "--n", "3", "--m", "3"])
    assert code == 1
    assert text.splitlines()[-1] == "FAIL"
    assert "degree violation: vertex 011 has degree 4, expected 2 or 3" in text


def test_verify_counts_more_violations_from_the_total():
    # the report lists 10 of the 36 degree violations; 5 are printed
    text, _ = run(["verify", "single-twist", "--n", "5", "--m", "3"])
    assert text.splitlines()[-2] == "... and 31 more violations"


def test_verify_single_twist_depth_two_passes():
    text, code = run(["verify", "single-twist", "--n", "2", "--m", "5"])
    assert code == 0
    assert text.splitlines()[-1] == "PASS"


# Every single twist of depth 1 and 2 over 2 to 40 digits, whose report passes
# every check without a graph, and of depth 3 to 8 over 2 to 7 digits with at
# most 10^6 vertices: the two larger ones, S(8,6) and S(8,7), take 0.4 and
# 1.3 GB to build and verify.
TWIST_SIZES = [(n, m) for n in (1, 2) for m in range(2, 41)] + [
    (n, m) for n in range(3, 9) for m in range(2, 8) if m**n <= 10**6
]


@pytest.mark.parametrize("n,m", TWIST_SIZES)
def test_single_twist_report_counts_what_the_graph_report_finds(n, m, monkeypatch):
    from sierham import graphs, maps

    g = graphs.build_single_twist(n, m)
    expected = maps.verify_coordinatization(g)
    report = exact.verify_single_twist(n, m)
    assert report == expected
    assert [(k, type(v)) for k, v in report.items()] == [(k, type(v)) for k, v in expected.items()]
    assert repr(report["violations"]) == repr(expected["violations"])
    assert report["violations_total"] == int((g.degrees() > m).sum())
    text = ["verify", "single-twist", "--n", str(n), "--m", str(m)]
    argvs = [text, text + ["--format", "json"]]
    counted = [run(argv) for argv in argvs]
    monkeypatch.setattr(cli, "verify_single_twist", lambda n, m: expected)
    assert counted == [run(argv) for argv in argvs]


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(2, 6) if m**n <= 2000])
def test_twist_degree_formula_counts_every_vertex(n, m):
    import oracles
    from sierham.graphs import code_to_vertex

    degrees = [0] * m**n
    for edge in oracles.single_twist_edges_loop(n, m):
        for code in edge:
            degrees[code] += 1
    assert [
        len(exact._neighbors("single-twist", code_to_vertex(c, n, m), m)) for c in range(m**n)
    ] == degrees


def test_verify_epsilon():
    text, code = run(["verify", "epsilon", "--n", "2", "--m", "5", "--c", "3"])
    assert code == 0
    assert text.splitlines()[-1] == "PASS"


def test_verify_json():
    text, code = run(["verify", "phi", "--n", "3", "--m", "3", "--format", "json"])
    assert code == 0
    assert json.loads(text)["verdict"] is True


# ---------------------------------------------------------------- hanoi


def test_solve_coordinate_systems_agree():
    # 1210 in graph coordinates is the same play as 1020 in peg coordinates
    a, _ = run(["hanoi", "solve", "--from", "1020"])
    b, _ = run(["hanoi", "solve", "--from", "1210", "--coords", "S"])
    assert a == b


def test_solve_trivial_start():
    text, _ = run(["hanoi", "solve", "--from", "0000"])
    assert text == "ell  S(4,3)  T(4,3)\n  0  0000    0000\n"


def test_solve_names_a_label_that_is_not_digits(capsys):
    assert main(["hanoi", "solve", "--from", "12a"]) != 0
    assert capsys.readouterr() == ("", "error: invalid digit 'a' in vertex '12a'\n")


def test_solve_csv():
    text, _ = run(["hanoi", "solve", "--from", "21", "--format", "csv"])
    lines = text.splitlines()
    assert lines[0] == "ell,s,t"
    assert lines[-1] == "0,00,00"


def test_solve_json_row_schema():
    text, _ = run(["hanoi", "solve", "--from", "1020", "--format", "json"])
    payload = json.loads(text)
    assert payload["n"] == 4 and payload["m"] == 3
    assert payload["rows"][0] == {"ell": 14, "s": "1210", "t": "1020"}
    assert payload["rows"][-1] == {"ell": 0, "s": "0000", "t": "0000"}


def test_classic_two_discs_table():
    text, _ = run(["hanoi", "classic", "--n", "2", "--m", "3"])
    assert text == (
        "ell  S(2,3)  T(2,3)\n"
        "  0  00      00\n"
        "  1  01      02\n"
        "  2  10      12\n"
        "  3  11      11\n"
    )


def test_classic_even_m(capsys):
    assert main(["hanoi", "classic", "--n", "3", "--m", "2"]) == 2
    assert "no multiplicative inverse of 2 mod 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["hanoi", "classic", "--n", "3", "--m", "1"],
        ["embed", "phi", "--n", "3", "--m", "1", "--matrix"],
        ["embed", "phi", "--n", "3", "--m", "0", "--matrix"],
        ["embed", "tau", "--n", "2", "--m", "-5", "--matrix"],
        ["embed", "phi", "--n", "0", "--m", "3", "--matrix"],
        ["hanoi", "solve", "--from", "00", "--m", "1"],
        ["hanoi", "classic", "--n", "3", "--m", "-3"],
    ],
)
def test_maps_refuse_n_below_one_and_m_below_two(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_solve_bad_digits(capsys):
    assert main(["hanoi", "solve", "--from", "109"]) == 2
    err = capsys.readouterr().err
    assert "digit 9" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["hanoi", "classic", "--n", "24"],
        ["hanoi", "solve", "--from", "1" * 24],  # tau fixes 1^24: 2**24 rows
        # in S coordinates the play has path_length_to_zero + 1 rows, that
        # is the binary value of the digits plus one: 10**7 + 1 here
        ["hanoi", "solve", "--coords", "S", "--from", format(10**7, "b")],
        ["diplomats", "--n", "24"],
        ["gray", "--n", "24"],
    ],
)
def test_row_guard_refuses_oversize_tables(argv, capsys):
    # 2**24 and 10**7 + 1 rows are the first counts above MAX_VERTICES
    assert MAX_VERTICES == 10**7 < 2**24
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: refusing to build")
    assert f"(limit {MAX_VERTICES})" in err


def test_solve_refusal_names_the_start_by_its_length(capsys):
    # the refusal names a 10**5-digit start by its length, not by its digits
    assert main(["hanoi", "solve", "--coords", "S", "--from", "1" * 100000]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing to build a geodesic of more than 2^99999 positions")
    assert "100000-disc start" in err
    assert len(err) < 200


@pytest.mark.parametrize("coords", ["S", "T"])
def test_solve_refuses_an_even_modulus_before_building_the_geodesic(coords, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the geodesic was built before the modulus check")

    monkeypatch.setattr(hanoi, "shortest_path_to_zero", refuse)
    assert main(["hanoi", "solve", "--coords", coords, "--m", "4", "--from", "1" * 18]) == 2
    assert capsys.readouterr() == ("", "error: no multiplicative inverse of 2 mod 4\n")


# each command beside the library call that builds the same table
REFUSAL_PAIRS = [
    (["hanoi", "classic", "--n", "0"], lambda: hanoi.classic_solution(0)),
    (["hanoi", "classic", "--n", "2", "--m", "1"], lambda: hanoi.classic_solution(2, 1)),
    (["hanoi", "classic", "--n", "3", "--m", "4"], lambda: hanoi.classic_solution(3, 4)),
    (["hanoi", "classic", "--n", "30"], lambda: hanoi.classic_solution(30)),
    (["diplomats", "--n", "0"], lambda: hanoi.diplomats_table(0)),
    (["diplomats", "--n", "24"], lambda: hanoi.diplomats_table(24)),
    (["gray", "--n", "0"], lambda: codes.gray_sequence(0)),
    (["gray", "--n", "-1"], lambda: codes.gray_sequence(-1)),
    (["gray", "--n", "24"], lambda: codes.gray_sequence(24)),
    (["hanoi", "solve", "--from", "12", "--m", "1"], lambda: hanoi.solve_from_position((1, 2), 1)),
    (["hanoi", "solve", "--from", "1020", "--m", "4"], lambda: hanoi.solve_from_position((1, 0, 2, 0), 4)),
    (["hanoi", "solve", "--from", "15", "--m", "4"], lambda: hanoi.solve_from_position((1, 5), 4)),
    (["hanoi", "solve", "--from", "1930"], lambda: hanoi.solve_from_position((1, 9, 3, 0), 3)),
    (["hanoi", "solve", "--from", "1" * 28], lambda: hanoi.solve_from_position((1,) * 28, 3)),
    (["hanoi", "solve", "--m", "13", "--from", "1 13 0"], lambda: hanoi.solve_from_position((1, 13, 0), 13)),
    (["hanoi", "solve", "--from", ""], lambda: hanoi.solve_from_position((), 3)),
]


@pytest.mark.parametrize("argv,build", REFUSAL_PAIRS, ids=[" ".join(a) for a, _ in REFUSAL_PAIRS])
def test_library_tables_refuse_as_their_commands_do(argv, build, capsys):
    # the same guards in the same order: the first refusal reads the same
    with pytest.raises(ValueError) as refused:
        build()
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "phi", "--n", "100000", "--m", "3"],
        ["embed", "tau", "--n", "100000", "--m", "3"],
        ["hanoi", "classic", "--n", "100000"],
        ["gray", "--n", "20000"],
    ],
)
def test_refusals_name_huge_counts_as_powers(argv, capsys):
    # 3^100000 and 2^20000 have more digits than Python converts to a string
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing")
    assert f"^{argv[argv.index('--n') + 1]} " in err


@pytest.mark.parametrize("invert", [False, True])
def test_matrix_guard_refuses_before_building_the_matrix(invert, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the matrix was built past the size guard")

    monkeypatch.setattr(exact, "LinearMap", refuse)  # embedding_matrix's home
    # 3163^2 = 10,004,569 entries is the first square above MAX_VERTICES
    assert 3162**2 <= MAX_VERTICES < 3163**2
    argv = ["embed", "phi", "--n", "3163", "--m", "3", "--matrix"]
    assert main(argv + (["--invert"] if invert else [])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing to build a 3163x3163 matrix")


def test_matrix_guard_refuses_before_building_a_twist_family(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("n multipliers were built past the size guard")

    # --c 2 stands for n multipliers; the refusal comes before they exist
    monkeypatch.setattr(cli, "TwistFamily", refuse)
    assert main(["embed", "epsilon", "--n", "3163", "--m", "3", "--c", "2", "--matrix"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing to build a 3163x3163 matrix")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "sierpinski", "--n", "2", "--m", "1001"],
        ["gen", "hamming", "--n", "23", "--m", "2"],
        ["verify", "epsilon", "--n", "2", "--m", "1001", "--c", "5"],
    ],
)
def test_edge_guard_refuses_oversize_graphs(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an edge kernel ran past the scale guard")

    for name in ("sierpinski_edges", "hamming_edges", "single_twist_edges"):
        monkeypatch.setattr(kernels, name, refuse)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing to build a graph with")


# ---------------------------------------------------------------- the rest


def test_diplomats_table():
    text, _ = run(["diplomats", "--n", "2"])
    assert text == (
        "ell  S(2,5)  T(2,5)\n"
        "  0  00      00\n"
        "  1  01      03\n"
        "  2  10      13\n"
        "  3  11      11\n"
    )


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_diplomats_is_the_five_peg_classic_play(n, fmt):
    diplomats = run(["diplomats", "--n", str(n), "--format", fmt])
    assert diplomats == run(["hanoi", "classic", "--n", str(n), "--m", "5", "--format", fmt])
    assert diplomats[1] == 0


def test_gray_formats():
    bits, _ = run(["gray", "--n", "2"])
    assert bits == "00\n01\n11\n10\n"
    ints, _ = run(["gray", "--n", "2", "--format", "int"])
    assert ints == "0\n1\n3\n2\n"
    both, _ = run(["gray", "--n", "2", "--format", "both"])
    assert both == "00 0\n01 1\n11 3\n10 2\n"


def test_density_output():
    for argv, expected in [
        (["density", "--n", "4", "--m", "3"], "1/4\n"),
        (["density", "--n", "1", "--m", "5"], "1\n"),
        (["density", "--n", "5", "--m", "2"], "1/5\n"),
    ]:
        text, code = run(argv)
        assert (text, code) == (expected, 0)


def test_corners_search_odd():
    text, code = run(["corners-search", "--m", "3"])
    assert code == 0
    assert "exists: true" in text
    assert "witness: tau_forward" in text


def test_corners_search_even():
    text, code = run(["corners-search", "--m", "4"])
    assert code == 0
    assert "exists: false" in text
    assert "max_exterior_edges: 4" in text
    assert "required_exterior_edges: 6" in text


def test_corners_search_json():
    text, _ = run(["corners-search", "--m", "4", "--format", "json"])
    payload = json.loads(text)
    assert payload["exists"] is False
    assert payload["decompositions_searched"] == 2


def test_corners_search_deep_even(capsys):
    assert main(["corners-search", "--m", "4", "--n", "3"]) == 2
    assert "only implemented for n=2" in capsys.readouterr().err


@pytest.mark.parametrize("m", ["2", "4"])
def test_corners_search_even_m_single_disc(m, capsys):
    assert main(["corners-search", "--m", m, "--n", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        f"constant-corner search n=1 m={m}\n"
        "exists: true\n"
        "witness: identity\n"
        "S(1,m) is K_m = K_m^1, and the identity keeps every corner\n"
    )
    text, code = run(["corners-search", "--m", m, "--n", "1", "--format", "json"])
    assert code == 0
    assert json.loads(text)["exists"] is True


@pytest.mark.parametrize("n", ["0", "-5"])
def test_corners_search_rejects_bad_n(n, capsys):
    assert main(["corners-search", "--m", "3", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be >= 1, got {n}\n"


@pytest.mark.parametrize("m, best, required", [(8, 24, 28), (1000, 499000, 499500)])
def test_corners_search_answers_large_even_m_in_time(m, best, required):
    # a fresh interpreter with a timeout, so a search that never returns
    # fails this test instead of stalling the suite
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "sierham.cli", "corners-search", "--m", str(m)],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert proc.returncode == 0
    assert f"max_exterior_edges: {best}\n" in proc.stdout
    assert f"required_exterior_edges: {required}\n" in proc.stdout


# ---------------------------------------------------------------- numpy on demand

# Commands that build no array, each with its exit code: two matrices, seven
# refusals, three verdicts the rows decide, the single twist's verdicts from its
# formula, the corner search, the small tables and graphs that cli-export runs
# (at most exact.SMALL_TABLE rows or edges, built from the closed forms) with
# the fixture check, and each list-path table writer. With them, every command
# of a cli-export round is here; this is the one list of numpy-free commands.
ARRAY_FREE = [
    (["embed", "phi", "--n", "6", "--m", "5", "--matrix"], 0),
    (["embed", "tau", "--n", "6", "--m", "7", "--matrix", "--invert"], 0),
    (["gen", "hamming", "--n", "15", "--m", "3"], 2),
    (["embed", "tau", "--n", "4", "--m", "4"], 2),
    (["hanoi", "classic", "--n", "30"], 2),
    (["verify", "phi", "--n", "5", "--m", "3"], 0),
    (["verify", "epsilon", "--n", "4", "--m", "5", "--c-list", "1,2,3,4"], 0),
    (["verify", "epsilon", "--n", "4", "--m", "5", "--c-list", "3,1,4,2"], 0),
    (["corners-search", "--m", "4"], 0),
    (["verify", "single-twist", "--n", "4", "--m", "3"], 1),
    (["verify", "single-twist", "--n", "1", "--m", "4"], 0),
    (["verify", "single-twist", "--n", "2", "--m", "5"], 0),
    (["hanoi", "solve", "--from", "1" * 28], 2),
    (["hanoi", "solve", "--coords", "S", "--m", "4", "--from", "1020"], 2),
    (["hanoi", "solve", "--from", "12", "--m", "1"], 2),
    (["hanoi", "classic", "--n", "3", "--m", "4"], 2),
    (["embed", "tau", "--n", "5", "--m", "3"], 0),
    (["embed", "tau", "--n", "3", "--m", "5", "--invert"], 0),
    (["embed", "tau", "--n", "3", "--m", "5", "--format", "csv"], 0),
    (["embed", "epsilon", "--n", "4", "--m", "5", "--c-list", "1,2,3,4"], 0),
    (["embed", "epsilon", "--n", "4", "--m", "5", "--c-list", "3,1,4,2"], 0),
    (["hanoi", "classic", "--n", "5", "--format", "json"], 0),
    (["hanoi", "classic", "--n", "10", "--m", "5"], 0),
    (["hanoi", "classic", "--n", "12"], 0),
    (["hanoi", "solve", "--from", "1020"], 0),
    (["hanoi", "solve", "--from", "121012101"], 0),
    (["diplomats", "--n", "9"], 0),
    (["gray", "--n", "10"], 0),
    (["gray", "--n", "10", "--format", "int"], 0),
    (["gray", "--n", "10", "--format", "both"], 0),
    (["--check-fixtures"], 0),
    (["gen", "sierpinski", "--n", "6", "--m", "3", "--format", "text"], 0),
    (["gen", "single-twist", "--n", "5", "--m", "3", "--format", "csv"], 0),
    (["gen", "hamming", "--n", "4", "--m", "4", "--format", "json"], 0),
    (["gen", "sierpinski", "--n", "4", "--m", "5", "--format", "dot"], 0),
    (["gen", "single-twist", "--n", "4", "--m", "4", "--format", "edgelist"], 0),
]
# Run a command as `python -m sierham.cli` runs it, and report what it printed
# and which of numpy and dataclasses (and through it inspect) it imported.
RUN_MODULE = """
import contextlib, io, json, runpy, sys
sys.argv = ["sierham", *json.loads(sys.argv[1])]
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("sierham.cli", run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
print(json.dumps([out.getvalue(), err.getvalue(), code, sorted({"numpy", "dataclasses"} & set(sys.modules))]))
"""


def _child(*args: str) -> str:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv,code", ARRAY_FREE, ids=[" ".join(a) for a, _ in ARRAY_FREE])
def test_array_free_commands_run_without_numpy(argv, code, capsys):
    out, err, exit_code, loaded = json.loads(_child(RUN_MODULE, json.dumps(argv)))
    assert loaded == []
    assert exit_code == code
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def test_importing_the_package_and_the_cli_loads_no_numpy():
    heavy = "{'numpy', 'json', 'fractions', 'dataclasses', 'inspect'}"
    probe = f"import sys, sierham, sierham.cli; print(sorted({heavy} & set(sys.modules)))"
    assert _child(probe) == "[]\n"


def test_main_leaves_the_collector_alone(capsys):
    # only the process entry freezes the heap, once the command has answered
    enabled = gc.isenabled()
    for argv in (["density", "--n", "3", "--m", "3"], ["gen", "sierpinski", "--n", "2", "--m", "3"]):
        assert main(argv) == 0
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,code",
    [
        (["gen", "sierpinski", "--n", "2", "--m", "3"], 0),
        (["verify", "single-twist", "--n", "3", "--m", "3"], 1),
        (["gen", "hamming", "--n", "15", "--m", "3"], 2),
        (["gen", "moebius"], 2),
    ],
)
def test_the_process_entry_answers_as_main(argv, code, capsys):
    # `python -m sierham.cli`, and the console script's call of its entry
    pyproject = Path(__file__).resolve().parents[1].joinpath("pyproject.toml").read_text()
    assert '\nsierham = "sierham.cli:entry"\n' in pyproject
    expected = (main(argv), *capsys.readouterr())
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    console = "import sys; from sierham.cli import entry; sys.exit(entry())"
    for prefix in (["-m", "sierham.cli"], ["-c", console]):
        proc = subprocess.run(
            [sys.executable, *prefix, *argv], capture_output=True, text=True, timeout=60, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


# Each array function a handler calls, with one argv whose handler calls it.
CALLED_BY_ATTRIBUTE = [
    # graphs just above exact.SMALL_TABLE edges (4995, 4374 and 4620), which the
    # array builders build
    ("graphs", "build_sierpinski", ["gen", "sierpinski", "--n", "3", "--m", "10"]),
    ("graphs", "build_hamming", ["gen", "hamming", "--n", "6", "--m", "3"]),
    ("graphs", "build_single_twist", ["gen", "single-twist", "--n", "2", "--m", "21"]),
    # each table handler's one exact.table call, and the array it builds just
    # above exact.SMALL_TABLE rows
    ("exact", "table", ["embed", "tau", "--n", "3", "--m", "5", "--invert"]),
    ("exact", "table", ["hanoi", "classic", "--n", "4"]),
    ("exact", "table", ["hanoi", "solve", "--from", "1020"]),
    ("exact", "table", ["gray", "--n", "4"]),
    ("exact", "table_array", ["hanoi", "classic", "--n", "13"]),
    ("exact", "table_array", ["hanoi", "solve", "--from", "1" * 13]),
    ("exact", "table_array", ["gray", "--n", "13"]),
]


@pytest.mark.parametrize(
    "module,name,argv",
    CALLED_BY_ATTRIBUTE,
    ids=[c[1] if c[0] != "exact" else f"{c[1]}: {' '.join(c[2][:2])}" for c in CALLED_BY_ATTRIBUTE],
)
def test_handlers_call_array_functions_through_their_modules(module, name, argv, monkeypatch):
    # a wrapper put on the defining module sees the call: no handler binds the
    # function when cli is imported
    expected = run(argv)
    home = importlib.import_module(f"sierham.{module}")
    original, calls = getattr(home, name), []

    def recorder(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(home, name, recorder)
    assert run(argv) == expected
    assert calls


# ---------------------------------------------------------------- plumbing


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    assert main(["gen", "sierpinski", "--n", "1", "--m", "3", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == "sierpinski graph n=1 m=3 vertices=3 edges=3"


def test_verify_exit_code_through_main(capsys):
    assert main(["verify", "phi", "--n", "2", "--m", "3"]) == 0
    assert main(["verify", "single-twist", "--n", "3", "--m", "3"]) == 1
    capsys.readouterr()


def test_no_subcommand(capsys):
    assert main([]) == 2
    assert capsys.readouterr() == ("", "error: a subcommand is required (or --check-fixtures)\n")
    with pytest.raises(ValueError, match=r"^a subcommand is required \(or --check-fixtures\)$"):
        run_command([])


def test_unknown_arguments_exit_2(capsys):
    assert main(["gen", "moebius", "--n", "2", "--m", "3"]) == 2
    assert main(["gen", "sierpinski", "--n", "2"]) == 2  # --m missing
    capsys.readouterr()


# ---------------------------------------------------------------- the parser

FORMATS = ("text", "csv", "json")
OUT = {"out": (("--out",), None, None, False)}
# leaf subcommand -> (handler, extra defaults, {dest: (option strings,
# default, choices, required)}), recorded from the parser as first shipped
SURFACE = {
    ("gen",): ("cmd_gen", {}, {
        "kind": ((), None, ("sierpinski", "hamming", "single-twist"), True),
        "n": (("--n",), None, None, True),
        "m": (("--m",), None, None, True),
        "fmt": (("--format",), "text", (*FORMATS, "dot", "edgelist"), False),
        **OUT,
    }),
    ("embed",): ("cmd_embed", {}, {
        "kind": ((), None, ("phi", "tau", "epsilon"), True),
        "n": (("--n",), None, None, True),
        "m": (("--m",), None, None, True),
        "c": (("--c",), None, None, False),
        "c_list": (("--c-list",), None, None, False),
        "matrix": (("--matrix",), False, None, False),
        "invert": (("--invert",), False, None, False),
        "fmt": (("--format",), "text", FORMATS, False),
        **OUT,
    }),
    ("verify",): ("cmd_verify", {}, {
        "kind": ((), None, ("phi", "tau", "epsilon", "single-twist"), True),
        "n": (("--n",), None, None, True),
        "m": (("--m",), None, None, True),
        "c": (("--c",), None, None, False),
        "c_list": (("--c-list",), None, None, False),
        "fmt": (("--format",), "text", ("text", "json"), False),
        **OUT,
    }),
    ("hanoi", "classic"): ("cmd_classic", {}, {
        "n": (("--n",), None, None, True),
        "m": (("--m",), 3, None, False),
        "fmt": (("--format",), "text", FORMATS, False),
        **OUT,
    }),
    ("hanoi", "solve"): ("cmd_solve", {}, {
        "position": (("--from",), None, None, True),
        "coords": (("--coords",), "T", ("S", "T"), False),
        "m": (("--m",), 3, None, False),
        "fmt": (("--format",), "text", FORMATS, False),
        **OUT,
    }),
    ("diplomats",): ("cmd_classic", {"m": 5}, {
        "n": (("--n",), 4, None, False),
        "fmt": (("--format",), "text", FORMATS, False),
        **OUT,
    }),
    ("gray",): ("cmd_gray", {}, {
        "n": (("--n",), None, None, True),
        "fmt": (("--format",), "bits", ("bits", "int", "both"), False),
        **OUT,
    }),
    ("density",): ("cmd_density", {}, {
        "n": (("--n",), None, None, True),
        "m": (("--m",), None, None, True),
        **OUT,
    }),
    ("corners-search",): ("cmd_corners_search", {}, {
        "m": (("--m",), None, None, True),
        "n": (("--n",), 2, None, False),
        "fmt": (("--format",), "text", ("text", "json"), False),
        **OUT,
    }),
}


def _leaf_parsers(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, path + (name,))


def test_every_leaf_subcommand_keeps_its_options():
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert sorted(leaves) == sorted(SURFACE)
    for path, (handler, extra, options) in SURFACE.items():
        parser = leaves[path]
        found = {
            a.dest: (
                tuple(a.option_strings),
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.required,
            )
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert found == options, path
        defaults = dict(parser._defaults)
        assert defaults.pop("run").__name__ == handler, path
        assert defaults == extra, path


# one argv per leaf subcommand of SURFACE: its path, then its options
COMMANDS = {
    ("gen",): ["sierpinski", "--n", "2", "--m", "3", "--format", "dot"],
    ("embed",): ["tau", "--n", "2", "--m", "5", "--format", "csv"],
    ("verify",): ["epsilon", "--n", "3", "--m", "5", "--c-list", "1,2,3"],
    ("hanoi", "classic"): ["--n", "2", "--format", "json"],
    ("hanoi", "solve"): ["--from", "1020"],
    ("diplomats",): ["--n", "2"],
    ("gray",): ["--n", "3", "--format", "both"],
    ("density",): ["--n", "4", "--m", "3"],
    ("corners-search",): ["--m", "6"],
}


def test_every_command_writes_the_value_of_its_last_lines_or_json_call(primitive_calls, monkeypatch):
    assert sorted(COMMANDS) == sorted(SURFACE)
    written = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=written.append))
    for argv in [[*path, *options] for path, options in COMMANDS.items()] + [["--check-fixtures"]]:
        primitive_calls.clear()
        written.clear()
        assert main(argv) == 0, argv
        assert len(written) == 1 and written[0] is primitive_calls[-1], argv
