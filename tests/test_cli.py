"""End-to-end command checks: exact output, exit codes, fixture parity."""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from sierham import cli, kernels, maps
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
    assert "5/5 fixtures match" in out
    assert "MISMATCH" not in out


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


def test_isomorphism_violation_line():
    from sierham.cli import _violation_line

    item = {"kind": "isomorphism", "detail": "6 vertices are not reachable from the corners"}
    assert _violation_line(item, 3) == (
        "isomorphism violation: 6 vertices are not reachable from the corners"
    )


def test_verify_single_twist_depth_two_passes():
    text, code = run(["verify", "single-twist", "--n", "2", "--m", "5"])
    assert code == 0
    assert text.splitlines()[-1] == "PASS"


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

    monkeypatch.setattr(maps, "LinearMap", refuse)
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
    assert "subcommand" in capsys.readouterr().err


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
