"""Byte-for-byte CLI output, frozen in tests/golden/.

Each file holds the stdout of one command, which exits 0 unless
EXIT_CODE names another code. The files were written by an earlier
version of the program, so a change to how maps, solvers or writers
compute their tables must keep every byte. They are kept apart from the
shipped fixtures (sierham --check-fixtures).

Write the files that are missing with

    PYTHONPATH=src python tests/test_golden.py

It never overwrites one: to change a golden after an intended output
change, delete its file first, so that no other byte changes unseen.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from sierham.cli import run_command

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_EMBED = {
    "phi": ["--n", "3", "--m", "4"],
    "tau": ["--n", "3", "--m", "5"],
    "epsilon": ["--n", "3", "--m", "5", "--c-list", "2,3,4"],
}

GOLDEN: dict[str, list[str]] = {
    **{
        f"embed_{kind}{'_invert' if inv else ''}.{fmt}.txt": [
            "embed", kind, *args, *(["--invert"] if inv else []), "--format", fmt,
        ]
        for kind, args in _EMBED.items()
        for inv in (False, True)
        for fmt in ("text", "csv", "json")
    },
    "embed_epsilon_invert_matrix.json.txt": [
        "embed", "epsilon", "--n", "4", "--m", "7", "--c", "3",
        "--matrix", "--invert", "--format", "json",
    ],
    "gen_sierpinski_n2_m12.dot.txt": [
        "gen", "sierpinski", "--n", "2", "--m", "12", "--format", "dot",
    ],
    "gen_sierpinski_n2_m12.edgelist.txt": [
        "gen", "sierpinski", "--n", "2", "--m", "12", "--format", "edgelist",
    ],
    **{
        f"gen_sierpinski_n2_m3.{fmt}.txt": [
            "gen", "sierpinski", "--n", "2", "--m", "3", "--format", fmt,
        ]
        for fmt in ("text", "csv", "json", "edgelist")
    },
    "gen_hamming_n2_m3.dot.txt": [
        "gen", "hamming", "--n", "2", "--m", "3", "--format", "dot",
    ],
    "embed_phi_matrix.csv.txt": [
        "embed", "phi", "--n", "3", "--m", "4", "--matrix", "--format", "csv",
    ],
    "hanoi_solve_m13_S.txt": [
        "hanoi", "solve", "--from", "1,0,7,12", "--m", "13", "--coords", "S",
    ],
    "hanoi_solve_m13_T.txt": [
        "hanoi", "solve", "--from", "1,0,7,12", "--m", "13", "--coords", "T",
    ],
    "hanoi_solve_m5_S.csv.txt": [
        "hanoi", "solve", "--from", "21012", "--m", "5", "--coords", "S", "--format", "csv",
    ],
    "hanoi_solve_m7_T.json.txt": [
        "hanoi", "solve", "--from", "2101", "--m", "7", "--format", "json",
    ],
    "hanoi_classic_n3_m7.csv.txt": [
        "hanoi", "classic", "--n", "3", "--m", "7", "--format", "csv",
    ],
    "diplomats_n4.txt": ["diplomats"],
    "diplomats_n3.json.txt": ["diplomats", "--n", "3", "--format", "json"],
    "gray_n4_both.txt": ["gray", "--n", "4", "--format", "both"],
    **{f"gray_n3_{fmt}.txt": ["gray", "--n", "3", "--format", fmt] for fmt in ("bits", "int")},
    "verify_tau_n3_m5.txt": ["verify", "tau", "--n", "3", "--m", "5"],
    **{
        f"corners_search_m{m}.txt": ["corners-search", "--m", str(m)]
        for m in (2, 4, 5, 6)
    },
    "corners_search_m4.json.txt": ["corners-search", "--m", "4", "--format", "json"],
    "verify_phi_n3_m3.json.txt": ["verify", "phi", "--n", "3", "--m", "3", "--format", "json"],
    # the verifier lists five violations and counts the other seven
    **{
        f"verify_single_twist_n4_m3.{suffix}txt": [
            "verify", "single-twist", "--n", "4", "--m", "3", "--format", fmt,
        ]
        for fmt, suffix in (("text", ""), ("json", "json."))
    },
    # the S column (seven digits) is wider than its S(7,3) header
    "hanoi_classic_n7.txt": ["hanoi", "classic", "--n", "7"],
    # map and play tables on the m > 10 label path
    **{
        f"embed_phi_n2_m12.{fmt}.txt": ["embed", "phi", "--n", "2", "--m", "12", "--format", fmt]
        for fmt in ("text", "csv")
    },
    "hanoi_solve_m13.csv.txt": [
        "hanoi", "solve", "--from", "1,0,7,12", "--m", "13", "--format", "csv",
    ],
}

EXIT_CODE = {"verify_single_twist_n4_m3.txt": 1, "verify_single_twist_n4_m3.json.txt": 1}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_file(name):
    text, code = run_command(GOLDEN[name])
    assert code == EXIT_CODE.get(name, 0)
    assert text == (GOLDEN_DIR / name).read_text()


def test_golden_dir_holds_exactly_the_named_files():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)
    assert set(EXIT_CODE) <= set(GOLDEN)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(GOLDEN.items()):
        path = GOLDEN_DIR / name
        if path.exists():
            continue
        text, code = run_command(argv)
        if code != EXIT_CODE.get(name, 0):
            raise SystemExit(f"{name}: exit code {code}")
        path.write_text(text)
        print(f"wrote {name}")
