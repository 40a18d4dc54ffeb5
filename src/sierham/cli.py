"""Command-line interface: gen, embed, verify, hanoi, diplomats, gray,
density, corners-search, plus a --check-fixtures mode that diffs live
output against the shipped golden files.

_leaf adds each leaf subcommand with its handler, --format and --out; a
handler takes the parsed arguments and returns (output text, exit code).
A table handler prints its digit arrays with one serialize.write call, a
report (verify, corners-search) with one serialize._lines or _json call.
Exit codes: 0 success or PASS, 1 verification failure or fixture mismatch,
2 usage or parameter error, size refusals included (the library raises them),
or an --out file that cannot be written.
"""
from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .codes import gray_sequence
from .graphs import (
    _check_matrix,
    _check_scale,
    build_hamming,
    build_sierpinski,
    build_single_twist,
    digit_cube,
    edge_density,
)
from .hanoi import classic_solution, constant_corner_search, shortest_path_to_zero
from .maps import (
    LinearMap,
    TwistFamily,
    embedding_matrix,
    invert_linear_map,
    tau_inverse,
    verify_coordinatization,
    verify_embedding,
)
from . import serialize

FIXTURES: dict[str, list[str]] = {
    "solve_1020_m3.txt": ["hanoi", "solve", "--from", "1020"],
    "classic_n4_m5.txt": ["hanoi", "classic", "--n", "4", "--m", "5"],
    "tau_matrix_n4_m3.txt": ["embed", "tau", "--n", "4", "--m", "3", "--matrix"],
    "tau_matrix_n4_m5.txt": ["embed", "tau", "--n", "4", "--m", "5", "--matrix"],
    "tau_matrix_inverse_n4_m5.txt": [
        "embed", "tau", "--n", "4", "--m", "5", "--matrix", "--invert",
    ],
}


def _matrix_for(args: argparse.Namespace) -> LinearMap:
    if args.kind != "epsilon":
        if args.c is not None or args.c_list is not None:
            raise ValueError(f"--c and --c-list apply to epsilon, not {args.kind}")
        return embedding_matrix(args.kind, args.n, args.m)
    if args.c is not None:
        _check_matrix(args.n)  # (c,) * n is built before embedding_matrix can refuse it
        cs = (args.c,) * args.n
    elif args.c_list is not None:
        cs = tuple(int(part) for part in args.c_list.split(","))
        if len(cs) != args.n:
            raise ValueError(
                f"--c-list has {len(cs)} entries, expected n={args.n}"
            )
    else:
        raise ValueError("the epsilon map needs --c or --c-list")
    return embedding_matrix(TwistFamily(args.m, cs))


def cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    builders = {
        "sierpinski": build_sierpinski,
        "hamming": build_hamming,
        "single-twist": build_single_twist,
    }
    g = builders[args.kind](args.n, args.m)
    return serialize.render_graph(g, args.fmt), 0


def cmd_embed(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    if not args.matrix:
        _check_scale(n, m)  # names m^n before the matrix refuses its n^2 entries
    lm = _matrix_for(args)
    if args.invert:
        lm = invert_linear_map(lm)
    if args.matrix:
        return serialize.write("matrix", args.fmt, lm), 0
    return serialize.write("map_table", args.fmt, digit_cube(n, m), lm.cube_image(m), m), 0


def _violation_line(item: dict, m: int) -> str:
    fv = lambda v: serialize.format_vertex(v, m)  # noqa: E731
    if item["kind"] == "degree":
        allowed = " or ".join(str(x) for x in item["allowed"])
        return (
            f"degree violation: vertex {fv(item['vertex'])} has degree "
            f"{item['degree']}, expected {allowed}"
        )
    if item["kind"] == "distance":
        edge = item["edge"]
        base = (
            f"distance violation: edge {fv(edge[0])} -- {fv(edge[1])}"
        )
        if "images" in item:
            img = item["images"]
            base += f" maps to {fv(img[0])} -- {fv(img[1])}"
        return base + f" ({item['distance']} differing coordinates)"
    if item["kind"] == "collision":
        return f"collision: image {fv(item['image'])} hit {item['count']} times"
    if item["kind"] == "edge_count":
        return f"edge count {item['found']}, expected {item['expected']}"
    return f"isomorphism violation: {item['detail']}"


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    if args.kind == "single-twist" and args.c is None and args.c_list is None:
        report = verify_coordinatization(build_single_twist(n, m))
    else:  # _matrix_for refuses --c and --c-list for every kind but epsilon
        _check_scale(n, m)  # before the matrix, which has n^2 entries
        report = verify_embedding(_matrix_for(args), n, m)
    checks = [k for k, v in report.items() if isinstance(v, bool) and k != "verdict"]
    code = 0 if report["verdict"] else 1
    if args.fmt == "json":
        return serialize._json(report), code
    rows = [(key, "true" if report[key] else "false") for key in checks]
    rows += [(_violation_line(item, m),) for item in report["violations"][:5]]
    extra = report.get("violations_total", len(report["violations"])) - 5
    if extra > 0:
        rows.append((f"... and {extra} more violations",))
    rows.append(("PASS" if report["verdict"] else "FAIL",))
    return serialize._lines(rows, [f"verify {args.kind} n={n} m={m}"], ": "), code


def cmd_classic(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    play = classic_solution(n, m).positions  # refuses an oversize n before 2^n steps exist
    return serialize.write("hanoi_table", args.fmt, np.arange(2**n), digit_cube(n, 2), play, m), 0


def cmd_solve(args: argparse.Namespace) -> tuple[str, int]:
    m = args.m
    start = serialize.parse_vertex(args.position, m)
    v = tau_inverse(start, m) if args.coords == "T" else start
    s = shortest_path_to_zero(v, m).positions
    t = embedding_matrix("tau", len(start), m).image(s)
    # each step of the geodesic is one closer to 0^n
    return serialize.write("hanoi_table", args.fmt, np.arange(len(s) - 1, -1, -1), s, t, m), 0


def cmd_gray(args: argparse.Namespace) -> tuple[str, int]:
    return serialize.write("gray", args.fmt, gray_sequence(args.n)), 0


def cmd_density(args: argparse.Namespace) -> tuple[str, int]:
    return str(edge_density(args.n, args.m)) + "\n", 0


def cmd_corners_search(args: argparse.Namespace) -> tuple[str, int]:
    report = constant_corner_search(args.m, args.n)
    if args.fmt == "json":
        return serialize._json(report), 0
    rows = [("exists", "true" if report["exists"] else "false")]
    if report.get("witness"):
        rows.append(("witness", str(report["witness"])))
    counts = ("max_exterior_edges", "required_exterior_edges")
    rows += [(key, str(report[key])) for key in counts if key in report]
    if report.get("detail"):
        rows.append((report["detail"],))
    return serialize._lines(rows, [f"constant-corner search n={report['n']} m={report['m']}"], ": "), 0


def _leaf(sub, name: str, summary: str, run, formats=("text", "csv", "json"), **defaults):
    """Add one leaf subcommand: its handler, --format (first choice is the default), --out."""
    leaf = sub.add_parser(name, help=summary)
    leaf.set_defaults(run=run, **defaults)
    if formats:
        leaf.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
    leaf.add_argument("--out", help="write to this file instead of stdout")
    return leaf


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every parse."""
    p = argparse.ArgumentParser(
        prog="sierham",
        description=(
            "Sierpinski and Hamming graphs, twist recoordinatizations, and "
            "Tower-of-Hanoi solvers. Positions are digit strings, most "
            "significant digit first; disc 1 is the largest disc."
        ),
    )
    p.add_argument(
        "--check-fixtures",
        action="store_true",
        help="re-run every golden command and diff against shipped fixtures",
    )
    sub = p.add_subparsers(dest="subcommand")

    gen = _leaf(
        sub, "gen", "construct a graph and print it", cmd_gen,
        ("text", "csv", "json", "dot", "edgelist"),
    )
    gen.add_argument("kind", choices=["sierpinski", "hamming", "single-twist"])
    emb = _leaf(sub, "embed", "print a map as a table or matrix", cmd_embed)
    emb.add_argument("kind", choices=["phi", "tau", "epsilon"])
    emb.add_argument("--matrix", action="store_true", help="print the coefficient matrix")
    emb.add_argument("--invert", action="store_true", help="print the inverse instead")
    ver = _leaf(
        sub, "verify", "verify a map or the single-twist graph", cmd_verify, ("text", "json")
    )
    ver.add_argument("kind", choices=["phi", "tau", "epsilon", "single-twist"])
    den = _leaf(sub, "density", "exact edge density of S(n,m) in K_m^n", cmd_density, ())
    for leaf in (gen, emb, ver, den):
        leaf.add_argument("--n", type=int, required=True)
        leaf.add_argument("--m", type=int, required=True)
    for leaf in (emb, ver):
        cs = leaf.add_mutually_exclusive_group()
        cs.add_argument("--c", type=int, help="one multiplier reused at every level")
        cs.add_argument("--c-list", dest="c_list", help="comma-separated per-level multipliers")

    han = sub.add_parser("hanoi", help="solution tables")
    hsub = han.add_subparsers(dest="mode", required=True)
    hc = _leaf(hsub, "classic", "move n discs from peg 0 to peg 1", cmd_classic)
    hc.add_argument("--n", type=int, required=True)
    hc.add_argument("--m", type=int, default=3)
    hs = _leaf(hsub, "solve", "optimal play from an arbitrary position", cmd_solve)
    hs.add_argument(
        "--from",
        dest="position",
        required=True,
        metavar="DIGITS",
        help="starting position, e.g. 1020 (digit i = peg of disc i, disc 1 largest)",
    )
    hs.add_argument("--coords", choices=["S", "T"], default="T")
    hs.add_argument("--m", type=int, default=3)

    # diplomats is the five-peg classic play
    dip = _leaf(sub, "diplomats", "five-peg transport table", cmd_classic, m=5)
    dip.add_argument("--n", type=int, default=4)

    gr = _leaf(sub, "gray", "emit the Gray sequence", cmd_gray, ("bits", "int", "both"))
    gr.add_argument("--n", type=int, required=True)

    cs = _leaf(
        sub, "corners-search", "decide whether constant-corner relabelings exist",
        cmd_corners_search, ("text", "json"),
    )
    cs.add_argument("--m", type=int, required=True)
    cs.add_argument("--n", type=int, default=2)

    return p


def run_command(argv: list[str]) -> tuple[str, int]:
    """Parse argv and execute, returning (output text, exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.error("a subcommand is required (or --check-fixtures)")
    return args.run(args)


def check_fixtures() -> int:
    failures = 0
    for name, argv in sorted(FIXTURES.items()):
        expected = (
            resources.files("sierham").joinpath("fixtures", name).read_text()
        )
        live, code = run_command(argv)
        if code == 0 and live == expected:
            print(f"ok        {name}")
        else:
            failures += 1
            print(f"MISMATCH  {name}")
    print(f"{len(FIXTURES) - failures}/{len(FIXTURES)} fixtures match")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.check_fixtures:
        return check_fixtures()
    if args.subcommand is None:
        print("error: a subcommand is required (or --check-fixtures)", file=sys.stderr)
        return 2
    try:
        text, code = args.run(args)
        if args.out:
            Path(args.out).write_text(text)
    except (ValueError, OSError) as exc:  # a refusal, or an --out file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
