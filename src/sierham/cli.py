"""Command-line interface: gen, embed, verify, hanoi, diplomats, gray,
density, corners-search, plus a --check-fixtures mode that diffs live
output against the shipped golden files.

Every subcommand parser names its handler with set_defaults(run=...); a
handler takes the parsed arguments and returns (output text, exit code).
Exit codes: 0 success or PASS, 1 verification failure or fixture mismatch,
2 usage or parameter error.
"""
from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .codes import gray_sequence
from .graphs import (
    MAX_VERTICES,
    _check_scale,
    _power_text,
    build_hamming,
    build_sierpinski,
    build_single_twist,
    digit_rows,
    edge_density,
    row_codes,
)
from .hanoi import (
    classic_solution,
    constant_corner_search,
    path_length_to_zero,
    shortest_path_to_zero,
)
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


def _twist_from_args(args: argparse.Namespace) -> TwistFamily:
    if args.c is not None and args.c_list is not None:
        raise ValueError("--c and --c-list are mutually exclusive")
    if args.c is not None:
        return TwistFamily(args.m, (args.c,) * args.n)
    if args.c_list is not None:
        cs = tuple(int(part) for part in args.c_list.split(","))
        if len(cs) != args.n:
            raise ValueError(
                f"--c-list has {len(cs)} entries, expected n={args.n}"
            )
        return TwistFamily(args.m, cs)
    raise ValueError("the epsilon map needs --c or --c-list")


def _matrix_for(args: argparse.Namespace) -> LinearMap:
    if args.kind == "epsilon":
        return embedding_matrix(_twist_from_args(args))
    return embedding_matrix(args.kind, args.n, args.m)


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
    # both refusals come before the matrix, which checks its n^2 entries in Python
    if args.matrix and n * n > MAX_VERTICES:
        raise ValueError(f"refusing to print a {n}x{n} matrix (limit {MAX_VERTICES} entries)")
    if not args.matrix:
        _check_scale(n, m)
    lm = _matrix_for(args)
    if args.invert:
        lm = invert_linear_map(lm)
    if args.matrix:
        if args.fmt == "json":
            return serialize.matrix_to_json(lm), 0
        if args.fmt == "csv":
            return "\n".join(",".join(str(x) for x in row) for row in lm.rows) + "\n", 0
        return serialize.matrix_to_text(lm), 0

    v = digit_rows(np.arange(m**n), n, m)
    w = lm.image(v)
    if args.fmt == "json":
        return serialize.map_table_to_json(v, w, n, m), 0
    if args.fmt == "csv":
        return serialize.map_table_to_csv(v, w, m), 0
    return serialize.map_table_to_text(v, w, m), 0


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
    if args.kind == "single-twist":
        report = verify_coordinatization(build_single_twist(n, m))
    else:
        _check_scale(n, m)  # before the matrix, which has n^2 entries
        report = verify_embedding(_matrix_for(args), n, m)
    checks = [k for k, v in report.items() if isinstance(v, bool) and k != "verdict"]
    code = 0 if report["verdict"] else 1
    if args.fmt == "json":
        return json.dumps(report, indent=2) + "\n", code
    lines = [f"verify {args.kind} n={n} m={m}"]
    for key in checks:
        lines.append(f"{key}: {'true' if report[key] else 'false'}")
    for item in report["violations"][:5]:
        lines.append(_violation_line(item, m))
    extra = report.get("violations_total", len(report["violations"])) - 5
    if extra > 0:
        lines.append(f"... and {extra} more violations")
    lines.append("PASS" if report["verdict"] else "FAIL")
    return "\n".join(lines) + "\n", code


def _render_rows(ell: np.ndarray, s: np.ndarray, t: np.ndarray, n: int, m: int, fmt: str) -> str:
    if fmt == "csv":
        return serialize.hanoi_table_to_csv(ell, s, t, m)
    if fmt == "json":
        return serialize.hanoi_table_to_json(ell, s, t, n, m)
    return serialize.hanoi_table_to_text(ell, s, t, n, m)


def _check_rows(n: int, what: str) -> None:
    """Refuse a table of 2^n rows, more than MAX_VERTICES, before computing it."""
    if n >= MAX_VERTICES.bit_length() or 2**n > MAX_VERTICES:
        raise ValueError(
            f"refusing to print {_power_text(2, n)} rows of {what} (limit {MAX_VERTICES})"
        )


def cmd_classic(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    _check_rows(n, f"the classic solution for n={n}")
    mp = classic_solution(n, m)
    ell = np.arange(2**n)
    return _render_rows(ell, digit_rows(ell, n, 2), mp.positions, n, m, args.fmt), 0


def cmd_solve(args: argparse.Namespace) -> tuple[str, int]:
    m = args.m
    start = serialize.parse_vertex(args.position, m)
    n = len(start)
    v = tau_inverse(start, m) if args.coords == "T" else start
    moves = path_length_to_zero(v)
    if moves >= MAX_VERTICES:  # moves + 1 rows; 2^k <= moves < 2^(k+1)
        count = moves + 1 if moves < 2**60 else f"more than 2^{moves.bit_length() - 1}"
        what = f"the play from a {n}-disc start"
        raise ValueError(f"refusing to print {count} rows of {what} (limit {MAX_VERTICES})")
    s = shortest_path_to_zero(v, m).positions
    t = embedding_matrix("tau", n, m).image(s)
    # each step of the geodesic is one closer to 0^n
    return _render_rows(np.arange(moves, -1, -1), s, t, n, m, args.fmt), 0


def cmd_gray(args: argparse.Namespace) -> tuple[str, int]:
    _check_rows(args.n, f"the Gray sequence for n={args.n}")
    seq = gray_sequence(args.n)
    if args.fmt == "bits":
        lines = serialize.vertex_labels(seq, 2)
    elif args.fmt == "int":
        lines = map(str, row_codes(seq, 2).tolist())
    else:
        lines = map("{} {}".format, serialize.vertex_labels(seq, 2), row_codes(seq, 2).tolist())
    return "\n".join(lines) + "\n", 0


def cmd_density(args: argparse.Namespace) -> tuple[str, int]:
    return str(edge_density(args.n, args.m)) + "\n", 0


def cmd_corners_search(args: argparse.Namespace) -> tuple[str, int]:
    report = constant_corner_search(args.m, args.n)
    if args.fmt == "json":
        return json.dumps(report, indent=2) + "\n", 0
    lines = [f"constant-corner search n={report['n']} m={report['m']}"]
    lines.append(f"exists: {'true' if report['exists'] else 'false'}")
    if report.get("witness"):
        lines.append(f"witness: {report['witness']}")
    if "max_exterior_edges" in report:
        lines.append(f"max_exterior_edges: {report['max_exterior_edges']}")
        lines.append(
            f"required_exterior_edges: {report['required_exterior_edges']}"
        )
    if report.get("detail"):
        lines.append(report["detail"])
    return "\n".join(lines) + "\n", 0


def build_parser() -> argparse.ArgumentParser:
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

    gen = sub.add_parser("gen", help="construct a graph and print it")
    gen.add_argument("kind", choices=["sierpinski", "hamming", "single-twist"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument(
        "--format",
        dest="fmt",
        choices=["text", "csv", "json", "dot", "edgelist"],
        default="text",
    )
    gen.add_argument("--out", help="write to this file instead of stdout")
    gen.set_defaults(run=cmd_gen)

    emb = sub.add_parser("embed", help="print a map as a table or matrix")
    emb.add_argument("kind", choices=["phi", "tau", "epsilon"])
    emb.add_argument("--n", type=int, required=True)
    emb.add_argument("--m", type=int, required=True)
    emb.add_argument("--c", type=int, help="one multiplier reused at every level")
    emb.add_argument(
        "--c-list", dest="c_list", help="comma-separated per-level multipliers"
    )
    emb.add_argument("--matrix", action="store_true", help="print the coefficient matrix")
    emb.add_argument("--invert", action="store_true", help="print the inverse instead")
    emb.add_argument(
        "--format", dest="fmt", choices=["text", "csv", "json"], default="text"
    )
    emb.add_argument("--out")
    emb.set_defaults(run=cmd_embed)

    ver = sub.add_parser("verify", help="verify a map or the single-twist graph")
    ver.add_argument("kind", choices=["phi", "tau", "epsilon", "single-twist"])
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--m", type=int, required=True)
    ver.add_argument("--c", type=int)
    ver.add_argument("--c-list", dest="c_list")
    ver.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    ver.add_argument("--out")
    ver.set_defaults(run=cmd_verify)

    han = sub.add_parser("hanoi", help="solution tables")
    hsub = han.add_subparsers(dest="mode", required=True)
    hc = hsub.add_parser("classic", help="move n discs from peg 0 to peg 1")
    hc.add_argument("--n", type=int, required=True)
    hc.add_argument("--m", type=int, default=3)
    hc.add_argument(
        "--format", dest="fmt", choices=["text", "csv", "json"], default="text"
    )
    hc.add_argument("--out")
    hc.set_defaults(run=cmd_classic)
    hs = hsub.add_parser("solve", help="optimal play from an arbitrary position")
    hs.add_argument(
        "--from",
        dest="position",
        required=True,
        metavar="DIGITS",
        help="starting position, e.g. 1020 (digit i = peg of disc i, disc 1 largest)",
    )
    hs.add_argument("--coords", choices=["S", "T"], default="T")
    hs.add_argument("--m", type=int, default=3)
    hs.add_argument(
        "--format", dest="fmt", choices=["text", "csv", "json"], default="text"
    )
    hs.add_argument("--out")
    hs.set_defaults(run=cmd_solve)

    dip = sub.add_parser("diplomats", help="five-peg transport table")
    dip.add_argument("--n", type=int, default=4)
    dip.add_argument(
        "--format", dest="fmt", choices=["text", "csv", "json"], default="text"
    )
    dip.add_argument("--out")
    dip.set_defaults(run=cmd_classic, m=5)  # the five-peg classic play

    gr = sub.add_parser("gray", help="emit the Gray sequence")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument(
        "--format", dest="fmt", choices=["bits", "int", "both"], default="bits"
    )
    gr.add_argument("--out")
    gr.set_defaults(run=cmd_gray)

    den = sub.add_parser("density", help="exact edge density of S(n,m) in K_m^n")
    den.add_argument("--n", type=int, required=True)
    den.add_argument("--m", type=int, required=True)
    den.add_argument("--out")
    den.set_defaults(run=cmd_density)

    cs = sub.add_parser(
        "corners-search", help="decide whether constant-corner relabelings exist"
    )
    cs.add_argument("--m", type=int, required=True)
    cs.add_argument("--n", type=int, default=2)
    cs.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    cs.add_argument("--out")
    cs.set_defaults(run=cmd_corners_search)

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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
