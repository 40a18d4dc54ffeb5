"""Command-line interface: gen, embed, verify, hanoi, diplomats, gray,
density, corners-search, plus a --check-fixtures mode that diffs live
output against the shipped golden files.

Exit codes: 0 success or PASS, 1 verification failure or fixture mismatch,
2 usage or parameter error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .codes import eta, eta_inverse, gray_sequence
from .graphs import (
    MAX_VERTICES,
    Vertex,
    _check_scale,
    build_hamming,
    build_sierpinski,
    build_single_twist,
    code_to_vertex,
)
from .hanoi import (
    classic_solution,
    constant_corner_search,
    diplomats_table,
    path_length_to_zero,
    shortest_path_to_zero,
)
from .maps import (
    TwistFamily,
    embedding_matrix,
    epsilon_forward,
    invert_linear_map,
    phi_forward,
    phi_inverse,
    tau_forward,
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


@dataclass(frozen=True)
class CommandConfig:
    subcommand: str
    kind: str | None = None
    mode: str | None = None
    n: int | None = None
    m: int | None = None
    c: int | None = None
    c_list: str | None = None
    matrix: bool = False
    invert: bool = False
    position: str | None = None
    coords: str = "T"
    fmt: str = "text"
    out: str | None = None


def _config_from_args(args: argparse.Namespace) -> CommandConfig:
    fields = {}
    for name in CommandConfig.__dataclass_fields__:
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    return CommandConfig(**fields)


def _twist_from_config(config: CommandConfig) -> TwistFamily:
    if config.c is not None and config.c_list is not None:
        raise ValueError("--c and --c-list are mutually exclusive")
    if config.c is not None:
        return TwistFamily(config.m, (config.c,) * config.n)
    if config.c_list is not None:
        cs = tuple(int(part) for part in config.c_list.split(","))
        if len(cs) != config.n:
            raise ValueError(
                f"--c-list has {len(cs)} entries, expected n={config.n}"
            )
        return TwistFamily(config.m, cs)
    raise ValueError("the epsilon map needs --c or --c-list")


def _forward_map(config: CommandConfig):
    n, m = config.n, config.m
    if config.kind == "phi":
        return lambda v: phi_forward(v, m)
    if config.kind == "tau":
        embedding_matrix("tau", n, m)  # reject even m before any work
        return lambda v: tau_forward(v, m)
    if config.kind == "epsilon":
        tw = _twist_from_config(config)
        return lambda v: epsilon_forward(v, tw)
    raise ValueError(f"unknown map kind {config.kind!r}")


def _matrix_for(config: CommandConfig):
    if config.kind == "epsilon":
        return embedding_matrix(_twist_from_config(config))
    return embedding_matrix(config.kind, config.n, config.m)


def cmd_gen(config: CommandConfig) -> str:
    builders = {
        "sierpinski": build_sierpinski,
        "hamming": build_hamming,
        "single-twist": build_single_twist,
    }
    g = builders[config.kind](config.n, config.m)
    return serialize.render_graph(g, config.fmt)


def cmd_embed(config: CommandConfig) -> str:
    n, m = config.n, config.m
    if config.matrix:
        lm = _matrix_for(config)
        if config.invert:
            lm = invert_linear_map(lm)
        if config.fmt == "json":
            return serialize.matrix_to_json(lm)
        if config.fmt == "csv":
            return "\n".join(",".join(str(x) for x in row) for row in lm.rows) + "\n"
        return serialize.matrix_to_text(lm)

    _check_scale(n, m)
    if config.invert:
        if config.kind == "phi":
            f = lambda w: phi_inverse(w, m)  # noqa: E731
        elif config.kind == "tau":
            embedding_matrix("tau", n, m)
            f = lambda w: tau_inverse(w, m)  # noqa: E731
        else:
            inv = invert_linear_map(_matrix_for(config))
            f = inv.apply
    else:
        f = _forward_map(config)
    rows = []
    for code in range(m**n):
        v = code_to_vertex(code, n, m)
        rows.append((v, f(v)))
    if config.fmt == "json":
        return serialize.map_table_to_json(rows, n, m)
    if config.fmt == "csv":
        return serialize.map_table_to_csv(rows, m)
    return serialize.map_table_to_text(rows, m)


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


def cmd_verify(config: CommandConfig) -> tuple[str, int]:
    n, m = config.n, config.m
    if config.kind == "single-twist":
        report = verify_coordinatization(build_single_twist(n, m))
        checks = [
            "all_edges_distance_one",
            "edge_count_matches",
            "degree_sequence_matches",
            "isomorphic_to_sierpinski",
        ]
    else:
        report = verify_embedding(_forward_map(config), n, m)
        checks = ["is_bijection", "all_edges_distance_one", "edge_count_preserved"]
    code = 0 if report["verdict"] else 1
    if config.fmt == "json":
        return json.dumps(report, indent=2) + "\n", code
    lines = [f"verify {config.kind} n={n} m={m}"]
    for key in checks:
        lines.append(f"{key}: {'true' if report[key] else 'false'}")
    for item in report["violations"][:5]:
        lines.append(_violation_line(item, m))
    extra = report.get("violations_total", len(report["violations"])) - 5
    if extra > 0:
        lines.append(f"... and {extra} more violations")
    lines.append("PASS" if report["verdict"] else "FAIL")
    return "\n".join(lines) + "\n", code


def _render_rows(
    rows: list[tuple[int, Vertex, Vertex]], n: int, m: int, fmt: str
) -> str:
    if fmt == "csv":
        return serialize.hanoi_table_to_csv(rows, m)
    if fmt == "json":
        return serialize.hanoi_table_to_json(rows, n, m)
    return serialize.hanoi_table_to_text(rows, n, m)


def _check_rows(rows: int, what: str) -> None:
    """Refuse a table of more than MAX_VERTICES rows before computing it."""
    if rows > MAX_VERTICES:
        raise ValueError(
            f"refusing to print {rows} rows of {what} (limit {MAX_VERTICES})"
        )


def cmd_hanoi(config: CommandConfig) -> str:
    if config.mode == "classic":
        n, m = config.n, config.m
        _check_rows(2**n, f"the classic solution for n={n}")
        mp = classic_solution(n, m)
        rows = [
            (ell, eta_inverse(ell, n), mp.positions[ell]) for ell in range(2**n)
        ]
        return _render_rows(rows, n, m, config.fmt)
    m = config.m
    start = serialize.parse_vertex(config.position, m)
    n = len(start)
    v = tau_inverse(start, m) if config.coords == "T" else start
    _check_rows(path_length_to_zero(v) + 1, f"the play from {config.position}")
    spath = shortest_path_to_zero(v, m)
    rows = [
        (path_length_to_zero(s), s, tau_forward(s, m)) for s in spath.positions
    ]
    return _render_rows(rows, n, m, config.fmt)


def cmd_diplomats(config: CommandConfig) -> str:
    n = config.n
    _check_rows(2**n, f"the diplomats table for n={n}")
    rows = [(ell, s, t) for ell, (s, t) in enumerate(diplomats_table(n))]
    return _render_rows(rows, n, 5, config.fmt)


def cmd_gray(config: CommandConfig) -> str:
    _check_rows(2**config.n, f"the Gray sequence for n={config.n}")
    seq = gray_sequence(config.n)
    lines = []
    for w in seq:
        bits = serialize.format_vertex(w, 2)
        if config.fmt == "int":
            lines.append(str(eta(w)))
        elif config.fmt == "both":
            lines.append(f"{bits} {eta(w)}")
        else:
            lines.append(bits)
    return "\n".join(lines) + "\n"


def cmd_density(config: CommandConfig) -> str:
    from .graphs import edge_density

    return str(edge_density(config.n, config.m)) + "\n"


def cmd_corners_search(config: CommandConfig) -> str:
    report = constant_corner_search(config.m, config.n)
    if config.fmt == "json":
        return json.dumps(report, indent=2) + "\n"
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
    return "\n".join(lines) + "\n"


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

    ver = sub.add_parser("verify", help="verify a map or the single-twist graph")
    ver.add_argument("kind", choices=["phi", "tau", "epsilon", "single-twist"])
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--m", type=int, required=True)
    ver.add_argument("--c", type=int)
    ver.add_argument("--c-list", dest="c_list")
    ver.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    ver.add_argument("--out")

    han = sub.add_parser("hanoi", help="solution tables")
    hsub = han.add_subparsers(dest="mode", required=True)
    hc = hsub.add_parser("classic", help="move n discs from peg 0 to peg 1")
    hc.add_argument("--n", type=int, required=True)
    hc.add_argument("--m", type=int, default=3)
    hc.add_argument(
        "--format", dest="fmt", choices=["text", "csv", "json"], default="text"
    )
    hc.add_argument("--out")
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

    dip = sub.add_parser("diplomats", help="five-peg transport table")
    dip.add_argument("--n", type=int, default=4)
    dip.add_argument(
        "--format", dest="fmt", choices=["text", "csv", "json"], default="text"
    )
    dip.add_argument("--out")

    gr = sub.add_parser("gray", help="emit the Gray sequence")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument(
        "--format", dest="fmt", choices=["bits", "int", "both"], default="bits"
    )
    gr.add_argument("--out")

    den = sub.add_parser("density", help="exact edge density of S(n,m) in K_m^n")
    den.add_argument("--n", type=int, required=True)
    den.add_argument("--m", type=int, required=True)
    den.add_argument("--out")

    cs = sub.add_parser(
        "corners-search", help="search for constant-corner relabelings"
    )
    cs.add_argument("--m", type=int, required=True)
    cs.add_argument("--n", type=int, default=2)
    cs.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    cs.add_argument("--out")

    return p


def _dispatch(config: CommandConfig) -> tuple[str, int]:
    if config.subcommand == "gen":
        return cmd_gen(config), 0
    if config.subcommand == "embed":
        return cmd_embed(config), 0
    if config.subcommand == "verify":
        return cmd_verify(config)
    if config.subcommand == "hanoi":
        return cmd_hanoi(config), 0
    if config.subcommand == "diplomats":
        return cmd_diplomats(config), 0
    if config.subcommand == "gray":
        return cmd_gray(config), 0
    if config.subcommand == "density":
        return cmd_density(config), 0
    if config.subcommand == "corners-search":
        return cmd_corners_search(config), 0
    raise ValueError(f"unknown subcommand {config.subcommand!r}")


def run_command(argv: list[str]) -> tuple[str, int]:
    """Parse argv and execute, returning (output text, exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.error("a subcommand is required (or --check-fixtures)")
    return _dispatch(_config_from_args(args))


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
        text, code = _dispatch(_config_from_args(args))
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
