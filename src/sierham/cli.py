"""Command-line interface: gen, embed, verify, hanoi, diplomats, gray,
density, corners-search, plus a --check-fixtures mode that diffs live
output against the shipped golden files.

One dispatcher, run_command, parses argv and answers (stdout text, exit
code): --check-fixtures first, else the handler that _leaf bound to the leaf
subcommand (with its --format and --out), and --out writes the text to its
file and answers "". main maps SystemExit, ValueError and OSError to exit
codes and writes the answer once. Every answer is the value of one _lines
or _json call: a table's serialize.write, or the report of verify,
corners-search, density or the fixture check.
Exit codes: 0 success or PASS, 1 verification failure or fixture mismatch,
2 usage or parameter error, size refusals included (the library raises them),
or an --out file that cannot be written. `python -m sierham.cli` and the
sierham script run entry, which calls main and then freezes the heap
(gc.freeze) so the collections at interpreter exit skip it.

Importing this module loads the integer layer (exact) and no numpy, json,
fractions or dataclasses. Each handler runs its library guards first, every
one its table would meet, in that order. The Hanoi and Gray handlers take
their table's guards, row function and row count from the definition in
exact that the library tables use too (classic_table, solve_table,
gray_table), and embed takes the family's map_row over m^n rows. Each then
makes one exact.table call, which builds a small table as Python ints and a
larger one as an array. gen makes one exact.graph call, which forks the same
way on the edge count. So refusals, matrices, densities, the corner search,
verdicts the matrix rows or the degree formula decide, the small tables and
graphs and the fixture check run without numpy.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
from importlib import resources
from pathlib import Path

from . import exact
from .exact import (
    TwistFamily,
    _check_matrix,
    _check_modulus,
    _check_scale,
    _inverse_of_two,
    _json,
    _lines,
    constant_corner_search,
    edge_density,
    embedding_matrix,
    format_vertex,
    parse_vertex,
    twist_family,
    verify_embedding,
    verify_single_twist,
)

FIXTURES: dict[str, list[str]] = {
    "solve_1020_m3.txt": ["hanoi", "solve", "--from", "1020"],
    "classic_n4_m5.txt": ["hanoi", "classic", "--n", "4", "--m", "5"],
    "tau_matrix_n4_m3.txt": ["embed", "tau", "--n", "4", "--m", "3", "--matrix"],
    "tau_matrix_n4_m5.txt": ["embed", "tau", "--n", "4", "--m", "5", "--matrix"],
    "tau_matrix_inverse_n4_m5.txt": [
        "embed", "tau", "--n", "4", "--m", "5", "--matrix", "--invert",
    ],
}


def _family_for(args: argparse.Namespace) -> TwistFamily:
    if args.kind != "epsilon":
        if args.c is not None or args.c_list is not None:
            raise ValueError(f"--c and --c-list apply to epsilon, not {args.kind}")
        return twist_family(args.kind, args.n, args.m)
    if args.c is not None:
        _check_matrix(args.n)  # (c,) * n is built before embedding_matrix can refuse it
        cs = (args.c,) * args.n
    elif args.c_list is not None:
        cs = []
        for part in args.c_list.split(","):
            try:
                cs.append(int(part))
            except ValueError:
                raise ValueError(f"--c-list entry {part!r} is not an integer") from None
        if len(cs) != args.n:
            raise ValueError(f"--c-list has {len(cs)} entries, expected n={args.n}")
    else:
        raise ValueError("the epsilon map needs --c or --c-list")
    return TwistFamily(args.m, cs)


def cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    g = exact.graph(args.kind, args.n, args.m)
    from . import serialize

    return serialize.render_graph(g, args.fmt), 0


def cmd_embed(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    if not args.matrix:
        _check_scale(n, m)  # names m^n before the matrix refuses its n^2 entries
    family = _family_for(args)
    if args.matrix:
        lm = embedding_matrix(family, invert=args.invert)
        # serialize re-exports the matrix writers, and a tracer wraps them there by
        # name: read them from serialize once it is loaded, and never load it for them
        writers = sys.modules.get(f"{__package__}.serialize", exact)
        return getattr(writers, f"matrix_to_{args.fmt}")(lm), 0
    from . import serialize

    # row v is v's digits and their image, O(n) by the family's recurrence
    v, w = exact.table(lambda x: exact.map_row(x, family, m, args.invert), m**n, m)
    return serialize.write("map_table", args.fmt, v, w, m), 0


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    _check_scale(n, m)  # the graph's guard, before the matrix, which has n^2 entries
    if args.kind == "single-twist" and args.c is None and args.c_list is None:
        report = verify_single_twist(n, m)
    else:  # _family_for refuses --c and --c-list for every kind but epsilon
        report = verify_embedding(embedding_matrix(_family_for(args)), n, m)
    checks = [k for k, v in report.items() if isinstance(v, bool) and k != "verdict"]
    code = 0 if report["verdict"] else 1
    if args.fmt == "json":
        return _json(report), code
    rows = [(key, "true" if report[key] else "false") for key in checks]
    # every twist family's matrix obeys the row rule, so only verify_single_twist
    # lists violations, and those are degrees
    for item in report["violations"][:5]:
        vertex, degree = format_vertex(item["vertex"], m), item["degree"]
        allowed = " or ".join(map(str, item["allowed"]))
        rows.append((f"degree violation: vertex {vertex} has degree {degree}, expected {allowed}",))
    extra = report.get("violations_total", len(report["violations"])) - 5
    if extra > 0:
        rows.append((f"... and {extra} more violations",))
    rows.append(("PASS" if report["verdict"] else "FAIL",))
    return _lines(rows, [f"verify {args.kind} n={n} m={m}"], ": "), code


def cmd_classic(args: argparse.Namespace) -> tuple[str, int]:
    row, count = exact.classic_table(args.n, args.m)
    from . import serialize

    bits, play = exact.table(row, count, args.m)
    return serialize.write("hanoi_table", args.fmt, range(count), bits, play, args.m), 0


def cmd_solve(args: argparse.Namespace) -> tuple[str, int]:
    m = args.m
    # parse_vertex checks the digits, so m (at least 2, then odd) is checked before
    # it here, in solve_table's order
    _check_modulus(m)
    _inverse_of_two(m)
    row, count = exact.solve_table(parse_vertex(args.position, m), m, args.coords)
    from . import serialize

    s, t = exact.table(row, count, m)  # each step is one closer to 0^n
    return serialize.write("hanoi_table", args.fmt, range(count - 1, -1, -1), s, t, m), 0


def cmd_gray(args: argparse.Namespace) -> tuple[str, int]:
    row, count = exact.gray_table(args.n)
    from . import serialize

    (words,) = exact.table(row, count, 2)
    return serialize.write("gray", args.fmt, words), 0


def cmd_density(args: argparse.Namespace) -> tuple[str, int]:
    return _lines([(str(edge_density(args.n, args.m)),)]), 0


def cmd_corners_search(args: argparse.Namespace) -> tuple[str, int]:
    report = constant_corner_search(args.m, args.n)
    if args.fmt == "json":
        return _json(report), 0
    rows = [("exists", "true" if report["exists"] else "false")]
    if report.get("witness"):
        rows.append(("witness", str(report["witness"])))
    counts = ("max_exterior_edges", "required_exterior_edges")
    rows += [(key, str(report[key])) for key in counts if key in report]
    if report.get("detail"):
        rows.append((report["detail"],))
    return _lines(rows, [f"constant-corner search n={report['n']} m={report['m']}"], ": "), 0


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
        "--check-fixtures", action="store_true",
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
        "--from", dest="position", required=True, metavar="DIGITS",
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


def run_command(argv: list[str] | None = None) -> tuple[str, int]:
    """Parse argv and answer it: (stdout text, exit code), "" once --out holds the text.

    A missing subcommand raises ValueError; argparse's usage errors exit as usual.
    """
    args = build_parser().parse_args(argv)
    if args.check_fixtures:
        return check_fixtures()
    if args.subcommand is None:
        raise ValueError("a subcommand is required (or --check-fixtures)")
    text, code = args.run(args)
    if args.out:
        Path(args.out).write_text(text)
        return "", code
    return text, code


def check_fixtures() -> tuple[str, int]:
    """Re-run every golden command: an ok or MISMATCH line per fixture, then the tally."""
    shipped = resources.files(__package__).joinpath("fixtures")
    match = {
        name: run_command(argv) == (shipped.joinpath(name).read_text(), 0)
        for name, argv in sorted(FIXTURES.items())
    }
    rows = [(("ok" if ok else "MISMATCH").ljust(8), name) for name, ok in match.items()]
    rows.append((f"{sum(match.values())}/{len(match)} fixtures match",))
    return _lines(rows, sep="  "), int(not all(match.values()))


def main(argv: list[str] | None = None) -> int:
    try:
        text, code = run_command(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:  # a refusal, or an --out file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def entry() -> int:
    """The process entry of `python -m sierham.cli` and the sierham script: main, then
    gc.freeze(). The collections at interpreter exit then skip the heap the command
    built; atexit, stream flushing and module teardown still run. main itself leaves
    the collector alone, so an in-process caller's cycles are still collected."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
