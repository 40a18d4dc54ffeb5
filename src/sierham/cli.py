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
one the array path would meet, in that order. A table of at most
exact.SMALL_TABLE rows (m^n for embed, 2^n for hanoi classic, diplomats and
gray, d + 1 for hanoi solve) is then built from the paper's row formulas as
tuples of Python ints: epsilon_forward of each digit tuple under the map's
twist family (LinearMap.apply with --invert), tau_forward or phi_forward of
binary ell, and exact.geodesic_to_zero. A gen graph of at most SMALL_TABLE
edges (the closed-form count) is exact.graph_edges in an exact.EdgeList. A
larger table or graph imports the array modules it calls (graphs, hanoi,
codes) and reads their functions as attributes at call time, so a tracer's
wrapper on them sees every call; hanoi solve maps only the last
bit_length(d) digits of each step, since the others stay 0. So every
refusal, a matrix, a density, a verdict that the matrix rows decide, the
single twist's verdict for n >= 3, the corner search, the small tables and
graphs and the fixture check run without numpy; the larger tables and
graphs and the verdicts that need a graph load it.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
from importlib import resources
from itertools import product
from pathlib import Path

from . import exact
from .exact import (
    EdgeList,
    TwistFamily,
    _check_geodesic,
    _check_graph,
    _check_gray,
    _check_matrix,
    _check_modulus,
    _check_params,
    _check_play,
    _check_scale,
    _inverse_of_two,
    _json,
    _lines,
    constant_corner_search,
    edge_density,
    embedding_matrix,
    epsilon_forward,
    format_vertex,
    geodesic_to_zero,
    graph_edges,
    invert_linear_map,
    parse_vertex,
    phi_forward,
    tau_forward,
    tau_inverse,
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
    n, m, kind = args.n, args.m, args.kind
    edges = _check_graph(kind, n, m)  # every guard the array builder meets
    from . import serialize

    if edges <= exact.SMALL_TABLE:
        g = EdgeList(n, m, kind, graph_edges(kind, n, m))
    else:
        from . import graphs

        g = getattr(graphs, f"build_{kind.replace('-', '_')}")(n, m)
    return serialize.render_graph(g, args.fmt), 0


def cmd_embed(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    if not args.matrix:
        _check_scale(n, m)  # names m^n before the matrix refuses its n^2 entries
    family = _family_for(args)
    lm = embedding_matrix(family)
    if args.invert:
        lm = invert_linear_map(lm)
    if args.matrix:
        # serialize re-exports the matrix writers, and a tracer wraps them there by
        # name: read them from serialize once it is loaded, and never load it for them
        writers = sys.modules.get(f"{__package__}.serialize", exact)
        return getattr(writers, f"matrix_to_{args.fmt}")(lm), 0
    from . import serialize

    if m**n <= exact.SMALL_TABLE:  # row v is A v mod m, for a family its O(n) recurrence
        v = list(product(range(m), repeat=n))
        w = list(map(lm.apply, v)) if args.invert else [epsilon_forward(x, family) for x in v]
        return serialize.write("map_table", args.fmt, v, w, m), 0
    from . import graphs

    return serialize.write("map_table", args.fmt, graphs.digit_cube(n, m), lm.cube_image(m), m), 0


def _violation_line(item: dict, m: int) -> str:
    fv = lambda v: format_vertex(v, m)  # noqa: E731
    if item["kind"] == "degree":
        allowed = " or ".join(str(x) for x in item["allowed"])
        return (
            f"degree violation: vertex {fv(item['vertex'])} has degree "
            f"{item['degree']}, expected {allowed}"
        )
    if item["kind"] == "distance":
        base = "distance violation: edge " + " -- ".join(map(fv, item["edge"]))
        if "images" in item:
            base += " maps to " + " -- ".join(map(fv, item["images"]))
        return base + f" ({item['distance']} differing coordinates)"
    if item["kind"] == "collision":
        return f"collision: image {fv(item['image'])} hit {item['count']} times"
    if item["kind"] == "edge_count":
        return f"edge count {item['found']}, expected {item['expected']}"
    return f"isomorphism violation: {item['detail']}"


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
    rows += [(_violation_line(item, m),) for item in report["violations"][:5]]
    extra = report.get("violations_total", len(report["violations"])) - 5
    if extra > 0:
        rows.append((f"... and {extra} more violations",))
    rows.append(("PASS" if report["verdict"] else "FAIL",))
    return _lines(rows, [f"verify {args.kind} n={n} m={m}"], ": "), code


def cmd_classic(args: argparse.Namespace) -> tuple[str, int]:
    n, m = args.n, args.m
    _check_play(n)  # an oversize n is refused before numpy loads, and before 2^n steps exist
    _check_params(n, m)  # then the tau matrix's checks, in embedding_matrix's order
    _inverse_of_two(m)
    from . import serialize

    if 2**n <= exact.SMALL_TABLE:  # step ell is tau of binary ell
        bits = list(product((0, 1), repeat=n))
        play = [tau_forward(b, m) for b in bits]
        return serialize.write("hanoi_table", args.fmt, range(2**n), bits, play, m), 0
    import numpy as np

    from . import graphs, hanoi

    play = hanoi.classic_solution(n, m).positions
    bits = graphs.digit_cube(n, 2)
    return serialize.write("hanoi_table", args.fmt, np.arange(2**n), bits, play, m), 0


def cmd_solve(args: argparse.Namespace) -> tuple[str, int]:
    m = args.m
    _check_modulus(m)  # m, then the tau matrix's modulus check, then the digits and the size
    _inverse_of_two(m)
    start = parse_vertex(args.position, m)
    v = tau_inverse(start, m) if args.coords == "T" else start
    d = _check_geodesic(v)
    _check_matrix(len(start))  # the tau matrix's guard, which the array path meets next
    from . import serialize

    if d + 1 <= exact.SMALL_TABLE:  # step k is tau of the geodesic's step k
        s = geodesic_to_zero(v)
        t = [tau_forward(x, m) for x in s]
        return serialize.write("hanoi_table", args.fmt, range(d, -1, -1), s, t, m), 0
    import numpy as np

    from . import hanoi

    s = hanoi.shortest_path_to_zero(v, m).positions
    # only the last r digits of a step can be nonzero (digit i carries bit
    # 2^(n-1-i) of d), so tau maps the first k = n - r to 0 and the last r to
    # 2^(-k) tau_r of themselves: O(d r^2), not O(d n^2)
    r = max(d.bit_length(), 1)
    k = len(start) - r
    tail = embedding_matrix("tau", r, m).image(s[:, k:])
    tail *= pow(2, -k, m)
    tail %= m
    t = np.zeros(s.shape, tail.dtype)
    t[:, k:] = tail
    # each step of the geodesic is one closer to 0^n
    return serialize.write("hanoi_table", args.fmt, np.arange(len(s) - 1, -1, -1), s, t, m), 0


def cmd_gray(args: argparse.Namespace) -> tuple[str, int]:
    n = args.n
    _check_gray(n)
    _check_params(n, 2)  # then the phi matrix's checks, which the array path meets next
    from . import serialize

    if 2**n <= exact.SMALL_TABLE:  # word ell is phi of binary ell
        words = [phi_forward(b, 2) for b in product((0, 1), repeat=n)]
        return serialize.write("gray", args.fmt, words), 0
    from . import codes

    return serialize.write("gray", args.fmt, codes.gray_sequence(n)), 0


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
