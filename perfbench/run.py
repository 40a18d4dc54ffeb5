"""The sierham benchmark: one closed-loop workload per run, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload build-query --seed 1 --seconds 30 --trace 0

Workloads: build-query, verify-solve, cli-export (see README.md). One
client sends requests back to back. With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1
the run spends half its time untraced and half traced, and the JSON holds
the per-layer metrics. Spans of a traced run are written to
perfbench/out/. The exit code is 0 whenever a result is printed, and 2
when the program cannot be imported.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"build-query": "build_query", "verify-solve": "verify_solve", "cli-export": "cli_export"}
SETUP_REPEATS = 7  # setup_s is the median of this many set-ups, each in its own process


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="time one set-up and print it")
    return ap.parse_args(argv)


def setup(name: str, seed: int):
    """Import sierham, build the workload's request tables, run one warm-up.

    Nothing outside the standard library is imported before this point,
    so the first import of sierham and numpy falls inside the timing.
    """
    t0 = time.perf_counter()
    import sierham  # noqa: F401

    from common import judge

    workload = importlib.import_module(WORKLOADS[name]).Workload()
    warm = judge(workload.warmup(random.Random(f"{seed}-warmup")))
    return time.perf_counter() - t0, workload, warm


def setup_samples(args: argparse.Namespace, first: float) -> list[float]:
    """`first` and SETUP_REPEATS - 1 more set-ups, each in a fresh process."""
    from common import run_child

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        res = run_child(cmd, dict(os.environ), str(ROOT), timeout=120.0)
        if res.code != 0:
            raise RuntimeError(f"set-up probe failed: {res.err.strip()[-500:]}")
        samples.append(float(res.out))
    return samples


def census():
    """One fixed small call into every layer, identical on every workload,
    so that no layer's busy time in a traced run is an unmeasured zero."""
    import cli_export
    import sierham.codes
    import sierham.graphs
    import sierham.hanoi
    import sierham.maps
    import sierham.serialize
    from common import Request
    from oracle import expect

    def run():
        g = sierham.graphs.build_sierpinski(3, 3)
        answers = (g.has_edge((0, 1, 1), (1, 0, 0)), g.degrees().sum())
        phi = sierham.maps.verify_embedding(lambda v: sierham.maps.phi_forward(v, 3), 3, 3)
        twist = sierham.maps.verify_coordinatization(sierham.graphs.build_single_twist(3, 3))
        moves = sierham.hanoi.classic_solution(4, 3).moves
        words = len(sierham.codes.gray_sequence(4))
        back = sierham.serialize.graph_from_json(sierham.serialize.graph_to_json(g))
        density = cli_export.run_in_process(["density", "--n", "2", "--m", "3"]).out
        return answers, phi["verdict"], twist["verdict"], moves, words, back == g, density

    def check(out):
        expect(out == ((True, 78), True, False, 15, 16, True, "1/2\n"), f"census outputs {out}")

    return Request("census", run, check)


def with_units(kind: str, values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in spec}


def end_to_end(workload, loop, setup_s: float) -> dict:
    import numpy as np

    from common import TIMEOUT_S

    ok = loop.ok
    # With no successful request, every request missed the latency limit.
    lat = [o.latency_s * 1e3 for o in ok] or [TIMEOUT_S * 1e3]
    if workload.name == "cli-export":
        rss_kb = max((o.child_rss_kb for o in ok), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return with_units("end_to_end", {
        "setup_s": setup_s,
        "requests_per_s": statistics.median(loop.round_rates),
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_tail_ms": float(np.percentile(lat, workload.tail_pct)),
        "peak_rss_mb": rss_kb / 1024,
        "success_ratio": len(ok) / len(loop.outcomes),
    })


def per_layer(rounds_rec, rounds: int, extra_rec, traced_loop) -> dict:
    """Per-layer values per round of the workload, plus the one-off extras
    (the in-process CLI round and the census)."""
    import cli_export
    import spans

    values = dict.fromkeys(spans.LAYERS.values(), 0.0)
    for k, v in rounds_rec.totals().items():
        values[k] = values.get(k, 0.0) + v / rounds
    for k, v in extra_rec.totals().items():
        values[k] = values.get(k, 0.0) + v
    values["graphs.canon_keep_ratio"] = values["graphs.canon_rows_out"] / values["graphs.canon_rows_in"]
    values["graphs.canon_per_kernel"] = values["graphs.canon_busy_s"] / values["kernels.busy_s"]
    values["cli.import_ms"] = cli_export.import_ms()
    values["cli.bytes_out"] = sum(o.out_bytes for o in traced_loop.ok) / traced_loop.rounds
    return with_units("per_layer", values)


def untraced_run(args, workload):
    from common import run_rounds

    loop = run_rounds(workload, random.Random(args.seed), args.seconds)
    metrics = end_to_end(workload, loop, statistics.median(setup_samples(args, args.setup_s)))
    beyond = sum(o.latency_s * 1e3 > metrics["latency_tail_ms"][0] for o in loop.ok)
    notes = [
        f"tail is p{workload.tail_pct}: {beyond} of {len(loop.ok)} successful requests beyond it",
        f"fail_ratio {1 - metrics['success_ratio'][0]:.6f}",
    ]
    return [loop], [], metrics, notes


def traced_run(args, workload):
    """Half the time untraced, half traced, then the one-off extras."""
    import spans
    from common import judge, run_rounds

    rng = random.Random(args.seed)
    untraced = run_rounds(workload, rng, args.seconds / 2)
    rounds_rec, extra_rec = spans.Recorder(), spans.Recorder()
    with spans.installed(rounds_rec):
        traced = run_rounds(workload, rng, args.seconds / 2, rounds_rec)
    extras = workload.dispatch(random.Random(f"{args.seed}-dispatch")) + [census()]
    with spans.installed(extra_rec):
        extra = [judge(req, extra_rec, f"extra.{i}") for i, req in enumerate(extras)]
    path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        rounds_rec.write(fh, "rounds")
        extra_rec.write(fh, "extra")
    rps = [statistics.median(lp.round_rates) for lp in (untraced, traced)]
    notes = [
        f"per-layer values are per round ({traced.rounds} traced rounds) plus one-off extras",
        f"tracing overhead: traced - untraced requests_per_s = {rps[1] - rps[0]:+.3f} "
        f"({rps[1]:.3f} vs {rps[0]:.3f})",
        f"spans written to {path.relative_to(ROOT)}",
    ]
    return [untraced, traced], extra, per_layer(rounds_rec, traced.rounds, extra_rec, traced), notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sierham" / "__init__.py").is_file():
        print(f"error: no sierham package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    args.setup_s, workload, warm = setup(args.workload, args.seed)
    if args.setup_probe:
        print(args.setup_s)
        return 0
    loops, extra, metrics, notes = (traced_run if args.trace else untraced_run)(args, workload)

    outcomes = [o for lp in loops for o in lp.outcomes]
    wrong = [o for o in outcomes + extra + [warm] if o.status in ("wrong", "error")]
    failed = [o for o in outcomes + extra + [warm] if o.status != "ok"]
    print(f"workload {args.workload} seed {args.seed}: {sum(lp.rounds for lp in loops)} rounds, "
          f"{len(outcomes)} requests, {sum(o.status != 'ok' for o in outcomes)} failed, "
          f"{len(wrong)} wrong or raised")
    print("\n".join(notes))
    for (cls, status, detail), count in sorted(Counter((o.cls, o.status, o.detail) for o in failed).items()):
        print(f"  {count}x {status} {cls}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
