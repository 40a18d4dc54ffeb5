"""Self-test of the benchmark: wrong outputs must count as failures.

Run from the repository root:

    python3 perfbench/selftest.py

It breaks the program's outputs on purpose, in process and for CLI
results, and checks that each broken request is judged failed, that
failures lower success_ratio (1 - fail_ratio), and that a timed-out
child is killed and counted failed without being called incorrect.
Exits 0 when every case behaves.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import build_query  # noqa: E402
import cli_export  # noqa: E402
import run  # noqa: E402
import sierham.graphs  # noqa: E402
from common import ChildResult, Loop, Request, judge, run_child, run_rounds  # noqa: E402


def drop_last_edge(build):
    def broken(n, m):
        g = build(n, m)
        return sierham.graphs.Graph(n, m, g.kind, g.edges[:-1])

    return broken


def case_in_process() -> None:
    """A builder that loses one edge fails every S(n,m) request of a round."""
    workload = build_query.Workload()
    original = sierham.graphs.build_sierpinski
    sierham.graphs.build_sierpinski = drop_last_edge(original)
    try:
        loop = run_rounds(workload, random.Random(0), 0.0)
    finally:
        sierham.graphs.build_sierpinski = original
    expected = sum(c for kind, _, _, c in build_query.ROUND if kind == "sierpinski")
    wrong = [o for o in loop.outcomes if o.status == "wrong"]
    assert len(wrong) == expected, [o.detail for o in wrong]
    assert all(o.cls.startswith("sierpinski") for o in wrong)
    ratio = run.end_to_end(workload, loop, 1.0)["success_ratio"][0]
    assert ratio == 1 - expected / len(loop.outcomes), ratio

    clean = run_rounds(workload, random.Random(0), 0.0)
    assert all(o.status == "ok" for o in clean.outcomes), [o.detail for o in clean.outcomes]


def case_cli_outputs() -> None:
    """Tampered CLI output, a wrong exit code, and a missing refusal fail."""
    workload = cli_export.Workload()
    commands = {cls: (argv, check) for cls, argv, check in workload.commands(random.Random(0))}
    argv, check = commands["gen-text"]
    good = cli_export.run_in_process(argv)
    lines = good.out.splitlines(keepends=True)
    u, v = lines[1].split()
    lines[1] = f"{u} {v[:-1]}{(int(v[-1]) + 1) % 3}\n"  # no longer an edge, or a repeat
    cases = {
        "ok": good,
        "tampered": ChildResult(0, "".join(lines), "", 0, False),
        "truncated": ChildResult(0, "".join(lines[:-1]), "", 0, False),
        "exit-code": ChildResult(1, good.out, "", 0, False),
    }
    status = {name: judge(Request("gen-text", lambda r=res: r, check)).status for name, res in cases.items()}
    assert status == {"ok": "ok", "tampered": "wrong", "truncated": "wrong", "exit-code": "wrong"}, status

    _, refused = commands["refuse-scale"]
    fake = ChildResult(0, "sierpinski graph ...\n", "", 0, False)
    assert judge(Request("refuse-scale", lambda: fake, refused)).status == "wrong"

    loop = Loop(outcomes=[judge(Request(n, lambda r=r: r, check)) for n, r in cases.items()], round_rates=[1.0])
    ratio = run.end_to_end(workload, loop, 1.0)["success_ratio"][0]
    assert ratio == 0.25, ratio


def case_timeout() -> None:
    """A child past its timeout is killed, reaped, and judged a timeout."""
    t0 = time.perf_counter()
    res = run_child([sys.executable, "-c", "import time; time.sleep(30)"], {}, str(HERE), timeout=0.5)
    assert res.timed_out and time.perf_counter() - t0 < 5, res
    outcome = judge(Request("sleep", lambda: res, lambda r: None))
    assert outcome.status == "timeout", outcome


def main() -> int:
    failures = 0
    for case in (case_in_process, case_cli_outputs, case_timeout):
        try:
            case()
            print(f"ok    {case.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL  {case.__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
