"""Requests, outcomes and the closed loop shared by every workload."""
from __future__ import annotations

import os
import random
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from oracle import Mismatch

# A request that has not returned within this many seconds has failed. CLI
# children are killed at this point; in-process calls cannot be interrupted,
# so they are judged when they return.
TIMEOUT_S = 3.0


@dataclass
class Request:
    cls: str  # request class: one entry of a round, fixed across seeds
    run: Callable[[], object]  # the timed call into the program
    check: Callable[[object], None]  # raises Mismatch on a wrong output
    # For a batch of scalar calls: the layer the benchmark times it as, and
    # the counts it adds, since such calls are not wrapped one by one.
    span: str | None = None
    counts: dict[str, int] = field(default_factory=dict)


@dataclass
class Outcome:
    cls: str
    latency_s: float
    status: str  # ok, wrong, error or timeout
    detail: str = ""
    child_rss_kb: int = 0  # peak RSS of a CLI child
    out_bytes: int = 0  # what a CLI child wrote to stdout


@dataclass
class Loop:
    """What one closed-loop phase measured."""

    outcomes: list[Outcome] = field(default_factory=list)
    round_rates: list[float] = field(default_factory=list)  # successes / wall time, per round

    @property
    def rounds(self) -> int:
        return len(self.round_rates)

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.status == "ok"]


@dataclass
class ChildResult:
    code: int
    out: str
    err: str
    maxrss_kb: int
    timed_out: bool


def run_child(cmd: list[str], env: dict[str, str], cwd: str, timeout: float = TIMEOUT_S) -> ChildResult:
    """Run one child process, killing it after `timeout` seconds.

    The child is reaped with wait4 to read its own peak RSS. It is left a
    zombie until the killer can no longer fire, so the pid it signals is
    never reused.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    streams: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
        for k, f in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for t in readers:
        t.start()
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
    finally:
        timer.cancel()
        kill()  # no-op once the child has exited
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    return ChildResult(
        proc.returncode,
        streams.get("out", b"").decode(),
        streams.get("err", b"").decode(),
        usage.ru_maxrss,
        state["killed"],
    )


def judge(req: Request, recorder=None, request_id: object = None) -> Outcome:
    """Run one request, time it, and check its output."""
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = req.run()
        else:
            with recorder.span("request", request_id):
                if req.span is None:
                    out = req.run()
                else:
                    with recorder.span(req.span):
                        out = req.run()
                    for key, value in req.counts.items():
                        recorder.add(key, value)
    except Exception as exc:  # an unexpected error from the program
        return Outcome(req.cls, time.perf_counter() - t0, "error", repr(exc))
    latency = time.perf_counter() - t0
    if (isinstance(out, ChildResult) and out.timed_out) or latency > TIMEOUT_S:
        return Outcome(req.cls, latency, "timeout", f"over {TIMEOUT_S} s")
    try:
        req.check(out)
    except Mismatch as exc:
        return Outcome(req.cls, latency, "wrong", str(exc))
    except Exception as exc:  # output too malformed for the check to parse
        return Outcome(req.cls, latency, "wrong", repr(exc))
    if isinstance(out, ChildResult):
        return Outcome(req.cls, latency, "ok", child_rss_kb=out.maxrss_kb, out_bytes=len(out.out.encode()))
    return Outcome(req.cls, latency, "ok")


def run_rounds(workload, rng: random.Random, seconds: float, recorder=None) -> Loop:
    """Send whole rounds back to back until `seconds` have passed.

    A round holds every request class of the workload once, in an order
    the seed shuffles, so every run sees the same size mix. The round in
    progress at the deadline is finished.
    """
    loop = Loop()
    start = time.perf_counter()
    while loop.rounds == 0 or time.perf_counter() - start < seconds:
        reqs = workload.round(rng)
        rng.shuffle(reqs)
        t0 = time.perf_counter()
        done = [judge(req, recorder, f"{loop.rounds}.{i}") for i, req in enumerate(reqs)]
        loop.round_rates.append(sum(o.status == "ok" for o in done) / (time.perf_counter() - t0))
        loop.outcomes += done
    return loop
