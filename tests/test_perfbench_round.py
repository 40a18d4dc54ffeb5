"""One round of every benchmark workload, judged by the benchmark's own checks.

perfbench/ refuses a run whose outputs are wrong, so a wrong output here is
caught before a benchmark run. Each workload's round (and the in-process
dispatch round of cli-export, which needs no child interpreter) goes through
common.judge with a fixed seed; no outcome may be wrong or raise.
"""
from __future__ import annotations

import importlib
import random
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize(
    "module,phase", [("build_query", "round"), ("verify_solve", "round"), ("cli_export", "dispatch")]
)
def test_one_round_is_judged_correct(module, phase, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    judge = importlib.import_module("common").judge
    workload = importlib.import_module(module).Workload()
    requests = getattr(workload, phase)(random.Random(f"{module}-{phase}"))
    assert requests
    failed = [
        (o.cls, o.status, o.detail)
        for o in map(judge, requests)
        if o.status in ("wrong", "error")
    ]
    assert failed == []


def test_every_table_request_reaches_a_traced_writer(monkeypatch):
    """The spans wrap serialize's writers as module attributes, so a writer
    reached through a reference taken at import time escapes the trace."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    common = importlib.import_module("common")
    spans = importlib.import_module("spans")
    workload = importlib.import_module("cli_export").Workload()
    requests = workload.dispatch(random.Random(3))
    with spans.installed(spans.Recorder()) as rec:
        outcomes = [common.judge(req, rec, req.cls) for req in requests]
    assert [o.status for o in outcomes] == ["ok"] * len(requests)
    written = {request for name, *_, request in rec.spans if name == "serialize.write"}
    tables = [
        req.cls for req in requests
        if req.cls.startswith(("gen-", "embed-", "hanoi-")) or req.cls in ("diplomats", "check-fixtures")
    ]
    assert len(tables) == 13
    assert [cls for cls in tables if cls not in written] == []
