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
