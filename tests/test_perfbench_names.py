"""The benchmark under perfbench/ reaches the package by name: keep those names.

perfbench/spans.py wraps module attributes and Graph methods by name, and
the workload modules import functions from sierham.maps by name. Renaming
or deleting one of them breaks the benchmark, so the wrapping is resolved
here without running any workload.
"""
from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_resolves_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("verify_solve", "build_query", "cli_export"):
        importlib.import_module(name)
    spans = importlib.import_module("spans")
    targets = spans._targets(spans.Recorder())
    # one entry per (owner, name) pair; a name that vanishes from cli or
    # maps drops its entry without an error, so the count is pinned too
    assert len(targets) == 43
    for owner, attr, wrapped in targets:
        assert callable(getattr(owner, attr))
        assert wrapped.__wrapped__ is owner.__dict__[attr]
