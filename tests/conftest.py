import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

from sierham import cli, exact, graphs, maps, serialize  # noqa: E402


@pytest.fixture
def block_passes(monkeypatch):
    """One list per graphs.row_blocks pass of the test, holding its blocks' row counts.

    The counting pass-through replaces row_blocks in graphs and in maps, which
    imports it (serialize reads it from graphs on each call); set the block size
    with monkeypatch on graphs.ROW_BLOCK.
    """
    passes = []
    row_blocks = graphs.row_blocks

    def counting(a):
        sizes = []  # its own list: two passes may interleave, as zipped columns do
        passes.append(sizes)
        for block in row_blocks(a):
            sizes.append(len(block))
            yield block

    for module in (graphs, maps):
        monkeypatch.setattr(module, "row_blocks", counting)
    return passes


@pytest.fixture
def primitive_calls(monkeypatch):
    """The value of every _lines and _json call of the test, in call order."""
    calls = []

    def counted(primitive):
        def wrapper(*args, **kwargs):
            calls.append(primitive(*args, **kwargs))
            return calls[-1]

        return wrapper

    for name in ("_lines", "_json"):  # defined in exact, bound in serialize and cli too
        wrapper = counted(getattr(exact, name))
        for module in (exact, serialize, cli):
            monkeypatch.setattr(module, name, wrapper)
    return calls
