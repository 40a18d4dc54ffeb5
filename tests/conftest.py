import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).resolve().parent))

from sierham import graphs, maps, serialize  # noqa: E402


@pytest.fixture
def block_passes(monkeypatch):
    """One list per graphs.row_blocks pass of the test, holding its blocks' row counts.

    The counting pass-through replaces row_blocks in every module that
    imports it; set the block size with monkeypatch on graphs.ROW_BLOCK.
    """
    passes = []
    row_blocks = graphs.row_blocks

    def counting(a):
        sizes = []  # its own list: two passes may interleave, as zipped columns do
        passes.append(sizes)
        for block in row_blocks(a):
            sizes.append(len(block))
            yield block

    for module in (graphs, maps, serialize):
        monkeypatch.setattr(module, "row_blocks", counting)
    return passes
