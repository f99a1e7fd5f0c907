"""README's library example must only list names that `patex` exports."""

import re
from pathlib import Path

import patex

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_imports_are_exported():
    block = re.search(r"from patex import \(([^)]*)\)", README.read_text())
    assert block is not None
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    assert [name for name in names if not hasattr(patex, name)] == []
