"""README's library example must only list names that `patex` exports, and
every other export must have a caller inside the package."""

import ast
import re
import types
from pathlib import Path

import patex

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_library_names() -> list[str]:
    block = re.search(r"from patex import \(([^)]*)\)", README.read_text())
    assert block is not None
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


def test_library_imports_are_exported():
    names = readme_library_names()
    assert names
    assert [name for name in names if not hasattr(patex, name)] == []


def test_every_export_is_used_or_documented():
    used = set()
    for path in Path(patex.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    documented = set(readme_library_names())
    exports = [
        name
        for name, value in vars(patex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert exports
    assert sorted(name for name in exports if name not in used | documented) == []
