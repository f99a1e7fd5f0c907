"""README's library example must only list names that `patex` exports, and
every other export, and every public method and property of an exported
class, must have a caller inside the package."""

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


# Public members with no caller in the package, each kept for a stated reason.
KEPT_UNCALLED = {
    # the reference stream that `bernoulli_mask` is tested against
    ("SplitMix64", "bernoulli"),
}


def readme_library_block() -> str:
    block = re.search(r"## Library\n+```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    return block.group(1)


def package_names() -> set[str]:
    """Every name and attribute read anywhere in the package but its
    `__init__`."""
    used = set()
    for path in Path(patex.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def exports() -> dict:
    return {
        name: value
        for name, value in vars(patex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_export_is_used_or_documented():
    used = package_names()
    assert exports()
    assert sorted(name for name in exports() if name not in used | set(readme_library_names())) == []
    # the same rule for the public methods and properties of exported classes
    known = used | set(re.findall(r"\w+", readme_library_block()))
    members = [
        (cls_name, name)
        for cls_name, cls in exports().items()
        if isinstance(cls, type)
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (types.FunctionType, classmethod, staticmethod, property))
    ]
    assert ("ZeroOneMatrix", "parse") in members
    unused = [m for m in members if m[1] not in known and m not in KEPT_UNCALLED]
    assert sorted(unused) == []
    assert sorted(m for m in KEPT_UNCALLED if m[1] in known) == []
