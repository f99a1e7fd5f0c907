"""README's library example must only list names that `patex` exports, and
every other export, and every public method and property of an exported
class, must have a caller inside the package. A method or property counts
as called when its bare name is read anywhere; a classmethod or
staticmethod only when it is read as `Class.name`, so another class's
method of the same name does not count."""

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
    # reads a report's certificate back: tests/test_cli.py checks `contains`
    # reports with it, and an independent report checker needs it
    ("Embedding", "from_json_dict"),
}


def readme_library_block() -> str:
    block = re.search(r"## Library\n+```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    return block.group(1)


def package_names() -> tuple[set[str], set[tuple[str, str]]]:
    """Every name and attribute read anywhere in the package but its
    `__init__`, and every `Name.attribute` read."""
    used, qualified = set(), set()
    for path in Path(patex.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if isinstance(node.value, ast.Name):
                    qualified.add((node.value.id, node.attr))
    return used, qualified


def exports() -> dict:
    return {
        name: value
        for name, value in vars(patex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_export_is_used_or_documented():
    used, qualified = package_names()
    assert exports()
    assert sorted(name for name in exports() if name not in used | set(readme_library_names())) == []
    # the same rule for the public methods and properties of exported classes
    block = readme_library_block()
    known = used | set(re.findall(r"\w+", block))
    known_qualified = qualified | set(re.findall(r"(\w+)\.(\w+)", block))
    members = {
        (cls_name, name): isinstance(member, (classmethod, staticmethod))
        for cls_name, cls in exports().items()
        if isinstance(cls, type)
        for name, member in vars(cls).items()
        if not name.startswith("_")
        and isinstance(member, (types.FunctionType, classmethod, staticmethod, property))
    }
    assert members[("ZeroOneMatrix", "parse")] and not members[("ZeroOneMatrix", "entry")]

    def called(member: tuple[str, str]) -> bool:
        return member in known_qualified if members[member] else member[1] in known

    assert sorted(m for m in members if not called(m) and m not in KEPT_UNCALLED) == []
    assert sorted(m for m in KEPT_UNCALLED if called(m)) == []
