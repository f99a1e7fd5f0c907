"""Line audit: list every function-body line of `patex` that a test run never
executes.

A pytest plugin, standard library only. It installs a `sys.settrace` tracer
that records line events only in frames whose file lies in the imported
`patex` package, and at the end of the session prints each function-body
line that never ran, grouped by module, with per-module counts. Module and
class bodies are left out: they run at import. Processes the tests spawn
are not traced. A never-run line that ends in `# unreachable: <reason>` is
intended to be unreachable; it is listed and counted apart. Each package
file's source is read once, when tracing starts, so a file edited during
the run still reports the line numbers that the traced code ran under.

    PYTHONPATH=src:tools python -m pytest -q -p line_audit

Tracing slows the suite several times over, so it is not part of the test
suite. CI runs it over `tests/test_<module>.py` for each of `increment`,
`count`, `cycles`, `cache`, `ohypergraph`, `classify`, `cli`, `search`,
`matrix`, `acceptance` and `rng`, where it requires the line
`<module>.py: 0 of N never ran`.
"""

from __future__ import annotations

import importlib.util
import inspect
import re
import sys
import threading
from pathlib import Path

# file name -> lines seen running, or None for a file outside the package
_hits: dict[str, set[int] | None] = {}
# package file -> its source as it stood when tracing started
_sources: dict[Path, str] = {}
_prefix = ""
_UNREACHABLE = re.compile(r"#\s*unreachable:\s*\S.*$")


def _package_dir() -> Path:
    spec = importlib.util.find_spec("patex")
    if spec is None or spec.origin is None:
        raise RuntimeError("line_audit: the patex package is not importable")
    return Path(spec.origin).parent


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if filename not in _hits:
        _hits[filename] = set() if filename.startswith(_prefix) else None
    lines = _hits[filename]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _body_lines(path: Path, source: str) -> dict[int, str]:
    """Line number -> source text of every line that holds bytecode inside a
    function, lambda or comprehension body (the `def` line excluded)."""
    text = source.splitlines()
    found: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if not code.co_flags & inspect.CO_NEWLOCALS:
            continue  # module or class body
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                found.add(line)
    return {n: text[n - 1].strip() for n in sorted(found)}


def pytest_load_initial_conftests(early_config, parser, args):
    # Before the conftests load, so the package code they import is traced.
    global _prefix
    package = _package_dir()
    _prefix = str(package) + "/"
    _sources.update((path, path.read_text()) for path in sorted(package.glob("*.py")))
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    tr = terminalreporter
    tr.section("line audit: function-body lines never run")
    total = missed = 0
    per_module = []
    intended = []
    for path, source in _sources.items():
        body = _body_lines(path, source)
        ran = _hits.get(str(path)) or set()
        never = []
        for n, src in body.items():
            if n not in ran:
                line = f"{path.name}:{n}: {src}"
                (intended if _UNREACHABLE.search(src) else never).append(line)
        total += len(body)
        missed += len(never)
        per_module.append((path.name, len(never), len(body)))
        for line in never:
            tr.write_line(line)
    tr.write_line("")
    tr.write_line("marked unreachable, never ran:")
    for line in intended:
        tr.write_line(line)
    tr.write_line("")
    for name, k, n in sorted(per_module, key=lambda row: (-row[1], row[0])):
        tr.write_line(f"{name}: {k} of {n} never ran")
    tr.write_line(
        f"total: {missed} of {total} function-body lines never ran, "
        f"and {len(intended)} marked unreachable"
    )
