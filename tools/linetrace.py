"""List the function-body statements of ``src/docalc`` that tier-1 never runs.

Runs the tier-1 suite in this process under ``sys.settrace``, with the
tracer limited to frames whose code lives in ``src/docalc``, then walks
each module's functions with ``ast`` and prints every statement none of
whose own lines produced a line event: a simple statement owns all its
lines, a compound one (``if``, ``for``, ``while``, ``with``, a nested
``def``) only its header.  ``try`` and ``else`` headers run no code and
are not listed; a function's docstring is not a statement that runs.

Code reached only from a subprocess (the demos) is not traced and shows
up as unrun.  The report exits 0 whatever it finds; its arguments go to
pytest, e.g. ``tests/test_identify.py`` to trace one file.

    python tools/linetrace.py [PYTEST-ARGS...]
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "docalc"

_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
             ast.ExceptHandler)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; returns (its exit code, the lines run
    per file of the package)."""
    import pytest

    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}
    wanted: dict[object, bool] = {}

    def local(frame, event, _arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, _arg):
        code = frame.f_code
        keep = wanted.get(code)
        if keep is None:
            keep = wanted[code] = code.co_filename.startswith(prefix)
            if keep:
                hit.setdefault(code.co_filename, set())
        return local if keep else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose events mean ``stmt`` ran: a compound statement's
    header up to its body, a simple statement's every line."""
    if isinstance(stmt, _DEFS):
        first = min([d.lineno for d in stmt.decorator_list] + [stmt.lineno])
        return range(first, stmt.body[0].lineno)
    if isinstance(stmt, _COMPOUND):
        return range(stmt.lineno, stmt.body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def _body_statements(body: list[ast.stmt]):
    """The statements of a function body that run code, nested bodies included."""
    for i, stmt in enumerate(body):
        if i == 0 and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            continue  # a docstring
        if isinstance(stmt, (ast.Global, ast.Nonlocal, ast.ClassDef)):
            continue
        if not isinstance(stmt, ast.Try):
            yield stmt
        if isinstance(stmt, _DEFS):
            yield from _body_statements(stmt.body)
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _body_statements(getattr(stmt, field, []))
        for handler in getattr(stmt, "handlers", []):
            yield handler
            yield from _body_statements(handler.body)


def _functions(tree: ast.AST):
    """The outermost functions of a module, methods included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                if isinstance(stmt, _DEFS):
                    yield stmt


def unrun(path: Path, lines: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each function-body statement of
    ``path`` none of whose own lines is in ``lines``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    out = {}
    for fn in _functions(ast.parse(source)):
        for stmt in _body_statements(fn.body):
            if not lines.intersection(_own_lines(stmt)):
                out[stmt.lineno] = f"{fn.name}: {text[stmt.lineno - 1].strip()}"
    return sorted(out.items())


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, hit = run_traced(argv)
    total = 0
    print(f"\nfunction-body statements of src/docalc that never ran (pytest exit {code}):")
    for path in sorted(PACKAGE.glob("*.py")):
        for lineno, what in unrun(path, hit.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{lineno}: {what}")
            total += 1
    print(f"{total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
