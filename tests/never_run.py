"""List the package statements that the tier-1 suite never runs.

Runs the test suite in this process under ``sys.settrace`` (standard
library only, no coverage package) and prints, per module of
``src/mathverify``, the AST statements no test executed, then the totals.
Docstrings, and ``global``/``nonlocal`` declarations, which compile to
no code, are not statements here.  A simple statement counts as run
when any of its lines ran; a compound statement (``if``, ``for``, ``def``,
...) when a line of its header ran, decorators included.

Pool workers that ``--jobs``/``jobs=2`` start are not traced, so code that
only runs inside a worker is listed as never run.

    python tests/never_run.py [pytest arguments]

Extra arguments go to pytest; the default is the whole ``tests/``
directory.  Tracing makes the suite several times slower.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
PACKAGE_DIR = TESTS_DIR.parent / "src" / "mathverify"


def _trace_lines(run):
    """``run()``'s result, and filename -> the line numbers executed in
    ``PACKAGE_DIR`` while it ran."""
    prefix = str(PACKAGE_DIR) + "/"
    executed: dict[str, set[int]] = {}
    local_tracers: dict = {}

    def local_tracer(filename: str):
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in local_tracers:
            local_tracers[filename] = local_tracer(filename)
        return local_tracers[filename]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, executed


_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def _statements(tree: ast.Module):
    """(statement, lines that show it ran) for every non-docstring statement."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, _DOCUMENTED) and node.body and _is_docstring(node.body[0])
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings \
                or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        body = getattr(node, "body", None)
        if body:
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            last = max(first, body[0].lineno - 1)
        else:
            first, last = node.lineno, node.end_lineno
        yield node, range(first, last + 1)


def never_run(executed: dict[str, set[int]]) -> dict[str, tuple[int, list[ast.stmt]]]:
    """Module file name -> (its statement count, the statements never run)."""
    result = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        ran = executed.get(str(path), set())
        statements = list(_statements(ast.parse(path.read_text(encoding="utf-8"))))
        result[path.name] = (len(statements), [
            node for node, lines in statements if not ran.intersection(lines)
        ])
    return result


def main(argv: list[str]) -> int:
    # Trace the package under PACKAGE_DIR, not an installed copy.
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    args = argv or [str(TESTS_DIR)]
    status, executed = _trace_lines(
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", *args]))
    total = total_missed = 0
    for name, (count, missed) in never_run(executed).items():
        total += count
        total_missed += len(missed)
        print(f"{name}: {len(missed)} of {count} never run")
        for node in sorted(missed, key=lambda n: n.lineno):
            print(f"    {node.lineno}: {type(node).__name__}")
    print(f"total: {total_missed} of {total} statements never run")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
