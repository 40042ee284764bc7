"""Every definition in the package is used somewhere.

A top-level function or class, or a non-dunder method, that no module in
``src/`` or ``tests/`` names is dead code.  A name counts as used when it
appears as a name, an attribute, an imported name or an identifier-shaped
string constant anywhere outside its own ``def``/``class`` line; a
method must appear as an attribute or a string, since a local variable of
the same name does not reach it.
"""

import ast
from pathlib import Path

TESTS_DIR = Path(__file__).parent
PACKAGE_DIR = TESTS_DIR.parent / "src" / "mathverify"


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}"


def _used_names(tree: ast.AST, names: set[str], attributes: set[str]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            attributes.add(node.value)


def test_no_unreferenced_definitions():
    package_files = sorted(PACKAGE_DIR.glob("*.py"))
    scanned = package_files + sorted(TESTS_DIR.rglob("*.py"))
    names: set[str] = set()
    attributes: set[str] = set()
    for path in scanned:
        _used_names(ast.parse(path.read_text(encoding="utf-8")), names, attributes)
    dead = []
    for path in package_files:
        for qualname in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            owner, _, name = qualname.rpartition(".")
            if name not in attributes and (owner or name not in names):
                dead.append(f"{path.name}: {qualname}")
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)
