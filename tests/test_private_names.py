"""No package module reads another package module's private name.

A name that starts with an underscore is private to the module that
defines it.  A module in ``src/mathverify`` that imports such a name from
another package module (``from .parser import _needs_space``), or reads
it as an attribute of one (``parser._needs_space``), couples itself to
that module's internals; the shared decision belongs in a public name.
Dunder names (``__version__``) are not private here.  Tests may read
private names.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).parent.parent / "src" / "mathverify"
PACKAGE = PACKAGE_DIR.name


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(module: str | None, level: int) -> str | None:
    """The package module an import names (``.parser``,
    ``mathverify.parser``), or ``""`` for the package itself; None for
    anything outside the package."""
    module = module or ""
    if level == 1:
        return module
    if level == 0 and (module == PACKAGE or module.startswith(PACKAGE + ".")):
        return module[len(PACKAGE) + 1:]
    return None


def _private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem
    modules = {p.stem for p in PACKAGE_DIR.glob("*.py")}
    # Local name -> the package module it is bound to.
    bound: dict[str, str] = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _package_module(node.module, node.level)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif source != own and _is_private(alias.name):
                    found.append(f"{path.name}:{node.lineno}: "
                                 f"imports {alias.name} from {source or PACKAGE}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                source = _package_module(alias.name, 0)
                if source and alias.asname:
                    bound[alias.asname] = source
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and bound.get(node.value.id, own) != own and _is_private(node.attr):
            found.append(f"{path.name}:{node.lineno}: "
                         f"reads {bound[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found.extend(_private_reads(path))
    assert not found, "private names read across modules:\n" + "\n".join(found)
