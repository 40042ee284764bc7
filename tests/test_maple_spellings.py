"""No package module spells a Maple function name.

The Maple column of the bundled ``translation.table`` is the one place a
Maple function name is written; ``emit`` reads it from there.  This test
fails when a string literal in ``src/mathverify`` holds, as a whole word,
a Maple spelling from that table that differs from its IR function id
(``GAMMA``, ``hypergeom``, ``JacobiP``).  A spelling equal to its IR id
(``sin``) is the IR's own name and may appear anywhere.
"""

import ast
import re
from pathlib import Path

from mathverify.pipeline import data_text
from mathverify.translate import load_translation_table

PACKAGE_DIR = Path(__file__).parent.parent / "src" / "mathverify"


def _maple_only_spellings() -> set[str]:
    table = load_translation_table(data_text("translation.table"))
    return {e.maple_name for e in table if e.maple_name not in (None, e.ir_id)}


def test_no_module_spells_a_maple_function_name():
    spellings = _maple_only_spellings()
    assert {"GAMMA", "hypergeom", "JacobiP"} <= spellings
    word = re.compile(r"\b(?:" + "|".join(map(re.escape, sorted(spellings))) + r")\b")
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.extend(f"{path.name}:{node.lineno}: {m.group()}"
                             for m in word.finditer(node.value))
    assert not found, "Maple function names spelled in the package:\n" + "\n".join(found)
