"""A `symbolic.simplify` candidate counts its steps on one counter,
`normform.NormContext`, so that ``steps_used`` and the point where a
budget runs out are decided in one place.

* Only `normform` raises ``BudgetExceeded``: `NormContext.tick` and
  `NormContext.charge` when the budget runs out, and the expansion cap.
* No class but `NormContext` defines a ``tick`` or ``_tick`` method, so a
  pass cannot grow a budget of its own beside it.
"""

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).parent.parent / "src" / "mathverify"
COUNTER_METHODS = {"tick", "_tick"}


def _trees():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _names_budget_exceeded(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "BudgetExceeded") or \
        (isinstance(node, ast.Attribute) and node.attr == "BudgetExceeded")


def test_only_normform_raises_budget_exceeded():
    found = []
    for path, tree in _trees():
        if path.name == "normform.py":
            continue
        for node in ast.walk(tree):
            raised = node.func if isinstance(node, ast.Call) else \
                node.exc if isinstance(node, ast.Raise) else None
            if raised is not None and _names_budget_exceeded(raised):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "BudgetExceeded raised outside normform; tick the " \
        "candidate's NormContext instead:\n" + "\n".join(found)


def test_only_norm_context_defines_a_step_counter():
    found = []
    for path, tree in _trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if path.name == "normform.py" and cls.name == "NormContext":
                continue
            found.extend(f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                         for node in cls.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and node.name in COUNTER_METHODS)
    assert not found, "step counters outside NormContext:\n" + "\n".join(found)


def test_norm_context_is_found_where_the_guards_expect_it():
    # The guards above pass vacuously if the counter moves or is renamed.
    tree = ast.parse((PACKAGE_DIR / "normform.py").read_text(encoding="utf-8"))
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "NormContext")
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert {"tick", "charge", "reuse"} <= methods
