"""Two costs that the front end pays per token and per node stay out of
``src/mathverify``.

* A stock ``dataclass(frozen=True, slots=True)`` ``__init__`` writes each
  field through ``object.__setattr__``, about twice the cost of the
  member-descriptor writes `ir.frozen` generates; every frozen slotted
  record is declared through `ir.frozen`, which alone applies the stock
  decorator.
* Reading a member of an enum (``TokenCategory.LETTER``) costs about three
  times a module global.  `parser` binds the members of `TokenCategory`
  and `NodeKind` as module names once; no function body reads them as
  attributes.
* `normform.poly_mul` by a one-term constant polynomial scales the other
  factor's settled terms without a `mono_mul` per term; most products
  in normalization are of that kind.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from mathverify import normform
from mathverify.ir import FunctionApp, Pow, Var

PACKAGE_DIR = Path(__file__).parent.parent / "src" / "mathverify"
ENUMS = {"TokenCategory", "NodeKind"}


def _trees():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


def _is_true(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _stock_frozen_slotted(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    flags = {kw.arg for kw in call.keywords if _is_true(kw.value)}
    return name == "dataclass" and {"frozen", "slots"} <= flags


def test_no_stock_frozen_slotted_dataclass_outside_the_decorator():
    found = []
    for path, tree in _trees():
        allowed = set()
        if path.name == "ir.py":
            decorator = next(f for f in _functions(tree)
                             if getattr(f, "name", None) == "frozen")
            allowed = {id(node) for node in ast.walk(decorator)}
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and _stock_frozen_slotted(node)
                     and id(node) not in allowed)
    assert not found, "stock frozen slotted dataclasses; use ir.frozen:\n" + \
        "\n".join(found)


def _enum_member_read(node) -> bool:
    if not isinstance(node, ast.Attribute):
        return False
    owner = node.value
    return (isinstance(owner, ast.Name) and owner.id in ENUMS) or \
        (isinstance(owner, ast.Attribute) and owner.attr in ENUMS)


def test_no_function_body_reads_an_enum_member():
    found = set()
    for path, tree in _trees():
        for function in _functions(tree):
            body = function.body if isinstance(function.body, list) else [function.body]
            found.update(f"{path.name}:{node.lineno}"
                         for statement in body for node in ast.walk(statement)
                         if _enum_member_read(node))
    assert not found, "enum members read in function bodies; import the " \
        "module names parser binds:\n" + "\n".join(sorted(found))


def test_scaling_by_a_constant_calls_no_mono_mul(monkeypatch):
    x, y = Var("x"), Var("y")
    q = {(): 3, ((x, 1), (y, 4)): Fraction(1, 2), ((FunctionApp("sin", (), (x,)), -2),): -1,
         ((Pow(x, Var("s")), Fraction(1, 3)),): 2}

    def mono_mul(*args):
        raise AssertionError("mono_mul called")

    monkeypatch.setattr(normform, "mono_mul", mono_mul)
    ctx = normform.NormContext()
    assert normform.poly_mul(normform.ONE_POLY, q, ctx) == q
    assert normform.poly_mul(q, normform.const_poly(-2), ctx) == \
        {m: -2 * c for m, c in q.items()}
    assert ctx.steps == 4 * len(q)
    with pytest.raises(AssertionError, match="mono_mul called"):
        normform.poly_mul({((x, 1),): 1}, {((y, 1),): 1}, ctx)
