"""`ir.frozen`, the decorator every frozen slotted record in the package is
declared through, keeps the stock ``dataclass(frozen=True, slots=True)``
semantics.

Each class is compared with a stock twin built from its own fields by
`dataclasses.make_dataclass`: the twin's ``__init__`` signature, ``repr``
and hash are the reference, so only the generated ``__init__`` differs.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import mathverify
from mathverify import ir
from mathverify.constraints import (
    BASE_REAL,
    ConstraintBlueprint,
    SpecialValueAssignment,
    VariableDomain,
)
from mathverify.errors import MalformedRule, MathVerifyError
from mathverify.extraction import ChapterSource, FormulaRecord, PreambleMacro, _Env
from mathverify.ir import (
    HALF,
    ONE,
    Add,
    BigOp,
    Const,
    Derivative,
    FunctionApp,
    Mul,
    Neg,
    Number,
    Pow,
    Relation,
    Var,
    frozen,
)
from mathverify.normform import EMPTY_MONO, RatForm
from mathverify.parser import (
    GROUP,
    LETTER,
    ParseNode,
    SemanticMacroDef,
    Token,
    leaf,
)
from mathverify.symbolic import RewriteRule
from mathverify.translate import TranslationEntry

_X = Var("x")
_TOKEN_ARGS = ("x", LETTER, 3)
_TOKEN = Token(*_TOKEN_ARGS)
_GROUP_ARGS = (GROUP, None, None, None, "", False, (), (), (), None, None, None,
               (leaf(_TOKEN),))
_GROUP = ParseNode(*_GROUP_ARGS)
_MACRO_ARGS = ("\\half", 1, "\\frac{#1}{2}")

# One instance of every class declared through `frozen`, as the positional
# values of all its fields.
SAMPLES = {
    Number: (Fraction(1, 2),),
    Const: (ir.PI,),
    Var: ("x",),
    Add: ((_X, ONE),),
    Mul: ((Number(Fraction(2)), _X),),
    Pow: (_X, HALF),
    Neg: (_X,),
    FunctionApp: ("sin", (), (_X,)),
    Derivative: (FunctionApp("f", (), (_X,)), "x", 2),
    BigOp: (ir.OP_SUM, "k", ONE, Var("n"), Var("k")),
    Relation: (ir.REL_EQ, _X, ONE),
    Token: _TOKEN_ARGS,
    SemanticMacroDef: ("\\sin", 0, 0, 1, "single", "sin", "4.14.1"),
    ParseNode: _GROUP_ARGS,
    RatForm: ({((_X, 1),): 2}, {EMPTY_MONO: 1}),
    FormulaRecord: ("EF.1", "EF", "x = x", ("x > 0",), "eq:1", 3, None),
    PreambleMacro: _MACRO_ARGS,
    ChapterSource: ("EF", "\\begin{equation}x\\end{equation}",
                    (PreambleMacro(*_MACRO_ARGS),)),
    _Env: ("equation", "x = 1", 4),
    VariableDomain: ("x", BASE_REAL, (Fraction(0), True, None, False), None, None,
                     (Fraction(1),)),
    SpecialValueAssignment: ((("x", Fraction(1)),), "x = 1"),
    ConstraintBlueprint: ((_TOKEN,), ("var1",), (Fraction(1),), "var1 = 1"),
    RewriteRule: (Var("var1"), Var("var1"), (("var1", "ge", Fraction(0)),), "r"),
    TranslationEntry: ("sin", "sin", "sin", True, "none", "notes"),
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _declared_frozen_classes() -> set[type]:
    """Every frozen slotted dataclass a package module defines."""
    found = set()
    for info in pkgutil.iter_modules(mathverify.__path__):
        module = importlib.import_module(f"mathverify.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__ \
                    and dataclasses.is_dataclass(obj) \
                    and obj.__dataclass_params__.frozen and "__slots__" in vars(obj):
                found.add(obj)
    return found


def _twin(cls: type) -> type:
    """The stock frozen slotted dataclass with ``cls``'s name and fields."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type, dataclasses.field(default=f.default, repr=f.repr,
                                            hash=f.hash, compare=f.compare))
         for f in dataclasses.fields(cls)],
        frozen=True, slots=True,
    )


def _values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return type(exc)


def test_samples_cover_every_frozen_class():
    assert _declared_frozen_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_fields_compare_and_hash_as_the_stock_dataclass(cls):
    a, b = cls(*SAMPLES[cls]), cls(*SAMPLES[cls])
    assert a == b and a is not b
    twin = _twin(cls)(*SAMPLES[cls])
    assert _hash_or_error(a) == _hash_or_error(b) == _hash_or_error(twin)
    assert repr(a) == repr(twin)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_parameters_and_defaults_are_the_stock_dataclass(cls):
    def params(c):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(c).parameters.values()]

    twin = _twin(cls)
    assert params(cls) == params(twin)
    values = SAMPLES[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, values))) == cls(*values)
    required = [v for v, f in zip(values, dataclasses.fields(cls))
                if f.default is dataclasses.MISSING]
    assert _values(cls(*required)) == _values(twin(*required))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*SAMPLES[cls])
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    assert _values(obj) == list(SAMPLES[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_and_replace_round_trip(cls):
    obj = cls(*SAMPLES[cls])
    clone = pickle.loads(pickle.dumps(obj))
    assert clone == obj and _values(clone) == _values(obj)
    assert _hash_or_error(clone) == _hash_or_error(obj)
    copy = dataclasses.replace(obj)
    assert copy == obj and copy is not obj and _values(copy) == _values(obj)


def test_token_offset_does_not_count():
    moved = dataclasses.replace(_TOKEN, byte_offset=9)
    assert moved.byte_offset == 9
    assert moved == _TOKEN and hash(moved) == hash(_TOKEN)
    assert Token("x", LETTER).byte_offset == -1


def test_ir_hash_is_memoized_as_the_stock_field_hash():
    expr = Add((Pow(_X, HALF), Neg(FunctionApp("sin", (), (_X,)))))
    assert not hasattr(expr, "_hash")
    expected = hash((expr.terms,))
    assert hash(expr) == expected and expr._hash == expected


def test_number_coerces_its_value():
    assert Number(3).value == Fraction(3) and type(Number(3).value) is Fraction


@pytest.mark.parametrize("build, error", [
    (lambda: Const("bogus"), ValueError),
    (lambda: Derivative(_X, "x", 0), ValueError),
    (lambda: Relation("approx", _X, ONE), ValueError),
    (lambda: FormulaRecord("XX.1", "XX", "x = x"), MathVerifyError),
    (lambda: VariableDomain("x", BASE_REAL, (None, False, None, False),
                            (Fraction(0), Fraction(1), None)), MathVerifyError),
    (lambda: ConstraintBlueprint((_TOKEN,), (), (), "x"), MalformedRule),
], ids=["Const", "Derivative", "Relation", "FormulaRecord", "VariableDomain",
        "ConstraintBlueprint"])
def test_post_init_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("spec", [
    dataclasses.field(default_factory=tuple),
    dataclasses.field(init=False, default=0),
    dataclasses.field(kw_only=True, default=0),
], ids=["default_factory", "init_false", "kw_only"])
def test_unsupported_field_features_are_refused(spec):
    with pytest.raises(TypeError):
        @frozen
        class Unsupported:
            name: str
            extra: object = spec
