"""Tree rebuilding through ``ir.map_children`` and its callers, the
smart constructors' folding, and the hash, sort key and heads each node
memoizes."""

import dataclasses
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathverify import ir
from mathverify.calculus import resolve_derivatives
from mathverify.ir import BigOp, Const, Derivative, FunctionApp, Var
from mathverify.symbolic import RewriteRule, apply_rules, to_exponential_form

NAMES = ("a", "b", "n", "x")
# Derivative.var names the differentiation variable, which substitution
# leaves alone, so it is drawn from names no mapping below touches.
DERIVATIVE_VARS = ("s", "t")
FRESH = "w"

_leaves = st.one_of(
    st.integers(-3, 3).map(ir.num),
    st.sampled_from(sorted(ir.CONSTANT_NAMES)).map(Const),
    st.sampled_from(NAMES).map(Var),
)


def _extend(children):
    operands = st.lists(children, min_size=1, max_size=3)
    bound = st.none() | children
    return st.one_of(
        operands.map(lambda terms: ir.add(*terms)),
        operands.map(lambda factors: ir.mul(*factors)),
        # Leaf exponents keep folded numeric powers small.
        st.builds(ir.power, children, _leaves),
        children.map(ir.neg),
        st.builds(
            lambda func, params, args: FunctionApp(func, tuple(params), tuple(args)),
            st.sampled_from(("sin", "bessel_j")),
            st.lists(children, max_size=2),
            st.lists(children, max_size=2),
        ),
        st.builds(Derivative, children, st.sampled_from(DERIVATIVE_VARS),
                  st.integers(1, 2)),
        st.builds(BigOp, st.sampled_from((ir.OP_SUM, ir.OP_INT)),
                  st.sampled_from(NAMES), bound, bound, children),
    )


exprs = st.recursive(_leaves, _extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(exprs, st.sampled_from(NAMES))
def test_substitute_renames_exactly_the_free_occurrences(expr, v):
    renamed = ir.substitute(expr, {v: Var(FRESH)})
    before = ir.free_variables(expr)
    expected = (before - {v}) | ({FRESH} if v in before else set())
    assert ir.free_variables(renamed) == expected
    # FRESH occurs nowhere in expr, so renaming back restores every node.
    assert ir.substitute(renamed, {FRESH: Var(v)}) == expr


_X = Var("x")
_SEC_RULE = RewriteRule(
    FunctionApp("sec", (), (Var("var1"),)),
    ir.power(FunctionApp("cos", (), (Var("var1"),)), ir.MINUS_ONE),
    (),
    r"\sec@{var1} -> \frac{1}{\cos@{var1}}",
)

_TRANSFORMS = {
    "resolve_derivatives": (resolve_derivatives,
                            Derivative(ir.power(_X, ir.num(3)), "x")),
    "apply_rules": (lambda e: apply_rules(e, (_SEC_RULE,))[0],
                    FunctionApp("sec", (), (_X,))),
    "to_exponential_form": (to_exponential_form, FunctionApp("sinh", (), (_X,))),
}

_NESTINGS = {
    "bigop_lower_bound": lambda e: BigOp(ir.OP_SUM, "k", e, None, Var("k")),
    "bigop_upper_bound": lambda e: BigOp(ir.OP_SUM, "k", ir.ONE, e, Var("k")),
    "function_parameter": lambda e: FunctionApp("bessel_j", (e,), (Var("z"),)),
}


@pytest.mark.parametrize("nesting", sorted(_NESTINGS))
@pytest.mark.parametrize("transform", sorted(_TRANSFORMS))
def test_tree_transforms_reach_nested_nodes(transform, nesting):
    fn, inner = _TRANSFORMS[transform]
    wrap = _NESTINGS[nesting]
    assert fn(inner) != inner
    assert fn(wrap(inner)) == wrap(fn(inner))


# --- memoized hash and sort key ---

def _reference_sort_key(expr):
    """The recursive sort key as it was before nodes memoized it."""
    key = _reference_sort_key
    if isinstance(expr, ir.Number):
        return (0, str(expr.value))
    if isinstance(expr, Const):
        return (1, expr.name)
    if isinstance(expr, Var):
        return (2, expr.name)
    if isinstance(expr, ir.Pow):
        return (3, key(expr.base), key(expr.exponent))
    if isinstance(expr, ir.Mul):
        return (4,) + tuple(key(f) for f in expr.factors)
    if isinstance(expr, ir.Add):
        return (5,) + tuple(key(t) for t in expr.terms)
    if isinstance(expr, ir.Neg):
        return (6, key(expr.operand))
    if isinstance(expr, FunctionApp):
        return (7, expr.func) + tuple(key(c) for c in expr.params + expr.args)
    if isinstance(expr, Derivative):
        return (8, expr.var, expr.order, key(expr.operand))
    if isinstance(expr, BigOp):
        out = [9, expr.kind, expr.var]
        for b in (expr.lo, expr.hi):
            out.append(key(b) if b is not None else ("",))
        out.append(key(expr.body))
        return tuple(out)
    raise TypeError(expr)


def _fields(expr):
    return tuple(getattr(expr, f.name) for f in dataclasses.fields(expr))


def _twin(expr):
    """An equal tree built node by node with the plain constructors,
    sharing no node with ``expr``."""
    if not isinstance(expr, ir.Expr):
        return expr
    return type(expr)(*(
        tuple(map(_twin, v)) if isinstance(v, tuple) else _twin(v)
        for v in _fields(expr)
    ))


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_memoized_hash_and_sort_key_match_the_fields(expr):
    twin = _twin(expr)
    # Nothing is computed until it is asked for.
    assert not hasattr(twin, "_hash") and not hasattr(twin, "_sort_key")
    assert twin == expr and twin is not expr
    assert hash(twin) == hash(_fields(expr))  # the first call fills the memo
    assert hash(twin) == hash(expr) == hash(_fields(expr))
    expected = _reference_sort_key(expr)
    assert ir.sort_key(expr) == expected
    assert ir.sort_key(expr) == expected
    assert ir.sort_key(twin) == expected
    assert "_hash" not in repr(expr) and repr(twin) == repr(expr)
    clone = pickle.loads(pickle.dumps(expr))
    assert clone == expr
    assert hash(clone) == hash(expr)
    assert ir.sort_key(clone) == expected


def test_sort_key_rejects_non_expressions():
    with pytest.raises(TypeError):
        ir.sort_key(ir.Relation(ir.REL_EQ, ir.ONE, ir.ONE))


# --- passes hand back what they cannot change ---

_X_SQUARED = ir.power(_X, ir.num(2))
_ONE_OF_EACH = {
    "Number": ir.num(3),
    "Const": Const(ir.PI),
    "Var": _X,
    "Add": ir.add(_X, ir.num(1)),
    "Mul": ir.mul(ir.num(2), _X),
    "Pow": _X_SQUARED,
    "Neg": ir.neg(_X),
    "FunctionApp": FunctionApp("bessel_j", (ir.HALF,), (_X,)),
    "Derivative": Derivative(_X_SQUARED, "x", 2),
    "BigOp": BigOp(ir.OP_SUM, "k", ir.ONE, None, Var("k")),
    "BigOp_no_bounds": BigOp(ir.OP_INT, "t", None, None, _X_SQUARED),
}


@pytest.mark.parametrize("kind", sorted(_ONE_OF_EACH))
def test_map_children_hands_back_its_input_when_no_child_changes(kind):
    expr = _ONE_OF_EACH[kind]
    assert ir.map_children(expr, lambda c: c) is expr
    # An equal but new child is a change: the node is rebuilt, equal.
    rebuilt = ir.map_children(expr, _twin)
    assert rebuilt == expr
    assert (rebuilt is expr) == (not ir.children(expr))


def _reference_add(*terms):
    """``ir.add`` as it was, folding in a Fraction(0) accumulator."""
    flat, acc = [], Fraction(0)
    for t in terms:
        for u in (t.terms if isinstance(t, ir.Add) else (t,)):
            if isinstance(u, ir.Number):
                acc += u.value
            else:
                flat.append(u)
    if acc != 0:
        flat.append(ir.Number(acc))
    if not flat:
        return ir.ZERO
    return flat[0] if len(flat) == 1 else ir.Add(tuple(flat))


def _reference_mul(*factors):
    """``ir.mul`` as it was, folding in a Fraction(1) accumulator."""
    flat, acc = [], Fraction(1)
    for f in factors:
        for u in (f.factors if isinstance(f, ir.Mul) else (f,)):
            if isinstance(u, ir.Number):
                acc *= u.value
            else:
                flat.append(u)
    if acc == 0:
        return ir.ZERO
    if acc == -1 and len(flat) == 1:
        return ir.neg(flat[0])
    if acc != 1:
        flat.insert(0, ir.Number(acc))
    if not flat:
        return ir.ONE
    return flat[0] if len(flat) == 1 else ir.Mul(tuple(flat))


_Y = Var("y")
_FOLD_CASES = {
    "no_number": (_X, _Y, ir.add(_X, _Y)),
    "one_number": (_X, ir.num(3), _Y),
    "only_a_number": (ir.HALF,),
    "cancel_to_zero": (ir.num(2), _X, ir.num(-2)),
    "numbers_cancel_to_one": (ir.num(2), _X, ir.HALF),
    "minus_one_and_one_factor": (ir.MINUS_ONE, _X),
    "minus_one_from_two_numbers": (ir.num(2), Var("z"), ir.num(Fraction(-1, 2))),
    "zero_factor": (_X, ir.ZERO, _Y),
    "nested": (ir.add(_X, ir.num(1)), ir.mul(ir.num(3), _Y), ir.num(-1)),
    "empty": (),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_lazy_accumulators_fold_as_the_fraction_reference(case):
    operands = _FOLD_CASES[case]
    assert ir.add(*operands) == _reference_add(*operands)
    assert ir.mul(*operands) == _reference_mul(*operands)


@settings(max_examples=300, deadline=None)
@given(st.lists(exprs, max_size=4))
def test_lazy_accumulators_on_random_operands(operands):
    assert ir.add(*operands) == _reference_add(*operands)
    assert ir.mul(*operands) == _reference_mul(*operands)


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_heads_are_the_heads_of_every_node(expr):
    expected = {ir.head(node) for node in ir.walk(expr)}
    assert ir.heads(expr) == expected
    assert ir.heads(expr) is ir.heads(expr)  # computed once


@settings(max_examples=100, deadline=None)
@given(exprs)
def test_pickling_leaves_the_heads_memo_out(expr):
    heads = ir.heads(expr)
    state = expr.__getstate__()
    assert len(state) == len(dataclasses.fields(expr))
    clone = pickle.loads(pickle.dumps(expr))
    assert clone == expr
    assert not hasattr(clone, "_heads")
    assert ir.heads(clone) == heads


def test_heads_of_a_tree_deeper_than_the_recursion_limit():
    # ir.heads raises RecursionError, which verify_record turns into an
    # internal_error outcome, and leaves no memo behind on the way out.
    deep = _X
    for _ in range(2 * sys.getrecursionlimit()):
        deep = FunctionApp("sin", (), (deep,))
    for _ in range(2):
        with pytest.raises(RecursionError):
            ir.heads(deep)
        assert not hasattr(deep, "_heads")
    shallow = deep
    for _ in range(3 * sys.getrecursionlimit() // 2):
        shallow = shallow.args[0]
    assert ir.heads(shallow) == {"sin", Var}
