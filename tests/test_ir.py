"""Tree rebuilding through ``ir.map_children`` and its callers."""

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
