"""SymPy as an independent check of the rational normal form.

Random rational trees (numbers, variables, sums, products, negations
and small integer powers) are normalized by `normform` and compared with
SymPy: the zero test must agree with ``sympy.simplify``, and the
emitted normal form must equal its input.  SymPy is used by these tests
only; the package does not depend on it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mathverify import ir
from mathverify.errors import SymbolicError
from mathverify.ir import Add, Mul, Neg, Number, Pow, Var
from mathverify.normform import emit, is_zero_form, norm

sympy = pytest.importorskip("sympy")

_NAMES = ("x", "y", "z")


def to_sympy(expr):
    if isinstance(expr, Number):
        return sympy.Rational(expr.value.numerator, expr.value.denominator)
    if isinstance(expr, Var):
        return sympy.Symbol(expr.name)
    if isinstance(expr, Add):
        return sympy.Add(*map(to_sympy, expr.terms))
    if isinstance(expr, Mul):
        return sympy.Mul(*map(to_sympy, expr.factors))
    if isinstance(expr, Neg):
        return -to_sympy(expr.operand)
    if isinstance(expr, Pow):
        return to_sympy(expr.base) ** to_sympy(expr.exponent)
    raise TypeError(f"no SymPy form for {expr!r}")


def from_sympy(e):
    """IR of a SymPy rational function, built with the raw node classes."""
    if e.is_Rational:
        return Number(Fraction(int(e.p), int(e.q)))
    if e.is_Symbol:
        return Var(e.name)
    if e.is_Add:
        return Add(tuple(map(from_sympy, e.args)))
    if e.is_Mul:
        return Mul(tuple(map(from_sympy, e.args)))
    if e.is_Pow and e.exp.is_Integer:
        return Pow(from_sympy(e.base), Number(Fraction(int(e.exp))))
    raise TypeError(f"not a rational function: {e}")


_leaves = st.one_of(
    st.sampled_from(_NAMES).map(Var),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)).map(Number),
)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda ts: Add(tuple(ts))),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: Mul(tuple(fs))),
        sub.map(Neg),
        st.builds(Pow, sub, st.integers(-2, 3).map(ir.num)),
    ),
    max_leaves=8,
)


def _norm_or_reject(expr):
    try:
        return norm(expr)
    except SymbolicError:
        assume(False)  # a division by something that normalizes to zero


@st.composite
def _pairs(draw):
    """Two trees, equal in three draws of four: the second is SymPy's
    expanded, cancelled or factored form of the first."""
    a = draw(_trees)
    how = draw(st.sampled_from(("other", "expand", "cancel", "factor")))
    if how == "other":
        return a, draw(_trees)
    A = to_sympy(a)
    B = getattr(sympy, how)(A)
    # SymPy writes a division by zero as zoo or nan; normform raises.
    assume(not (A.has(sympy.zoo, sympy.nan) or B.has(sympy.zoo, sympy.nan)))
    return a, from_sympy(B)


@settings(max_examples=150, deadline=None)
@given(_pairs())
def test_zero_test_agrees_with_sympy(pair):
    a, b = pair
    rf = _norm_or_reject(ir.sub(a, b))
    assert is_zero_form(rf) == (sympy.simplify(to_sympy(a) - to_sympy(b)) == 0)


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_emitted_normal_form_equals_its_input(expr):
    rf = _norm_or_reject(expr)
    assert sympy.simplify(to_sympy(emit(rf)) - to_sympy(expr)) == 0
