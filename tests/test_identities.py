"""The identity table ``data/identities.rules`` and what is built on it.

Every conversion row holds numerically, every derivative row agrees with
``mpmath.diff`` of its pattern, a conversion at a product argument builds
the tree the translator reads from the identity written out, and each
branch of `calculus.differentiate` is checked against ``mpmath.diff`` or
shown to give up.
"""

import itertools
import re
from fractions import Fraction

import mpmath
import pytest

from mathverify import ir, symbolic
from mathverify.calculus import differentiate, resolve_derivatives
from mathverify.constraints import BASE_INTEGER, VariableDomain
from mathverify.ir import Derivative, FunctionApp, Relation, free_variables
from mathverify.numeric import (
    CLASS_VERIFIED,
    DEFAULT_TEST_VALUES,
    NumericConfig,
    eval_expr,
    verify_numeric,
)
from mathverify.parser import parse, tokenize
from mathverify.translate import to_expr

EVAL_CONFIG = NumericConfig(precision_digits=20)
CONVERSIONS = {
    "exponential": symbolic.to_exponential_form,
    "hypergeometric": symbolic.to_hypergeometric_form,
}


def tx(latex, tables):
    return to_expr(parse(tokenize(latex), tables.macro_table), tables.translation_table)


def _rows(*sections):
    return [(section, rule) for section in sections
            for rules in symbolic.identities()[section].values() for rule in rules]


def _ids(rows):
    return [rule.source.split(" ->")[0] for _, rule in rows]


CONVERSION_ROWS = _rows("exponential", "hypergeometric")
DERIVATIVE_ROWS = _rows("derivative")


def test_the_sections_and_their_heads():
    table = symbolic.identities()
    assert sorted(table) == ["derivative", "exponential", "hypergeometric"]
    assert (len(CONVERSION_ROWS), len(DERIVATIVE_ROWS)) == (19, 21)
    assert table["exponential"].keys() - {None} == {
        "sin", "cos", "tan", "csc", "sec", "cot",
        "sinh", "cosh", "tanh", "csch", "sech", "coth"}
    assert table["hypergeometric"].keys() - {None} == {
        ir.Pow, "bessel_j", "laguerre_poly", "legendre_poly", "jacobi_poly",
        "cheby_t", "erf"}
    assert symbolic.identities() is table


# The parameter that is a polynomial's degree, by function.
_DEGREE = {"laguerre_poly": 0, "legendre_poly": 0, "jacobi_poly": 2, "cheby_t": 0}


@pytest.mark.parametrize("section,rule", CONVERSION_ROWS, ids=_ids(CONVERSION_ROWS))
def test_conversion_row_holds_numerically(section, rule):
    pattern = rule.pattern
    domains = ()
    if isinstance(pattern, FunctionApp) and pattern.func in _DEGREE:
        degree = pattern.params[_DEGREE[pattern.func]].name
        domains = (VariableDomain(degree, BASE_INTEGER,
                                  interval=(Fraction(0), False, None, False)),)
    out = verify_numeric(Relation(ir.REL_EQ, pattern, rule.replacement), domains)
    assert out.classification == CLASS_VERIFIED, (out.detail, out.worst)
    assert out.evaluations


def _mp(value):
    return mpmath.mpf(value.numerator) / value.denominator


def _check_against_mpmath_diff(expr, derivative, var, fixed=None):
    """``derivative`` evaluates to ``mpmath.diff`` of ``expr`` in ``var``
    at every assignment of the default test values to its variables (the
    ones in ``fixed`` keep their value)."""
    fixed = fixed or {}
    names = sorted(free_variables(expr) - set(fixed))
    assert var in names
    for values in itertools.product(DEFAULT_TEST_VALUES, repeat=len(names)):
        point = {**fixed, **dict(zip(names, values))}
        got = eval_expr(derivative, point, EVAL_CONFIG)
        want = mpmath.diff(lambda t: eval_expr(expr, {**point, var: t}, EVAL_CONFIG),
                           _mp(point[var]))
        assert abs(got - want) < 1e-8 * max(1, abs(want)), (point, got, want)


@pytest.mark.parametrize("section,rule", DERIVATIVE_ROWS, ids=_ids(DERIVATIVE_ROWS))
def test_derivative_row_is_the_derivative_of_its_pattern(section, rule):
    pattern = rule.pattern
    u = (pattern.params + pattern.args)[-1].name
    derivative = differentiate(pattern, u)
    assert derivative == rule.replacement
    _check_against_mpmath_diff(pattern, derivative, u)


# Each placeholder varN bound to the N-th product.
_PRODUCTS = {"2x": ("2x", "2y", "2z", "2w"), "xy": ("xy", "ab", "mn", "uv")}


@pytest.mark.parametrize("shape", sorted(_PRODUCTS))
@pytest.mark.parametrize("section,rule", CONVERSION_ROWS, ids=_ids(CONVERSION_ROWS))
def test_conversion_at_a_product_is_the_identity_written_out(section, rule, shape,
                                                              tables):
    # A negated placeholder bound to a product is the product with its sign
    # folded in, as the translator reads -2x; plain `ir.substitute` builds
    # -(2x) there.
    def written_out(text):
        return re.sub(r"var(\d)", lambda m: "{%s}" % _PRODUCTS[shape][int(m[1]) - 1], text)

    pattern, replacement = rule.source.split(" -> ")
    converted = CONVERSIONS[section](tx(written_out(pattern), tables))
    assert converted == tx(written_out(replacement), tables)


# --- calculus.differentiate, branch by branch ---

@pytest.mark.parametrize("latex", [
    r"-\sin@{x}",                       # a negation
    r"x^x",                             # a variable exponent
    r"2^{x} x^{\frac{1}{2}}",           # a variable exponent of a constant base
    r"\expe^{x^2}",                     # a power of e
    r"\ModBesselK{\nu}@{2x} + \BesselY{\nu+1}@{x y}",  # chain rule through a row
    r"\binom{n}{k} \sin@{x}",           # a factor free of x
    r"\Sum{k}{0}{n}@{k} x",             # a sum free of x
])
def test_differentiate_agrees_with_mpmath_diff(latex, tables):
    expr = tx(latex, tables)
    derivative = differentiate(expr, "x")
    assert derivative is not None
    fixed = {"nu": Fraction(1, 3), "n": Fraction(3), "k": Fraction(1)}
    fixed = {k: v for k, v in fixed.items() if k in free_variables(expr)}
    _check_against_mpmath_diff(expr, derivative, "x", fixed)


@pytest.mark.parametrize("latex", [
    r"\GammaFn@{x}",                    # a function with no derivative row
    r"\GammaFn@{x} + x",                # ... inside a sum
    r"\GammaFn@{x}^2",                  # ... as a power's base
    r"2^{\GammaFn@{x}}",                # ... in a power's exponent
    r"\sin@{\GammaFn@{x}}",             # ... as a row's argument
    r"\BesselJ{x}@{z}",                 # a parameter that depends on x
    r"\Sum{k}{0}{n}@{x^k}",             # a sum over terms in x
    r"\Wron{x}@{\GammaFn@{x}}{x}",      # a derivative left unresolved
])
def test_differentiate_gives_up_without_a_rule(latex, tables):
    assert differentiate(tx(latex, tables), "x") is None


def test_differentiate_of_constants_is_zero(tables):
    for latex in (r"\binom{n}{k}", r"\Sum{k}{0}{n}@{k}", r"\sin@{y}", r"\BesselJ{\nu}@{2}"):
        assert differentiate(tx(latex, tables), "x") == ir.ZERO


def test_nested_wronskians_resolve_from_the_inside(tables):
    # W(W(sin, cos), x) with W(sin, cos) = -sin^2 - cos^2 = -1 is -1.
    expr = tx(r"\Wron{x}@{\Wron{x}@{\sin@{x}}{\cos@{x}}}{x}", tables)
    resolved = resolve_derivatives(expr)
    assert Derivative not in ir.heads(resolved)
    for x in DEFAULT_TEST_VALUES:
        assert abs(eval_expr(resolved, {"x": x}, EVAL_CONFIG) + 1) < 1e-15
    unresolved = resolve_derivatives(tx(r"\Wron{x}@{\Wron{x}@{\GammaFn@{x}}{x}}{x}", tables))
    assert Derivative in ir.heads(unresolved)
