"""Symbolic verdicts checked against numeric evaluation.

Hypothesis draws identity-shaped pairs over a few atoms and exponents:
powers of products, products of roots, roots of squares, logarithms of
exponentials, products and powers of powers.  For every ``zero`` or
``one`` verdict of `verify_symbolic`, both sides are evaluated with
`numeric.eval_expr` at points on and off the real line, negative reals
included, that the formula's domains accept.  Sides that differ at such a
point make the verdict false: the kernel and the verdicts both take
principal branches, so no point is excused as a branch cut.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from mathverify import ir
from mathverify.constraints import check_domain, interpret_constraints
from mathverify.errors import EvaluationError
from mathverify.numeric import NumericConfig, eval_expr
from mathverify.parser import parse, tokenize
from mathverify.symbolic import CLASS_ONE, CLASS_ZERO, SimplifyConfig, verify_symbolic
from mathverify.translate import to_relation

ATOMS = ("x", "y", "-x", "2", r"\iunit", "x y", r"\frac{x}{y}", "x^{2}",
         r"\expe^{x}", r"\ln@{x}", r"\sqrt{x}")
EXPONENTS = tuple(Fraction(p) for p in ("2", "-1", "1/2", "-1/2", "1/3", "3/2", "3"))
CONSTRAINTS = ((), ("x > 0",), ("x < 0",), (r"x \in \Real", "y > 0"),
               ("x > 0", r"x \ne 1"), (r"x \ne 1",))
# Negative reals, a positive real and points off the real line.
VALUES = (Fraction(-1, 2), Fraction(-3, 2), Fraction(2, 3),
          complex(0.3, 0.7), complex(-0.6, -0.4), complex(-1.2, 0.5))

_EVAL = NumericConfig(precision_digits=20)


def _pow(a: str, p: Fraction) -> str:
    return f"({a})^{{{p}}}"


# Each shape builds (lhs, rhs) from two atoms and two exponents.
SHAPES = (
    lambda a, b, p, q: (f"(({a})({b}))^{{{p}}}", _pow(a, p) + _pow(b, p)),
    lambda a, b, p, q: (rf"\sqrt{{{a}}}\sqrt{{{b}}}", rf"\sqrt{{({a})({b})}}"),
    lambda a, b, p, q: (rf"\sqrt{{({a})^{{2}}}}", a),
    lambda a, b, p, q: (rf"\ln@{{\expe^{{{a}}}}}", a),
    lambda a, b, p, q: (_pow(a, p) + _pow(a, q), _pow(a, p + q)),
    lambda a, b, p, q: (f"(({a})^{{{p}}})^{{{q}}}", _pow(a, p * q)),
)


def false_verdict(latex: str, constraints, tables):
    """The verdict and the first accepted point where its two sides
    differ; None when the verdict is not zero/one or holds at every
    point."""
    rel = to_relation(parse(tokenize(latex), tables.macro_table), tables.translation_table)
    domains = tuple(interpret_constraints(constraints, tables.blueprints,
                                          tables.macro_table).domains)
    config = SimplifyConfig(rules=tables.rewrite_rules, assumptions=domains)
    verdict = verify_symbolic(rel, domains, config).classification
    if verdict not in (CLASS_ZERO, CLASS_ONE):
        return None
    names = sorted(ir.free_variables(rel.lhs) | ir.free_variables(rel.rhs))
    for values in product(VALUES, repeat=len(names)):
        point = dict(zip(names, values))
        if not check_domain(domains, point):
            continue
        try:
            lhs = eval_expr(rel.lhs, point, _EVAL)
            rhs = eval_expr(rel.rhs, point, _EVAL)
        except EvaluationError:
            continue
        if abs(lhs - rhs) > 1e-12 * (1 + abs(lhs) + abs(rhs)):
            return verdict, point
    return None


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(SHAPES), st.sampled_from(ATOMS), st.sampled_from(ATOMS),
       st.sampled_from(EXPONENTS), st.sampled_from(EXPONENTS),
       st.sampled_from(CONSTRAINTS))
def test_symbolic_verdicts_hold_numerically(tables, shape, a, b, p, q, constraints):
    latex = "{} = {}".format(*shape(a, b, p, q))
    assert false_verdict(latex, constraints, tables) is None, (latex, constraints)
