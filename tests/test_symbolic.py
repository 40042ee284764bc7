import dataclasses
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathverify import ir, normform, symbolic
from mathverify.constraints import VariableDomain
from mathverify.errors import (
    BudgetExceeded,
    MalformedRule,
    NonEquationRelation,
    SymbolicError,
)
from mathverify.ir import Const, FunctionApp, Var, free_variables
from mathverify.normform import NormContext, NormMemo
from mathverify.numeric import NumericConfig, eval_expr
from mathverify.parser import parse, tokenize
from mathverify.symbolic import (
    ALL_PREPROCESSORS,
    CLASS_ERROR,
    CLASS_ONE,
    CLASS_OTHER_NUMERIC,
    CLASS_UNSIMPLIFIED,
    CLASS_ZERO,
    MODE_BOTH,
    MODE_DIFFERENCE,
    MODE_QUOTIENT,
    PRE_EXPAND,
    PRE_EXPAND_CONVERT,
    PRE_EXPONENTIAL,
    PRE_HYPERGEOMETRIC,
    PRE_NONE,
    RewriteRule,
    SimplifyConfig,
    SymbolicOutcome,
    expand,
    simplify,
    to_exponential_form,
    to_hypergeometric_form,
    verify_symbolic,
)
from mathverify.translate import to_expr, to_relation

EVAL_CONFIG = NumericConfig(precision_digits=20)


def tx(latex, tables):
    return to_expr(parse(tokenize(latex), tables.macro_table),
                   tables.translation_table)


def tr(latex, tables):
    return to_relation(parse(tokenize(latex), tables.macro_table),
                       tables.translation_table)


def numerically_zero(expr, points, tol=1e-9):
    for assignment in points:
        value = eval_expr(expr, assignment, EVAL_CONFIG)
        assert abs(value) < tol, (assignment, value)


RNG = random.Random(20180615)


def random_rational(lo=-2, hi=2):
    return Fraction(RNG.randint(lo * 12, hi * 12), 12) + Fraction(1, 24)


# --- expand ---

def test_expand_square_of_sum(tables):
    out = expand(tx("(x+y)^2", tables))
    assert out == tx("x^2 + 2xy + y^2", tables)


def test_expand_atom(tables):
    assert expand(Var("x")) == Var("x")


def test_expand_difference_of_squares(tables):
    out = expand(tx("(a+b)(a-b)", tables))
    assert out == tx("a^2 - b^2", tables)


def test_expand_budget():
    with pytest.raises(BudgetExceeded):
        expand(ir.power(ir.add(Var("x"), Var("y")), ir.num(300)))


# --- exponential form ---

def test_exponential_form_sinh(tables):
    out = to_exponential_form(tx(r"\sinh@{x}", tables))
    assert out == tx(r"\frac{\expe^{x}-\expe^{-x}}{2}", tables)


def test_exponential_form_cos_uses_imaginary_exponentials(tables):
    out = to_exponential_form(tx(r"\cos@{x}", tables))
    constants = {n.name for n in ir.walk(out) if isinstance(n, Const)}
    assert ir.IMAGINARY_UNIT in constants
    assert ir.EULER_E in constants


def test_exponential_form_leaves_gamma_alone(tables):
    expr = tx(r"\GammaFn@{x}", tables)
    assert to_exponential_form(expr) == expr


@pytest.mark.parametrize("latex", [
    r"\sin@{x}", r"\cos@{x}", r"\tan@{x}", r"\sec@{x}", r"\csc@{x}",
    r"\cot@{x}", r"\sinh@{x}", r"\cosh@{x}", r"\tanh@{x}", r"\sech@{x}",
    r"\csch@{x}", r"\coth@{x}",
])
def test_exponential_form_preserves_semantics(latex, tables):
    # The conversion agrees with the original at sampled complex points.
    expr = tx(latex, tables)
    converted = to_exponential_form(expr)
    for _ in range(6):
        z = complex(float(random_rational()), float(random_rational()))
        if abs(z) < 0.2:
            z += 0.5
        v1 = eval_expr(expr, {"x": z}, EVAL_CONFIG)
        v2 = eval_expr(converted, {"x": z}, EVAL_CONFIG)
        assert abs(v1 - v2) < 1e-10 * max(1, abs(v1))


def test_hypergeometric_form_exponential(tables):
    out = to_hypergeometric_form(tx(r"\expe^{x}", tables))
    assert out == FunctionApp("genhyper", (ir.num(0), ir.num(0)), (Var("x"),))


def test_hypergeometric_form_laguerre_matches_recurrence(tables):
    # Laguerre -> binomial * 1F1 checked numerically against the kernel's
    # recurrence-backed evaluation at x in {1/2, 3/2}, n <= 4.
    expr = tx(r"\LaguerreL[\alpha]{n}@{x}", tables)
    converted = to_hypergeometric_form(expr)
    for n in range(5):
        for x in (Fraction(1, 2), Fraction(3, 2)):
            assign = {"n": Fraction(n), "alpha": Fraction(2, 5), "x": x}
            v1 = eval_expr(expr, assign, EVAL_CONFIG)
            v2 = eval_expr(converted, assign, EVAL_CONFIG)
            assert abs(v1 - v2) < 1e-10


def test_hypergeometric_form_leaves_sums_alone(tables):
    expr = tx("x+1", tables)
    assert to_hypergeometric_form(expr) == expr


@pytest.mark.parametrize("latex,assigns", [
    (r"\BesselJ{\nu}@{z}", {"nu": Fraction(2, 5), "z": Fraction(7, 5)}),
    (r"\LegendreP{n}@{x}", {"n": Fraction(3), "x": Fraction(2, 5)}),
    (r"\JacobiP{\alpha}{\beta}{n}@{x}",
     {"alpha": Fraction(1, 3), "beta": Fraction(3, 4), "n": Fraction(2),
      "x": Fraction(1, 5)}),
    (r"\ChebyT{n}@{x}", {"n": Fraction(4), "x": Fraction(3, 10)}),
    (r"\erf@@{z}", {"z": Fraction(4, 5)}),
])
def test_hypergeometric_form_preserves_semantics(latex, assigns, tables):
    expr = tx(latex, tables)
    converted = to_hypergeometric_form(expr)
    v1 = eval_expr(expr, assigns, EVAL_CONFIG)
    v2 = eval_expr(converted, assigns, EVAL_CONFIG)
    assert abs(v1 - v2) < 1e-10 * max(1, abs(v1))


# --- simplify ---

def default_config(tables, **kw):
    kw.setdefault("rules", tables.rewrite_rules)
    return SimplifyConfig(**kw)


def test_simplify_pythagorean(tables):
    out, _ = simplify(tx(r"\sin@{x}^2 + \cos@{x}^2 - 1", tables),
                      default_config(tables, mode=MODE_DIFFERENCE))
    assert out.classification == CLASS_ZERO


def test_simplify_gamma_quotient_is_one(tables):
    out, _ = simplify(tx(r"\frac{\GammaFn@{x+1}}{x\GammaFn@{x}}", tables),
                      default_config(tables, mode=MODE_QUOTIENT))
    assert out.classification == "one"


def test_simplify_constant_difference_flagged(tables):
    out, _ = simplify(tx("2 - 1", tables),
                      default_config(tables, mode=MODE_DIFFERENCE))
    assert out.classification == CLASS_OTHER_NUMERIC
    assert out.value == Fraction(1)


def test_simplify_budget_exhaustion_is_unsimplified(tables):
    expr = ir.power(ir.add(Var("x"), Var("y"), Var("z")), ir.num(30))
    out, rf = simplify(expr, default_config(tables, rewrite_step_budget=50))
    assert out.classification == CLASS_UNSIMPLIFIED
    assert rf is None


@pytest.mark.parametrize("latex, budget, steps", [
    # The rewrite rules get a tenth of the budget, at least one step; the
    # context raises on the step past it.
    (r"\tan@{x}\cot@{x} = 1", 1, 2),
    (r"\tan@{x}\cot@{x} = 1", 5, 2),
    (r"\tan@{x}\cot@{x} = 1", 19, 2),
    (r"\tan@{x}\cot@{x} + \tan@{y}\cot@{y} + \tan@{z}\cot@{z} = 3", 30, 4),
    (r"\tan@{x}\cot@{x} + \tan@{y}\cot@{y} + \tan@{z}\cot@{z} = 3", 59, 6),
    # The rules finish after 2 steps, and normalization runs out on the
    # step past the budget it gets after them: 2 + 21.
    (r"\tan@{x}\cot@{x} = 1", 20, 23),
])
def test_rule_stage_exhaustion_reports_the_rewriters_steps(tables, latex, budget, steps):
    config = default_config(tables, mode=MODE_DIFFERENCE, preprocessors=(PRE_NONE,),
                            rewrite_step_budget=budget)
    rel = tr(latex, tables)
    out = verify_symbolic(rel, (), config)
    assert (out.classification, out.steps_used) == (CLASS_UNSIMPLIFIED, steps)
    out, _ = simplify(ir.sub(rel.lhs, rel.rhs), config)
    assert (out.classification, out.steps_used) == (CLASS_UNSIMPLIFIED, steps)


def test_error_exit_counts_the_rule_steps(tables):
    # Three rule steps (tan and cot to sin and cos, sin^2 to 1 - cos^2),
    # then normalization meets the zero denominator after 76 more.
    rel = tr(r"\tan@{x}\cot@{x} = \frac{1}{\sin@{x}^2+\cos@{x}^2-1}", tables)
    config = default_config(tables, mode=MODE_DIFFERENCE, preprocessors=(PRE_NONE,))
    expected = (CLASS_ERROR, "_ZeroDenominator", 79)
    out = verify_symbolic(rel, (), config)
    assert (out.classification, out.error_kind, out.steps_used) == expected
    out, rf = simplify(ir.sub(rel.lhs, rel.rhs), config)
    assert (out.classification, out.error_kind, out.steps_used) == expected
    assert rf is None
    _, rule_steps = symbolic.apply_rules(ir.sub(rel.lhs, rel.rhs), tables.rewrite_rules)
    assert rule_steps == 3


def test_expansion_gets_the_configured_budget(tables, monkeypatch):
    budgets = []
    real_expand = symbolic.expand

    def recording_expand(expr, **kw):
        budgets.append(kw.get("budget"))
        return real_expand(expr, **kw)

    monkeypatch.setattr(symbolic, "expand", recording_expand)
    rel = tr(r"(x+1)^2 = x^2 + 2x + 1", tables)
    for budget in (37, 12_345):
        budgets.clear()
        verify_symbolic(rel, (), default_config(
            tables, preprocessors=(PRE_EXPAND,), rewrite_step_budget=budget))
        assert budgets == [budget, budget]


# --- verify_symbolic ---

def test_verify_sinh_definition_via_none(tables):
    rel = tr(r"\sinh@{x} = \frac{\expe^{x}-\expe^{-x}}{2}", tables)
    out = verify_symbolic(rel, (), default_config(tables))
    assert out.classification == CLASS_ZERO
    assert out.winning_preprocessor == PRE_NONE


def test_verify_hyperbolic_pythagorean(tables):
    rel = tr(r"\cosh@{x}^2 - \sinh@{x}^2 = 1", tables)
    out = verify_symbolic(rel, (), default_config(tables))
    assert out.classification == CLASS_ZERO


def test_exponential_preprocessor_needed_without_rules(tables):
    # With an empty rule table the hyperbolic double angle only falls to
    # zero after conversion to exponential form.
    rel = tr(r"\sinh@{2x} = 2\sinh@{x}\cosh@{x}", tables)
    config = SimplifyConfig(rules=())
    out = verify_symbolic(rel, (), config)
    assert out.classification == CLASS_ZERO
    assert out.winning_preprocessor == PRE_EXPONENTIAL
    none_only = SimplifyConfig(rules=(), preprocessors=(PRE_NONE,))
    out_none = verify_symbolic(rel, (), none_only)
    assert out_none.classification != CLASS_ZERO


# Power products that verify only with a canonical normal form: a merged
# exponent of 1 may not leave (-x)^1 or (x^2)^1 as atoms beside x and
# x^2, and a rational exponent must split off its integer part.  Each
# verifies without the expansion preprocessors, the simple products under
# none and the composed identities under a conversion, in either mode.
# Rows: (verdict, winner, steps).
_POWER_PRODUCT_WINS = [
    (r"(-x)^{-1/2}(-x)^{3/2} + \sin@{2y} = -x + 2\sin@{y}\cos@{y}", ("x > 0",),
     (CLASS_ZERO, PRE_EXPONENTIAL, 401)),
    (r"(x^{2})^{1/2}(x^{2})^{1/2} + \LegendreP{2}@{y} = x^{2} + \frac{3y^2-1}{2}",
     ("x < 0",), (CLASS_ZERO, PRE_HYPERGEOMETRIC, 340)),
    (r"(-x)^{-1/2}(-x)^{3/2} = (-x)^{1}", ("x > 0",), (CLASS_ZERO, PRE_NONE, 65)),
    (r"((-x)^{3/2})^{3} = (-x)^{9/2}", ("x > 0",), (CLASS_ZERO, PRE_NONE, 80)),
]


@pytest.mark.parametrize("latex, constraints, expected", _POWER_PRODUCT_WINS)
def test_power_products_verify_without_expansion(tables, latex, constraints, expected):
    from mathverify.constraints import interpret_constraints
    rel = tr(latex, tables)
    domains = interpret_constraints(constraints, tables.blueprints,
                                    tables.macro_table).domains
    kept = tuple(p for p in ALL_PREPROCESSORS if p not in (PRE_EXPAND, PRE_EXPAND_CONVERT))
    for config in (default_config(tables), default_config(tables, mode=MODE_BOTH),
                   default_config(tables, preprocessors=kept)):
        out = verify_symbolic(rel, domains, config)
        assert (out.classification, out.winning_preprocessor, out.steps_used) == expected


def test_inequality_raises(tables):
    rel = tr("x < 1", tables)
    with pytest.raises(NonEquationRelation):
        verify_symbolic(rel, (), default_config(tables))


def test_quotient_mode_refuses_literal_zero(tables):
    rel = tr("0 = x", tables)
    out = verify_symbolic(rel, (), default_config(tables, mode=MODE_QUOTIENT))
    assert out.classification != "one"


@pytest.mark.parametrize("latex", ["x - x = 1", r"\sin@{x}^2 + \cos@{x}^2 - 1 = 2"])
def test_a_quotient_that_normalizes_to_zero_is_not_verified(tables, latex):
    # The left side vanishes and the right does not: the quotient form
    # reads the constant ratio 0, which must not count as a verified zero.
    rel = tr(latex, tables)
    for mode in (MODE_QUOTIENT, MODE_BOTH):
        out = verify_symbolic(rel, (), default_config(tables, mode=mode))
        assert not out.verified
    out = verify_symbolic(rel, (), default_config(tables, mode=MODE_QUOTIENT))
    assert (out.classification, out.value) == (CLASS_OTHER_NUMERIC, 0)


def test_assumption_gated_rule(tables):
    # sqrt(x^2) = x needs x >= 0; without the assumption it must not fire.
    rel = tr(r"\sqrt{x^2} = x", tables)
    nonneg = VariableDomain("x", "real", interval=(Fraction(0), False, None, False))
    out = verify_symbolic(rel, [nonneg], default_config(tables))
    assert out.classification == CLASS_ZERO
    out_free = verify_symbolic(rel, (), default_config(tables))
    assert out_free.classification != CLASS_ZERO


# Rules whose conditions cover what no bundled rule asks: ge/gt against a
# nonzero bound, ne, and domains from progressions, finite sets and \infty.
_CONDITION_RULES = r"""
\sin@{var1} -> 0 ? var1 >= 2
\cos@{var1} -> 0 ? var1 > -1
\tan@{var1} -> 0 ? var1 != 3
\sinh@{var1} -> 0 ? var1 != 0
\cosh@{var1} -> 0 ? var1 real
"""


@pytest.mark.parametrize("head, argument, constraints, fires", [
    # ge/gt: the argument minus the bound is nonnegative/positive.
    (r"\sin", "3", (), True),
    (r"\sin", "1", (), False),
    (r"\sin", "x+2", (r"x \ge 0",), True),
    (r"\sin", "x+2", (), False),
    (r"\sin", "n+2", (r"n = 0, 1, 2, \dots",), True),
    (r"\sin", r"\infty", (), False),
    (r"\cos", "x", (r"x \ge 0",), True),
    (r"\cos", "-1", (), False),
    (r"\cos", "x", (r"x \in \Real",), False),
    (r"\cos", "n", (r"n = 0, 1, 2, \dots",), True),
    (r"\cos", "n", (r"n = -1, -2, \dots",), False),
    # ne against a number: the argument minus it has a known strict sign.
    (r"\tan", "2", (), True),
    (r"\tan", "3", (), False),
    (r"\tan", "x+4", (r"x \ge 0",), True),
    (r"\tan", "-x", ("x > 0",), True),
    (r"\tan", "x", ("x > 0",), False),  # x > 0 does not keep x off 3
    (r"\tan", "n", (r"n = 1, 2, \dots",), False),
    # ne against zero with a symbolic argument.
    (r"\sinh", "-x", ("x > 0",), True),
    (r"\sinh", "x", (r"x \in \Real",), False),
    (r"\sinh", "n", (r"n = 1, 2, \dots",), True),
    (r"\sinh", "n", (r"n = 0, 1, 2, \dots",), False),
    (r"\sinh", "n", ("n = 1, 2, 3",), True),
    (r"\sinh", "n", ("n = 0, 1",), False),
    (r"\sinh", r"\infty", (), False),
    # real.
    (r"\cosh", "n", (r"n = -1, -2, \dots",), True),
    (r"\cosh", r"\infty", (), True),
    (r"\cosh", "x", ("x > 0", r"x \ne 1"), True),
    (r"\cosh", "x", (r"x \ne 1",), False),
])
def test_condition_kinds_as_sign_answers_them(tables, head, argument, constraints, fires):
    from mathverify.constraints import interpret_constraints

    rules = symbolic.load_rewrite_rules(_CONDITION_RULES, tables.macro_table,
                                        tables.translation_table)
    interp = interpret_constraints(constraints, (), tables.macro_table)
    assert not interp.unmatched
    expr = tx(f"{head}@{{{argument}}}", tables)
    _, steps = symbolic.apply_rules(expr, rules, NormContext(domains=interp.domains))
    assert steps == (1 if fires else 0)


def test_monotone_classification_over_corpus(tables, mini_corpus):
    # Enabling preprocessors never loses a zero classification.
    full = default_config(tables)
    none_only = default_config(tables, preprocessors=(PRE_NONE,))
    zero_under_none = set()
    zero_under_full = set()
    for record in mini_corpus:
        try:
            rel = tr(record.latex, tables)
        except Exception:
            continue
        if rel.kind not in (ir.REL_EQ, ir.REL_EQUIV):
            continue
        if verify_symbolic(rel, (), none_only).verified:
            zero_under_none.add(record.id)
        if verify_symbolic(rel, (), full).verified:
            zero_under_full.add(record.id)
    assert zero_under_none <= zero_under_full
    assert len(zero_under_full) > len(zero_under_none)


# --- repeated candidates ---

def _all_candidates_reference(rel, domains, config):
    """``verify_symbolic`` before repeated candidates were skipped: every
    candidate of every preprocessor is simplified, and each of the two
    expand preprocessors expands both sides itself."""
    assumptions = tuple(domains) or config.assumptions
    sub_config = dataclasses.replace(config, mode=MODE_DIFFERENCE, assumptions=assumptions)
    quo_config = dataclasses.replace(config, mode=MODE_QUOTIENT, assumptions=assumptions)
    rank = {CLASS_OTHER_NUMERIC: 2, CLASS_UNSIMPLIFIED: 1, CLASS_ERROR: 0}
    best = None
    for pre in config.preprocessors:
        try:
            if pre == PRE_NONE:
                variants = [(rel.lhs, rel.rhs)]
            elif pre == PRE_EXPONENTIAL:
                variants = [(to_exponential_form(rel.lhs), to_exponential_form(rel.rhs))]
            elif pre == PRE_HYPERGEOMETRIC:
                variants = [(to_hypergeometric_form(rel.lhs),
                             to_hypergeometric_form(rel.rhs))]
            elif pre == PRE_EXPAND:
                variants = [(expand(rel.lhs), expand(rel.rhs))]
            else:
                el, er = expand(rel.lhs), expand(rel.rhs)
                variants = [
                    (to_exponential_form(el), to_exponential_form(er)),
                    (to_hypergeometric_form(el), to_hypergeometric_form(er)),
                ]
        except (BudgetExceeded, SymbolicError):
            continue
        for lhs, rhs in variants:
            if config.mode in (MODE_DIFFERENCE, MODE_BOTH):
                outcome, _ = simplify(ir.sub(lhs, rhs), sub_config)
                if outcome.classification == CLASS_ZERO:
                    outcome.winning_preprocessor = pre
                    return outcome
                if best is None or rank.get(outcome.classification, 0) > \
                        rank.get(best.classification, 0):
                    best = outcome
            if config.mode in (MODE_QUOTIENT, MODE_BOTH):
                if rel.lhs == ir.ZERO or rel.rhs == ir.ZERO:
                    continue
                outcome, _ = simplify(ir.div(lhs, rhs), quo_config)
                if outcome.classification == CLASS_ONE:
                    outcome.winning_preprocessor = pre
                    return outcome
                if best is None or rank.get(outcome.classification, 0) > \
                        rank.get(best.classification, 0):
                    best = outcome
    return best if best is not None else SymbolicOutcome(CLASS_UNSIMPLIFIED)


def _corpus_equations(tables, mini_corpus):
    from mathverify.constraints import interpret_constraints

    equations = []
    for record in mini_corpus:
        try:
            rel = tr(record.latex, tables)
        except Exception:
            continue
        if rel.kind not in (ir.REL_EQ, ir.REL_EQUIV):
            continue
        interp = interpret_constraints(record.constraints, tables.blueprints,
                                       tables.macro_table)
        equations.append((record.id, rel, tuple(interp.domains)))
    # Expansion of this one exceeds its budget, so both expand
    # preprocessors are skipped.
    huge = ir.power(ir.add(Var("x"), Var("y")), ir.num(300))
    equations.append(("expand_budget", ir.Relation(ir.REL_EQ, huge, ir.ONE), ()))
    return equations


def _fields(outcome):
    return (outcome.classification, outcome.value, outcome.winning_preprocessor,
            outcome.steps_used, outcome.error_kind)


@pytest.mark.parametrize("mode", [MODE_DIFFERENCE, MODE_QUOTIENT, MODE_BOTH])
def test_skipping_repeated_candidates_keeps_every_outcome(mode, tables, mini_corpus):
    config = default_config(tables, mode=mode)
    equations = _corpus_equations(tables, mini_corpus)
    assert len(equations) > 30
    for rid, rel, domains in equations:
        expected = _all_candidates_reference(rel, domains, config)
        assert _fields(verify_symbolic(rel, domains, config)) == _fields(expected), rid


def test_no_candidate_is_simplified_twice(tables, mini_corpus, monkeypatch):
    calls = []
    expansions = []
    real_simplify, real_expand = symbolic.simplify, symbolic.expand

    def recording_simplify(expr, config=None, memo=None):
        calls[-1].append((config.mode, expr))
        return real_simplify(expr, config, memo)

    def recording_expand(expr, **kw):
        expansions[-1].append(expr)
        return real_expand(expr, **kw)

    monkeypatch.setattr(symbolic, "simplify", recording_simplify)
    monkeypatch.setattr(symbolic, "expand", recording_expand)
    config = default_config(tables, mode=MODE_BOTH)
    for rid, rel, domains in _corpus_equations(tables, mini_corpus):
        calls.append([])
        expansions.append([])
        verify_symbolic(rel, domains, config)
        assert len(set(calls[-1])) == len(calls[-1]), rid
        assert len(expansions[-1]) <= 2, rid
        assert len(set(expansions[-1])) == len(expansions[-1]), rid
    assert sum(map(len, calls)) > 90
    assert any(len(e) == 2 for e in expansions)


def test_each_candidate_calls_the_traced_passes_once(tables, mini_corpus, monkeypatch):
    # The benchmark's trace rebinds these module globals; with the
    # formula's memo shared, each simplify call must still go through each
    # of them once, or a traced layer would read 0 ms.
    # The position of the memo (simplify) or the context (the passes).
    positions = {"simplify": 2, "apply_rules": 2, "reduce_bessel_orders": 1, "norm": 1}
    calls = {name: [] for name in positions}

    def counting(name):
        real = getattr(symbolic, name)

        def counted(*args, **kwargs):
            calls[name].append(args[positions[name]])
            return real(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(symbolic, name, counting(name))
    config = default_config(tables, mode=MODE_BOTH)
    for _, rel, domains in _corpus_equations(tables, mini_corpus):
        verify_symbolic(rel, domains, config)
    assert len(calls["simplify"]) > 90
    assert len(calls["apply_rules"]) == len(calls["reduce_bessel_orders"]) == \
        len(calls["norm"]) == len(calls["simplify"])
    # Each candidate counts its steps on one context of its own, which
    # the three passes share and which carries the formula's memo.
    contexts = calls["apply_rules"]
    assert all(isinstance(ctx, NormContext) for ctx in contexts)
    assert len({id(ctx) for ctx in contexts}) == len(contexts)
    assert calls["reduce_bessel_orders"] == calls["norm"] == contexts
    assert [ctx.memo for ctx in contexts] == calls["simplify"]
    assert all(isinstance(memo, NormMemo) for memo in calls["simplify"])


# Exhausted budgets (the smallest stop in the rules or the Bessel pass,
# the others part way through normalization) and the default.
_SWEEP_BUDGETS = (1, 4, 10, 25, 61, 97, 140, 199, 262, 331, 418, 500_000)

# A user rule with an Add head: it matches the root of every difference
# candidate of two terms, and of every two-term sum below it, and swaps
# the terms (32 times, the most one node is rewritten).
_SWAP_TERMS = RewriteRule(ir.add(Var("var1"), Var("var2")), ir.add(Var("var2"), Var("var1")),
                          (), "var1 + var2 -> var2 + var1")

# Bessel functions whose arguments hold Bessel functions: the outer ones
# must be looked up under their arguments before the inner ones are reduced.
_NESTED_BESSEL = (
    r"\BesselJ{\mu+2}@{\BesselJ{\nu+2}@{z}} = \frac{2(\mu+1)}{\BesselJ{\nu+2}@{z}}"
    r"\BesselJ{\mu+1}@{\BesselJ{\nu+2}@{z}} - \BesselJ{\mu}@{\BesselJ{\nu+2}@{z}}",
    r"\BesselJ{\mu+2}@{\BesselJ{\nu+2}@{z}} + \BesselJ{\nu}@{z} = "
    r"\frac{2(\mu+1)}{\BesselJ{\nu+2}@{z}}\BesselJ{\mu+1}@{\BesselJ{\nu+2}@{z}}"
    r" - \BesselJ{\mu}@{\BesselJ{\nu+2}@{z}} + \frac{2(\nu+1)}{z}\BesselJ{\nu+1}@{z}"
    r" - \BesselJ{\nu+2}@{z}",
)


def _memo_sweep(tables, mini_corpus, monkeypatch, rules):
    """Every outcome of the sweep, which must be the same with the
    formula's shared memo, a fresh memo per candidate and no memo."""
    equations = _corpus_equations(tables, mini_corpus)
    equations += [(f"nested_bessel{k}", tr(latex, tables), ())
                  for k, latex in enumerate(_NESTED_BESSEL)]
    real_simplify = symbolic.simplify

    def sweep(new_memo):
        if new_memo is not None:
            monkeypatch.setattr(symbolic, "simplify", lambda expr, config=None, memo=None:
                                real_simplify(expr, config, new_memo()))
        out = {}
        for budget in _SWEEP_BUDGETS:
            config = default_config(tables, rewrite_step_budget=budget, rules=rules)
            for rid, rel, domains in equations:
                out[budget, rid] = _fields(verify_symbolic(rel, domains, config))
        return out

    shared = sweep(None)
    assert sweep(NormMemo) == shared
    assert sweep(lambda: None) == shared
    monkeypatch.undo()
    assert shared[500_000, "nested_bessel0"][0] in (CLASS_ZERO, CLASS_ONE)
    assert shared[500_000, "nested_bessel1"][0] in (CLASS_ZERO, CLASS_ONE)
    return equations, shared


def test_shared_norm_memo_keeps_every_outcome(tables, mini_corpus, monkeypatch):
    """verify_symbolic shares one NormMemo across a formula's candidates:
    the passes before `norm` and `norm` itself reuse what earlier
    candidates computed.  The outcomes, steps included, must be those of
    a fresh memo per candidate and of no memo at all, on every budget of
    the sweep."""
    _, shared = _memo_sweep(tables, mini_corpus, monkeypatch, tables.rewrite_rules)
    # The outer Bessel nodes are looked up under their own arguments, and
    # the inner ones are reduced inside what comes back.
    assert shared[500_000, "nested_bessel1"] == (CLASS_ZERO, None, PRE_NONE, 564, None)
    exhausted = [key for key, fields in shared.items() if fields[3] == key[0] + 1]
    assert len({budget for budget, _ in exhausted}) >= 8
    assert sum(fields[0] == CLASS_ZERO for fields in shared.values()) > 200


def test_shared_memo_keeps_every_outcome_under_a_rule_matching_at_the_root(
        tables, mini_corpus, monkeypatch):
    # The memo is keyed by node, so a candidate's root is rewritten afresh
    # and a pattern that matches there fires as it would without a memo.
    equations, shared = _memo_sweep(tables, mini_corpus, monkeypatch,
                                    tables.rewrite_rules + (_SWAP_TERMS,))
    roots = [ir.sub(rel.lhs, rel.rhs) for _, rel, _ in equations]
    assert sum(symbolic.match_pattern(_SWAP_TERMS.pattern, root, {}) for root in roots) >= 5
    # The swaps run the rule stage out on most budgets of the sweep.
    exhausted = [key for key, fields in shared.items()
                 if fields[3] == max(1, key[0] // 10) + 1]
    assert len({budget for budget, _ in exhausted}) >= 8


# --- rule index ---

def _rebuild_children(node, fn):
    """``ir.map_children`` as it was before it handed back unchanged
    nodes: every non-leaf node is built anew."""
    if isinstance(node, ir.Add):
        return ir.add(*map(fn, node.terms))
    if isinstance(node, ir.Mul):
        return ir.mul(*map(fn, node.factors))
    if isinstance(node, ir.Pow):
        return ir.power(fn(node.base), fn(node.exponent))
    if isinstance(node, ir.Neg):
        return ir.neg(fn(node.operand))
    if isinstance(node, FunctionApp):
        return FunctionApp(node.func, tuple(map(fn, node.params)), tuple(map(fn, node.args)))
    if isinstance(node, ir.Derivative):
        return ir.Derivative(fn(node.operand), node.var, node.order)
    if isinstance(node, ir.BigOp):
        return ir.BigOp(node.kind, node.var,
                        fn(node.lo) if node.lo is not None else None,
                        fn(node.hi) if node.hi is not None else None,
                        fn(node.body))
    return node


def _linear_apply_rules(expr, rules, domains=(), budget=10_000):
    """``apply_rules`` as it was before rules were indexed by head and
    before unchanged subtrees were handed back: every rule is tried at
    every node, in table order, and every node is rebuilt."""
    steps = 0

    def try_rules(node):
        nonlocal steps
        for rule in rules:
            binding = {}
            if not symbolic.match_pattern(rule.pattern, node, binding):
                continue
            if all(binding.get(name) is not None and symbolic._condition_holds(
                    kind, value, binding[name], domains)
                   for name, kind, value in rule.conditions):
                steps += 1
                if steps > budget:
                    raise BudgetExceeded("rewrite budget exhausted")
                return ir.substitute(rule.replacement, binding)
        return None

    def rewrite(node):
        rebuilt = _rebuild_children(node, rewrite)
        for _ in range(32):
            replaced = try_rules(rebuilt)
            if replaced is None:
                return rebuilt
            rebuilt = _rebuild_children(replaced, rewrite)
        return rebuilt

    return rewrite(expr), steps


def _apply_rules(expr, rules, domains=(), budget=10_000):
    """`symbolic.apply_rules` on a fresh context with ``budget`` and
    ``domains``, called as `_linear_apply_rules` is."""
    return symbolic.apply_rules(expr, rules, NormContext(budget=budget, domains=domains))


def _rewritten(apply, expr, rules, domains=(), budget=10_000):
    try:
        return apply(expr, rules, domains, budget)
    except BudgetExceeded:
        return "budget exceeded"


# A bare placeholder that takes 100 off anything provably above 100, a
# rule for one number it shadows, and two rules with one head.
_WILDCARD = RewriteRule(Var("var7"), ir.add(Var("var7"), ir.num(-100)),
                        (("var7", "gt", Fraction(100)),), "var7 -> var7 - 100 ? var7 > 100")
_NUMBER = RewriteRule(ir.num(250), ir.num(7), (), "250 -> 7")
_FIRST = RewriteRule(FunctionApp("foo", (), (Var("var1"),)), Var("first"), (),
                     "foo(var1) -> first")
_SECOND = RewriteRule(FunctionApp("foo", (), (Var("var1"),)), Var("second"), (),
                      "foo(var1) -> second")


def test_rule_index_keeps_first_match_wins():
    foo = FunctionApp("foo", (), (ir.num(250),))
    assert symbolic.apply_rules(foo, (_FIRST, _SECOND)) == (Var("first"), 1)
    assert symbolic.apply_rules(foo, (_SECOND, _FIRST)) == (Var("second"), 1)
    # The bare placeholder comes first and wins: 250 -> 150 -> 50.
    assert symbolic.apply_rules(foo, (_WILDCARD, _NUMBER, _FIRST)) == (Var("first"), 3)
    assert symbolic.apply_rules(ir.num(250), (_WILDCARD, _NUMBER)) == (ir.num(50), 2)
    assert symbolic.apply_rules(ir.num(250), (_NUMBER, _WILDCARD)) == (ir.num(7), 1)
    # A head no pattern has still meets the bare placeholder.
    big = ir.add(Const(ir.PI), ir.num(200))
    assert symbolic.apply_rules(big, (_FIRST, _WILDCARD)) == (Const(ir.PI), 2)
    assert symbolic.apply_rules(big, (_FIRST,)) == (big, 0)


def _rule_orders(tables):
    extra = (_WILDCARD, _NUMBER, _FIRST, _SECOND)
    return [
        tables.rewrite_rules + extra,
        extra[::-1] + tables.rewrite_rules,
        (_NUMBER, _SECOND) + tables.rewrite_rules[::-1] + (_FIRST, _WILDCARD),
    ]


def test_rule_index_matches_linear_scan_on_corpus_candidates(tables, mini_corpus,
                                                             monkeypatch):
    seen = []
    real_apply = symbolic.apply_rules

    def recording_apply(expr, rules, ctx=None):
        seen.append((expr, tuple(ctx.domains), ctx.budget))
        return real_apply(expr, rules, ctx)

    monkeypatch.setattr(symbolic, "apply_rules", recording_apply)
    config = default_config(tables, mode=MODE_BOTH)
    for _, rel, domains in _corpus_equations(tables, mini_corpus):
        verify_symbolic(rel, domains, config)
    monkeypatch.undo()
    assert len(seen) > 90
    for rules in _rule_orders(tables):
        for expr, domains, budget in seen:
            assert _rewritten(_apply_rules, expr, rules, domains, budget) == \
                _rewritten(_linear_apply_rules, expr, rules, domains, budget), expr


_rule_leaves = st.one_of(
    st.sampled_from((-1, 2, 150, 250)).map(ir.num),
    st.sampled_from((ir.EULER_E, ir.PI)).map(Const),
    st.sampled_from(("x", "y")).map(Var),
)


def _rule_trees(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda t: ir.add(*t)),
        st.lists(children, min_size=1, max_size=3).map(lambda f: ir.mul(*f)),
        st.builds(ir.power, children, st.sampled_from((ir.num(2), ir.HALF))),
        st.builds(ir.power, st.just(Const(ir.EULER_E)), children),
        st.builds(lambda func, arg: FunctionApp(func, (), (arg,)),
                  st.sampled_from(("sin", "cos", "tan", "sec", "sinh", "cosh",
                                   "ln", "foo", "gamma")),
                  children),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_rule_leaves, _rule_trees, max_leaves=10))
def test_rule_index_matches_linear_scan_on_random_trees(tables, expr):
    for rules in _rule_orders(tables):
        assert _rewritten(_apply_rules, expr, rules) == \
            _rewritten(_linear_apply_rules, expr, rules)


# --- rewriting hands back what no rule can change ---

_POSITIVE_X = (VariableDomain("x", "real", interval=(Fraction(0), True, None, False)),
               VariableDomain("y", "real"))


def _filled_pattern(pattern, subtrees):
    """``pattern`` with its placeholders replaced by ``subtrees``."""
    names = sorted(n for n in free_variables(pattern) if symbolic._is_placeholder(Var(n)))
    return ir.substitute(pattern, dict(zip(names, subtrees)))


@st.composite
def _trees_from_rule_heads(draw, rules):
    """Trees built from the pattern heads of ``rules`` (filled patterns,
    so rules fire) and from other heads, over numbers, constants and
    variables."""
    patterns = [r.pattern for r in rules if not symbolic._is_placeholder(r.pattern)]

    def extend(children):
        return st.one_of(
            st.builds(_filled_pattern, st.sampled_from(patterns),
                      st.lists(children, min_size=2, max_size=2)),
            st.lists(children, min_size=1, max_size=3).map(lambda t: ir.add(*t)),
            st.lists(children, min_size=1, max_size=3).map(lambda f: ir.mul(*f)),
            st.builds(ir.power, children, st.sampled_from((ir.num(2), ir.HALF))),
            children.map(ir.neg),
            st.builds(lambda func, arg: FunctionApp(func, (), (arg,)),
                      st.sampled_from(("gamma", "foo", "sin")), children),
        )

    return draw(st.recursive(_rule_leaves, extend, max_leaves=8))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans(), st.sampled_from(((), _POSITIVE_X)),
       st.sampled_from((1, 2, 10_000)))
def test_rewriter_matches_the_reference_on_trees_from_rule_heads(
        tables, data, bare_placeholder, domains, budget):
    # With a bare placeholder rule in the table no subtree may be skipped.
    rules = tables.rewrite_rules + ((_WILDCARD,) if bare_placeholder else ())
    expr = data.draw(_trees_from_rule_heads(rules))
    got = _rewritten(_apply_rules, expr, rules, domains, budget)
    assert got == _rewritten(_linear_apply_rules, expr, rules, domains, budget)
    if got != "budget exceeded" and got[1] == 0:
        assert got[0] is expr


def test_bare_placeholder_turns_the_subtree_skip_off(tables):
    tree = ir.add(Var("x"), ir.num(250))  # no bundled pattern head in it
    bundled = tables.rewrite_rules
    assert symbolic._Rewriter(bundled, NormContext()).pattern_heads is not None
    assert symbolic.apply_rules(tree, bundled)[0] is tree
    assert symbolic._Rewriter(bundled + (_WILDCARD,), NormContext()).pattern_heads is None
    # 250 -> 150 -> 50: the bare placeholder reaches a head no pattern has.
    expected = (ir.add(Var("x"), ir.num(50)), 2)
    assert symbolic.apply_rules(tree, bundled + (_WILDCARD,)) == expected
    assert _linear_apply_rules(tree, bundled + (_WILDCARD,)) == expected


def test_firing_that_brings_in_new_heads_is_rewritten_further(tables):
    # The tan node's subtree has no Pow and no sin; the replacement has
    # both, and the Pythagorean rule must fire inside it.
    rules = symbolic.load_rewrite_rules(
        r"\tan@{var1} -> \frac{\sin@{var1}^2}{\sin@{var1}\cos@{var1}}" "\n"
        r"\sin@{var1}^2 -> 1 - \cos@{var1}^2",
        tables.macro_table, tables.translation_table)
    expr = tx(r"\tan@{x} + y", tables)
    assert ir.heads(expr) == {"tan", Var, ir.Add}
    expected = tx(r"\frac{1 - \cos@{x}^2}{\sin@{x}\cos@{x}} + y", tables)
    assert symbolic.apply_rules(expr, rules) == (expected, 2)
    assert _linear_apply_rules(expr, rules) == (expected, 2)
    # The bundled table: tan -> sin/cos, then sin^2 -> 1 - cos^2.
    expr = tx(r"\tan@{x} \sin@{x}^2", tables)
    expected = tx(r"\frac{\sin@{x}}{\cos@{x}} (1 - \cos@{x}^2)", tables)
    assert symbolic.apply_rules(expr, tables.rewrite_rules) == (expected, 2)


def test_failed_condition_hands_back_the_input(tables):
    expr = tx(r"\sqrt{x^2} + \sin@{y}", tables)
    out, steps = symbolic.apply_rules(expr, tables.rewrite_rules)
    assert out is expr and steps == 0
    nonneg = (VariableDomain("x", "real", interval=(Fraction(0), False, None, False)),)
    assert symbolic.apply_rules(expr, tables.rewrite_rules, NormContext(domains=nonneg)) == \
        (tx(r"x + \sin@{y}", tables), 1)


def test_passes_hand_back_trees_they_cannot_change(tables):
    from mathverify.calculus import resolve_derivatives
    from mathverify.normform import NormContext

    expr = tx(r"\BesselJ{\nu}@{z} + \frac{\sin@{x}}{\GammaFn@{x+1}}", tables)
    assert resolve_derivatives(expr) is expr
    plain = tx(r"\frac{\sin@{x}}{\GammaFn@{x+1}} + x^2", tables)
    ctx = NormContext()
    assert symbolic.reduce_bessel_orders(plain, ctx) is plain
    assert ctx.steps == 0
    # Only the changed branch is rebuilt; its sibling is the same object.
    wronskian = ir.add(plain, ir.Derivative(ir.power(Var("x"), ir.num(3)), "x"))
    resolved = resolve_derivatives(wronskian)
    assert resolved == ir.add(plain, ir.mul(ir.num(3), ir.power(Var("x"), ir.num(2))))
    assert any(term is plain.terms[0] for term in resolved.terms)


def _full_map_bottom_up(expr, only, fn, done=None):
    """``ir.map_bottom_up`` without its head filter or its memo: ``fn``
    is called on every node, once per occurrence."""
    return fn(ir.map_children(expr, lambda child: _full_map_bottom_up(child, only, fn)))


def _converted(expr):
    """``expr`` through the two passes built on ``ir.map_bottom_up`` and
    through the Bessel reduction, which walks the tree top-down itself."""
    return (symbolic.to_exponential_form(expr), symbolic.to_hypergeometric_form(expr),
            symbolic.reduce_bessel_orders(expr, NormContext()))


def test_conversions_skip_trees_without_a_head_they_convert(tables, monkeypatch):
    visited = []
    map_children = ir.map_children
    monkeypatch.setattr(ir, "map_children",
                        lambda node, fn: visited.append(node) or map_children(node, fn))
    plain = tx(r"\GammaFn@{x+1} (x y + 2)", tables)
    assert symbolic.to_exponential_form(plain) is plain
    assert symbolic.to_hypergeometric_form(plain) is plain
    assert visited == []
    # Only the nodes above a converted head are visited; the branch
    # without one comes back itself.
    expr = ir.add(plain, tx(r"\BesselJ{\nu-1}@{z} + \BesselJ{\nu+1}@{z}", tables))
    reduced = symbolic.reduce_bessel_orders(expr, NormContext())
    assert reduced != expr
    assert visited and all("bessel_j" in ir.heads(node) for node in visited)
    assert any(term is plain for term in reduced.terms)


def test_bessel_reduction_walks_each_node_of_a_replacement_once(tables, monkeypatch):
    # The replacement for order nu+40 shares its two lower members at every
    # level: a DAG of about 3 nodes per order with Fibonacci(40) paths.
    visited = []
    map_children = ir.map_children

    def counted(node, fn):
        visited.append(node)
        if len(visited) > 10_000:
            pytest.fail("the Bessel reduction walks shared nodes once per path")
        return map_children(node, fn)

    monkeypatch.setattr(ir, "map_children", counted)
    expr = tx(r"\BesselJ{\nu+40}@{z} - \BesselJ{\nu}@{z}", tables)
    assert symbolic.reduce_bessel_orders(expr, NormContext()) != expr
    assert len(visited) <= 3 * 40
    visited.clear()
    rel = tr(r"\BesselJ{\nu+40}@{z} - \BesselJ{\nu}@{z} = 0", tables)
    out = verify_symbolic(rel, (), default_config(tables, rewrite_step_budget=200))
    assert (out.classification, out.steps_used) == (CLASS_UNSIMPLIFIED, 201)
    assert len(visited) < 1_000


# Every head the conversions act on, each below a sum and a product.
_CONVERTED_HEADS_LATEX = (
    r"\expe^{x}", r"\BesselJ{\nu}@{z}", r"\LaguerreL[\alpha]{n}@{x}", r"\LegendreP{n}@{x}",
    r"\JacobiP{\alpha}{\beta}{n}@{x}", r"\ChebyT{n}@{x}", r"\erf@@{z}",
    r"\sin@{x}", r"\cos@{x}", r"\tan@{x}", r"\sec@{x}", r"\csc@{x}", r"\cot@{x}",
    r"\sinh@{x}", r"\cosh@{x}", r"\tanh@{x}", r"\sech@{x}", r"\csch@{x}", r"\coth@{x}",
    r"\BesselY{\nu-1}@{z} + \BesselY{\nu+1}@{z}",
)


def test_conversions_match_the_full_map(tables, mini_corpus, monkeypatch):
    trees = [tx(f"y + 2 ({latex})", tables) for latex in _CONVERTED_HEADS_LATEX]
    for _, rel, _ in _corpus_equations(tables, mini_corpus):
        trees += [rel.lhs, rel.rhs, ir.sub(rel.lhs, rel.rhs)]
    got = [_converted(t) for t in trees]
    monkeypatch.setattr(ir, "map_bottom_up", _full_map_bottom_up)
    assert got == [_converted(t) for t in trees]
    exponential_heads = symbolic.identities()["exponential"].keys()
    hypergeometric_heads = symbolic.identities()["hypergeometric"].keys()
    for tree, (exponential, hypergeometric, _) in zip(trees, got):
        if exponential_heads.isdisjoint(ir.heads(tree)):
            assert exponential is tree
        if hypergeometric_heads.isdisjoint(ir.heads(tree)):
            assert hypergeometric is tree
    assert sum(e is not t for t, (e, _, _) in zip(trees, got)) >= 5
    assert sum(b is not t for t, (_, _, b) in zip(trees, got)) >= 4


def _fuzz_equations(tables):
    """One equation per shape and pair of atoms of `test_soundness_fuzz`,
    with exponents and constraints taken in turn."""
    from itertools import cycle, product

    from mathverify.constraints import interpret_constraints
    from test_soundness_fuzz import ATOMS, CONSTRAINTS, EXPONENTS, SHAPES

    exponents = cycle(product(EXPONENTS, repeat=2))
    constraints = cycle(CONSTRAINTS)
    equations = []
    for shape, a, b in product(SHAPES, ATOMS, ATOMS):
        rel = tr("{} = {}".format(*shape(a, b, *next(exponents))), tables)
        interp = interpret_constraints(next(constraints), tables.blueprints,
                                       tables.macro_table)
        equations.append((rel, tuple(interp.domains)))
    return equations


def _all_equations(tables, mini_corpus):
    """(relation, domains) of the mini-corpus and the fuzz equations."""
    return [(rel, domains) for _, rel, domains in
            _corpus_equations(tables, mini_corpus)] + _fuzz_equations(tables)


def _verified(tables, rel, domains, **kw):
    return verify_symbolic(rel, domains, default_config(tables, **kw)).verified


def _renamed_expr(expr):
    """``expr`` with every variable, a derivative's and a binder's too,
    renamed ``v`` -> ``vr``."""
    if isinstance(expr, Var):
        return Var(expr.name + "r")
    out = ir.map_children(expr, _renamed_expr)
    if isinstance(out, (ir.Derivative, ir.BigOp)):
        out = dataclasses.replace(out, var=out.var + "r")
    return out


def _renamed(rel, domains):
    return (ir.Relation(rel.kind, _renamed_expr(rel.lhs), _renamed_expr(rel.rhs)),
            tuple(dataclasses.replace(d, var=d.var + "r") for d in domains))


# Rewritings of an equation that keep its truth: the verdict must not move.
_METAMORPHIC = {
    "swap": lambda rel, domains: (ir.Relation(rel.kind, rel.rhs, rel.lhs), domains),
    "fresh_term": lambda rel, domains: (
        ir.Relation(rel.kind, ir.add(rel.lhs, Var("w")), ir.add(rel.rhs, Var("w"))), domains),
    "rename": _renamed,
    "scale": lambda rel, domains: (
        ir.Relation(rel.kind, ir.mul(ir.num(3), rel.lhs), ir.mul(ir.num(3), rel.rhs)),
        domains),
}


@pytest.mark.parametrize("change", _METAMORPHIC)
def test_verdicts_do_not_move_when_the_equation_is_rewritten(tables, mini_corpus, change):
    # With a canonical normal form the verified/not-verified verdict is a
    # property of the equation, not of how it is written.
    moved = []
    for rel, domains in _all_equations(tables, mini_corpus):
        assert "w" not in ir.free_variables(rel.lhs) | ir.free_variables(rel.rhs)
        if _verified(tables, rel, domains) != \
                _verified(tables, *_METAMORPHIC[change](rel, domains)):
            moved.append(rel)
    assert not moved


def test_difference_zero_exactly_when_quotient_one(tables, mini_corpus):
    checked = 0
    for rel, domains in _all_equations(tables, mini_corpus):
        if ir.ZERO in (rel.lhs, rel.rhs):
            continue
        zero = verify_symbolic(rel, domains, default_config(
            tables, mode=MODE_DIFFERENCE)).classification == CLASS_ZERO
        one = verify_symbolic(rel, domains, default_config(
            tables, mode=MODE_QUOTIENT)).classification == CLASS_ONE
        assert zero == one, rel
        checked += zero
    assert checked > 300


def test_the_quotient_candidate_verifies_nothing_more(tables, mini_corpus):
    # The default mode has the difference candidate alone; adding the
    # quotient form verifies exactly the same equations.
    equations = _all_equations(tables, mini_corpus)
    assert SimplifyConfig().mode == MODE_DIFFERENCE
    default = [_verified(tables, rel, domains) for rel, domains in equations]
    assert default == [_verified(tables, rel, domains, mode=MODE_BOTH)
                       for rel, domains in equations]
    assert 300 < sum(default) < len(equations)


# The modes with a quotient candidate.  The difference candidate wins
# first wherever both would, so only the quotient mode reaches ``one``.
_QUOTIENT_MODES = (MODE_BOTH, MODE_QUOTIENT)


def test_rational_forms_are_never_written(tables, mini_corpus, monkeypatch):
    # With every RatForm's polynomials read-only, any in-place write raises
    # TypeError; the outcomes, steps included, are those of plain dicts.
    equations = _all_equations(tables, mini_corpus)

    def outcomes():
        return [_fields(verify_symbolic(rel, domains, default_config(tables, mode=mode)))
                for mode in _QUOTIENT_MODES for rel, domains in equations]

    plain = outcomes()

    class ReadOnlyForm(normform.RatForm):
        def __init__(self, num, den):
            super().__init__(types.MappingProxyType(num), types.MappingProxyType(den))

    monkeypatch.setattr(normform, "RatForm", ReadOnlyForm)
    assert outcomes() == plain
    assert {CLASS_ZERO, CLASS_ONE, CLASS_UNSIMPLIFIED} <= {out[0] for out in plain}


def test_scaling_path_keeps_every_outcome(tables, mini_corpus, monkeypatch):
    # With poly_mul's scaling path replaced by the per-term loop, every
    # outcome, steps_used included, is the same.
    from test_normform import _copying_poly_mul

    equations = _all_equations(tables, mini_corpus)

    def outcomes():
        return [verify_symbolic(rel, domains, default_config(tables, mode=mode))
                for mode in _QUOTIENT_MODES for rel, domains in equations]

    scaled = outcomes()
    monkeypatch.setattr(normform, "poly_mul", _copying_poly_mul)
    assert outcomes() == scaled
    assert {CLASS_ZERO, CLASS_ONE, CLASS_UNSIMPLIFIED} <= {out.classification
                                                          for out in scaled}


def test_expand_with_the_formula_memo_matches_a_fresh_expand(tables, mini_corpus):
    # expand shares the formula's NormMemo; its results, and the budgets
    # at which it runs out, are those of an expand without one.
    checked = 0
    for rid, rel, domains in _corpus_equations(tables, mini_corpus)[:-1]:
        memo = NormMemo()
        simplify(ir.sub(rel.lhs, rel.rhs), default_config(tables), memo)
        for side in (rel.lhs, rel.rhs):
            for budget in (1, 3, 10, 40, 500_000):
                try:
                    fresh = expand(side, budget=budget)
                except (BudgetExceeded, SymbolicError) as exc:
                    fresh = type(exc)
                try:
                    shared = expand(side, budget=budget, memo=memo)
                except (BudgetExceeded, SymbolicError) as exc:
                    shared = type(exc)
                assert shared == fresh, (rid, budget)
                checked += 1
    assert checked > 300


# --- user rule tables: the loader and the matcher's other arms ---

def _user_rules(text, tables):
    return symbolic.load_rewrite_rules(text, tables.macro_table, tables.translation_table)


@pytest.mark.parametrize("text, message", [
    (r"\sin@{var1}", "line 1: missing '->'"),
    ("\\sin@{var1} -> var1\n\n# a comment\n\\frac{var1 -> var1", "line 4: 1 unclosed group"),
    (r"\sin@{var1} -> var1 ? var1 >> 2", "line 1: bad condition 'var1 >> 2'"),
    (r"\sin@{var1} -> var1 ? var1 > abc", "line 1: not a rational number: 'abc'"),
    ("\n" r"\sin@{var1} -> var1 ? var1 > 1/0", "line 2: not a rational number: '1/0'"),
    (r"\sin@{var1} -> var1 ? var2 > 0",
     "line 1: condition on 'var2', which the pattern does not bind"),
    (r"\sin@{var1} -> var1 ? var1 > 0, var real",
     "line 1: condition on 'var', which the pattern does not bind"),
    (r"\sin@{var1} -> var1 + var2",
     "line 1: the pattern does not bind 'var2', which the replacement uses"),
])
def test_malformed_user_rule_is_refused_with_its_line(tables, text, message):
    with pytest.raises(MalformedRule, match=message):
        _user_rules(text, tables)


def test_rule_conditions_read_rational_values(tables):
    rules = _user_rules(r"\sin@{var1} -> var1 ? var1 >= -3/2, var1 != 1.5, var1 real",
                        tables)
    assert rules[0].conditions == (("var1", "ge", Fraction(-3, 2)),
                                   ("var1", "ne", Fraction(3, 2)), ("var1", "real", None))


@pytest.mark.parametrize("condition", ["var1 > abc", "var1 > 1/0", "var2 > 0"])
def test_cli_refuses_a_bad_rule_condition(tmp_path, capsys, condition):
    from importlib import resources

    from mathverify.cli import main
    rules = tmp_path / "bad.rules"
    rules.write_text(f"\\sin@{{var1}} -> var1 ? {condition}\n")
    corpus = str(resources.files("mathverify").joinpath("data", "mini_corpus.jsonl"))
    assert main(["report", "--corpus", corpus, "--rewrite-rules", str(rules)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 1: ") and captured.out == ""


def test_user_rule_matches_under_a_negation(tables):
    rules = _user_rules(r"-\sin@{var1} -> \sin@{-var1}", tables)
    assert isinstance(rules[0].pattern, ir.Neg)
    expr = tx(r"y - \sin@{x}", tables)
    assert symbolic.apply_rules(expr, rules) == (tx(r"y + \sin@{-x}", tables), 1)
    assert _linear_apply_rules(expr, rules) == (tx(r"y + \sin@{-x}", tables), 1)


def test_repeated_placeholder_binds_one_subtree(tables):
    rules = _user_rules(r"\sin@{var1}\cos@{var1} -> \frac{\sin@{2 var1}}{2}", tables)
    same = tx(r"\sin@{x}\cos@{x}", tables)
    assert symbolic.apply_rules(same, rules) == (tx(r"\frac{\sin@{2x}}{2}", tables), 1)
    # sin(var1) binds x, so cos(var1) cannot take cos(y), and no other
    # pairing of the factors matches either.
    other = tx(r"\sin@{x}\cos@{y}", tables)
    assert symbolic.apply_rules(other, rules) == (other, 0)
    assert _linear_apply_rules(other, rules) == (other, 0)


def _f(arg):
    return FunctionApp("f", (), (arg,))


def test_user_rule_matches_a_derivative():
    rule = RewriteRule(ir.Derivative(_f(Var("var1")), "x", 2), Var("var1"), (),
                       "f''(var1) -> var1")
    square = ir.power(Var("x"), ir.num(2))
    assert symbolic.apply_rules(ir.Derivative(_f(square), "x", 2), (rule,)) == (square, 1)
    for other in (ir.Derivative(_f(square), "y", 2), ir.Derivative(_f(square), "x", 1),
                  ir.Derivative(FunctionApp("g", (), (square,)), "x", 2)):
        assert symbolic.apply_rules(other, (rule,)) == (other, 0)


def test_user_rule_matches_a_big_operator():
    k, n, var1 = Var("k"), Var("n"), Var("var1")
    rule = RewriteRule(ir.BigOp(ir.OP_SUM, "k", ir.ONE, var1, k),
                       ir.div(ir.mul(var1, ir.add(var1, ir.ONE)), ir.num(2)), (),
                       "sum_{k=1}^{var1} k -> var1 (var1 + 1) / 2")
    tree = ir.BigOp(ir.OP_SUM, "k", ir.ONE, n, k)
    expected = ir.div(ir.mul(n, ir.add(n, ir.ONE)), ir.num(2))
    assert symbolic.apply_rules(tree, (rule,)) == (expected, 1)
    assert _linear_apply_rules(tree, (rule,)) == (expected, 1)
    misses = [
        ir.BigOp(ir.OP_PROD, "k", ir.ONE, n, k),  # another operator
        ir.BigOp(ir.OP_SUM, "j", ir.ONE, n, Var("j")),  # another index
        ir.BigOp(ir.OP_SUM, "k", None, None, k),  # no bounds
        ir.BigOp(ir.OP_SUM, "k", ir.ZERO, n, k),  # another lower bound
        ir.BigOp(ir.OP_SUM, "k", ir.ONE, n, ir.power(k, ir.num(2))),  # another body
    ]
    for other in misses:
        assert symbolic.apply_rules(other, (rule,)) == (other, 0)


def test_bessel_order_three_steps_above_its_base(tables):
    # J_{nu+3} reduces through J_{nu+2} and J_{nu+1}; both recurrences
    # need J_{nu+1}, which is built once.
    rel = tr(r"\BesselJ{\nu+3}@{z} = \frac{2(\nu+2)}{z}(\frac{2(\nu+1)}{z}"
             r"\BesselJ{\nu+1}@{z} - \BesselJ{\nu}@{z}) - \BesselJ{\nu+1}@{z}", tables)
    reduced = symbolic.reduce_bessel_orders(ir.sub(rel.lhs, rel.rhs), NormContext())
    assert {node for node in ir.walk(reduced) if symbolic._is_bessel(node)} == \
        {tx(r"\BesselJ{\nu}@{z}", tables), tx(r"\BesselJ{\nu+1}@{z}", tables)}
    out = verify_symbolic(rel, (), default_config(tables, mode=MODE_DIFFERENCE,
                                                  preprocessors=(PRE_NONE,)))
    assert out.classification == CLASS_ZERO


# --- rewrite rule self-validation ---

def _condition_points(rule):
    kinds = {name: kind for name, kind, _ in rule.conditions}

    def draw(name):
        kind = kinds.get(name)
        for _ in range(50):
            if kind in ("ge", "gt"):
                value = abs(random_rational()) + Fraction(1, 10)
            elif kind in ("real", "ne"):
                value = random_rational()
                if kind == "ne" and value == 0:
                    continue
            else:
                value = complex(float(random_rational()), float(random_rational()))
                if abs(value) < 0.15:
                    continue
            return value
        raise AssertionError("could not draw a point")

    return draw


def test_every_rewrite_rule_is_numerically_self_validating(tables):
    # lhs and rhs of each rule agree at ten points in its validity domain.
    for rule in tables.rewrite_rules:
        placeholders = sorted(free_variables(rule.pattern))
        draw = _condition_points(rule)
        checked = 0
        attempts = 0
        while checked < 10 and attempts < 200:
            attempts += 1
            assignment = {name: draw(name) for name in placeholders}
            try:
                v1 = eval_expr(rule.pattern, assignment, EVAL_CONFIG)
                v2 = eval_expr(rule.replacement, assignment, EVAL_CONFIG)
            except Exception:
                continue  # pole at the sampled point; redraw
            if max(abs(v1), abs(v2)) > 1e6:
                continue
            assert abs(v1 - v2) < 1e-10 * max(1, abs(v1)), rule.source
            checked += 1
        assert checked == 10, rule.source


# --- soundness sampling ---

def _sample_assignment(variables, domains):
    assignment = {}
    for name in sorted(variables):
        named = [d for d in domains if d.var == name]
        value = None
        for d in named:
            if d.progression is not None:
                start, step, end = d.progression
                k = RNG.randint(0, 8)
                value = start + k * step
                break
            if d.finite_set is not None:
                value = RNG.choice(list(d.finite_set))
                break
            if d.interval is not None and d.interval[0] is not None \
                    and d.interval[2] is not None:
                lo, _, hi, _ = d.interval
                value = lo + (hi - lo) * Fraction(RNG.randint(1, 23), 24)
                break
            if d.interval is not None and d.interval[0] is not None:
                value = d.interval[0] + abs(random_rational()) + Fraction(1, 24)
                break
        if value is None:
            value = random_rational()
        assignment[name] = value
    return assignment


def test_soundness_of_zero_classifications(tables, mini_corpus):
    # A zero from the simplifier re-checks numerically on the original
    # relation at 25 random constraint-satisfying points.
    from mathverify.constraints import interpret_constraints

    checked_any = False
    for record in mini_corpus:
        try:
            rel = tr(record.latex, tables)
        except Exception:
            continue
        if rel.kind not in (ir.REL_EQ, ir.REL_EQUIV):
            continue
        interp = interpret_constraints(record.constraints, tables.blueprints,
                                       tables.macro_table)
        config = default_config(tables, assumptions=tuple(interp.domains))
        out = verify_symbolic(rel, interp.domains, config)
        if out.classification != CLASS_ZERO:
            continue
        checked_any = True
        variables = free_variables(rel.lhs) | free_variables(rel.rhs)
        original = ir.sub(rel.lhs, rel.rhs)
        points = 0
        attempts = 0
        while points < 25 and attempts < 400:
            attempts += 1
            assignment = _sample_assignment(variables, interp.domains)
            try:
                value = eval_expr(original, assignment, EVAL_CONFIG)
            except Exception:
                continue  # singular draw
            assert abs(value) < 1e-9, (record.id, assignment, value)
            points += 1
        assert points == 25, record.id
    assert checked_any
