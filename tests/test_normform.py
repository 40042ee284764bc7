"""The rational normal form's polynomial kernel and emission, checked
against the loops they replaced (the scaling path of `poly_mul` at every
budget too), its bounded exact powers, gamma values and gamma reflection
rounds, its int-when-integral storage, and its shared memo, checked
against contexts without one."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathverify import ir, normform
from mathverify.constraints import VariableDomain
from mathverify.errors import BudgetExceeded, SymbolicError
from mathverify.ir import Const, FunctionApp, Number, Var
from mathverify.normform import (
    ONE_POLY,
    NormContext,
    NormMemo,
    RatForm,
    _exact_rational_pow,
    _exact_root,
    _mono_sort_key,
    canon,
    const_poly,
    constant_value,
    emit,
    mono_mul,
    norm,
    poly_add,
    poly_mul,
)
from mathverify.parser import parse, tokenize
from mathverify.translate import to_relation

_X, _Y = Var("x"), Var("y")
_I = Const(ir.IMAGINARY_UNIT)
_PI = Const(ir.PI)
_SIN_X = FunctionApp("sin", (), (_X,))
_SETTLED_EXPONENTS = (Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2))
# Each atom with the exponents it is drawn with.  sin^2 and sinh^2 expand
# through the Pythagorean relations inside mono_mul, so a product of
# monomials can be a polynomial of several terms; i^k folds mod 4, a
# rational power of a Number may fold, an integral power of (x + 1)
# re-expands and an integral power of x^s combines, so none of those is
# settled and poly_mul by a constant goes through the per-term loop.
_ATOM_EXPONENTS = (
    (_X, _SETTLED_EXPONENTS),
    (_Y, _SETTLED_EXPONENTS),
    (_PI, _SETTLED_EXPONENTS),
    (_SIN_X, _SETTLED_EXPONENTS),
    (ir.Pow(_X, Var("s")), _SETTLED_EXPONENTS),
    (_I, (Fraction(-1), Fraction(2), Fraction(3))),
    (Number(2), (Fraction(1, 2),)),
    (ir.add(_X, ir.ONE), (Fraction(-1), Fraction(2))),
    (FunctionApp("sinh", (), (_X,)), (Fraction(1), Fraction(2))),
)


def _mono(entries):
    """A monomial as normalization builds it: atoms in sort-key order."""
    return tuple(sorted(entries, key=lambda kv: ir.sort_key(kv[0])))


@st.composite
def _monos(draw):
    picks = draw(st.lists(st.sampled_from(_ATOM_EXPONENTS), max_size=3,
                          unique_by=lambda ae: ae[0]))
    # Exponents stored as Fraction, or as int when integral (through _q).
    store = draw(st.sampled_from((lambda e: e, normform._q)))
    return _mono([(a, store(draw(st.sampled_from(exps)))) for a, exps in picks])


_COEFFICIENTS = st.sampled_from((Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2),
                                 1, -2))
# Constant polynomials, ONE_POLY among them, on either side of a product.
_polys = st.one_of(
    st.dictionaries(_monos(), _COEFFICIENTS, max_size=4),
    _COEFFICIENTS.map(lambda c: {(): c}),
)


def _copying_poly_mul(p, q, ctx):
    """poly_mul as it was: a fresh accumulator copy per monomial product."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            ctx.tick()
            out = poly_add(out, mono_mul(m1, m2, c1 * c2, ctx))
    return out


def _sorting_emit(rf):
    """emit written out: each polynomial sorted, then emitted."""

    def emit_poly(p):
        if not p:
            return ir.ZERO
        terms = []
        for mono, coef in sorted(p.items(), key=lambda kv: _mono_sort_key(kv[0])):
            factors = []
            if coef != 1 or not mono:
                factors.append(ir.Number(coef))
            for atom, exp in mono:
                factors.append(ir.power(atom, ir.Number(exp)
                                        if isinstance(exp, (int, Fraction)) else exp))
            terms.append(ir.mul(*factors) if len(factors) != 1 else factors[0])
        return ir.add(*terms) if len(terms) != 1 else terms[0]

    num = emit_poly(rf.num)
    if rf.den == ONE_POLY:
        return num
    if not rf.num:
        return ir.ZERO
    return ir.mul(num, ir.power(emit_poly(rf.den), ir.MINUS_ONE))


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_poly_mul_matches_the_copying_loop(p, q):
    ctx_new, ctx_old = NormContext(), NormContext()
    product = poly_mul(p, q, ctx_new)
    assert list(product.items()) == list(_copying_poly_mul(p, q, ctx_old).items())
    assert ctx_new.steps == ctx_old.steps
    # poly_add still leaves its arguments alone.
    before = dict(p)
    poly_add(p, q)
    assert p == before


def test_each_atom_and_exponent_scales_as_the_loop_multiplies():
    # Every kind the strategies draw, settled or not, alone and next to a
    # settled atom, on either side of a constant.
    for atom, exps in _ATOM_EXPONENTS:
        for exp in exps:
            for mono in (((atom, exp),), _mono([(atom, normform._q(exp)), (Var("z"), 3)])):
                for p, q in (({mono: 2}, const_poly(-3)), (ONE_POLY, {mono: -1, (): 1})):
                    ctx_new, ctx_old = NormContext(), NormContext()
                    assert list(poly_mul(p, q, ctx_new).items()) == \
                        list(_copying_poly_mul(p, q, ctx_old).items()), (p, q)
                    assert ctx_new.steps == ctx_old.steps


def _product_or_exit(multiply, p, q, budget):
    ctx = NormContext(budget)
    try:
        result = list(multiply(p, q, ctx).items())
    except BudgetExceeded:
        result = BudgetExceeded
    return result, ctx.steps


# Constant times polynomial: settled (the scaling path), not settled (the
# loop: i^3 folds, sin^2 expands), and constant times constant.
_SCALED_PRODUCTS = (
    (ONE_POLY, {((_X, 2),): 3, _mono([(_X, 1), (_Y, Fraction(1, 2))]): Fraction(-1, 2),
                (): 1}),
    ({((_X, -1),): 2, ((ir.Pow(_X, Var("s")), 1),): -1}, const_poly(-2)),
    (const_poly(Fraction(3, 2)), {((_I, 3),): 1, _mono([(_SIN_X, 2), (_Y, 1)]): 2}),
    (const_poly(-1), const_poly(5)),
)


@pytest.mark.parametrize("p, q", _SCALED_PRODUCTS)
def test_scaling_runs_out_of_budget_where_the_loop_does(p, q):
    # At every budget up to the product's full tick count, poly_mul and
    # the per-term loop both raise or both return, at the same steps.
    full = NormContext()
    _copying_poly_mul(p, q, full)
    assert full.steps >= 2
    for budget in range(full.steps + 1):
        assert _product_or_exit(poly_mul, p, q, budget) == \
            _product_or_exit(_copying_poly_mul, p, q, budget), budget
    # One tick short, the exit leaves steps one over the budget.
    assert _product_or_exit(poly_mul, p, q, full.steps - 1) == (BudgetExceeded, full.steps)


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_emit_matches_sort_then_emit(p, q):
    for rf in (RatForm(p, ONE_POLY), RatForm(p, q or ONE_POLY),
               norm(ir.add(_sorting_emit(RatForm(p, ONE_POLY)), _Y))):
        assert emit(rf) == _sorting_emit(rf)


@settings(max_examples=150, deadline=None)
@given(_polys, _polys)
def test_emit_does_not_depend_on_insertion_order(p, q):
    # A RatForm's dicts keep the order normalization built them in; two
    # forms with the same terms inserted in opposite orders emit equal IR.
    q = q or ONE_POLY
    forward = RatForm(dict(p.items()), dict(q.items()))
    backward = RatForm(dict(reversed(p.items())), dict(reversed(q.items())))
    assert forward == backward
    assert emit(forward) == emit(backward)


def test_huge_exact_powers_stay_symbolic():
    two = ir.num(2)
    assert ir.power(two, ir.num(100)) == ir.num(2 ** 100)
    assert isinstance(ir.power(two, ir.num(10 ** 5)), ir.Pow)
    assert isinstance(ir.power(two, ir.num(-(10 ** 9))), ir.Pow)
    assert _exact_rational_pow(Fraction(2), Fraction(10 ** 9)) is None
    assert _exact_rational_pow(Fraction(4), Fraction(3, 2)) == 8
    # Exact roots of numbers past the float range.
    assert _exact_rational_pow(Fraction(10 ** 400), Fraction(1, 2)) == 10 ** 200
    assert _exact_rational_pow(Fraction(10 ** 400 + 1), Fraction(1, 2)) is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 60), st.integers(2, 7))
def test_exact_root(m, k):
    assert _exact_root(m ** k, k) == m
    # (m+1)^k - m^k > 1, so m^k + 1 is never a k-th power.
    assert _exact_root(m ** k + 1, k) is None
    assert _exact_root(0, k) == 0


def _gamma(value):
    return FunctionApp("gamma", (), (Number(Fraction(value)),))


def test_gamma_constants_fold_only_within_the_power_budget():
    # (c-1)! and the shifted products are bounded like c**floor(c), the
    # same budget as exact powers, and checked before any multiplication.
    assert emit(norm(_gamma(400))) == ir.num(math.factorial(399))
    assert emit(norm(_gamma(Fraction(7, 2)))) == ir.mul(
        ir.num(Fraction(15, 8)), ir.power(Const(ir.PI), ir.HALF))
    for big in (3000, 10 ** 6, Fraction(10 ** 7, 3), Fraction(-(10 ** 7), 3)):
        assert emit(norm(_gamma(big))) == _gamma(big)
    # Poles stay atoms whatever their size.
    assert emit(norm(_gamma(-3))) == _gamma(-3)


def test_gamma_reflection_hands_back_a_polynomial_without_gamma_pairs():
    # Every monomial of (Gamma(x) + y + z)^6 / (Gamma(x) + 1) holds at most
    # one gamma atom, so no pair can reflect: the numerator and
    # denominator come back as they are, and no step is taken.
    gamma_x = FunctionApp("gamma", (), (_X,))
    ctx = NormContext()
    rat = normform.norm_plain(ir.div(ir.power(ir.add(gamma_x, _Y, Var("z")), ir.num(6)),
                                     ir.add(gamma_x, ir.ONE)), ctx)
    steps = ctx.steps
    assert len(rat.num) == 28
    assert normform._gamma_reflect(rat, ctx) is rat
    reflected, changed = normform._reflect_poly(rat.num, ctx)
    assert reflected.num is rat.num and not changed
    assert ctx.steps == steps
    # A pair still reflects: Gamma(x) Gamma(1 - x) = pi / sin(pi x).
    pair = ir.mul(gamma_x, FunctionApp("gamma", (), (ir.sub(ir.ONE, _X),)))
    assert norm(pair) == norm(ir.div(Const(ir.PI), FunctionApp(
        "sin", (), (ir.mul(Const(ir.PI), _X),))))


def _fn(name, *args, params=()):
    return FunctionApp(name, tuple(ir.num(p) for p in params), args)


# An expression and a simpler one with the same normal form, for the
# special values and folds no corpus formula reaches.
_SPECIAL_VALUES = {
    # Symbolic exponents that merge to 4: i^4 = 1.
    "imaginary_unit_to_the_fourth": (
        ir.mul(ir.Pow(_I, _X), ir.Pow(_I, ir.sub(ir.num(4), _X))), ir.ONE),
    # Gamma(-1/2) = Gamma(1/2) / (-1/2) = -2 sqrt(pi).
    "gamma_of_minus_one_half": (
        _gamma(Fraction(-1, 2)), ir.mul(ir.num(-2), ir.power(_PI, ir.HALF))),
    # Gamma(7/3) = (4/3)(1/3) Gamma(1/3).
    "gamma_of_seven_thirds": (
        _gamma(Fraction(7, 3)), ir.mul(ir.num(Fraction(4, 9)), _gamma(Fraction(1, 3)))),
    "elliptic_e_at_one": (_fn("elliptic_e", ir.ONE), ir.ONE),
    # An upper parameter 0 ends the series at its first term.
    "genhyper_with_a_zero_upper_parameter": (
        _fn("genhyper", ir.ZERO, _Y, Var("c"), _X, params=(2, 1)), ir.ONE),
    # A parameter both upper and lower cancels: 2F1(a, y; a; x) = 1F0(y;; x).
    "genhyper_with_a_cancelling_pair": (
        _fn("genhyper", Var("a"), _Y, Var("a"), _X, params=(2, 1)),
        _fn("genhyper", _Y, _X, params=(1, 0))),
    # Gamma(x)^2 Gamma(1-x) = Gamma(x) pi / sin(pi x): the pair leaves one
    # Gamma(x) behind.
    "gamma_pair_with_a_squared_member": (
        ir.mul(ir.Pow(FunctionApp("gamma", (), (_X,)), ir.num(2)),
               FunctionApp("gamma", (), (ir.sub(ir.ONE, _X),))),
        ir.div(ir.mul(_PI, FunctionApp("gamma", (), (_X,))),
               _fn("sin", ir.mul(_PI, _X)))),
    # Exponents that merge to an odd power: sin^3 = sin (1 - cos^2).
    "sin_powers_merging_to_three": (
        ir.mul(ir.Pow(_fn("sin", _X), ir.num(Fraction(3, 2))),
               ir.Pow(_fn("sin", _X), ir.num(Fraction(3, 2)))),
        ir.sub(_fn("sin", _X), ir.mul(_fn("sin", _X), ir.power(_fn("cos", _X), ir.num(2))))),
}


@pytest.mark.parametrize("expr, expected", _SPECIAL_VALUES.values(), ids=_SPECIAL_VALUES)
def test_special_values_normalize(expr, expected):
    assert norm(expr) == norm(expected)


def test_atoms_that_stay_as_they_are():
    # sin is odd, but its argument 0 has no leading term to flip.
    assert emit(norm(_fn("sin", ir.ZERO))) == _fn("sin", ir.ZERO)
    # A gamma argument with a non-constant denominator is not shifted.
    arg = ir.div(ir.ONE, ir.add(_X, ir.ONE))
    assert emit(norm(FunctionApp("gamma", (), (arg,)))) == \
        FunctionApp("gamma", (), (emit(norm(arg)),))


def test_a_non_ir_object_is_refused():
    with pytest.raises(SymbolicError, match="cannot normalize"):
        norm(ir.Relation(ir.REL_EQ, _X, _Y))


def _gamma_exponents(rf):
    return sorted(exp for mono in rf.num for atom, exp in mono
                  if isinstance(atom, FunctionApp) and atom.func == "gamma")


def test_gamma_reflection_stops_after_eight_rounds():
    # A round reflects one pair per monomial, so Gamma(x)^k Gamma(1-x)^k
    # needs k rounds.  Eight contract it all; at nine one pair is left,
    # which a further pass would reflect.
    gamma_x = FunctionApp("gamma", (), (_X,))
    gamma_one_minus_x = FunctionApp("gamma", (), (ir.sub(ir.ONE, _X),))

    def pairs(k):
        return ir.mul(ir.power(gamma_x, ir.num(k)), ir.power(gamma_one_minus_x, ir.num(k)))

    assert _gamma_exponents(norm(pairs(8))) == []
    capped = norm(pairs(9))
    assert _gamma_exponents(capped) == [1, 1]
    assert _gamma_exponents(normform._gamma_reflect(capped, NormContext())) == []


def _check_storage(rf):
    """Integral coefficients and exponents are int, the others Fraction."""
    for mono, coef in (*rf.num.items(), *rf.den.items()):
        for value in (coef, *(e for _, e in mono if not isinstance(e, ir.Expr))):
            assert type(value) is (int if value.denominator == 1 else Fraction), value


_HALF_X = ir.Mul((ir.HALF, _X))
# Fraction arithmetic inside the kernel that yields integral values: a
# coefficient sum, a coefficient product, an exponent sum, the inverse of
# a monomial, and a folded rational power.
_KERNEL_CASES = (
    ir.Add((_HALF_X, _HALF_X)),
    ir.Mul((ir.Add((_HALF_X, ir.ONE)), ir.Mul((ir.num(2), _Y)))),
    ir.Mul((ir.Pow(_X, ir.HALF), ir.Pow(_X, ir.HALF))),
    ir.Pow(_HALF_X, ir.MINUS_ONE),
    ir.Mul((ir.Pow(ir.num(2), ir.HALF), ir.Pow(ir.num(2), ir.HALF), _Y)),
)


def test_integral_values_are_stored_as_int(tables, mini_corpus):
    # Every side of every translated mini-corpus relation, their
    # differences and quotients, and the kernel cases: int when integral,
    # Fraction otherwise, Number.value always a Fraction, constant_value
    # never a float.
    exprs = list(_KERNEL_CASES)
    for record in mini_corpus:
        try:
            rel = to_relation(parse(tokenize(record.latex), tables.macro_table),
                              tables.translation_table)
        except Exception:
            continue
        exprs += [rel.lhs, rel.rhs, ir.sub(rel.lhs, rel.rhs), ir.div(rel.lhs, rel.rhs)]
    forms = constants = 0
    for expr in exprs:
        try:
            rf = norm(expr)
        except SymbolicError:
            continue
        forms += 1
        _check_storage(rf)
        for node in ir.walk(emit(rf)):
            if isinstance(node, Number):
                assert type(node.value) is Fraction
        value = constant_value(rf)
        if value is not None:
            constants += 1
            assert type(value) is Fraction
    assert forms > 100 and constants > 10


# --- the shared memo ---

_LEAVES = st.sampled_from((
    _X, _Y, ir.num(2), ir.num(-1), ir.HALF, Const(ir.PI), Const(ir.IMAGINARY_UNIT),
))


def _grow(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda ab: ir.add(*ab)),
        pairs.map(lambda ab: ir.mul(*ab)),
        pairs.map(lambda ab: ir.div(*ab)),
        st.tuples(children, st.sampled_from((-1, 2, 3))).map(
            lambda be: ir.power(be[0], ir.num(be[1]))),
        pairs.map(lambda ab: ir.power(*ab)),
        children.map(ir.neg_term),
        # Function arguments, derivative operands and sum bodies go
        # through canon; a sum with numeric bounds unrolls instead.
        st.tuples(st.sampled_from(("sin", "cos", "gamma", "elliptic_k")), children).map(
            lambda fa: FunctionApp(fa[0], (), (fa[1],))),
        pairs.map(lambda ab: FunctionApp("pochhammer", (), ab)),
        children.map(lambda a: ir.Derivative(a, "x")),
        pairs.map(lambda ab: ir.BigOp(ir.OP_SUM, "x", ir.ONE, ab[0], ab[1])),
    )


_trees = st.recursive(_LEAVES, _grow, max_leaves=10)


def _canon_then_norm(t, u, ctx):
    """canon(t), then norm(u), in one context: each result (or the type
    of the exception that stopped the run) with ``ctx.steps`` after it."""
    out = []
    for run in (lambda: canon(t, ctx), lambda: norm(u, ctx)):
        try:
            out.append(run())
        except Exception as exc:  # the memo-free context raises alike
            out += [type(exc), ctx.steps]
            break
        out.append(ctx.steps)
    return out


_POSITIVE_X = (VariableDomain("x", interval=(Fraction(0), True, None, False)),)


@settings(max_examples=300, deadline=None)
@given(st.lists(_trees, min_size=1, max_size=4), st.integers(1, 1500),
       st.sampled_from(((), _POSITIVE_X)))
def test_memo_keeps_results_and_steps(trees, budget, domains):
    # Each context reuses the trees of earlier ones and repeats its own,
    # so memo entries are hit within one context and across contexts,
    # with and without their canon keys already charged.  All contexts
    # carry the same domains, as those of one formula do.
    memo = NormMemo()
    for i, t in enumerate(trees):
        u = ir.add(ir.mul(t, trees[i - 1]), trees[i - 1], FunctionApp("sin", (), (t,)))
        assert _canon_then_norm(t, u, NormContext(budget, memo=memo, domains=domains)) == \
            _canon_then_norm(t, u, NormContext(budget, domains=domains))


# --- powers of products ---

def test_power_of_a_product_splits_only_nonnegative_factors():
    # (x y)^s = x^s y^s needs x >= 0 or y >= 0; the unproven rest of a
    # product stays one atom.
    x_root, y_root = ir.power(_X, ir.HALF), ir.power(_Y, ir.HALF)
    root = ir.power(ir.mul(ir.num(4), _X, _Y), ir.HALF)
    split = ir.mul(ir.num(2), x_root, y_root)
    positive = NormContext(domains=_POSITIVE_X)
    assert norm(root, positive) == norm(split, NormContext(domains=_POSITIVE_X))
    assert norm(root) != norm(split)
    assert norm(root) == norm(ir.mul(ir.num(2), ir.power(ir.mul(_X, _Y), ir.HALF)))
    # A positive base to a non-real power is not nonnegative: 5^i splits
    # off only where the other factor does.
    five_i = ir.Pow(ir.num(5), Const(ir.IMAGINARY_UNIT))
    five_i_root = ir.power(five_i, ir.HALF)
    assert norm(ir.power(ir.mul(five_i, _Y), ir.HALF)) != \
        norm(ir.mul(five_i_root, y_root))
    assert norm(ir.power(ir.mul(five_i, _X), ir.HALF), positive) == \
        norm(ir.mul(five_i_root, x_root), NormContext(domains=_POSITIVE_X))
