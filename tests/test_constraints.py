from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathverify import ir
from mathverify.constraints import (
    SIGN_NONNEG,
    SIGN_POSITIVE,
    SIGN_REAL,
    SIGN_UNKNOWN,
    VariableDomain,
    check_domain,
    domain_from_atomic,
    interpret_constraints,
    interpret_set_notation,
    match_constraint,
    parse_blueprint_rules,
    sign,
    split_compound_inequality,
)
from mathverify.errors import (
    ConstraintError,
    InconsistentProgression,
    MalformedRule,
    PlaceholderValueCountMismatch,
    UnknownSetSymbol,
)
from mathverify.ir import Const, FunctionApp, Var
from mathverify.parser import MacroTable, parse, tokenize

EMPTY = MacroTable(())

TWO_QUOTED_RULES = "0 < var < 1 ==> 1/2\nvar1, var2 \\in \\Real ==> 3/2,3/2\n"


def ptree(text):
    return parse(tokenize(text), EMPTY)


# --- blueprint parsing ---

def test_parse_single_placeholder_rule():
    bps = parse_blueprint_rules("0 < var < 1 ==> 1/2")
    assert len(bps) == 1
    assert bps[0].placeholders == ("var",)
    assert bps[0].values == (Fraction(1, 2),)


def test_parse_two_placeholder_rule():
    bps = parse_blueprint_rules("var1, var2 \\in \\Real ==> 3/2,3/2")
    assert bps[0].placeholders == ("var1", "var2")
    assert bps[0].values == (Fraction(3, 2), Fraction(3, 2))


def test_placeholder_value_count_mismatch():
    with pytest.raises(PlaceholderValueCountMismatch):
        parse_blueprint_rules("var1 < var2 ==> 1/2")


def test_rule_without_placeholder_rejected():
    with pytest.raises(MalformedRule):
        parse_blueprint_rules("0 < x ==> 1/2")


def test_rule_needs_exactly_one_arrow():
    with pytest.raises(MalformedRule):
        parse_blueprint_rules("0 < var < 1")


# --- matching ---

def test_match_greek_variable():
    bps = parse_blueprint_rules(TWO_QUOTED_RULES)
    matched = match_constraint(ptree(r"0 < \alpha < 1"), bps)
    assert matched is not None
    assert matched.assignments == (("alpha", Fraction(1, 2)),)


def test_match_two_variables():
    bps = parse_blueprint_rules(TWO_QUOTED_RULES)
    matched = match_constraint(ptree(r"x, y \in \Real"), bps)
    assert matched.assignments == (("x", Fraction(3, 2)), ("y", Fraction(3, 2)))


def test_equal_special_value_assignments_hash_equal():
    # The pairs are sorted by variable, in whatever order the constraint
    # names them, so the two records are one value.
    bps = parse_blueprint_rules(TWO_QUOTED_RULES)
    first = match_constraint(ptree(r"x, y \in \Real"), bps)
    second = match_constraint(ptree(r"y, x \in \Real"), bps)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


def test_literal_token_mismatch():
    bps = parse_blueprint_rules(TWO_QUOTED_RULES)
    assert match_constraint(ptree("0 < x < 2"), bps) is None


def test_first_match_wins():
    bps = parse_blueprint_rules("var > 0 ==> 1/2\nvar > 0 ==> 7/2")
    matched = match_constraint(ptree("z > 0"), bps)
    assert matched.assignments == (("z", Fraction(1, 2)),)


GREEK = ["alpha", "beta", "nu", "theta", "omega", "Gamma"]
LATIN = list("abcghkmnpqstuvwxyz")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LATIN + GREEK))
def test_match_invariant_under_renaming(name):
    # A matching constraint still matches when its variable is renamed.
    bps = parse_blueprint_rules(TWO_QUOTED_RULES)
    text = name if name in LATIN else "\\" + name
    matched = match_constraint(ptree(f"0 < {text} < 1"), bps)
    assert matched is not None
    assert matched.assignments == ((name, Fraction(1, 2)),)


# --- set notation ---

def test_progression_from_zero():
    domains = interpret_set_notation(ptree(r"n=0,1,2,\dots"))
    assert domains == [VariableDomain(
        "n", "integer", progression=(Fraction(0), Fraction(1), None))]


def test_casual_two_term_list_equivalent():
    d1 = interpret_set_notation(ptree(r"n=0,1,2,\dots"))
    d2 = interpret_set_notation(ptree(r"n=0,1,\dots"))
    assert d1 == d2


def test_progression_with_step_four():
    domains = interpret_set_notation(ptree(r"k=3,7,11,\dots"))
    assert domains[0].progression == (Fraction(3), Fraction(4), None)


def test_inconsistent_progression():
    with pytest.raises(InconsistentProgression):
        interpret_set_notation(ptree(r"k=1,2,4,\dots"))


def test_single_term_before_dots_is_error():
    with pytest.raises(InconsistentProgression):
        interpret_set_notation(ptree(r"k=1,\dots"))


def test_multi_variable_binding():
    domains = interpret_set_notation(ptree(r"n,m=0,1,2,\dots"))
    assert [d.var for d in domains] == ["n", "m"]
    assert domains[0].progression == domains[1].progression


def test_finite_set():
    domains = interpret_set_notation(ptree("k=1,2,3"))
    assert domains[0].finite_set == (Fraction(1), Fraction(2), Fraction(3))


def test_symbolic_endpoint_progression():
    domains = interpret_set_notation(ptree(r"k=1,2,\dots,N"))
    assert domains[0].progression == (Fraction(1), Fraction(1), None)


def test_bounded_progression():
    domains = interpret_set_notation(ptree(r"k=1,2,\dots,9"))
    assert domains[0].progression == (Fraction(1), Fraction(1), Fraction(9))


def test_set_membership():
    domains = interpret_set_notation(ptree(r"a,b\in \Complex"))
    assert [d.base_set for d in domains] == ["complex", "complex"]


def test_natural_membership_bounds():
    domains = interpret_set_notation(ptree(r"n \in \NatNumber"))
    assert domains[0].base_set == "integer"
    assert domains[0].interval == (Fraction(0), False, None, False)


def test_unknown_set_symbol():
    with pytest.raises(UnknownSetSymbol):
        interpret_set_notation(ptree(r"x \in \Halfplane"))


def test_coefficient_rescaling():
    domains = interpret_set_notation(ptree(r"2\nu=-1,-2,-3,\ldots"))
    assert domains[0].var == "nu"
    assert domains[0].progression == (Fraction(-1, 2), Fraction(-1, 2), None)


def test_missing_comma_malformed():
    with pytest.raises(ConstraintError):
        interpret_set_notation(ptree(r"2\nu=-1, -2 -3, \ldots"))


# --- compound inequalities ---

def test_split_compound_example():
    assert split_compound_inequality(ptree("0 < x < 1")) == ["x > 0", "x < 1"]


def test_split_atomic_unchanged():
    assert split_compound_inequality(ptree("x < 1")) == ["x < 1"]


def test_split_three_relation_chain():
    atoms = split_compound_inequality(ptree(r"0 \le x < y \le 1"))
    assert atoms == ["x \\ge 0", "x < y", "y \\le 1"]


def test_flipped_spellings_denote_the_converse_relation():
    from mathverify.constraints import _CONVERSE, _FLIP
    from mathverify.parser import RELATION_SPELLINGS
    assert set(_FLIP) == {t for t, k in RELATION_SPELLINGS.items() if k in _CONVERSE}
    for text, flipped in _FLIP.items():
        assert RELATION_SPELLINGS[flipped] == _CONVERSE[RELATION_SPELLINGS[text]]
        assert _FLIP[flipped] == text and len(flipped) == len(text)


_REL_FUNCS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "\\le": lambda a, b: a <= b,
    "\\ge": lambda a, b: a >= b,
}


def _eval_atom(atom, assignment):
    for rel, fn in sorted(_REL_FUNCS.items(), key=lambda kv: -len(kv[0])):
        if f" {rel} " in atom:
            left, right = atom.split(f" {rel} ")
            return fn(_value(left, assignment), _value(right, assignment))
    raise AssertionError(atom)


def _value(text, assignment):
    text = text.strip()
    if text in assignment:
        return assignment[text]
    return Fraction(text)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(["x", "y", "z"]),
            st.integers(-3, 3).map(Fraction),
        ),
        min_size=2, max_size=5,
    ),
    st.lists(st.sampled_from(["<", "\\le"]), min_size=4, max_size=4),
    st.dictionaries(st.sampled_from(["x", "y", "z"]),
                    st.fractions(min_value=-4, max_value=4), min_size=3),
)
def test_split_chain_logically_equivalent(operands, relations, assignment):
    # The conjunction of atoms equals the chain at rational test points.
    if all(isinstance(o, Fraction) for o in operands):
        return  # a chain needs at least one variable side to split safely
    parts = [_fmt(operands[0])]
    for k, operand in enumerate(operands[1:]):
        parts.append(relations[k])
        parts.append(_fmt(operand))
    chain = " ".join(parts)
    try:
        atoms = split_compound_inequality(ptree(chain))
    except ConstraintError:
        return
    values = {k: v for k, v in assignment.items()}
    chain_truth = True
    for k in range(len(operands) - 1):
        fn = _REL_FUNCS[relations[k]]
        a = operands[k] if isinstance(operands[k], Fraction) else values.get(str(operands[k]), Fraction(0))
        b = operands[k + 1] if isinstance(operands[k + 1], Fraction) else values.get(str(operands[k + 1]), Fraction(0))
        chain_truth = chain_truth and fn(a, b)
    full = {str(k): v for k, v in values.items()}
    for name in "xyz":
        full.setdefault(name, Fraction(0))
    atoms_truth = all(_eval_atom(a, full) for a in atoms)
    assert atoms_truth == chain_truth


def _fmt(operand):
    if isinstance(operand, Fraction):
        if operand.denominator == 1:
            return str(operand.numerator)
        return f"{operand.numerator}/{operand.denominator}"
    return str(operand)


# --- domain checking ---

def test_check_domain_interval():
    domain = VariableDomain("x", "real", interval=(Fraction(0), True, Fraction(1), True))
    assert check_domain([domain], {"x": Fraction(1, 2)})
    assert not check_domain([domain], {"x": Fraction(0)})
    assert not check_domain([domain], {"x": Fraction(3, 2)})


def test_check_domain_progression_rejects_noninteger():
    domain = VariableDomain("n", "integer", progression=(Fraction(0), Fraction(1), None))
    assert check_domain([domain], {"n": Fraction(2)})
    assert not check_domain([domain], {"n": Fraction(-1, 2)})
    assert not check_domain([domain], {"n": Fraction(-3)})


def test_check_domain_vacuous():
    assert check_domain([], {"x": Fraction(5)})


def test_check_domain_exclusion():
    domain = VariableDomain("x", "complex", exclusions=(Fraction(0),))
    assert not check_domain([domain], {"x": Fraction(0)})
    assert check_domain([domain], {"x": Fraction(2)})


def test_non_real_value_passes_a_real_exclusion(tables):
    # No non-real value equals a real exclusion, so x \ne 1 accepts one;
    # a real shape on the same variable still rejects it.
    interp = interpret_constraints([r"x \ne 1"], tables.blueprints, tables.macro_table)
    (domain,) = interp.domains
    assert domain == VariableDomain("x", "complex", exclusions=(Fraction(1),))
    assert check_domain([domain], {"x": complex(0.3, 0.7)})
    assert not check_domain([domain], {"x": complex(1, 0)})
    assert not check_domain([domain], {"x": Fraction(1)})
    shaped = VariableDomain("x", "complex", interval=(Fraction(0), True, None, False))
    assert not check_domain([shaped], {"x": complex(0.3, 0.7)})


def test_domain_from_atomic_flips_sides():
    domain = domain_from_atomic("0 < x")
    assert domain.var == "x"
    assert domain.interval == (Fraction(0), True, None, False)


# Value-list elements and atomic bounds read signed rationals the same way:
# an optional leading + or -, then N or N/M.

def test_value_list_elements_with_plus_sign():
    domains = interpret_set_notation(ptree(r"k=+1,+2,\dots,+7"))
    assert domains[0].progression == (Fraction(1), Fraction(1), Fraction(7))
    assert domains[0].base_set == "integer"


def test_value_list_elements_as_fractions():
    domains = interpret_set_notation(ptree(r"k=1/2,3/2,-5/2"))
    assert domains[0].finite_set == (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 2))
    assert domains[0].base_set == "rational"
    domains = interpret_set_notation(ptree(r"k=-1/2,+1/2,\dots"))
    assert domains[0].progression == (Fraction(-1, 2), Fraction(1), None)


def test_value_list_symbolic_endpoint_with_plus_sign():
    domains = interpret_set_notation(ptree(r"k=1,2,\dots,+N"))
    assert domains[0].progression == (Fraction(1), Fraction(1), None)
    with pytest.raises(ConstraintError):
        interpret_set_notation(ptree(r"k=1,2,\dots,-N"))
    with pytest.raises(ConstraintError):
        interpret_set_notation(ptree(r"k=1,2,\dots,N/2"))


@pytest.mark.parametrize("atomic, interval", [
    ("x < +2", (None, False, Fraction(2), True)),
    ("x > -3/4", (Fraction(-3, 4), True, None, False)),
    (r"x \le +1/2", (None, False, Fraction(1, 2), False)),
    ("+5/3 < x", (Fraction(5, 3), True, None, False)),
    (r"-1/2 \geq x", (None, False, Fraction(-1, 2), False)),
])
def test_domain_from_atomic_signed_rationals(atomic, interval):
    domain = domain_from_atomic(atomic)
    assert domain.var == "x"
    assert domain.interval == interval


def test_domain_from_atomic_without_a_literal_side():
    assert domain_from_atomic("x < y") is None
    assert domain_from_atomic("x < 1/y") is None
    assert domain_from_atomic("x < 1 2") is None


def test_domain_from_atomic_on_untokenizable_text():
    assert domain_from_atomic("x < 1}") is None
    assert domain_from_atomic("x < #") is None


def test_zero_denominator_is_not_a_literal():
    # N/0 used to raise ZeroDivisionError out of interpret_constraints.
    assert domain_from_atomic("x < 1/0") is None
    assert domain_from_atomic(r"-1/0 \le x") is None
    with pytest.raises(ConstraintError):
        interpret_set_notation(ptree(r"k=0,1/0,\dots"))
    texts = ["x < 1/0", "n=1/0", r"k=0,1/0,\dots"]
    interp = interpret_constraints(texts, [])
    assert interp.unmatched == texts
    assert interp.domains == []


def test_domain_from_atomic_on_two_relations():
    assert domain_from_atomic("0 < x < 1") is None
    assert domain_from_atomic(r"x \ne 0 \ne y") is None


def test_shipped_blueprints_self_consistent(tables):
    # Each blueprint's own values satisfy the domains its pattern implies.
    for bp in tables.blueprints:
        pattern_text = bp.source.split("==>")[0].strip()
        binding = {}
        for k, ph in enumerate(bp.placeholders):
            binding[ph] = bp.values[k]
        constraint = pattern_text
        for ph in sorted(binding, key=len, reverse=True):
            constraint = constraint.replace(ph, "x")
        interp = interpret_constraints([constraint], [], tables.macro_table)
        assignment = {"x": value for value in binding.values()}
        assert check_domain(interp.domains, assignment), bp.source


# --- pipeline driver ---

def test_interpret_constraints_combines_sources(tables):
    interp = interpret_constraints(
        ["0 < x < 1", r"n=0,1,2,\dots"], tables.blueprints, tables.macro_table)
    assert interp.specials is not None
    assert dict(interp.specials.assignments)["x"] == Fraction(1, 2)
    assert any(d.var == "n" and d.progression for d in interp.domains)
    assert interp.unmatched == []


def test_interpret_constraints_flags_gap(tables):
    interp = interpret_constraints(
        [r"2\nu=-1, -2 -3, \ldots"], tables.blueprints, tables.macro_table)
    assert interp.unmatched == [r"2\nu=-1, -2 -3, \ldots"]


def test_interpret_constraints_clean_progression(tables):
    interp = interpret_constraints(
        [r"2\nu=-1,-2,-3,\ldots"], tables.blueprints, tables.macro_table)
    assert interp.unmatched == []
    assert interp.domains[0].progression == (Fraction(-1, 2), Fraction(-1, 2), None)


# --- sign analysis ---

X, Y = Var("x"), Var("y")


def _domains(*constraints):
    interp = interpret_constraints(list(constraints), [], EMPTY)
    assert not interp.unmatched
    return interp.domains


def test_sign_constants_are_ordered():
    assert SIGN_UNKNOWN < SIGN_REAL < SIGN_NONNEG < SIGN_POSITIVE


@pytest.mark.parametrize("constraints, expected", [
    ((), SIGN_UNKNOWN),
    ((r"x \in \Complex",), SIGN_UNKNOWN),
    ((r"x \ne 1",), SIGN_UNKNOWN),
    ((r"x \in \Real",), SIGN_REAL),
    (("x < 3",), SIGN_REAL),
    ((r"x \ge 0",), SIGN_NONNEG),
    (("x > 0",), SIGN_POSITIVE),
    (("x > -1",), SIGN_REAL),
    ((r"x \ge 1/2",), SIGN_POSITIVE),
    ((r"x = 0, 1, 2, \dots",), SIGN_NONNEG),
    ((r"x = 1, 3, \dots",), SIGN_POSITIVE),
    ((r"x = -1, -2, \dots",), SIGN_REAL),
    ((r"x = 0, 1",), SIGN_NONNEG),
    ((r"x = 1, 2, 3",), SIGN_POSITIVE),
    ((r"x \in \NatNumber",), SIGN_NONNEG),
    # The strongest fact of any domain naming x, whatever the others say.
    (("x > 0", r"x \ne 1"), SIGN_POSITIVE),
    ((r"x \ne 1", r"x \in \Real"), SIGN_REAL),
    (("y > 0",), SIGN_UNKNOWN),
])
def test_sign_of_a_variable_is_its_strongest_domain(constraints, expected):
    assert sign(X, _domains(*constraints)) == expected


def test_sign_of_numbers_and_constants():
    assert sign(ir.num(3), ()) == SIGN_POSITIVE
    assert sign(ir.ZERO, ()) == SIGN_NONNEG
    assert sign(ir.num(-2), ()) == SIGN_REAL
    for name in (ir.EULER_E, ir.PI, ir.EULER_GAMMA):
        assert sign(Const(name), ()) == SIGN_POSITIVE
    assert sign(Const(ir.INFINITY), ()) == SIGN_NONNEG
    assert sign(Const(ir.IMAGINARY_UNIT), ()) == SIGN_UNKNOWN


def test_sign_of_sums_products_and_negations():
    pos, nonneg = _domains("x > 0", r"y \ge 0")
    domains = (pos, nonneg)
    assert sign(ir.add(X, Y), domains) == SIGN_POSITIVE
    assert sign(ir.add(Y, Y), domains) == SIGN_NONNEG
    assert sign(ir.add(X, ir.num(-1)), domains) == SIGN_REAL
    assert sign(ir.mul(X, Y), domains) == SIGN_NONNEG
    assert sign(ir.mul(ir.num(-2), X), domains) == SIGN_REAL
    assert sign(ir.neg(X), domains) == SIGN_REAL
    assert sign(ir.add(X, Const(ir.IMAGINARY_UNIT)), domains) == SIGN_UNKNOWN


@pytest.mark.parametrize("base, exponent, constraints, expected", [
    # An integer exponent keeps the base's sign; an even one makes a real
    # base nonnegative.
    (X, ir.num(2), (r"x \in \Real",), SIGN_NONNEG),
    (X, ir.num(-2), ("x < 0",), SIGN_NONNEG),
    (X, ir.num(3), (r"x \in \Real",), SIGN_REAL),
    (X, ir.num(-1), ("x > 0",), SIGN_POSITIVE),
    (X, ir.num(2), (), SIGN_UNKNOWN),
    # Any other exponent must be real, and the base nonnegative.
    (X, ir.HALF, (r"x \ge 0",), SIGN_NONNEG),
    (X, ir.HALF, ("x > 0",), SIGN_POSITIVE),
    (X, ir.HALF, (r"x \in \Real",), SIGN_UNKNOWN),
    (X, Y, ("x > 0", r"y \in \Real"), SIGN_POSITIVE),
    (X, Y, ("x > 0",), SIGN_UNKNOWN),
    (Const(ir.EULER_E), Y, (r"y \in \Real",), SIGN_POSITIVE),
    (Const(ir.EULER_E), Y, (), SIGN_UNKNOWN),
    # 5^i lies on the unit circle: a positive base proves nothing.
    (ir.num(5), Const(ir.IMAGINARY_UNIT), (), SIGN_UNKNOWN),
    (ir.num(5), ir.mul(ir.num(2), Const(ir.IMAGINARY_UNIT)), (), SIGN_UNKNOWN),
])
def test_sign_of_a_power_needs_a_real_exponent(base, exponent, constraints, expected):
    assert sign(ir.Pow(base, exponent), _domains(*constraints)) == expected


def test_sign_of_a_power_of_a_non_real_power_is_unknown():
    # sqrt((5^i)^2) is not 5^i: (5^i)^2 is not known to be nonnegative.
    square = ir.Pow(ir.Pow(ir.num(5), Const(ir.IMAGINARY_UNIT)), ir.num(2))
    assert sign(square, ()) == SIGN_UNKNOWN


def test_sign_of_functions_real_on_reals():
    real = _domains(r"x \in \Real")
    assert sign(FunctionApp("sin", (), (X,)), real) == SIGN_REAL
    assert sign(FunctionApp("sin", (), (X,)), ()) == SIGN_UNKNOWN
    assert sign(FunctionApp("ln", (), (X,)), real) == SIGN_UNKNOWN
    assert sign(FunctionApp("bessel_j", (ir.ONE,), (X,)), real) == SIGN_UNKNOWN
