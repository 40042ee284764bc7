import json
from fractions import Fraction

import pytest

from mathverify import ir
from mathverify.emit import (
    DIALECT_GENERIC,
    DIALECT_MAPLE,
    emit_cas,
    emit_relation,
    parse_infix,
)
from mathverify.errors import (
    InsufficientSemantics,
    NoDialectMapping,
    TranslationError,
    UnknownMacro,
    UnsupportedGrammar,
)
from mathverify.extraction import FormulaRecord
from mathverify.ir import (
    BigOp,
    Const,
    Derivative,
    FunctionApp,
    Number,
    Pow,
    Var,
    free_variables,
)
from mathverify.numeric import NUMERIC_FUNCTIONS
from mathverify.parser import parse, tokenize
from mathverify.pipeline import PipelineOptions, Tables, data_text, verify_record
from mathverify.translate import (
    KNOWN_IR_FUNCTIONS,
    TranslationEntry,
    TranslationTable,
    load_translation_table,
    to_relation,
)


def tr(latex, tables):
    return to_relation(parse(tokenize(latex), tables.macro_table),
                       tables.translation_table)


def test_elliptic_convention_rewrite(tables):
    # Modulus-vs-parameter: the macro's k is squared into the IR's m.
    rel = tr(r"\CompEllIntKk@@{k}=\CompEllIntCK@@{k}", tables)
    assert rel.kind == ir.REL_EQ
    assert rel.lhs == FunctionApp("elliptic_k", (), (Pow(Var("k"), Number(Fraction(2))),))
    assert rel.rhs == FunctionApp(
        "elliptic_k", (),
        (ir.add(ir.ONE, ir.neg_term(Pow(Var("k"), Number(Fraction(2))))),),
    )


def test_by_ir_id_index_matches_a_scan(tables):
    entries = list(tables.translation_table)
    for ir_id in KNOWN_IR_FUNCTIONS | {"no_such_function"}:
        first = next((e for e in entries if e.ir_id == ir_id), None)
        assert tables.translation_table.by_ir_id(ir_id) is first, ir_id
    assert sum(e.ir_id == "elliptic_k" for e in entries) == 2


def test_by_ir_id_first_entry_wins():
    first = TranslationEntry("fn:a", "sin", "sin", True)
    second = TranslationEntry("fn:b", "sin", "Sin", True)
    assert TranslationTable([first, second]).by_ir_id("sin") is first
    assert TranslationTable([second, first]).by_ir_id("sin") is second


def test_prime_notation_insufficient_semantics(tables):
    with pytest.raises(InsufficientSemantics):
        tr("f'=g", tables)


def test_identity_translation(tables):
    rel = tr("x=x", tables)
    assert rel == ir.Relation(ir.REL_EQ, Var("x"), Var("x"))


def test_unknown_macro(tables):
    with pytest.raises(UnknownMacro):
        tr(r"\MeijerG{1}{1} = 0", tables)


def test_unsupported_grammar_structured_subscript(tables):
    with pytest.raises(TranslationError):
        tr(r"x_{a_{b}} = 0", tables)


def test_repeated_subscript_decorates_further(tables):
    rel = tr("x_1_2 = 1", tables)
    assert rel.lhs == Var("x_1_2")


def test_implicit_multiplication(tables):
    rel = tr("2xy = x", tables)
    assert rel.lhs == ir.mul(ir.num(2), Var("x"), Var("y"))


def test_explicit_product_operators(tables):
    rel = tr(r"a \cdot b = a \times b", tables)
    assert rel.lhs == rel.rhs == ir.mul(Var("a"), Var("b"))


@pytest.mark.parametrize("latex, message", [
    ("a//b = 1", "repeated division operator"),
    ("a/ = 1", "dangling operator"),
])
def test_misplaced_division_is_unsupported_grammar(tables, latex, message):
    with pytest.raises(UnsupportedGrammar, match=message) as info:
        tr(latex, tables)
    assert info.value.failure_kind == "unsupported_grammar"


def test_subscripted_variable_is_decorated_name(tables):
    rel = tr("a_1 = a_2", tables)
    assert rel.lhs == Var("a_1")
    assert rel.rhs == Var("a_2")


def test_greek_letters_are_variables(tables):
    rel = tr(r"\alpha = \nu", tables)
    assert rel.lhs == Var("alpha")
    assert rel.rhs == Var("nu")


def test_wronskian_expands_to_derivatives(tables):
    rel = tr(r"\Wron{x}@{f}{g} = 0", tables)
    names = {type(node).__name__ for node in ir.walk(rel.lhs)}
    assert "Derivative" in names


def test_big_op_int_binder(tables):
    rel = tr(r"\Int{0}{1}@{t}{t^2} = x", tables)
    op = rel.lhs
    assert isinstance(op, BigOp)
    assert (op.kind, op.var) == (ir.OP_INT, "t")
    assert op.lo == ir.ZERO and op.hi == ir.ONE


def test_translation_partition_over_corpus(tables, mini_corpus):
    # Every record lands in exactly one bucket.
    buckets = {"translated": 0, "unknown_macro": 0,
               "insufficient_semantics": 0, "unsupported_grammar": 0}
    for record in mini_corpus:
        try:
            tr(record.latex, tables)
            buckets["translated"] += 1
        except TranslationError as exc:
            buckets[exc.failure_kind] += 1
    assert sum(buckets.values()) == len(mini_corpus)
    assert buckets["translated"] == 38
    assert buckets["unknown_macro"] == 2


# --- free variables ---

def test_free_variables_excludes_constants(tables):
    rel = tr(r"\sin@{x} + \cpi = y", tables)
    assert free_variables(rel.lhs) == {"x"}


def test_free_variables_binder_excluded(tables):
    rel = tr(r"\Sum{k}{0}{n}@{k} = n", tables)
    assert free_variables(rel.lhs) == {"n"}


def test_free_variables_closed_expression():
    assert free_variables(Number(Fraction(2))) == set()


def test_bound_variables_never_leak_nested():
    # Enumerate BigOp nestings to depth 3: binders never escape.
    body = ir.add(Var("i"), Var("j"), Var("k"), Var("x"))
    kinds = (ir.OP_SUM, ir.OP_PROD)
    for k1 in kinds:
        inner = BigOp(k1, "i", ir.ZERO, Var("n"), body)
        for k2 in kinds:
            mid = BigOp(k2, "j", ir.ZERO, Var("m"), inner)
            for k3 in kinds:
                outer = BigOp(k3, "k", ir.ZERO, Var("p"), mid)
                assert free_variables(outer) == {"x", "n", "m", "p"}


# --- emission ---

def test_emit_power_generic():
    assert emit_cas(Pow(Var("x"), Number(Fraction(2))), DIALECT_GENERIC) == "x^2"


def test_emit_gamma_maple(tables):
    text = emit_cas(FunctionApp("gamma", (), (Var("z"),)), DIALECT_MAPLE,
                    tables.translation_table)
    assert text == "GAMMA(z)"


def test_emit_qgenhyper_has_no_maple_spelling(tables):
    app = FunctionApp("qgenhyper", (ir.num(1), ir.num(1)),
                      (Var("a"), Var("b"), Var("z")))
    with pytest.raises(NoDialectMapping):
        emit_cas(app, DIALECT_MAPLE, tables.translation_table)


def test_emit_elliptic_maple_uses_modulus(tables):
    rel = tr(r"\CompEllIntKk@@{k} = 1", tables)
    text = emit_cas(rel.lhs, DIALECT_MAPLE, tables.translation_table)
    assert text == "EllipticK(k)"


def test_emit_bessel_maple(tables):
    rel = tr(r"\BesselJ{\nu}@{z} = 0", tables)
    assert emit_cas(rel.lhs, DIALECT_MAPLE, tables.translation_table) == \
        "BesselJ(nu, z)"


def test_emit_maple_relation(tables):
    rel = tr(r"\GammaFn@{z+1} = z\GammaFn@{z}", tables)
    text = emit_relation(rel, DIALECT_MAPLE, tables.translation_table)
    assert text == "GAMMA(z + 1) = z*GAMMA(z)"


def test_emit_sum_maple(tables):
    rel = tr(r"\Sum{k}{0}{n}@{k^2} = n", tables)
    assert emit_cas(rel.lhs, DIALECT_MAPLE, tables.translation_table) == \
        "sum(k^2, k=0..n)"


def _bundled_table_text(maple_names):
    """The bundled translation table with the Maple column of the given
    meaning ids replaced."""
    lines = []
    for line in data_text("translation.table").splitlines():
        parts = line.split()
        if parts and parts[0] in maple_names:
            line = " ".join([*parts[:2], maple_names[parts[0]], *parts[3:]])
        lines.append(line)
    return "\n".join(lines)


def test_table_without_a_jacobi_spelling_gives_no_maple_text(tmp_path):
    path = tmp_path / "translation.table"
    path.write_text(_bundled_table_text({"fn:jacobi": "-"}), encoding="utf-8")
    options = PipelineOptions(translation_table=str(path), run_symbolic=False,
                              run_numeric=False)
    record = FormulaRecord("OP.1", "OP", r"\JacobiP{\alpha}{\beta}{n}@{x} = 1")
    out = json.loads(verify_record(record, Tables(options), options).to_json())
    assert out["translated"] and out["maple"] is None


def test_table_spellings_are_emitted_verbatim(tables):
    table = load_translation_table(_bundled_table_text(
        {"fn:genhyper": "pFq", "fn:elliptic_kk": "K", "fn:jacobi": "P"}))
    cases = [
        (r"\genhyperF{2}{1}@@{a,b}{c}{z} = 1", "pFq([a, b], [c], z) = 1"),
        (r"\CompEllIntKk@@{k} = 1", "K(k) = 1"),
        (r"\JacobiP{\alpha}{\beta}{n}@{x} = 1", "P(n, alpha, beta, x) = 1"),
    ]
    for latex, maple in cases:
        assert emit_relation(tr(latex, tables), DIALECT_MAPLE, table) == maple


def test_maple_emission_without_a_table():
    with pytest.raises(NoDialectMapping, match="sin"):
        emit_cas(FunctionApp("sin", (), (Var("x"),)), DIALECT_MAPLE)
    expr = ir.add(Pow(Var("x"), ir.num(2)), Const(ir.PI))
    assert emit_cas(expr, DIALECT_MAPLE) == "x^2 + Pi"


def test_bundled_numeric_flags_are_the_kernels_functions(tables):
    entries = list(tables.translation_table)
    assert {e.ir_id for e in entries if e.numeric_support} == NUMERIC_FUNCTIONS
    for func in NUMERIC_FUNCTIONS:
        assert tables.translation_table.by_ir_id(func).maple_name is not None, func


# --- generic infix round trip ---

ROUND_TRIP_CASES = [
    Pow(Var("x"), Number(Fraction(2))),
    ir.add(Var("x"), ir.neg_term(Var("y"))),
    ir.mul(ir.num(-2), Var("x")),
    ir.div(Var("x"), ir.num(2)),
    Number(Fraction(-3, 7)),
    Const(ir.PI),
    Const(ir.IMAGINARY_UNIT),
    ir.power(Const(ir.EULER_E), ir.mul(Const(ir.IMAGINARY_UNIT), Var("x"))),
    FunctionApp("sin", (), (Var("x"),)),
    FunctionApp("bessel_j", (Var("nu"),), (Var("z"),)),
    FunctionApp("jacobi_poly", (Var("a"), Var("b"), Var("n")), (Var("x"),)),
    FunctionApp("genhyper", (ir.num(2), ir.num(1)),
                (Var("a"), Var("b"), Var("c"), Var("z"))),
    FunctionApp("genhyper", (ir.num(0), ir.num(1)),
                (ir.add(Var("nu"), ir.ONE), Var("z"))),
    Derivative(FunctionApp("sin", (), (Var("x"),)), "x", 2),
    BigOp(ir.OP_SUM, "k", ir.ZERO, Var("n"), ir.power(Var("k"), ir.num(2))),
    BigOp(ir.OP_INT, "t", ir.ZERO, ir.ONE, Var("t")),
    BigOp(ir.OP_LIM, "x", None, ir.ZERO, Var("x")),
    BigOp(ir.OP_ANTIDER, "t", None, None, Var("t")),
    ir.neg_term(FunctionApp("cos", (), (Var("x"),))),
    ir.power(Var("x"), Number(Fraction(-1))),
    ir.power(Number(Fraction(-1)), Var("n")),
]


@pytest.mark.parametrize("expr", ROUND_TRIP_CASES, ids=lambda e: type(e).__name__)
def test_generic_round_trip_constructors(expr):
    text = emit_cas(expr, DIALECT_GENERIC)
    assert parse_infix(text) == expr


def test_generic_round_trip_over_corpus(tables, mini_corpus):
    for record in mini_corpus:
        try:
            rel = tr(record.latex, tables)
        except TranslationError:
            continue
        for side in (rel.lhs, rel.rhs):
            assert parse_infix(emit_cas(side, DIALECT_GENERIC)) == side, record.id
