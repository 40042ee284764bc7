"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines in order.
"""

import time
from fractions import Fraction
from importlib import resources

import pytest
from mpmath import mp, mpf

import oracles
from mathverify import ir
from mathverify.constraints import (
    interpret_constraints,
    interpret_set_notation,
    match_constraint,
    parse_blueprint_rules,
    split_compound_inequality,
)
from mathverify.errors import InconsistentProgression
from mathverify.extraction import (
    ChapterSource,
    load_substitutions,
    scan_first,
    scan_second,
)
from mathverify.ir import FunctionApp, free_variables
from mathverify.numeric import NumericConfig, eval_expr, verify_numeric
from mathverify.parser import MacroTable, parse, tokenize
from mathverify.pipeline import (
    data_text,
    list_flagged,
    render_report,
    run_pipeline,
)
from mathverify.symbolic import PRE_NONE, SimplifyConfig, verify_symbolic
from mathverify.translate import to_relation

import test_numeric as numeric_cases
from test_symbolic import _sample_assignment

MINI = str(resources.files("mathverify").joinpath("data", "mini_corpus.jsonl"))


def _ok(name):
    print(f"\n[ACCEPTANCE] PASS: {name}")


def test_pipeline_completes_with_table_shaped_report(chapter_file, tmp_path):
    # Corpus-scale totals need the non-redistributable sources; the
    # substitute criterion: user-supplied chapter sources run end to end
    # and produce the table-shaped report.
    subs = load_substitutions(data_text("substitutions.table"))
    source = ChapterSource.from_file("EF", chapter_file)
    records = scan_second(scan_first(source, subs), source.preamble_macros)
    corpus = tmp_path / "chapter.jsonl"
    from mathverify.extraction import write_corpus
    write_corpus(records, corpus)
    report = run_pipeline(corpus)
    csv = render_report(report, "csv").decode("utf-8")
    lines = csv.strip().splitlines()
    assert lines[0] == "2C, C#, F2, T, TVs, TVn"
    assert lines[-1].startswith("Σ, ")
    assert report.totals.f2 == len(records)
    _ok("pipeline completes and emits a table-shaped report")


def test_blueprint_fidelity():
    start = time.monotonic()
    rules = parse_blueprint_rules(
        "0 < var < 1 ==> 1/2\n"
        "var1, var2 \\in \\Real ==> 3/2,3/2\n"
    )
    table = MacroTable(())

    def ptree(text):
        return parse(tokenize(text), table)

    alpha = match_constraint(ptree(r"0 < \alpha < 1"), rules)
    assert alpha is not None and alpha.assignments == (("alpha", Fraction(1, 2)),)
    xy = match_constraint(ptree(r"x, y \in \Real"), rules)
    assert xy is not None and xy.assignments == (
        ("x", Fraction(3, 2)), ("y", Fraction(3, 2)))
    assert match_constraint(ptree("0 < x < 2"), rules) is None
    assert time.monotonic() - start < 1.0
    _ok("blueprint fidelity (the two quoted rules, exact)")


def test_extraction_properties(chapter_file):
    start = time.monotonic()
    assert len(chapter_file.read_text().splitlines()) == 60
    subs = load_substitutions(data_text("substitutions.table"))
    source = ChapterSource.from_file("EF", chapter_file)
    first = scan_first(source, subs)
    second = scan_second(first, source.preamble_macros)
    strip_strings = ("\\,", "\\!", "&", "\\*", "\\MarkNotation", "\\origref",
                     "\\note", "\\lxRefDeclaration", "\\index", "\\source",
                     "\\authorproof", "%")
    for record in first + second:
        for s in strip_strings:
            assert s not in record.latex
    chain = sorted(r.latex.replace(" ", "")
                   for r in second if r.split_origin == "EF.3")
    assert chain == ["a=b", "a=c"]
    signs = sorted(r.latex.replace(" ", "")
                   for r in second if r.split_origin == "EF.4")
    assert signs == ["x=+y-w", "x=-y+w"]
    assert not any(r.latex.replace(" ", "") == "a+b" for r in second)
    again = scan_second(second, source.preamble_macros)
    assert [(r.id, r.latex) for r in again] == [(r.id, r.latex) for r in second]
    assert time.monotonic() - start < 1.0
    _ok("extraction properties on the 60-line synthetic chapter")


def test_set_notation_suite():
    table = MacroTable(())

    def ptree(text):
        return parse(tokenize(text), table)

    d = interpret_set_notation(ptree(r"n=0,1,2,\dots"))[0]
    assert d.base_set == "integer"
    assert d.progression == (Fraction(0), Fraction(1), None)
    assert interpret_set_notation(ptree(r"n=0,1,2,\dots")) == \
        interpret_set_notation(ptree(r"n=0,1,\dots"))
    d = interpret_set_notation(ptree(r"k=3,7,11,\dots"))[0]
    assert d.progression == (Fraction(3), Fraction(4), None)
    with pytest.raises(InconsistentProgression):
        interpret_set_notation(ptree(r"k=1,2,4,\dots"))
    assert split_compound_inequality(ptree("0 < x < 1")) == ["x > 0", "x < 1"]
    _ok("set-notation interpretation suite")


def test_numeric_kernel_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    with mp.workdps(30):
        for z in numeric_cases.ALL_POINTS:
            assert numeric_cases.agree(
                numeric_cases.kernel("sin", (), (z,)), oracles.sin_series(z))
            assert numeric_cases.agree(
                numeric_cases.kernel("cos", (), (z,)), oracles.cos_series(z))
            assert numeric_cases.agree(
                numeric_cases.kernel("erf", (), (z,)), oracles.erf_series(z))
            checked += 3
        for nu, z in numeric_cases.BESSEL_CASES:
            assert numeric_cases.agree(
                numeric_cases.kernel("bessel_j", (nu,), (z,)),
                oracles.bessel_j_series(nu, z))
            checked += 1
        for m in numeric_cases.ELLIPTIC_POINTS:
            assert numeric_cases.agree(
                numeric_cases.kernel("elliptic_k", (), (m,)),
                oracles.elliptic_k_agm(m))
            checked += 1
    with mp.workdps(35):
        for z in numeric_cases.GAMMA_POINTS:
            assert numeric_cases.agree(
                numeric_cases.kernel("gamma", (), (z,)), oracles.spouge_gamma(z))
            checked += 1
    # The named identities to ten significant digits.
    gamma_half = eval_expr(FunctionApp("gamma", (), (ir.HALF,)), {},
                           NumericConfig(precision_digits=12))
    two_f_one = eval_expr(
        FunctionApp("genhyper", (ir.num(2), ir.num(1)),
                    (ir.ONE, ir.ONE, ir.num(2), ir.HALF)),
        {}, NumericConfig(precision_digits=12))
    with mp.workdps(25):
        assert abs(gamma_half - mp.sqrt(mp.pi)) < mpf(10) ** -10
        assert abs(two_f_one - 2 * mp.log(2)) < mpf(10) ** -10
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(f"numeric kernel oracle equivalence ({checked} spot checks, "
        f"full grid in test_numeric; {elapsed:.1f}s)")


def test_mini_corpus_verification():
    start = time.monotonic()
    report = run_pipeline(MINI)
    totals = report.totals
    assert totals.translated == 38
    assert totals.failures.get("unknown_macro") == 2
    assert totals.sym_verified >= 25
    flagged = [f for f in list_flagged(report) if f.stage == "numeric"]
    assert {f.formula_id for f in flagged} == {"EF.14", "GA.8"}
    assert all(f.worst > 0.001 for f in flagged)
    # Every translated, non-seeded, not-symbolically-verified line verifies
    # numerically under the defaults.
    assert totals.num_verified == totals.translated - totals.sym_verified - 2
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok(f"mini-corpus verification (T=38, TVs={totals.sym_verified}, "
        f"TVn={totals.num_verified}, 2 seeded flags; {elapsed:.1f}s)")


def test_preprocessor_monotonicity(tables, mini_corpus):
    full_config = SimplifyConfig(rules=tables.rewrite_rules)
    none_config = SimplifyConfig(rules=tables.rewrite_rules,
                                 preprocessors=(PRE_NONE,))
    verified_full, verified_none = set(), set()
    preprocessor_only = set()
    for record in mini_corpus:
        try:
            rel = to_relation(parse(tokenize(record.latex), tables.macro_table),
                              tables.translation_table)
        except Exception:
            continue
        if rel.kind not in (ir.REL_EQ, ir.REL_EQUIV):
            continue
        interp = interpret_constraints(record.constraints, tables.blueprints,
                                       tables.macro_table)
        full = verify_symbolic(rel, interp.domains, full_config)
        none = verify_symbolic(rel, interp.domains, none_config)
        if full.verified:
            verified_full.add(record.id)
            if not none.verified:
                preprocessor_only.add((record.id, full.winning_preprocessor))
        if none.verified:
            verified_none.add(record.id)
    assert verified_none <= verified_full
    assert len(verified_full) >= len(verified_none)
    assert preprocessor_only, "no formula needed a non-trivial preprocessor"
    assert all(pre != PRE_NONE for _, pre in preprocessor_only)
    _ok(f"preprocessor monotonicity ({len(verified_none)} -> "
        f"{len(verified_full)} verified; preprocessor-only: "
        f"{sorted(i for i, _ in preprocessor_only)})")


def test_soundness_sampling(tables, mini_corpus):
    eval_config = NumericConfig(precision_digits=20)
    zero_count = 0
    for record in mini_corpus:
        try:
            rel = to_relation(parse(tokenize(record.latex), tables.macro_table),
                              tables.translation_table)
        except Exception:
            continue
        if rel.kind not in (ir.REL_EQ, ir.REL_EQUIV):
            continue
        interp = interpret_constraints(record.constraints, tables.blueprints,
                                       tables.macro_table)
        config = SimplifyConfig(rules=tables.rewrite_rules,
                                assumptions=tuple(interp.domains))
        out = verify_symbolic(rel, interp.domains, config)
        if out.classification != "zero":
            continue
        zero_count += 1
        variables = free_variables(rel.lhs) | free_variables(rel.rhs)
        original = ir.sub(rel.lhs, rel.rhs)
        points = 0
        attempts = 0
        while points < 25 and attempts < 400:
            attempts += 1
            assignment = _sample_assignment(variables, interp.domains)
            try:
                value = eval_expr(original, assignment, eval_config)
            except Exception:
                continue
            assert abs(value) < 1e-9, (record.id, assignment)
            points += 1
        assert points == 25, record.id
    assert zero_count >= 25
    _ok(f"soundness sampling ({zero_count} zero classifications x 25 points)")


def test_timeout_discipline(tables):
    rel = to_relation(
        parse(tokenize(r"\Sum{k}{0}{100000000}@{\sin@{k}} = 0"),
              tables.macro_table),
        tables.translation_table)
    start = time.monotonic()
    out = verify_numeric(rel, (), None, NumericConfig(timeout_seconds=2))
    elapsed = time.monotonic() - start
    assert out.classification == "timeout"
    assert elapsed < 3.0
    _ok(f"timeout discipline (aborted in {elapsed:.2f}s with a 2s limit)")


def test_constraint_gap_detection(tables):
    malformed = interpret_constraints(
        [r"2\nu=-1, -2 -3, \ldots"], tables.blueprints, tables.macro_table)
    assert malformed.unmatched == [r"2\nu=-1, -2 -3, \ldots"]
    corrected = interpret_constraints(
        [r"2\nu=-1,-2,-3,\ldots"], tables.blueprints, tables.macro_table)
    assert corrected.unmatched == []
    domain = corrected.domains[0]
    assert domain.var == "nu"
    assert domain.progression == (Fraction(-1, 2), Fraction(-1, 2), None)
    _ok("constraint-gap detection (missing-comma case)")
