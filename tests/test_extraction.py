import pytest

from mathverify.errors import MathVerifyError, UnclosedEnvironment
from mathverify.extraction import (
    ChapterSource,
    FormulaRecord,
    expand_preamble_macros,
    load_substitutions,
    read_corpus,
    scan_first,
    scan_second,
    split_plus_minus,
    split_relations,
    write_corpus,
)
from mathverify.pipeline import data_text

STRIP_STRINGS = (
    "\\,", "\\!", "&", "\\*", "\\MarkNotation", "\\origref", "\\note",
    "\\lxRefDeclaration", "\\index", "\\source", "\\authorproof", "%",
)


@pytest.fixture(scope="module")
def scans(chapter_file):
    subs = load_substitutions(data_text("substitutions.table"))
    source = ChapterSource.from_file("EF", chapter_file)
    first = scan_first(source, subs)
    second = scan_second(first, source.preamble_macros)
    return source, first, second


def test_single_equation_with_constraint():
    source = ChapterSource.from_text(
        "GA", "\\begin{equation}x>0 \\constraint{$x>0$}\\end{equation}")
    records = scan_first(source)
    assert len(records) == 1
    assert records[0].constraints == ("x>0",)


def test_substitution_ending_in_a_control_word_is_spaced_from_a_letter():
    # The replacement starts with a digit but ends in \pi, which would
    # otherwise swallow the y after it.
    source = ChapterSource.from_text("EF", "\\begin{equation}a y = 1\\end{equation}")
    records = scan_first(source, load_substitutions("EF a 2\\pi"))
    assert [r.latex for r in records] == ["2\\pi y=1"]


def test_scan_first_counts(scans):
    _, first, second = scans
    assert len(first) == 19
    assert len(second) == 15


def test_strip_list_removal_is_total(scans):
    _, first, second = scans
    for record in first + second:
        for s in STRIP_STRINGS:
            assert s not in record.latex, (record.id, s)


def test_trailing_punctuation_trimmed(scans):
    _, first, _ = scans
    assert all(not r.latex.endswith((".", ",", ";")) for r in first)


def test_label_attachment_and_inheritance(scans):
    _, first, _ = scans
    by_label = {}
    for r in first:
        by_label.setdefault(r.label, []).append(r)
    assert len(by_label.get("eq:syn.pyth", [])) == 1
    # The equationgroup label is inherited by both inner formulae.
    assert len(by_label.get("eq:syn.group", [])) == 2


def test_entity_substitutions_applied(scans):
    _, first, _ = scans
    exp_line = next(r for r in first if "expe^{x}" in r.latex)
    assert "\\expe" in exp_line.latex
    assert " e^" not in exp_line.latex


def test_constraint_blocks_split_per_math_group(scans):
    _, first, _ = scans
    constrained = next(r for r in first if r.constraints)
    assert constrained.constraints == ("x \\in \\Real", "y \\in \\Real")


def test_chain_split_exact(scans):
    _, _, second = scans
    chains = [r for r in second if r.split_origin == "EF.3"]
    assert sorted(r.latex.replace(" ", "") for r in chains) == ["a=b", "a=c"]


def test_plus_minus_split_correlated(scans):
    _, _, second = scans
    branches = [r for r in second if r.split_origin == "EF.4"]
    assert len(branches) == 2
    texts = sorted(r.latex.replace(" ", "") for r in branches)
    assert texts == ["x=+y-w", "x=-y+w"]


def test_relation_free_lines_removed(scans):
    _, _, second = scans
    assert not any(r.latex.replace(" ", "") == "a+b" for r in second)
    assert not any(r.latex.startswith("\\frac{x}{2}") for r in second)


def test_cull_list_respected(scans):
    _, _, second = scans
    latexes = " ".join(r.latex for r in second)
    for cs in ("\\sum", "\\int", "\\lim", "\\dots", "\\sim"):
        assert cs not in latexes
    # The semantic sum macro survives the cull.
    assert any("\\Sum{k}{0}{n}@{k}" in r.latex for r in second)


def test_scan_second_idempotent(scans):
    source, _, second = scans
    again = scan_second(second, source.preamble_macros)
    assert [(r.id, r.latex) for r in again] == [(r.id, r.latex) for r in second]


def test_every_output_contains_relation(scans):
    from mathverify.extraction import RELATION_TEXTS
    from mathverify.parser import tokenize
    _, _, second = scans
    assert all(any(t.text in RELATION_TEXTS for t in tokenize(r.latex))
               for r in second)


def test_split_provenance_resolves(scans):
    _, first, second = scans
    parent_ids = {r.id for r in first}
    for r in second:
        if r.split_origin is not None:
            assert r.split_origin in parent_ids


def test_preamble_macro_expansion():
    source = ChapterSource.from_text(
        "EF",
        "\\newcommand{\\etpipm}[1]{\\expe^{\\pm 2 \\cpi \\iunit/#1}}\n"
        "\\begin{equation}\\etpipm{5} = 1\\end{equation}\n",
    )
    assert len(source.preamble_macros) == 1
    expanded = expand_preamble_macros("\\etpipm{5}", source.preamble_macros)
    assert expanded == "\\expe^{\\pm 2 \\cpi \\iunit/5}"


# --- operation-level examples ---

def _record(latex, rid="EF.1"):
    return FormulaRecord(id=rid, chapter_code="EF", latex=latex)


def test_split_relations_example():
    children = split_relations(_record("a=b=c"))
    assert [c.latex.replace(" ", "") for c in children] == ["a=b", "a=c"]
    assert all(c.split_origin == "EF.1" for c in children)


def test_split_relations_chain_of_two_unchanged():
    record = _record("a=b")
    assert split_relations(record) == [record]


def test_split_relations_mixed_chain():
    children = split_relations(_record(r"a \le b = c"))
    assert [c.latex.replace(" ", "") for c in children] == ["a\\leb", "a=c"]


@pytest.mark.parametrize("latex, members", [
    ("a = b =", ["a = b", "a = "]),
    ("==", [" = ", " = "]),
    ("= a = b", [" = a", " = b"]),
])
def test_split_relations_empty_members(latex, members):
    # An empty chain member splits off as empty text: a chain that ends
    # in a relation does not index past its tokens, and one that starts
    # with a relation does not take the whole text as its first member.
    children = split_relations(_record(latex))
    assert [c.latex for c in children] == members
    assert [c.id for c in children] == ["EF.1-1", "EF.1-2"]
    assert scan_second([_record(latex)]) == children


def test_split_plus_minus_single():
    children = split_plus_minus(_record(r"x=\pm y"))
    assert sorted(c.latex.replace(" ", "") for c in children) == ["x=+y", "x=-y"]


def test_split_plus_minus_correlated():
    children = split_plus_minus(_record(r"\expe^{\pm a}=c \mp d"))
    texts = sorted(c.latex.replace(" ", "") for c in children)
    assert texts == ["\\expe^{+a}=c-d", "\\expe^{-a}=c+d"]


def test_split_plus_minus_noop():
    record = _record("x=y")
    assert split_plus_minus(record) == [record]


def test_scan_second_keeps_semantic_sum():
    records = [_record(r"\Sum{k}{0}{n}@{k}=n")]
    assert len(scan_second(records)) == 1


def test_scan_second_culls_plain_sum():
    records = [_record(r"\sum_{k} k = n")]
    assert scan_second(records) == []


def test_unclosed_environment_raises():
    with pytest.raises(UnclosedEnvironment):
        scan_first(ChapterSource.from_text("EF", "\\begin{equation} x = 1"))


def test_unknown_chapter_code_rejected():
    with pytest.raises(MathVerifyError):
        FormulaRecord(id="XX.1", chapter_code="XX", latex="x=1")


def test_corpus_round_trip(tmp_path, mini_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(mini_corpus, path)
    again = read_corpus(path)
    assert again == mini_corpus
