"""The extraction scans against a reference copy of their earlier form.

The reference below tokenizes as the scans once did: scan two tokenized
every record in each of its four checks, and scan one tokenized every
substitution pattern once per formula.  The scans now tokenize each
record once; these tests require the same records, ids, split origins
and order, and count the tokenize calls.
"""

from collections import Counter
from dataclasses import replace
from typing import Optional

from hypothesis import given, settings, strategies as st

from mathverify import extraction
from mathverify.errors import MathVerifyError
from mathverify.extraction import (
    CULL_CONTROL_WORDS,
    CULL_ENVIRONMENTS,
    RELATION_TEXTS,
    ChapterSource,
    FormulaRecord,
    PreambleMacro,
    _apply_substitutions,
    _join_token_texts,
    _tokenize_patterns,
    _top_level_relations,
    expand_preamble_macros,
    load_substitutions,
    scan_first,
    scan_second,
)
from mathverify.parser import Token, TokenCategory, tokenize
from mathverify.pipeline import data_text

HALF = PreambleMacro("\\half", 1, "\\frac{#1}{2}")
SUBSTITUTIONS = load_substitutions(data_text("substitutions.table"))


# --- reference: the scans as they tokenized before ---

def _ref_try_tokenize(latex: str) -> Optional[list[Token]]:
    try:
        return tokenize(latex)
    except MathVerifyError:
        return None


def _ref_is_culled(latex: str) -> bool:
    if "\\begin{" in latex:
        for env in CULL_ENVIRONMENTS:
            if f"\\begin{{{env}}}" in latex:
                return True
    tokens = _ref_try_tokenize(latex)
    if tokens is None:
        return True
    return any(
        t.category is TokenCategory.CONTROL_SEQUENCE and t.text in CULL_CONTROL_WORDS
        for t in tokens
    )


def _ref_has_relation(latex: str) -> bool:
    tokens = _ref_try_tokenize(latex)
    if tokens is None:
        return False
    return any(t.text in RELATION_TEXTS for t in tokens)


def _ref_split_relations(record: FormulaRecord) -> list[FormulaRecord]:
    tokens = _ref_try_tokenize(record.latex)
    if not tokens:
        return [record]
    rel_idx = _top_level_relations(tokens)
    if len(rel_idx) <= 1:
        return [record]
    text = record.latex

    def span(a: int, b: int) -> str:
        start = tokens[a].byte_offset
        end = tokens[b].byte_offset + len(tokens[b].text) if b < len(tokens) else len(text)
        return text[start:end].strip()

    first = span(0, rel_idx[0] - 1)
    out = []
    for k, ri in enumerate(rel_idx):
        next_end = (rel_idx[k + 1] - 1) if k + 1 < len(rel_idx) else len(tokens) - 1
        member = span(ri + 1, next_end)
        out.append(replace(record, id=f"{record.id}-{k + 1}",
                           latex=f"{first} {tokens[ri].text} {member}",
                           split_origin=record.id))
    return out


def _ref_split_plus_minus(record: FormulaRecord) -> list[FormulaRecord]:
    tokens = _ref_try_tokenize(record.latex)
    if not tokens or not any(t.text in ("\\pm", "\\mp") for t in tokens):
        return [record]

    def rewrite(pm: str, mp: str) -> str:
        parts = []
        pos = 0
        for t in tokens:
            if t.text in ("\\pm", "\\mp"):
                parts.append(record.latex[pos:t.byte_offset])
                parts.append(pm if t.text == "\\pm" else mp)
                pos = t.byte_offset + len(t.text)
        parts.append(record.latex[pos:])
        return "".join(parts)

    return [
        replace(record, id=f"{record.id}-p", latex=rewrite("+", "-"),
                split_origin=record.id),
        replace(record, id=f"{record.id}-m", latex=rewrite("-", "+"),
                split_origin=record.id),
    ]


def ref_scan_second(records, preamble_macros=()):
    out = []
    for rec in records:
        if _ref_is_culled(rec.latex):
            continue
        expanded = expand_preamble_macros(rec.latex, preamble_macros)
        if expanded != rec.latex:
            rec = replace(rec, latex=expanded)
        for chain_child in _ref_split_relations(rec):
            for child in _ref_split_plus_minus(chain_child):
                if _ref_has_relation(child.latex):
                    out.append(child)
    return out


def ref_apply_substitutions(latex: str, rules) -> str:
    if not rules:
        return latex
    try:
        tokens = tokenize(latex)
    except MathVerifyError:
        return latex
    texts = [t.text for t in tokens]
    for pattern, replacement in rules:
        try:
            pat = [t.text for t in tokenize(pattern)]
        except MathVerifyError:
            continue
        if not pat:
            continue
        out = []
        i = 0
        while i < len(texts):
            if texts[i:i + len(pat)] == pat:
                out.append(replacement)
                i += len(pat)
            else:
                out.append(texts[i])
                i += 1
        texts = out
    return _join_token_texts(texts)


def _result(scan, *args):
    """The scan's records, or the type of the exception it raised: an
    unclosed macro argument raises, and so does a chain with an empty last
    member (``a==``), in both forms alike."""
    try:
        return scan(*args)
    except Exception as exc:
        return type(exc)


# --- equivalence ---

def test_scan_second_matches_reference_on_mini_corpus(mini_corpus):
    assert scan_second(mini_corpus) == ref_scan_second(mini_corpus)


def test_scans_match_reference_on_chapter_file(chapter_file):
    source = ChapterSource.from_file("EF", chapter_file)
    first = scan_first(source, SUBSTITUTIONS)
    assert scan_second(first, source.preamble_macros) == \
        ref_scan_second(first, source.preamble_macros)


_PIECES = st.sampled_from([
    "=", "<", "\\le", "\\pm", "\\mp", "\\sum", "\\begin{array}", "{", "}",
    "\\half", "\\half{x}", "x", "y", "1", "+", " ", "(", ")", "\\frac{a}{b}",
    "e", "i", "\\pi", "K", "K'", "\\gamma", "\\", "\\sin@{x}",
])
_LATEX = st.lists(_PIECES, max_size=14).map("".join)


@settings(max_examples=400)
@given(st.lists(_LATEX, min_size=1, max_size=4), st.booleans())
def test_scan_second_matches_reference(latexes, with_macro):
    records = [FormulaRecord(f"EF.{k}", "EF", latex)
               for k, latex in enumerate(latexes, start=1)]
    macros = (HALF,) if with_macro else ()
    assert _result(scan_second, records, macros) == \
        _result(ref_scan_second, records, macros)


@given(_LATEX, st.sampled_from(["EF", "JA", "AI", "GA"]))
def test_substitutions_match_reference(latex, chapter):
    rules = SUBSTITUTIONS[chapter] + [("\\", "bad"), ("", "empty")]
    assert _apply_substitutions(latex, _tokenize_patterns(rules)) == \
        ref_apply_substitutions(latex, rules)


# --- tokenize calls ---

def _count_tokenize(monkeypatch) -> list[str]:
    calls: list[str] = []

    def counting(text, **kwargs):
        calls.append(text)
        return tokenize(text, **kwargs)

    monkeypatch.setattr(extraction, "tokenize", counting)
    return calls


def test_scan_second_tokenizes_each_record_once(monkeypatch, mini_corpus):
    records = mini_corpus + [FormulaRecord("EF.99", "EF", "\\sum_{k} k = 1")]
    calls = _count_tokenize(monkeypatch)
    out = scan_second(records)
    assert calls == [r.latex for r in records]
    assert len(out) == len(mini_corpus)


def test_scan_first_tokenizes_each_pattern_once_per_call(monkeypatch):
    source = ChapterSource.from_text("EF", (
        "\\begin{equation}e^{i x} = \\cos@{x} + i \\sin@{x}\\end{equation}\n"
        "\\begin{equation}\\pi = 4 \\arctan@{1}\\end{equation}\n"
        "\\begin{equation}e^{\\pi i} = -1\\end{equation}\n"
    ))
    patterns = [p for p, _ in SUBSTITUTIONS["EF"]]
    calls = _count_tokenize(monkeypatch)
    first = scan_first(source, SUBSTITUTIONS)
    counts = Counter(calls)
    assert [counts[p] for p in patterns] == [1] * len(patterns)
    assert len(calls) == len(patterns) + len(first) == len(patterns) + 3
    scan_first(source, SUBSTITUTIONS)
    assert Counter(calls) == Counter({p: 2 * n for p, n in counts.items()})
