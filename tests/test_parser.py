import re

import pytest

from mathverify import ir
from mathverify.errors import (
    ArityMismatch,
    DuplicateMacroName,
    IllegalCharacter,
    MalformedEntry,
    UnbalancedBraces,
)
from mathverify.parser import (
    RELATION_SPELLINGS,
    MacroTable,
    NodeKind,
    SemanticMacroDef,
    TokenCategory,
    is_placeholder_name,
    join_token_texts,
    load_macro_table,
    parse,
    render,
    tokenize,
    variable_name,
)


def test_tokenize_blueprint_has_five_tokens():
    tokens = tokenize("0 < x < 1")
    assert [(t.text, t.category) for t in tokens] == [
        ("0", TokenCategory.DIGIT),
        ("<", TokenCategory.RELATION),
        ("x", TokenCategory.LETTER),
        ("<", TokenCategory.RELATION),
        ("1", TokenCategory.DIGIT),
    ]
    assert len(tokens) == 5


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_control_sequence_then_sup():
    tokens = tokenize(r"\cpi^2")
    assert [(t.text, t.category) for t in tokens] == [
        ("\\cpi", TokenCategory.CONTROL_SEQUENCE),
        ("^", TokenCategory.SUPERSCRIPT),
        ("2", TokenCategory.DIGIT),
    ]


def test_tokenize_single_char_control_sequence():
    tokens = tokenize(r"a\,b")
    assert tokens[1].text == "\\,"
    assert tokens[1].category is TokenCategory.CONTROL_SEQUENCE


def test_tokenize_double_at_merges():
    tokens = tokenize(r"\erf@@{x}")
    assert tokens[1].text == "@@"
    assert tokens[1].category is TokenCategory.ARG_SEPARATOR


def test_tokenize_decimal_number_is_one_token():
    tokens = tokenize("1.5 + 2")
    assert tokens[0].text == "1.5"
    assert tokens[0].category is TokenCategory.DIGIT


def test_tokenize_adjacent_letters_stay_separate():
    assert [t.text for t in tokenize("xy")] == ["x", "y"]


def test_tokenize_placeholder_mode_merges_var_tokens():
    tokens = tokenize("0 < var < 1", placeholders=True)
    assert [t.text for t in tokens] == ["0", "<", "var", "<", "1"]
    tokens = tokenize(r"var1, var2 \in \Real", placeholders=True)
    assert [t.text for t in tokens] == ["var1", ",", "var2", "\\in", "\\Real"]
    tokens = tokenize("var12 < variable", placeholders=True)
    assert [t.text for t in tokens][:3] == ["var12", "<", "v"]


def test_token_concatenation_reproduces_input_modulo_whitespace():
    for text in (r"\sin@{x}^2 + \cos@{x}^2 = 1", "0 < x < 1",
                 r"\frac{1}{2} \ne y_1"):
        joined = "".join(t.text for t in tokenize(text))
        assert joined == text.replace(" ", "")


def test_tokenize_offsets_recover_source():
    text = r"\sin@{x} + 12"
    for tok in tokenize(text):
        assert text[tok.byte_offset:tok.byte_offset + len(tok.text)] == tok.text


def test_tokenize_unbalanced_braces():
    with pytest.raises(UnbalancedBraces):
        tokenize("{x")
    with pytest.raises(UnbalancedBraces):
        tokenize("x}")


def test_tokenize_illegal_character():
    with pytest.raises(IllegalCharacter):
        tokenize("x $ y")


# --- macro table ---

MINI_TABLE = """
\\JacobiP  0 3 1 single fn:jacobi   18.3
\\Wron     0 1 2 single fn:wron     1.13.4
\\expe     0 0 0 none   const:e     4.2.11
"""


def test_macro_table_entries():
    table = load_macro_table(MINI_TABLE)
    jac = table.get("\\JacobiP")
    assert jac == SemanticMacroDef("\\JacobiP", 0, 3, 1, "single", "fn:jacobi", "18.3")
    wron = table.get("\\Wron")
    assert (wron.num_params, wron.num_args) == (1, 2)


def test_macro_table_duplicate_name():
    with pytest.raises(DuplicateMacroName):
        load_macro_table("\\expe 0 0 0 none const:e1 -\n\\expe 0 0 0 none const:e2 -")


def test_macro_table_duplicate_meaning():
    with pytest.raises(MalformedEntry):
        load_macro_table("\\a 0 0 0 none const:e -\n\\b 0 0 0 none const:e -")


def test_macro_table_arity_consistency():
    # args > 0 requires an @-arity and vice versa
    with pytest.raises(MalformedEntry):
        load_macro_table("\\f 0 0 1 none fn:f -")
    with pytest.raises(MalformedEntry):
        load_macro_table("\\f 0 1 0 single fn:f -")


def test_macro_table_malformed_line():
    with pytest.raises(MalformedEntry):
        load_macro_table("\\f 0 1")


# --- parsing ---

def test_parse_lim_macro(tables):
    tree = parse(tokenize(r"\Lim{\beta}{\infty}@{f}"), tables.macro_table)
    assert tree.kind is NodeKind.MACRO_APP
    assert tree.macro == "bigop:lim"
    assert len(tree.params) == 2
    assert len(tree.args) == 1


def test_parse_single_letter(tables):
    tree = parse(tokenize("x"), tables.macro_table)
    assert tree.kind is NodeKind.LEAF
    assert tree.token.text == "x"


def test_parse_arity_mismatch(tables):
    with pytest.raises(ArityMismatch):
        parse(tokenize(r"\JacobiP{\alpha}{\beta}"), tables.macro_table)


def test_parse_macro_missing_at(tables):
    with pytest.raises(ArityMismatch):
        parse(tokenize(r"\BesselJ{\nu}{z}"), tables.macro_table)


def test_parse_unknown_control_sequence_is_leaf(tables):
    tree = parse(tokenize(r"\unknownthing"), tables.macro_table)
    assert tree.kind is NodeKind.LEAF
    assert tree.token.category is TokenCategory.CONTROL_SEQUENCE


def test_parse_macro_arity_invariant(tables, mini_corpus):
    # Every MacroApp carries exactly the declared number of children.
    def walk(node):
        yield node
        for p in node.optional_params + node.params + node.args + node.children:
            yield from walk(p)
        for s in (node.base, node.sub, node.sup):
            if s is not None:
                yield from walk(s)

    for record in mini_corpus:
        tree = parse(tokenize(record.latex), tables.macro_table)
        for node in walk(tree):
            if node.kind is NodeKind.MACRO_APP:
                definition = tables.macro_table.get(node.macro_name)
                assert len(node.params) == definition.num_params
                assert len(node.args) == definition.num_args


def test_parse_paren_group_carries_scripts(tables):
    tree = parse(tokenize(r"(-1)^{n}"), tables.macro_table)
    assert tree.kind is NodeKind.SUB_SUP
    assert tree.base.kind is NodeKind.GROUP
    assert tree.base.paren


def test_render_round_trip_over_corpus(tables, mini_corpus):
    for record in mini_corpus:
        for source in (record.latex, *record.constraints):
            first = parse(tokenize(source), tables.macro_table)
            text = render(first)
            again = parse(tokenize(text), tables.macro_table)
            assert first == again, (record.id, source)


def test_render_separates_control_words():
    table = MacroTable(())
    tree = parse(tokenize(r"\alpha x"), table)
    assert render(tree) == "\\alpha x"


# --- lexicon ---

def test_relation_kinds_are_the_ir_kinds():
    assert set(RELATION_SPELLINGS.values()) == set(ir.RELATION_KINDS)


def test_every_relation_spelling_lexes_as_one_relation_token():
    # \in lexes as a relation too, but relates no two formula sides.
    assert r"\in" not in RELATION_SPELLINGS
    for text in (*RELATION_SPELLINGS, r"\in"):
        assert [(t.text, t.category) for t in tokenize(text)] == \
            [(text, TokenCategory.RELATION)]


@pytest.mark.parametrize("name", [
    "var", "var1", "var12", "va", "vars", "var1a", "xvar", "Var1", "variable",
    "var_1", "v", "", "var\u0661",
])
def test_placeholder_names_are_var_and_var_digits(name):
    assert is_placeholder_name(name) == bool(re.match(r"var\d*\Z", name))


def test_variable_names_of_tokens():
    names = [variable_name(t) for t in tokenize(r"x \alpha \Gamma \GammaFn 1 + var2",
                                                placeholders=True)]
    assert names == ["x", "alpha", "Gamma", None, None, None, "var2"]


def test_join_token_texts_spaces_only_after_control_words():
    assert join_token_texts([r"\alpha", "x"]) == r"\alpha x"
    assert join_token_texts([r"\alpha", "_", "x"]) == r"\alpha_x"
    assert join_token_texts([r"\alpha", "1"]) == r"\alpha1"
    assert join_token_texts([r"\,", "x"]) == r"\,x"
    assert join_token_texts(["x", "y", "", r"\beta"]) == r"xy\beta"
    assert join_token_texts([]) == ""
    # A text of several tokens is spaced by how it ends.
    assert join_token_texts([r"2\pi", "y"]) == r"2\pi y"
    assert join_token_texts([r"\pi2", "y"]) == r"\pi2y"
    assert join_token_texts([r"x\,", "y"]) == r"x\,y"
