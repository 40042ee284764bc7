"""Semantic LaTeX tokenizer, lexicon, and parser.

The tokenizer classifies characters of a single-line formula or constraint
string into part-of-math categories.  The lexicon below it is the one
place that decides what a token is beyond its category: which spellings
are relations and which relation kind each denotes, which tokens name a
variable, which names are pattern placeholders, and how tokens join back
into text.  Extraction, translation, constraint interpretation and the
rewrite rules all read these decisions from here.  The parser turns the
token stream into a tree in which every semantic macro (a control
sequence listed in the macro table, with parameters and arguments
separated by ``@``/``@@``) becomes a MacroApp node with arity-checked
children.  Control sequences that are not in the table parse as opaque
leaves; rejecting them is the translator's job, which is what makes
per-macro failure statistics possible downstream.
"""

from __future__ import annotations

import string
from dataclasses import field
from enum import Enum
from typing import Iterable, Optional

from .errors import (
    ArityMismatch,
    DuplicateMacroName,
    IllegalCharacter,
    MalformedEntry,
    UnbalancedBraces,
)
from .ir import frozen


class TokenCategory(Enum):
    LETTER = "letter"
    DIGIT = "digit"
    OPERATOR = "operator"
    RELATION = "relation"
    CONTROL_SEQUENCE = "control_sequence"
    GROUP_OPEN = "group_open"
    GROUP_CLOSE = "group_close"
    SUBSCRIPT = "subscript"
    SUPERSCRIPT = "superscript"
    ARG_SEPARATOR = "arg_separator"
    COMMA = "comma"
    OTHER = "other"


# The members as module names, read once here: code that runs per token or
# parse node reads these, since a module global costs about a third of an
# enum member read.  The same holds for `NodeKind` below.
LETTER = TokenCategory.LETTER
DIGIT = TokenCategory.DIGIT
OPERATOR = TokenCategory.OPERATOR
RELATION = TokenCategory.RELATION
CONTROL_SEQUENCE = TokenCategory.CONTROL_SEQUENCE
GROUP_OPEN = TokenCategory.GROUP_OPEN
GROUP_CLOSE = TokenCategory.GROUP_CLOSE
SUBSCRIPT = TokenCategory.SUBSCRIPT
SUPERSCRIPT = TokenCategory.SUPERSCRIPT
ARG_SEPARATOR = TokenCategory.ARG_SEPARATOR
COMMA = TokenCategory.COMMA
OTHER = TokenCategory.OTHER


@frozen
class Token:
    text: str
    category: TokenCategory
    # Offsets support splitting on the source string; two tokens with the
    # same text and category are the same token for tree comparison.
    byte_offset: int = field(compare=False, default=-1)


# Relation spellings and the relation kind each denotes (the `ir.REL_*`
# strings).  ``\in`` lexes as a relation too, but it ties a variable to a
# set, never two formula sides, so it has no kind.
RELATION_SPELLINGS = {
    "=": "eq", "<": "lt", ">": "gt",
    "\\ne": "ne", "\\neq": "ne",
    "\\le": "le", "\\leq": "le",
    "\\ge": "ge", "\\geq": "ge",
    "\\to": "to",
    "\\equiv": "equiv",
}
_RELATION_TOKEN_TEXTS = frozenset(RELATION_SPELLINGS) | {"\\in"}

OPERATOR_CONTROL_WORDS = {"\\pm", "\\mp", "\\cdot", "\\times", "\\div", "\\ast"}

OPERATOR_CHARS = set("+-*/")
OTHER_CHARS = set("()[]|!'.:;")

_LETTERS = set(string.ascii_letters)
_DIGITS = set(string.digits)

GREEK_LETTERS = frozenset({
    "alpha", "beta", "gamma", "delta", "epsilon", "varepsilon", "zeta", "eta",
    "theta", "vartheta", "iota", "kappa", "lambda", "mu", "nu", "xi", "pi",
    "rho", "varrho", "sigma", "varsigma", "tau", "upsilon", "phi", "varphi",
    "chi", "psi", "omega",
    "Gamma", "Delta", "Theta", "Lambda", "Xi", "Pi", "Sigma", "Upsilon",
    "Phi", "Psi", "Omega",
})


def is_placeholder_name(name: str) -> bool:
    """Whether ``name`` is a pattern placeholder, ``var`` or ``varN``, as
    blueprint and rewrite-rule patterns spell them."""
    return name.startswith("var") and (len(name) == 3 or name[3:].isdecimal())


def variable_name(token: Token) -> Optional[str]:
    """The variable a token names: a letter (or placeholder word) names
    itself, a Greek control word its name without the backslash; any other
    token names none."""
    if token.category is LETTER:
        return token.text
    if token.category is CONTROL_SEQUENCE and token.text[1:] in GREEK_LETTERS:
        return token.text[1:]
    return None


def join_token_texts(texts: Iterable[str]) -> str:
    """Token texts back to one string, spaced only where a control word
    would otherwise swallow the letters after it.  A text may hold more
    than one token (a substituted ``2\\pi``): what counts is how it ends."""
    parts: list[str] = []
    prev = ""
    for text in texts:
        if text and text[0] in _LETTERS and prev[-1:] in _LETTERS:
            stem = prev.rstrip(string.ascii_letters)
            if stem[-1:] == "\\":
                parts.append(" ")
        parts.append(text)
        prev = text
    return "".join(parts)


def tokenize(text: str, *, placeholders: bool = False) -> list[Token]:
    """Tokenize one formula or constraint string.

    With ``placeholders=True`` (used for blueprint patterns) alphanumeric
    words of the form ``var`` or ``varN`` lex as a single token; otherwise
    letters always lex one character at a time, so ``xy`` stays an implicit
    product of two symbols.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    depth = 0
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        start = i
        if ch == "\\":
            if i + 1 >= n:
                raise IllegalCharacter("\\", i)
            j = i + 1
            if text[j] in _LETTERS:
                while j < n and text[j] in _LETTERS:
                    j += 1
                word = text[i:j]
            else:
                j += 1
                word = text[i:j]
            i = j
            if word in _RELATION_TOKEN_TEXTS:
                cat = RELATION
            elif word in OPERATOR_CONTROL_WORDS:
                cat = OPERATOR
            else:
                cat = CONTROL_SEQUENCE
            tokens.append(Token(word, cat, start))
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            # One decimal point, only when flanked by digits.
            if j + 1 < n and text[j] == "." and text[j + 1] in _DIGITS:
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            tokens.append(Token(text[i:j], DIGIT, start))
            i = j
        elif ch in _LETTERS:
            if placeholders:
                j = i
                while j < n and text[j] in _LETTERS:
                    j += 1
                k = j
                while k < n and text[k] in _DIGITS:
                    k += 1
                word = text[i:k]
                if is_placeholder_name(word):
                    tokens.append(Token(word, LETTER, start))
                    i = k
                    continue
            tokens.append(Token(ch, LETTER, start))
            i += 1
        elif ch == "{":
            depth += 1
            tokens.append(Token(ch, GROUP_OPEN, start))
            i += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise UnbalancedBraces(f"unmatched '}}' at byte offset {start}")
            tokens.append(Token(ch, GROUP_CLOSE, start))
            i += 1
        elif ch == "^":
            tokens.append(Token(ch, SUPERSCRIPT, start))
            i += 1
        elif ch == "_":
            tokens.append(Token(ch, SUBSCRIPT, start))
            i += 1
        elif ch == "@":
            if i + 1 < n and text[i + 1] == "@":
                tokens.append(Token("@@", ARG_SEPARATOR, start))
                i += 2
            else:
                tokens.append(Token("@", ARG_SEPARATOR, start))
                i += 1
        elif ch == ",":
            tokens.append(Token(ch, COMMA, start))
            i += 1
        elif ch in _RELATION_TOKEN_TEXTS:
            tokens.append(Token(ch, RELATION, start))
            i += 1
        elif ch in OPERATOR_CHARS:
            tokens.append(Token(ch, OPERATOR, start))
            i += 1
        elif ch in OTHER_CHARS:
            tokens.append(Token(ch, OTHER, start))
            i += 1
        else:
            raise IllegalCharacter(ch, start)
    if depth != 0:
        raise UnbalancedBraces(f"{depth} unclosed group(s)")
    return tokens


# --- semantic macro table ---

AT_NONE = "none"
AT_SINGLE = "single"
AT_DOUBLE = "double"


@frozen
class SemanticMacroDef:
    name: str
    num_optional_params: int
    num_params: int
    num_args: int
    at_arity: str
    meaning_id: str
    dlmf_ref: Optional[str] = None


class MacroTable:
    """Lookup table of semantic macro definitions, keyed by control sequence."""

    def __init__(self, defs: Iterable[SemanticMacroDef]):
        self._by_name: dict[str, SemanticMacroDef] = {}
        meanings: set[str] = set()
        for d in defs:
            if d.name in self._by_name:
                raise DuplicateMacroName(d.name)
            if d.meaning_id in meanings:
                raise MalformedEntry(f"duplicate meaning id {d.meaning_id!r}")
            if (d.num_args > 0) != (d.at_arity != AT_NONE):
                raise MalformedEntry(
                    f"{d.name}: argument count and @-arity must agree"
                )
            self._by_name[d.name] = d
            meanings.add(d.meaning_id)

    def get(self, name: str) -> Optional[SemanticMacroDef]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())


def load_macro_table(source: str) -> MacroTable:
    """Parse the line-oriented macro table format.

    Columns (whitespace separated): name, optional-param count, param
    count, arg count, at-arity (none|single|double), meaning id, DLMF
    reference ('-' when absent).  '#' starts a comment.
    """
    defs = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (6, 7):
            raise MalformedEntry(f"line {lineno}: expected 6 or 7 columns")
        name, opt_s, par_s, arg_s, at, meaning = parts[:6]
        ref = parts[6] if len(parts) == 7 and parts[6] != "-" else None
        if not name.startswith("\\"):
            raise MalformedEntry(f"line {lineno}: macro name must start with backslash")
        if at not in (AT_NONE, AT_SINGLE, AT_DOUBLE):
            raise MalformedEntry(f"line {lineno}: bad at-arity {at!r}")
        try:
            opt, par, arg = int(opt_s), int(par_s), int(arg_s)
        except ValueError as exc:
            raise MalformedEntry(f"line {lineno}: non-integer arity") from exc
        if min(opt, par, arg) < 0:
            raise MalformedEntry(f"line {lineno}: negative arity")
        defs.append(SemanticMacroDef(name, opt, par, arg, at, meaning, ref))
    return MacroTable(defs)


# --- parse tree ---

class NodeKind(Enum):
    LEAF = "leaf"
    GROUP = "group"
    MACRO_APP = "macro_app"
    SUB_SUP = "sub_sup"
    ROW = "row"


LEAF = NodeKind.LEAF
GROUP = NodeKind.GROUP
MACRO_APP = NodeKind.MACRO_APP
SUB_SUP = NodeKind.SUB_SUP
ROW = NodeKind.ROW


@frozen
class ParseNode:
    kind: NodeKind
    token: Optional[Token] = None
    macro: Optional[str] = None          # meaning id
    macro_name: Optional[str] = None     # control sequence, for rendering
    at_text: str = ""
    paren: bool = False                  # group delimited by ( ) not { }
    optional_params: tuple["ParseNode", ...] = ()
    params: tuple["ParseNode", ...] = ()
    args: tuple["ParseNode", ...] = ()
    base: Optional["ParseNode"] = None
    sub: Optional["ParseNode"] = None
    sup: Optional["ParseNode"] = None
    children: tuple["ParseNode", ...] = ()


def leaf(token: Token) -> ParseNode:
    return ParseNode(LEAF, token=token)


def group(children: tuple[ParseNode, ...], paren: bool = False) -> ParseNode:
    return ParseNode(GROUP, paren=paren, children=children)


def row_or_single(items: list[ParseNode]) -> ParseNode:
    if len(items) == 1:
        return items[0]
    return ParseNode(ROW, children=tuple(items))


class _Parser:
    def __init__(self, tokens: list[Token], table: MacroTable):
        self.tokens = tokens
        self.table = table
        self.i = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def parse_sequence(self, *, in_group: bool) -> list[ParseNode]:
        items: list[ParseNode] = []
        while True:
            tok = self.peek()
            if tok is None:
                if in_group:
                    raise UnbalancedBraces("group not closed before end of input")
                break
            if tok.category is GROUP_CLOSE:
                if not in_group:
                    raise UnbalancedBraces(f"unmatched '}}' at offset {tok.byte_offset}")
                break
            if tok.category in (SUBSCRIPT, SUPERSCRIPT):
                self.i += 1
                script = self.parse_item()
                base = items.pop() if items else None
                items.append(self._attach_script(base, tok.category, script))
                continue
            items.append(self.parse_item())
        return items

    @staticmethod
    def _attach_script(base: Optional[ParseNode], cat: TokenCategory,
                       script: ParseNode) -> ParseNode:
        if base is not None and base.kind is SUB_SUP:
            if cat is SUBSCRIPT and base.sub is None:
                return ParseNode(SUB_SUP, base=base.base, sub=script, sup=base.sup)
            if cat is SUPERSCRIPT and base.sup is None:
                return ParseNode(SUB_SUP, base=base.base, sub=base.sub, sup=script)
        if cat is SUBSCRIPT:
            return ParseNode(SUB_SUP, base=base, sub=script)
        return ParseNode(SUB_SUP, base=base, sup=script)

    def parse_item(self) -> ParseNode:
        tok = self.peek()
        if tok is None:
            raise ArityMismatch("expected an item, found end of input")
        if tok.category is GROUP_OPEN:
            self.i += 1
            inner = self.parse_sequence(in_group=True)
            close = self.peek()
            if close is None or close.category is not GROUP_CLOSE:
                raise UnbalancedBraces("group not closed")
            self.i += 1
            return group(tuple(inner))
        if tok.category is OTHER and tok.text == "(":
            self.i += 1
            inner: list[ParseNode] = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise UnbalancedBraces("'(' never closed")
                if nxt.category is OTHER and nxt.text == ")":
                    self.i += 1
                    break
                if nxt.category in (SUBSCRIPT, SUPERSCRIPT):
                    self.i += 1
                    script = self.parse_item()
                    base = inner.pop() if inner else None
                    inner.append(self._attach_script(base, nxt.category, script))
                    continue
                if nxt.category is GROUP_CLOSE:
                    raise UnbalancedBraces("'}' inside unclosed '('")
                inner.append(self.parse_item())
            return group(tuple(inner), paren=True)
        if tok.category is CONTROL_SEQUENCE:
            macro = self.table.get(tok.text)
            if macro is not None:
                self.i += 1
                return self.parse_macro_app(macro)
            self.i += 1
            return leaf(tok)
        self.i += 1
        return leaf(tok)

    def parse_macro_app(self, macro: SemanticMacroDef) -> ParseNode:
        optional: list[ParseNode] = []
        for _ in range(macro.num_optional_params):
            tok = self.peek()
            if tok is None or tok.text != "[":
                break
            self.i += 1
            inner: list[ParseNode] = []
            while True:
                tok = self.peek()
                if tok is None:
                    raise UnbalancedBraces(f"unclosed '[' in {macro.name}")
                if tok.text == "]":
                    self.i += 1
                    break
                inner.append(self.parse_item())
            optional.append(group(tuple(inner)))
        params = []
        for k in range(macro.num_params):
            if self.peek() is None or self.peek().category is ARG_SEPARATOR:
                raise ArityMismatch(
                    f"{macro.name} expects {macro.num_params} parameter(s), got {k}"
                )
            params.append(self.parse_item())
        at_text = ""
        args = []
        if macro.num_args > 0:
            tok = self.peek()
            if tok is None or tok.category is not ARG_SEPARATOR:
                raise ArityMismatch(f"{macro.name} expects '@' before its argument(s)")
            at_text = tok.text
            self.i += 1
            for k in range(macro.num_args):
                if self.peek() is None:
                    raise ArityMismatch(
                        f"{macro.name} expects {macro.num_args} argument(s), got {k}"
                    )
                args.append(self.parse_item())
        return ParseNode(
            MACRO_APP,
            macro=macro.meaning_id,
            macro_name=macro.name,
            at_text=at_text or ("@" if macro.at_arity == AT_SINGLE else
                                "@@" if macro.at_arity == AT_DOUBLE else ""),
            optional_params=tuple(optional),
            params=tuple(params),
            args=tuple(args),
        )


def parse(tokens: list[Token], table: MacroTable) -> ParseNode:
    """Build a parse tree; unknown control sequences stay opaque leaves."""
    p = _Parser(tokens, table)
    items = p.parse_sequence(in_group=False)
    return row_or_single(items) if items else ParseNode(ROW)


# --- flattening and rendering ---

def _synth(text: str, category: TokenCategory) -> Token:
    return Token(text, category, -1)


def flatten_tokens(node: ParseNode) -> list[Token]:
    """Re-emit the token stream of a parse tree (group braces included)."""
    out: list[Token] = []
    _flatten(node, out)
    return out


def _flatten(node: ParseNode, out: list[Token]) -> None:
    if node.kind is LEAF:
        if node.token is not None:
            out.append(node.token)
    elif node.kind is ROW:
        for c in node.children:
            _flatten(c, out)
    elif node.kind is GROUP:
        if node.paren:
            out.append(_synth("(", OTHER))
            for c in node.children:
                _flatten(c, out)
            out.append(_synth(")", OTHER))
        else:
            out.append(_synth("{", GROUP_OPEN))
            for c in node.children:
                _flatten(c, out)
            out.append(_synth("}", GROUP_CLOSE))
    elif node.kind is SUB_SUP:
        if node.base is not None:
            _flatten(node.base, out)
        if node.sub is not None:
            out.append(_synth("_", SUBSCRIPT))
            _flatten(node.sub, out)
        if node.sup is not None:
            out.append(_synth("^", SUPERSCRIPT))
            _flatten(node.sup, out)
    elif node.kind is MACRO_APP:
        out.append(_synth(node.macro_name or "", CONTROL_SEQUENCE))
        for p in node.optional_params:
            out.append(_synth("[", OTHER))
            for c in p.children:
                _flatten(c, out)
            out.append(_synth("]", OTHER))
        for p in node.params:
            _flatten_braced(p, out)
        if node.args:
            out.append(_synth(node.at_text or "@", ARG_SEPARATOR))
            for a in node.args:
                _flatten_braced(a, out)


def _flatten_braced(node: ParseNode, out: list[Token]) -> None:
    # Parameters and arguments always render braced for round-trip stability.
    if node.kind is GROUP and not node.paren:
        _flatten(node, out)
    else:
        out.append(_synth("{", GROUP_OPEN))
        _flatten(node, out)
        out.append(_synth("}", GROUP_CLOSE))


def render(node: ParseNode) -> str:
    """Render a parse tree back to semantic LaTeX."""
    return join_token_texts(tok.text for tok in flatten_tokens(node))
