"""Two-scan formula extraction from chapter source files.

Scan one harvests formulae out of the four display environments, merges
source lines into single-line strings, strips formatting noise, attaches
constraint/label metadata, and applies per-chapter entity substitutions.
Scan two culls forms the downstream stages cannot handle, expands
preamble replacement macros, splits relation chains and correlated
plus-minus signs, and drops records without a logical relation.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .chapters import CHAPTER_CODES
from .errors import (
    MalformedConstraintEnvironment,
    MathVerifyError,
    UnclosedEnvironment,
)
from .ir import frozen
from .parser import (
    CONTROL_SEQUENCE,
    GROUP_CLOSE,
    GROUP_OPEN,
    RELATION_SPELLINGS,
    Token,
    join_token_texts,
    tokenize,
)


FORMULA_ENVIRONMENTS = ("equation", "equationmix", "equationgroup", "align")

# Relation spellings that make an expression verifiable at all.
RELATION_TEXTS = frozenset(RELATION_SPELLINGS)

# Control words whose presence culls a record in scan two.
CULL_CONTROL_WORDS = {
    "\\sum", "\\int", "\\prod", "\\lim",
    "\\dots", "\\ldots", "\\cdots", "\\vdots", "\\ddots",
    "\\sim",
    "\\BigO", "\\littleo", "\\fDiff", "\\bDiff", "\\cDiff", "\\asymp",
}

CULL_ENVIRONMENTS = {
    "cases", "array", "bmatrix", "vmatrix", "Bmatrix", "pmatrix",
    "Matrix", "Lattice",
}

# Formatting strings removed while merging source lines (scan one).
_STRIP_SIMPLE = ("\\,", "\\!", "\\*", "&")

# Metadata commands removed together with their braced arguments.
_STRIP_COMMANDS = (
    "\\MarkNotation", "\\origref", "\\note", "\\lxRefDeclaration",
    "\\index", "\\source", "\\authorproof",
)


@frozen
class FormulaRecord:
    id: str
    chapter_code: str
    latex: str
    constraints: tuple[str, ...] = ()
    label: Optional[str] = None
    source_line: int = 0
    split_origin: Optional[str] = None

    def __post_init__(self):
        if self.chapter_code not in CHAPTER_CODES:
            raise MathVerifyError(f"unknown chapter code {self.chapter_code!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "chapter": self.chapter_code,
                "latex": self.latex,
                "constraints": list(self.constraints),
                "label": self.label,
                "source_line": self.source_line,
                "split_origin": self.split_origin,
            },
            ensure_ascii=True,
        )

    @staticmethod
    def from_json(line: str) -> "FormulaRecord":
        obj = json.loads(line)
        return FormulaRecord(
            id=obj["id"],
            chapter_code=obj["chapter"],
            latex=obj["latex"],
            constraints=tuple(obj.get("constraints") or ()),
            label=obj.get("label"),
            source_line=int(obj.get("source_line") or 0),
            split_origin=obj.get("split_origin"),
        )


@frozen
class PreambleMacro:
    name: str
    num_params: int
    replacement: str


@frozen
class ChapterSource:
    chapter_code: str
    body: str
    preamble_macros: tuple[PreambleMacro, ...] = ()

    @staticmethod
    def from_text(chapter_code: str, text: str) -> "ChapterSource":
        return ChapterSource(chapter_code, text, tuple(_parse_preamble(text)))

    @staticmethod
    def from_file(chapter_code: str, path: Union[str, Path]) -> "ChapterSource":
        return ChapterSource.from_text(chapter_code, Path(path).read_text(encoding="utf-8"))


_NEWCOMMAND_RE = re.compile(
    r"\\newcommand\{(\\[A-Za-z]+)\}(?:\[(\d+)\])?\{"
)


def _parse_preamble(text: str) -> list[PreambleMacro]:
    macros = []
    for m in _NEWCOMMAND_RE.finditer(text):
        body, _ = _read_balanced(text, m.end() - 1)
        macros.append(PreambleMacro(m.group(1), int(m.group(2) or 0), body))
    return macros


def _read_balanced(text: str, open_idx: int) -> tuple[str, int]:
    """Content of the brace group opening at ``open_idx``; returns (content, index past '}')."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:i], i + 1
    raise UnclosedEnvironment(f"unbalanced brace group at {open_idx}")


# --- substitution config ---

def load_substitutions(source: str) -> dict[str, list[tuple[str, str]]]:
    """Per-chapter entity substitutions.

    One rule per line: chapter codes (comma separated, or ``*``), the
    entity pattern, and its replacement, whitespace separated.
    """
    rules: dict[str, list[tuple[str, str]]] = {}
    for raw in source.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MathVerifyError(f"bad substitution rule: {raw!r}")
        codes, pattern, replacement = parts
        for code in codes.split(","):
            rules.setdefault(code, []).append((pattern, replacement))
    for entries in rules.values():
        # Longer patterns first so e.g. K' wins over K.
        entries.sort(key=lambda pr: -len(pr[0]))
    return rules


def load_substitutions_file(path: Union[str, Path]) -> dict[str, list[tuple[str, str]]]:
    return load_substitutions(Path(path).read_text(encoding="utf-8"))


def _try_tokenize(latex: str) -> Optional[list[Token]]:
    try:
        return tokenize(latex)
    except MathVerifyError:
        return None


def _tokenize_patterns(rules: Sequence[tuple[str, str]]) -> list[tuple[list[str], str]]:
    """Each rule as (pattern token texts, replacement); a pattern that does
    not tokenize gets no texts and never matches."""
    out = []
    for pattern, replacement in rules:
        tokens = _try_tokenize(pattern)
        out.append(([t.text for t in tokens] if tokens else [], replacement))
    return out


def _apply_substitutions(latex: str, rules: Sequence[tuple[list[str], str]]) -> str:
    """Token-aware entity replacement (so ``e`` never fires inside ``\\expe``),
    with patterns as `_tokenize_patterns` gives them."""
    if not rules:
        return latex
    tokens = _try_tokenize(latex)
    if tokens is None:
        return latex
    texts = [t.text for t in tokens]
    for pat, replacement in rules:
        if not pat or pat[0] not in texts:
            continue
        first, n = pat[0], len(pat)
        out: list[str] = []
        i = 0
        while i < len(texts):
            if texts[i] == first and texts[i:i + n] == pat:
                out.append(replacement)
                i += n
            else:
                out.append(texts[i])
                i += 1
        texts = out
    return join_token_texts(texts)


# --- scan one ---

@frozen
class _Env:
    name: str
    content: str
    line: int


def _strip_comments(text: str) -> str:
    out_lines = []
    for line in text.split("\n"):
        i = 0
        while True:
            i = line.find("%", i)
            if i < 0:
                break
            if i > 0 and line[i - 1] == "\\":
                i += 1
                continue
            line = line[:i]
            break
        out_lines.append(line)
    return "\n".join(out_lines)


def _find_environments(body: str, names: Sequence[str]) -> list[_Env]:
    """Outermost environments from ``names``, in source order."""
    envs = []
    begin_re = re.compile(r"\\(begin|end)\{([A-Za-z]+)\}")
    stack: list[tuple[str, int, int]] = []
    for m in begin_re.finditer(body):
        kind, name = m.group(1), m.group(2)
        if name not in names:
            continue
        if kind == "begin":
            stack.append((name, m.end(), body.count("\n", 0, m.start()) + 1))
        else:
            if not stack or stack[-1][0] != name:
                raise UnclosedEnvironment(f"\\end{{{name}}} without matching \\begin")
            start_name, start_idx, line = stack.pop()
            if not stack:
                envs.append(_Env(start_name, body[start_idx:m.start()], line))
    if stack:
        raise UnclosedEnvironment(f"\\begin{{{stack[-1][0]}}} never closed")
    return envs


def _extract_command_groups(text: str, command: str) -> tuple[str, list[str]]:
    """Remove every ``command{...}`` from text, returning contents found."""
    found = []
    i = 0
    while True:
        i = text.find(command, i)
        if i < 0:
            break
        j = i + len(command)
        # Guard against prefixes (\note vs \notes).
        if j < len(text) and (text[j].isalpha()):
            i = j
            continue
        while j < len(text) and text[j] in " \t":
            j += 1
        if j < len(text) and text[j] == "{":
            try:
                content, end = _read_balanced(text, j)
            except UnclosedEnvironment as exc:
                if command == "\\constraint":
                    raise MalformedConstraintEnvironment(
                        f"unbalanced braces after {command}"
                    ) from exc
                raise
            found.append(content)
            text = text[:i] + text[end:]
        else:
            text = text[:i] + text[j:]
    return text, found


def _split_constraint_content(content: str) -> list[str]:
    """``$x>0$, $y>0$`` becomes two constraints; commas inside one math
    block (``$n=0,1,2,\\dots$``) are preserved."""
    content = content.strip()
    if "$" not in content:
        return [content] if content else []
    parts = []
    for m in re.finditer(r"\$([^$]*)\$", content):
        inner = " ".join(m.group(1).split())
        if inner:
            parts.append(inner)
    return parts


def _strip_formatting(text: str) -> str:
    for cmd in _STRIP_COMMANDS:
        text, _ = _extract_command_groups(text, cmd)
    for s in _STRIP_SIMPLE:
        text = text.replace(s, "")
    text = " ".join(text.split())
    return text.strip()


def _trim_trailing_punctuation(text: str) -> str:
    t = text.rstrip()
    if t and t[-1] in ".,;":
        # Only when the mark sits outside any group.
        depth = 0
        for c in t[:-1]:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
        if depth == 0:
            t = t[:-1].rstrip()
    return t


_ROW_SPLIT_RE = re.compile(r"\\\\(\[[^\]]*\])?")


def scan_first(
    source: ChapterSource,
    subst_rules: Optional[dict[str, list[tuple[str, str]]]] = None,
) -> list[FormulaRecord]:
    """First extraction scan over one chapter source."""
    rules = _tokenize_patterns((subst_rules or {}).get(source.chapter_code, []))
    body = _strip_comments(source.body)
    records: list[FormulaRecord] = []
    seq = 0

    def harvest(env: _Env) -> None:
        nonlocal seq
        inner = _find_environments(env.content, FORMULA_ENVIRONMENTS)
        if inner:
            # Container (equationgroup/equationmix wrapping equations):
            # a label in the container body is inherited by every inner
            # formula that lacks its own.
            stripped = env.content
            for e in inner:
                stripped = stripped.replace(e.content, "")
            _, labels = _extract_command_groups(stripped, "\\label")
            shared = labels[0] if labels else None
            before = len(records)
            for e in inner:
                harvest(_Env(e.name, e.content, e.line + env.line - 1))
            if shared is not None:
                for k in range(before, len(records)):
                    if records[k].label is None:
                        records[k] = replace(records[k], label=shared)
            return
        text, labels = _extract_command_groups(env.content, "\\label")
        text, constraint_blocks = _extract_command_groups(text, "\\constraint")
        constraints: list[str] = []
        for block in constraint_blocks:
            constraints.extend(_split_constraint_content(block))
        label = labels[0] if labels else None
        if env.name == "align":
            rows = []
            pos = 0
            for m in _ROW_SPLIT_RE.finditer(text):
                rows.append(text[pos:m.start()])
                pos = m.end()
            rows.append(text[pos:])
        else:
            # Inside a single-formula environment a line break is noise.
            rows = [_ROW_SPLIT_RE.sub(" ", text)]
        for row in rows:
            latex = _strip_formatting(row)
            latex = _trim_trailing_punctuation(latex)
            latex = _apply_substitutions(latex, rules)
            if not latex:
                continue
            seq += 1
            records.append(
                FormulaRecord(
                    id=f"{source.chapter_code}.{seq}",
                    chapter_code=source.chapter_code,
                    latex=latex,
                    constraints=tuple(constraints),
                    label=label,
                    source_line=env.line,
                )
            )

    for env in _find_environments(body, FORMULA_ENVIRONMENTS):
        harvest(env)
    return records


# --- scan two ---

def _has_cull_environment(latex: str) -> bool:
    return "\\begin{" in latex and any(
        f"\\begin{{{env}}}" in latex for env in CULL_ENVIRONMENTS
    )


def _has_cull_word(tokens: list[Token]) -> bool:
    return any(
        t.category is CONTROL_SEQUENCE and t.text in CULL_CONTROL_WORDS
        for t in tokens
    )


def _contains_relation(tokens: Optional[list[Token]]) -> bool:
    return tokens is not None and any(t.text in RELATION_TEXTS for t in tokens)


def expand_preamble_macros(latex: str, macros: Sequence[PreambleMacro]) -> str:
    if not macros:
        return latex
    by_name = {m.name: m for m in macros}
    for _ in range(8):  # nested replacements, bounded
        changed = False
        for name, m in by_name.items():
            i = latex.find(name)
            while i >= 0:
                j = i + len(name)
                if j < len(latex) and latex[j].isalpha():
                    i = latex.find(name, j)
                    continue
                args = []
                k = j
                for _n in range(m.num_params):
                    while k < len(latex) and latex[k] in " \t":
                        k += 1
                    if k < len(latex) and latex[k] == "{":
                        content, k = _read_balanced(latex, k)
                        args.append(content)
                    elif k < len(latex):
                        args.append(latex[k])
                        k += 1
                    else:
                        args.append("")
                body = m.replacement
                for n, a in enumerate(args, start=1):
                    body = body.replace(f"#{n}", a)
                latex = latex[:i] + body + latex[k:]
                changed = True
                i = latex.find(name, i + len(body))
        if not changed:
            break
    return latex


def _top_level_relations(tokens: list[Token]) -> list[int]:
    depth = 0
    out = []
    for idx, t in enumerate(tokens):
        if t.category is GROUP_OPEN:
            depth += 1
        elif t.category is GROUP_CLOSE:
            depth -= 1
        elif depth == 0 and t.text in RELATION_TEXTS:
            out.append(idx)
    return out


def split_relations(record: FormulaRecord) -> list[FormulaRecord]:
    """``a=b=c`` pairs the first member with each later member."""
    return _split_relations(record, _try_tokenize(record.latex))


def _split_relations(record: FormulaRecord,
                     tokens: Optional[list[Token]]) -> list[FormulaRecord]:
    """`split_relations` on the record's tokens; ``[record]`` itself when
    there is nothing to split."""
    if not tokens:
        return [record]
    rel_idx = _top_level_relations(tokens)
    if len(rel_idx) <= 1:
        return [record]
    text = record.latex

    def span(a: int, b: int) -> str:
        if b < a:
            return ""  # an empty chain member
        end = tokens[b].byte_offset + len(tokens[b].text)
        return text[tokens[a].byte_offset:end].strip()

    first = span(0, rel_idx[0] - 1)
    out = []
    for k, ri in enumerate(rel_idx):
        next_start = ri + 1
        next_end = (rel_idx[k + 1] - 1) if k + 1 < len(rel_idx) else len(tokens) - 1
        member = span(next_start, next_end)
        out.append(
            replace(
                record,
                id=f"{record.id}-{k + 1}",
                latex=f"{first} {tokens[ri].text} {member}",
                split_origin=record.id,
            )
        )
    return out


def split_plus_minus(record: FormulaRecord) -> list[FormulaRecord]:
    """Resolve correlated ``\\pm``/``\\mp`` into two sign-consistent records."""
    return _split_plus_minus(record, _try_tokenize(record.latex))


def _split_plus_minus(record: FormulaRecord,
                      tokens: Optional[list[Token]]) -> list[FormulaRecord]:
    """`split_plus_minus` on the record's tokens; ``[record]`` itself when
    there is no sign to resolve."""
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


def scan_second(
    records: Iterable[FormulaRecord],
    preamble_macros: Sequence[PreambleMacro] = (),
) -> list[FormulaRecord]:
    """Second extraction scan: cull, expand, split, and filter.

    Idempotent: records that need no action pass through unchanged.
    Each record is tokenized once, and once more only when macro
    expansion changed its text; the cull check reads the unexpanded
    text.  Only the rare split children are tokenized again.
    """
    out: list[FormulaRecord] = []
    for rec in records:
        if _has_cull_environment(rec.latex):
            continue
        tokens = _try_tokenize(rec.latex)
        if tokens is None or _has_cull_word(tokens):
            continue
        expanded = expand_preamble_macros(rec.latex, preamble_macros)
        if expanded != rec.latex:
            rec = replace(rec, latex=expanded)
            tokens = _try_tokenize(expanded)
        for chain_child in _split_relations(rec, tokens):
            chain_tokens = tokens if chain_child is rec else _try_tokenize(chain_child.latex)
            for child in _split_plus_minus(chain_child, chain_tokens):
                child_tokens = (chain_tokens if child is chain_child
                                else _try_tokenize(child.latex))
                if _contains_relation(child_tokens):
                    out.append(child)
    return out


# --- corpus files ---

def write_corpus(records: Iterable[FormulaRecord], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def read_corpus(path: Union[str, Path]) -> list[FormulaRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(FormulaRecord.from_json(line))
    return records
