"""Seeded input generator for the benchmark.

Every input is built from the 40 formulae bundled with the package
(``src/mathverify/data/mini_corpus.jsonl``) and from the seed alone; the
program under test receives only the generated files.

* ``make_corpus`` builds ``replicas`` copies of the bundled formulae.
  Each replica renames the Latin single-letter variables through one
  injective map drawn from the seed, in the formula and in its
  constraints alike, and keeps the chapter.  No replica is ever dropped.
* ``render_chapters`` writes the same formulae as chapter sources with
  the constructs of ``tests/data/chapter_ef_sample.tex`` and returns the
  second-scan records those sources must yield.

The generator reads the bundled corpus as plain JSON and never calls
into ``mathverify``, so the expectations it returns are independent of
the code they check.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

MINI_CORPUS = Path("src") / "mathverify" / "data" / "mini_corpus.jsonl"
EXPECTED_FILE = Path(__file__).with_name("expected.json")

# Targets for renamed variables: lower case only (upper-case I, D and E
# mean something in Maple), and never e or i, which the chapters' entity
# substitutions turn into \expe and \iunit; d, l and o are left out as
# the differential and look-alikes of 1 and 0.
TARGET_LETTERS = "abcfghjkmnpqrstuvwxyz"

_TOKEN_RE = re.compile(r"\\[A-Za-z]+|\\.|[A-Za-z]")

# Pairs of bundled formulae with the same left-hand side, rendered as one
# relation chain ``L = R1 = R2`` that scan two splits back into both.
CHAIN_PAIRS = {"EF.6": "EF.14", "GA.1": "GA.8"}
# Formula rendered with correlated signs: (x \pm y)^2 = x^2 \pm 2xy + y^2.
PLUS_MINUS = "EF.10"
SPECIAL = {*CHAIN_PAIRS, PLUS_MINUS}
PREAMBLE = "\\newcommand{\\half}[1]{\\frac{#1}{2}}"
ALIGN_SHARE = 0.2
GROUP_SHARE = 0.2


@dataclass(frozen=True)
class Formula:
    id: str
    base: str
    replica: int
    chapter: str
    latex: str
    constraints: tuple[str, ...]
    label: Optional[str]

    def to_json(self) -> str:
        return json.dumps({
            "id": self.id, "chapter": self.chapter, "latex": self.latex,
            "constraints": list(self.constraints), "label": self.label,
            "source_line": 0, "split_origin": None,
        }, ensure_ascii=True)


@dataclass(frozen=True)
class ExpectedRecord:
    """A second-scan record the chapter sources must produce."""
    id: str
    chapter: str
    latex: str              # spaces removed: scan one re-joins tokens
    constraints: tuple[str, ...]
    label: Optional[str]
    split_origin: Optional[str]
    translatable: bool


@dataclass
class ChapterSet:
    sources: dict[str, str]
    expected: list[ExpectedRecord]
    first_scan: int
    culled: int


def load_base(root: Path) -> list[dict]:
    with open(root / MINI_CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_verdicts() -> dict[str, str]:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)["verdicts"]


def latin_letters(text: str) -> set[str]:
    return {t for t in _TOKEN_RE.findall(text) if len(t) == 1}


def rename(text: str, mapping: dict[str, str]) -> str:
    return _TOKEN_RE.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def make_corpus(base: list[dict], seed: int, replicas: int) -> list[Formula]:
    """Replica-major corpus: replica 0 of every formula, then replica 1..."""
    letters = sorted(set().union(*(
        latin_letters(b["latex"] + " ".join(b["constraints"])) for b in base)))
    rng = random.Random(seed)
    out = []
    for r in range(replicas):
        mapping = dict(zip(letters, rng.sample(TARGET_LETTERS, len(letters))))
        for b in base:
            out.append(Formula(
                id=f"{b['id']}r{r}", base=b["id"], replica=r, chapter=b["chapter"],
                latex=rename(b["latex"], mapping),
                constraints=tuple(rename(c, mapping) for c in b["constraints"]),
                label=b["label"],
            ))
    return out


def duplicate_share(formulas: list[Formula]) -> float:
    """Share of formulae whose LaTeX equals that of an earlier one."""
    seen: set[str] = set()
    dup = 0
    for f in formulas:
        dup += f.latex in seen
        seen.add(f.latex)
    return dup / len(formulas)


def write_jsonl(formulas: list[Formula], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in formulas:
            fh.write(f.to_json() + "\n")


# --- chapter sources ---

def _nospace(text: str) -> str:
    return "".join(text.split())


def _read_group(text: str, i: int) -> int:
    """Index past the brace group opening at ``text[i]``."""
    depth = 0
    for j in range(i, len(text)):
        depth += {"{": 1, "}": -1}.get(text[j], 0)
        if depth == 0:
            return j + 1
    raise ValueError(f"unbalanced group in {text!r}")


def _use_half_macro(text: str) -> str:
    r"""Spell every ``\frac{A}{2}`` as ``\half{A}``."""
    out = []
    i = 0
    while True:
        k = text.find("\\frac{", i)
        if k < 0:
            out.append(text[i:])
            return "".join(out)
        a_end = _read_group(text, k + 5)
        if text.startswith("{2}", a_end):
            out.append(text[i:k])
            out.append("\\half{" + _use_half_macro(text[k + 6:a_end - 1]) + "}")
            i = a_end + 3
        else:
            out.append(text[i:k + 6])
            i = k + 6


def source_latex(latex: str) -> str:
    r"""How an author writes the formula: plain ``e`` and ``\pi`` (scan
    one substitutes them back) and the preamble macro ``\half``."""
    latex = re.sub(r"\\expe(?![A-Za-z])", " e", latex)
    latex = re.sub(r"\\cpi(?![A-Za-z])", r"\\pi", latex)
    return _use_half_macro(latex)


def _sides(latex: str) -> tuple[str, str]:
    lhs, rhs = latex.split(" = ")
    return lhs, rhs


def _constraint_text(constraints: tuple[str, ...]) -> str:
    if not constraints:
        return ""
    return " \\constraint{" + ", ".join(f"${c}$" for c in constraints) + "}"


def _equation(body: str, label: Optional[str] = None) -> list[str]:
    head = [f"\\label{{{label}}}"] if label else []
    return ["\\begin{equation}", *head, body, "\\end{equation}"]


class _Chapter:
    def __init__(self, code: str, translatable: dict[str, bool]):
        self.code = code
        self.translatable = translatable
        self.lines = [PREAMBLE]
        self.expected: list[ExpectedRecord] = []
        self.seq = 0
        self.culled = 0

    def _next_id(self) -> str:
        self.seq += 1
        return f"{self.code}.{self.seq}"

    def _expect(self, rid: str, latex: str, f: Formula, label: Optional[str],
                origin: Optional[str] = None) -> None:
        self.expected.append(ExpectedRecord(
            rid, self.code, _nospace(latex), f.constraints, label, origin,
            self.translatable[f.base]))

    def plain(self, f: Formula, shared_label: Optional[str] = None) -> list[str]:
        self._expect(self._next_id(), f.latex, f, f.label or shared_label)
        body = source_latex(f.latex) + _constraint_text(f.constraints)
        return _equation(body, f.label)

    def chain(self, f1: Formula, f2: Formula) -> None:
        lhs, rhs1 = _sides(f1.latex)
        lhs2, rhs2 = _sides(f2.latex)
        if lhs != lhs2 or f1.constraints or f2.constraints:
            raise ValueError(f"{f1.id} and {f2.id} cannot form a relation chain")
        origin = self._next_id()
        label = f1.label or f2.label
        self._expect(f"{origin}-1", f"{lhs} = {rhs1}", f1, label, origin)
        self._expect(f"{origin}-2", f"{lhs} = {rhs2}", f2, label, origin)
        self.lines += _equation(source_latex(f"{lhs} = {rhs1} = {rhs2}"), label)

    def plus_minus(self, f: Formula) -> None:
        origin = self._next_id()
        self._expect(f"{origin}-p", f.latex, f, f.label, origin)
        self._expect(f"{origin}-m", f.latex.replace("+", "-", 2), f, f.label, origin)
        body = source_latex(f.latex).replace("+", " \\pm ", 2)
        self.lines += _equation(body + _constraint_text(f.constraints), f.label)

    def align(self, f1: Formula, f2: Formula) -> None:
        rows = []
        for f in (f1, f2):
            self._expect(self._next_id(), f.latex, f, None)
            lhs, rhs = _sides(source_latex(f.latex))
            rows.append(f"{lhs} &= {rhs}")
        self.lines += ["\\begin{align}", rows[0] + " \\\\[0.2cm]", rows[1], "\\end{align}"]

    def group(self, f1: Formula, f2: Formula) -> None:
        label = f"eq:{self.code}.group{self.seq + 1}"
        self.lines += ["\\begin{equationgroup}", f"\\label{{{label}}}",
                       *self.plain(f1, label), *self.plain(f2, label),
                       "\\end{equationgroup}"]

    def culled_sum(self, n: str) -> None:
        self._next_id()
        self.culled += 1
        self.lines += _equation(f"\\sum_{{k=0}}^{{{n}}} k = \\frac{{{n}({n}+1)}}{{2}}")


def render_chapters(formulas: list[Formula], seed: int,
                    verdicts: dict[str, str]) -> ChapterSet:
    """Chapter sources holding ``formulas`` plus one culled ``\\sum``
    formula per chapter and replica, with the records scan two must
    return from them, in order."""
    translatable = {b: v != "unknown_macro" for b, v in verdicts.items()}
    rng = random.Random(f"chapters:{seed}")
    chapters: dict[str, _Chapter] = {}
    blocks: dict[tuple[str, int], list[Formula]] = {}
    for f in formulas:
        blocks.setdefault((f.chapter, f.replica), []).append(f)
    for (code, _), block in blocks.items():
        ch = chapters.setdefault(code, _Chapter(code, translatable))
        by_base = {f.base: f for f in block}
        ch.culled_sum(rng.choice(TARGET_LETTERS))
        pending = [f for f in block if f.base not in CHAIN_PAIRS.values()]
        i = 0
        while i < len(pending):
            f = pending[i]
            nxt = pending[i + 1] if i + 1 < len(pending) else None
            pair_ok = nxt is not None and not {f.base, nxt.base} & SPECIAL
            roll = rng.random()
            if f.base in CHAIN_PAIRS:
                ch.chain(f, by_base[CHAIN_PAIRS[f.base]])
            elif f.base == PLUS_MINUS:
                ch.plus_minus(f)
            elif pair_ok and roll < ALIGN_SHARE and not any(
                    g.label or g.constraints for g in (f, nxt)):
                ch.align(f, nxt)
                i += 1
            elif pair_ok and roll < ALIGN_SHARE + GROUP_SHARE:
                ch.group(f, nxt)
                i += 1
            else:
                ch.lines += ch.plain(f)
            i += 1
    return ChapterSet(
        sources={c: "\n".join(ch.lines) + "\n" for c, ch in chapters.items()},
        expected=[r for ch in chapters.values() for r in ch.expected],
        first_scan=sum(ch.seq for ch in chapters.values()),
        culled=sum(ch.culled for ch in chapters.values()),
    )
