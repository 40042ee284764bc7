"""Pipeline orchestration, per-chapter aggregation, and report rendering.

The pipeline runs scan two over the input corpus (a no-op when the corpus
is already second-scan), translates every record, verifies equations
symbolically, verifies the translated-but-not-symbolically-verified rest
numerically, and folds the outcomes into per-chapter rows shaped like the
summary table: F2, T, TVs, TVn with percentages, plus a failure
breakdown.  Flagged cases (above-threshold discrepancies, stray numeric
outcomes of the simplifier, and constraints no blueprint understood) are
collected for review.
"""

from __future__ import annotations

import json
import logging
import multiprocessing.connection
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence, Union

from . import ir
from .chapters import CHAPTERS
from .constraints import (
    ConstraintBlueprint,
    interpret_constraints,
    parse_blueprint_rules,
)
from .emit import DIALECT_MAPLE, emit_relation
from .errors import (
    ConfigParseError,
    MathVerifyError,
    MissingInputFile,
    NoDialectMapping,
    TranslationError,
)
from .extraction import FormulaRecord, read_corpus, scan_second
from .numeric import (
    CLASS_ABOVE_THRESHOLD,
    NumericConfig,
    NumericOutcome,
    verify_numeric,
)
from .parser import MacroTable, load_macro_table, parse, tokenize
from .symbolic import (
    CLASS_OTHER_NUMERIC,
    RewriteRule,
    SimplifyConfig,
    SymbolicOutcome,
    identities,
    load_rewrite_rules,
    verify_symbolic,
)
from .translate import TranslationTable, load_translation_table, to_relation

# A record whose check raised something other than a MathVerifyError.
FAILURE_INTERNAL_ERROR = "internal_error"

# Failure kinds of records that are not translated: their chapter counts
# plus T reconstitute F2.
TRANSLATION_FAILURE_KINDS = (
    "unknown_macro", "insufficient_semantics", "unsupported_grammar",
    FAILURE_INTERNAL_ERROR,
)

_log = logging.getLogger(__name__)


def data_text(name: str) -> str:
    return resources.files("mathverify").joinpath("data", name).read_text(encoding="utf-8")


@dataclass
class PipelineOptions:
    """Table paths (None: the bundled table), the two stage configs, and
    how to run them.  ``symbolic.rules`` is filled from the loaded tables
    per record."""
    macro_table: Optional[str] = None
    translation_table: Optional[str] = None
    blueprints: Optional[str] = None
    rewrite_rules: Optional[str] = None
    symbolic: SimplifyConfig = field(default_factory=SimplifyConfig)
    numeric: NumericConfig = field(default_factory=NumericConfig)
    jobs: int = 1
    run_symbolic: bool = True
    run_numeric: bool = True

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _table_text(path: Optional[str], default: str) -> str:
    """The table file at ``path`` if one is set, else the bundled one."""
    return Path(path).read_text(encoding="utf-8") if path else data_text(default)


class Tables:
    """Loaded macro/translation/blueprint/rule tables.  All four files are
    read here, so a missing one fails at once; the blueprints and the
    rewrite rules, which translation never reads, are parsed on first read."""

    def __init__(self, options: PipelineOptions):
        self.macro_table: MacroTable = load_macro_table(
            _table_text(options.macro_table, "macros.table")
        )
        self.translation_table: TranslationTable = load_translation_table(
            _table_text(options.translation_table, "translation.table")
        )
        self._blueprint_text = _table_text(options.blueprints, "blueprints.rules")
        self._rule_text = _table_text(options.rewrite_rules, "rewrite.rules")

    @cached_property
    def blueprints(self) -> list[ConstraintBlueprint]:
        return parse_blueprint_rules(self._blueprint_text, self.macro_table)

    @cached_property
    def rewrite_rules(self) -> tuple[RewriteRule, ...]:
        return load_rewrite_rules(self._rule_text, self.macro_table, self.translation_table)


@dataclass(frozen=True)
class Outcome:
    """One record's verdict: its constraint gaps, how translation ended,
    and the symbolic and numeric results as their stages returned them
    (None for a stage that did not run)."""
    id: str
    chapter: str
    latex: str
    unmatched_constraints: tuple[str, ...] = ()
    constraint_conflicts: tuple[str, ...] = ()
    failure: Optional[str] = None
    relation: Optional[str] = None
    maple: Optional[str] = None
    symbolic: Optional[SymbolicOutcome] = None
    numeric: Optional[NumericOutcome] = None

    def to_json(self) -> str:
        """The record's line of the structured report; ``translated`` is
        derived from ``relation``."""
        sym, num = self.symbolic, self.numeric
        return json.dumps({
            "id": self.id,
            "chapter": self.chapter,
            "latex": self.latex,
            "translated": self.relation is not None,
            "failure": self.failure,
            "relation": self.relation,
            "symbolic": None if sym is None else {
                "classification": sym.classification,
                "value": None if sym.value is None else str(sym.value),
                "preprocessor": sym.winning_preprocessor,
                "steps": sym.steps_used,
            },
            "numeric": None if num is None else {
                "classification": num.classification,
                "detail": num.detail,
                "worst": num.worst,
                "branch_sensitive": num.branch_sensitive,
                "n_evaluations": len(num.evaluations),
                "n_skipped": len(num.skipped),
                "evaluations": [{
                    "assignment": ev.assignment, "lhs": [ev.lhs.real, ev.lhs.imag],
                    "rhs": [ev.rhs.real, ev.rhs.imag], "discrepancy": ev.discrepancy,
                } for ev in num.evaluations],
            },
            "unmatched_constraints": list(self.unmatched_constraints),
            "constraint_conflicts": list(self.constraint_conflicts),
            "maple": self.maple,
        }, ensure_ascii=True)

    # Key lookups into the JSON view, kept for readers of the structured
    # lines: perfbench/gate.py reads outcome["failure"] and .get("symbolic").
    def __getitem__(self, key: str):
        return json.loads(self.to_json())[key]

    def get(self, key: str, default=None):
        return json.loads(self.to_json()).get(key, default)


def verify_record(record: FormulaRecord, tables: Tables,
                  options: PipelineOptions) -> Outcome:
    """Translate and verify one corpus record.

    An exception that is not a MathVerifyError (a ``RecursionError`` on
    deeply nested input, say) is logged with its traceback and ends this
    record with failure ``internal_error``, so one record cannot stop a
    run."""
    try:
        return _verify(record, tables, options)
    except MathVerifyError:
        raise
    except Exception:
        _log.exception("record %s: internal error", record.id)
        return Outcome(record.id, record.chapter_code, record.latex,
                       failure=FAILURE_INTERNAL_ERROR)


def _verify(record: FormulaRecord, tables: Tables,
            options: PipelineOptions) -> Outcome:
    interp = interpret_constraints(record.constraints, tables.blueprints,
                                   tables.macro_table)
    outcome = partial(Outcome, record.id, record.chapter_code, record.latex,
                      tuple(interp.unmatched), tuple(interp.conflicts))
    try:
        tree = parse(tokenize(record.latex), tables.macro_table)
        rel = to_relation(tree, tables.translation_table)
    except TranslationError as exc:
        return outcome(failure=exc.failure_kind)
    except MathVerifyError:
        return outcome(failure="unsupported_grammar")
    try:
        maple = emit_relation(rel, DIALECT_MAPLE, tables.translation_table)
    except NoDialectMapping:
        maple = None
    sym = num = None
    if options.run_symbolic and rel.kind in (ir.REL_EQ, ir.REL_EQUIV):
        sym = verify_symbolic(rel, interp.domains,
                              replace(options.symbolic, rules=tables.rewrite_rules))
    if options.run_numeric and (sym is None or not sym.verified) \
            and rel.kind != ir.REL_TO:
        num = verify_numeric(rel, interp.domains, interp.specials, options.numeric)
    return outcome(relation=rel.kind, maple=maple, symbolic=sym, numeric=num)


@dataclass
class ChapterReport:
    chapter_code: str
    f2: int = 0
    translated: int = 0
    sym_verified: int = 0
    num_verified: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def chapter_number(self) -> int:
        return CHAPTERS[self.chapter_code][0] if self.chapter_code in CHAPTERS else 0

    def add(self, out: Outcome) -> None:
        """Count one outcome in this row: a translation failure, or else
        translated and then verified by one stage or failed by numeric."""
        self.f2 += 1
        if out.failure is not None:
            self.failures[out.failure] += 1
            return
        self.translated += 1
        if out.symbolic is not None and out.symbolic.verified:
            self.sym_verified += 1
        elif out.numeric is not None and out.numeric.verified:
            self.num_verified += 1
        elif out.numeric is not None:
            self.failures[out.numeric.classification] += 1

    def t_percent(self) -> float:
        return 100.0 * self.translated / self.f2 if self.f2 else 0.0

    def tvs_percent(self) -> float:
        return 100.0 * self.sym_verified / self.f2 if self.f2 else 0.0

    def tvn_percent(self) -> float:
        remaining = self.f2 - self.sym_verified
        return 100.0 * self.num_verified / remaining if remaining else 0.0


@dataclass
class FlaggedCase:
    formula_id: str
    stage: str          # symbolic | numeric | constraint | pipeline
    detail: str
    suspected_reason: str
    worst: Optional[float] = None


@dataclass
class PipelineReport:
    chapters: list[ChapterReport]
    outcomes: list[Outcome]
    totals: ChapterReport


def aggregate(outcomes: Sequence[Outcome]) -> PipelineReport:
    """Deterministic fold of per-formula outcomes into chapter rows and
    the Σ row."""
    outcomes = sorted(outcomes, key=lambda o: o.id)
    by_chapter: dict[str, ChapterReport] = {}
    totals = ChapterReport("Σ")
    for out in outcomes:
        by_chapter.setdefault(out.chapter, ChapterReport(out.chapter)).add(out)
        totals.add(out)
    chapters = sorted(by_chapter.values(), key=lambda c: c.chapter_number)
    return PipelineReport(chapters, outcomes, totals)


# --- flagged cases ---

REASON_INVALID_VALUES = "invalid_values"
REASON_SOURCE_ERROR = "source_error"
REASON_ENGINE_ERROR = "engine_error"

_FLAG_STAGE_ORDER = {"numeric": 0, "symbolic": 1, "constraint": 2, "pipeline": 3}


def list_flagged(report: PipelineReport) -> list[FlaggedCase]:
    """Particularly interesting cases: numeric flags, worst discrepancy
    first, then symbolic flags, then unmatched constraints with stage
    ``constraint``; records whose check raised close the list with stage
    ``pipeline``."""
    flags: list[FlaggedCase] = []
    for out in report.outcomes:
        sym, num = out.symbolic, out.numeric
        if sym is not None and sym.classification == CLASS_OTHER_NUMERIC:
            flags.append(FlaggedCase(
                out.id, "symbolic", f"simplified to {sym.value}", REASON_SOURCE_ERROR,
            ))
        if num is not None and num.classification == CLASS_ABOVE_THRESHOLD:
            reason = REASON_ENGINE_ERROR if num.branch_sensitive else REASON_SOURCE_ERROR
            flags.append(FlaggedCase(
                out.id, "numeric", f"worst discrepancy {num.worst:.6g}", reason,
                worst=num.worst,
            ))
        flags += [FlaggedCase(out.id, "constraint", text, REASON_INVALID_VALUES)
                  for text in out.unmatched_constraints]
        if out.failure == FAILURE_INTERNAL_ERROR:
            flags.append(FlaggedCase(out.id, "pipeline", "internal error; traceback in the log",
                                     REASON_ENGINE_ERROR))
    flags.sort(key=lambda f: (_FLAG_STAGE_ORDER[f.stage], -(f.worst or 0.0)))
    return flags


# --- run ---

def run_pipeline(
    corpus_path: Union[str, Path],
    options: Optional[PipelineOptions] = None,
    tables: Optional[Tables] = None,
    chapter: Optional[str] = None,
) -> PipelineReport:
    options = options or PipelineOptions()
    path = Path(corpus_path)
    if not path.exists():
        raise MissingInputFile(str(path))
    records = read_corpus(path)
    if chapter is not None:
        records = [r for r in records if r.chapter_code == chapter]
    records = scan_second(records)
    tables = tables or Tables(options)
    # Parse the tables the checks read before the first record: a malformed
    # file stops the run here, and forked workers inherit them parsed.  The
    # identity table is read once per process, whatever the tables.
    tables.blueprints
    identities()
    if options.run_symbolic:
        tables.rewrite_rules
    if options.jobs > 1:
        outcomes = _run_parallel(records, tables, options)
    else:
        outcomes = [verify_record(r, tables, options) for r in records]
    return aggregate(outcomes)


def _claim_loop(records: Sequence[FormulaRecord], tables: Tables,
                options: PipelineOptions, counter, conn) -> None:
    """A ``--jobs`` worker: verify each record whose index it claims from ``counter``,
    then send the (index, outcome) pairs, or the exception raised, as one message."""
    done = []
    try:
        while True:
            with counter.get_lock():
                index, counter.value = counter.value, counter.value + 1
            if index >= len(records):
                break
            done.append((index, verify_record(records[index], tables, options)))
    except Exception as exc:
        done = exc
    conn.send(done)


def _run_parallel(records: Sequence[FormulaRecord], tables: Tables,
                  options: PipelineOptions) -> list[Outcome]:
    """Verify ``records`` in ``min(options.jobs, len(records))`` processes
    that run ``_claim_loop`` on the caller's ``tables`` (forked workers
    inherit them, spawned ones unpickle them).  A failed worker's exception,
    or a ``RuntimeError`` with its exit code, is raised once all are joined."""
    ctx = multiprocessing.get_context()
    counter = ctx.Value("i", 0)
    outcomes, pending = [None] * len(records), {}
    try:
        for _ in range(min(options.jobs, len(records))):
            reader, writer = ctx.Pipe(duplex=False)
            pending[reader] = ctx.Process(target=_claim_loop, args=(
                records, tables, options, counter, writer))
            pending[reader].start()
            writer.close()
        while pending:
            ready = multiprocessing.connection.wait(
                [*pending, *(w.sentinel for w in pending.values())])
            for reader in [r for r, w in pending.items() if r in ready or w.sentinel in ready]:
                worker = pending.pop(reader)
                got = None  # a worker that died sends nothing, or its pipe reads EOF
                with suppress(EOFError):
                    got = reader.recv() if reader.poll() else None
                worker.join()
                if not isinstance(got, list):
                    raise got or RuntimeError(f"--jobs worker exited with code {worker.exitcode}")
                for index, outcome in got:
                    outcomes[index] = outcome
    finally:
        for worker in pending.values():
            worker.terminate()
            worker.join()
    return outcomes


# --- rendering ---

FORMAT_TEXT = "text"
FORMAT_CSV = "csv"
FORMAT_STRUCTURED = "structured"


def _pct(value: float) -> str:
    return f"({value:.1f}%)"


def render_report(report: PipelineReport, fmt: str = FORMAT_TEXT) -> bytes:
    if fmt == FORMAT_CSV:
        return _render_csv(report)
    if fmt == FORMAT_TEXT:
        return _render_text(report)
    if fmt == FORMAT_STRUCTURED:
        lines = [o.to_json() for o in report.outcomes]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")


def _row_cells(ch: ChapterReport) -> list[str]:
    number = str(ch.chapter_number) if ch.chapter_code in CHAPTERS else ""
    return [
        ch.chapter_code,
        number,
        str(ch.f2),
        f"{ch.translated} {_pct(ch.t_percent())}",
        f"{ch.sym_verified} {_pct(ch.tvs_percent())}",
        f"{ch.num_verified} {_pct(ch.tvn_percent())}",
    ]


def _render_csv(report: PipelineReport) -> bytes:
    lines = ["2C, C#, F2, T, TVs, TVn"]
    for ch in report.chapters + [report.totals]:
        lines.append(", ".join(_row_cells(ch)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_text(report: PipelineReport) -> bytes:
    headers = ["2C", "C#", "F2", "T", "TVs", "TVn", "failures"]
    rows = []
    for ch in report.chapters + [report.totals]:
        cells = _row_cells(ch)
        failure_text = ", ".join(
            f"{k}={v}" for k, v in sorted(ch.failures.items())
        ) or "-"
        rows.append(cells + [failure_text])
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))]
    out_lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    ]
    out_lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        out_lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return ("\n".join(out_lines) + "\n").encode("utf-8")


# --- settings: config file and command line ---

def _items(text: str) -> list[str]:
    return [v.strip() for v in text.split(",")]


# Setting key -> (PipelineOptions section, field, parser of the config-file
# text).  Section None is PipelineOptions itself; a Path value is a table
# file, relative to the config file's directory.  The command-line flags
# are parsed by argparse and carry the same keys as their destinations.
SETTINGS = {
    "mode": ("symbolic", "mode", str),
    "preprocessors": ("symbolic", "preprocessors",
                      lambda v: tuple(p for p in _items(v) if p)),
    "rewrite_step_budget": ("symbolic", "rewrite_step_budget", int),
    "test_values": ("numeric", "test_values", lambda v: tuple(map(Fraction, _items(v)))),
    "threshold": ("numeric", "threshold", float),
    "precision": ("numeric", "precision_digits", int),
    "timeout_seconds": ("numeric", "timeout_seconds", float),
    "comparison_mode": ("numeric", "comparison_mode", str),
    "jobs": (None, "jobs", int),
    "macro_table": (None, "macro_table", Path),
    "translation_table": (None, "translation_table", Path),
    "blueprints": (None, "blueprints", Path),
    "rewrite_rules": (None, "rewrite_rules", Path),
}


def with_setting(options: PipelineOptions, key: str, value: object) -> PipelineOptions:
    """``options`` with setting ``key`` set to the parsed ``value``.  The
    options and the changed stage config are rebuilt, so their checks run
    here and a rejected value raises ``ValueError``."""
    section, name, _ = SETTINGS[key]
    if section is None:
        return replace(options, **{name: value})
    return replace(options, **{section: replace(getattr(options, section), **{name: value})})


def load_config(path: Union[str, Path]) -> PipelineOptions:
    """Key-value configuration file (``key = value``, '#' comments)."""
    path = Path(path)
    if not path.exists():
        raise MissingInputFile(str(path))
    options = PipelineOptions()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"{path}:{lineno}: expected key = value")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ConfigParseError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            value = SETTINGS[key][2](text.strip())
            if isinstance(value, Path):
                value = str(value if value.is_absolute() else (path.parent / value).resolve())
            options = with_setting(options, key, value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigParseError(f"{path}:{lineno}: {key}: {exc}") from exc
    return options
