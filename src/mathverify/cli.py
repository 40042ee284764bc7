"""Command-line interface for the verification pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .chapters import CHAPTER_CODES
from .emit import DIALECT_GENERIC, DIALECT_MAPLE, emit_relation
from .errors import ConfigParseError, MathVerifyError, NoDialectMapping, TranslationError
from .extraction import (
    ChapterSource,
    load_substitutions_file,
    read_corpus,
    scan_first,
    scan_second,
    write_corpus,
)
from .pipeline import (
    FORMAT_STRUCTURED,
    SETTINGS,
    PipelineOptions,
    Tables,
    list_flagged,
    load_config,
    render_report,
    run_pipeline,
    with_setting,
)
from .constraints import interpret_constraints
from .parser import parse, tokenize
from .translate import to_relation


def _common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", help="corpus file (one JSON record per line)")
    sub.add_argument("--config", help="key-value configuration file")
    sub.add_argument("--blueprints", help="constraint blueprint rule file")
    sub.add_argument("--macro-table", help="semantic macro table file")
    sub.add_argument("--translation-table", help="translation table file")
    sub.add_argument("--rewrite-rules", help="rewrite rule table file")
    sub.add_argument("--chapter", help="restrict to one 2-letter chapter code")
    sub.add_argument("--jobs", type=int, help="parallel verification workers")
    sub.add_argument("--timeout", type=float, dest="timeout_seconds",
                     help="per-formula timeout in seconds")


def _options_from(args: argparse.Namespace) -> PipelineOptions:
    """The config file's options with every given flag whose destination
    is a setting key applied on top."""
    options = load_config(args.config) if args.config else PipelineOptions()
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            try:
                options = with_setting(options, key, value)
            except ValueError as exc:
                raise ConfigParseError(f"command line: {key}: {exc}") from exc
    return options


def _require_corpus(args: argparse.Namespace) -> str:
    if not args.corpus:
        raise SystemExit("error: --corpus is required")
    return args.corpus


def cmd_extract(args: argparse.Namespace) -> int:
    if not args.source or not args.source_chapter:
        raise SystemExit("error: extract needs --source and --source-chapter")
    if args.source_chapter not in CHAPTER_CODES:
        raise SystemExit(f"error: unknown chapter code {args.source_chapter!r}")
    source = ChapterSource.from_file(args.source_chapter, args.source)
    subst = load_substitutions_file(args.substitutions) if args.substitutions else None
    records = scan_first(source, subst)
    if args.stage in ("second", "both"):
        records = scan_second(records, source.preamble_macros)
    if args.output:
        write_corpus(records, args.output)
    else:
        for rec in records:
            sys.stdout.write(rec.to_json() + "\n")
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    options = _options_from(args)
    tables = Tables(options)
    dialect = DIALECT_MAPLE if args.dialect == "maple" else DIALECT_GENERIC
    for record in read_corpus(_require_corpus(args)):
        if args.chapter and record.chapter_code != args.chapter:
            continue
        try:
            rel = to_relation(parse(tokenize(record.latex), tables.macro_table),
                              tables.translation_table)
            text = emit_relation(rel, dialect, tables.translation_table)
            status = "ok"
        except TranslationError as exc:
            text, status = "", exc.failure_kind
        except (MathVerifyError, NoDialectMapping) as exc:
            text, status = "", type(exc).__name__
        sys.stdout.write(json.dumps(
            {"id": record.id, "status": status, "translation": text},
            ensure_ascii=True) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    options = replace(_options_from(args), run_symbolic=args.stages != "numeric",
                      run_numeric=args.stages != "symbolic")
    report = run_pipeline(_require_corpus(args), options, chapter=args.chapter)
    sys.stdout.buffer.write(render_report(report, FORMAT_STRUCTURED))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    options = _options_from(args)
    report = run_pipeline(_require_corpus(args), options, chapter=args.chapter)
    sys.stdout.buffer.write(render_report(report, args.format))
    return 0


def cmd_flags(args: argparse.Namespace) -> int:
    options = _options_from(args)
    report = run_pipeline(_require_corpus(args), options, chapter=args.chapter)
    for flag in list_flagged(report):
        sys.stdout.write(json.dumps({
            "id": flag.formula_id,
            "stage": flag.stage,
            "detail": flag.detail,
            "suspected_reason": flag.suspected_reason,
        }, ensure_ascii=True) + "\n")
    return 0


def cmd_blueprint_check(args: argparse.Namespace) -> int:
    """Report constraints no blueprint or interpreter understands."""
    options = _options_from(args)
    tables = Tables(options)
    gaps = 0
    for record in read_corpus(_require_corpus(args)):
        if args.chapter and record.chapter_code != args.chapter:
            continue
        interp = interpret_constraints(record.constraints, tables.blueprints,
                                       tables.macro_table)
        for text in interp.unmatched:
            gaps += 1
            sys.stdout.write(json.dumps(
                {"id": record.id, "constraint": text}, ensure_ascii=True) + "\n")
    sys.stdout.write(f"# {gaps} unmatched constraint(s)\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathverify",
        description="Extract, translate, and verify semantic LaTeX formulae.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run the extraction scans")
    p_extract.add_argument("--source", help="chapter LaTeX source file")
    p_extract.add_argument("--source-chapter", help="2-letter chapter code")
    p_extract.add_argument("--substitutions", help="entity substitution config")
    p_extract.add_argument("--stage", choices=("first", "second", "both"),
                           default="both")
    p_extract.add_argument("--output", help="write records here instead of stdout")
    p_extract.set_defaults(fn=cmd_extract)

    p_translate = sub.add_parser("translate", help="translate records to CAS syntax")
    _common_options(p_translate)
    p_translate.add_argument("--dialect", choices=("maple", "generic"),
                             default="maple")
    p_translate.set_defaults(fn=cmd_translate)

    p_verify = sub.add_parser("verify", help="verify records, print outcomes")
    _common_options(p_verify)
    # The stages to run; not the ``mode`` setting (difference/quotient/both).
    p_verify.add_argument("--mode", dest="stages", choices=("symbolic", "numeric", "both"),
                          default="both")
    p_verify.set_defaults(fn=cmd_verify)

    p_report = sub.add_parser("report", help="aggregate per-chapter report")
    _common_options(p_report)
    p_report.add_argument("--format", choices=("text", "csv", "structured"),
                          default="text")
    p_report.set_defaults(fn=cmd_report)

    p_flags = sub.add_parser("flags", help="list particularly interesting cases")
    _common_options(p_flags)
    p_flags.set_defaults(fn=cmd_flags)

    p_bp = sub.add_parser("blueprint-check", help="report blueprint gaps")
    _common_options(p_bp)
    p_bp.set_defaults(fn=cmd_blueprint_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MathVerifyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
