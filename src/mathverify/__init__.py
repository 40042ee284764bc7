"""Batch verification of semantic LaTeX formula corpora.

Pipeline stages: extraction scans over chapter sources, POM-style
parsing, translation to a CAS-neutral IR, constraint interpretation via
blueprints and set notation, symbolic rewrite-to-zero/one verification,
and constraint-aware numerical evaluation, aggregated into per-chapter
reports.
"""

from .chapters import CHAPTERS, CHAPTER_CODES
from .constraints import (
    ConstraintBlueprint,
    SpecialValueAssignment,
    VariableDomain,
    check_domain,
    interpret_constraints,
    interpret_set_notation,
    match_constraint,
    parse_blueprint_rules,
    split_compound_inequality,
)
from .emit import DIALECT_GENERIC, DIALECT_MAPLE, emit_cas, emit_relation, parse_infix
from .extraction import (
    ChapterSource,
    FormulaRecord,
    read_corpus,
    scan_first,
    scan_second,
    split_plus_minus,
    split_relations,
    write_corpus,
)
from .ir import Expr, Relation, free_variables
from .numeric import NumericConfig, NumericOutcome, eval_expr, generate_assignments, verify_numeric
from .parser import (
    MacroTable,
    ParseNode,
    SemanticMacroDef,
    Token,
    TokenCategory,
    load_macro_table,
    parse,
    render,
    tokenize,
)
from .pipeline import (
    ChapterReport,
    Outcome,
    PipelineOptions,
    PipelineReport,
    Tables,
    list_flagged,
    render_report,
    run_pipeline,
)
from .symbolic import (
    SimplifyConfig,
    SymbolicOutcome,
    expand,
    simplify,
    to_exponential_form,
    to_hypergeometric_form,
    verify_symbolic,
)
from .translate import TranslationTable, load_translation_table, to_relation

__version__ = "0.1.0"
