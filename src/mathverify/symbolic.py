"""Symbolic verification: rewrite toward zero (difference) or one (quotient).

The simplifier layers bounded identity rewriting (a data-driven rule
table with validity conditions checked against the constraint-derived
assumptions), Bessel order-lattice reduction, and the rational normal
form of :mod:`normform`.  The conditions ask `constraints.sign`, and so
does the normal form's power split: it is the only place where the
domains decide positivity.  Pre-processing conversions - exponential
form, hypergeometric form, expansion, and their combinations - are tried
in configured order; the first conversion under which the difference
normalizes to zero (or, in the quotient and both modes, the quotient to
one) wins and is recorded.  The default mode tries the difference alone:
the normal form splits rational powers canonically, and on the tested
equations the quotient normalizes to one exactly when the difference
normalizes to zero.  The exponential and hypergeometric forms are the
``[exponential]`` and ``[hypergeometric]`` rows of the identity table
``data/identities.rules`` (`identities`), written in semantic LaTeX like
the rewrite rules.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Callable, Optional, Sequence

from . import ir
from .calculus import resolve_derivatives
from .constraints import (
    SIGN_NONNEG,
    SIGN_POSITIVE,
    SIGN_REAL,
    VariableDomain,
    parse_rational,
    sign,
)
from .errors import (
    BudgetExceeded,
    MalformedRule,
    MathVerifyError,
    NonEquationRelation,
    SymbolicError,
)
from .ir import (
    Add,
    Const,
    Derivative,
    Expr,
    FunctionApp,
    Mul,
    Neg,
    Number,
    Pow,
    Relation,
    Var,
    frozen,
)
from .normform import (
    BESSEL_FAMILIES,
    NormContext,
    NormMemo,
    RatForm,
    canon,
    constant_value,
    emit,
    is_one_form,
    is_zero_form,
    norm,
    norm_plain,
)
from .parser import MacroTable, is_placeholder_name, load_macro_table, parse, tokenize
from .translate import TranslationTable, load_translation_table, to_expr

# Preprocessor identifiers.
PRE_NONE = "none"
PRE_EXPONENTIAL = "exponential"
PRE_HYPERGEOMETRIC = "hypergeometric"
PRE_EXPAND = "expand"
PRE_EXPAND_CONVERT = "expand_then_convert"

ALL_PREPROCESSORS = (
    PRE_NONE, PRE_EXPONENTIAL, PRE_HYPERGEOMETRIC, PRE_EXPAND, PRE_EXPAND_CONVERT,
)

MODE_DIFFERENCE = "difference"
MODE_QUOTIENT = "quotient"
MODE_BOTH = "both"

CLASS_ZERO = "zero"
CLASS_ONE = "one"
CLASS_OTHER_NUMERIC = "other_numeric"
CLASS_UNSIMPLIFIED = "unsimplified"
CLASS_ERROR = "error"


@frozen
class RewriteRule:
    pattern: Expr
    replacement: Expr
    # Conditions: (placeholder, kind, value); kind in {ge, gt, ne, real}.
    conditions: tuple[tuple[str, str, Optional[Fraction]], ...]
    source: str


@dataclass
class SimplifyConfig:
    mode: str = MODE_DIFFERENCE
    preprocessors: tuple[str, ...] = ALL_PREPROCESSORS
    rewrite_step_budget: int = 500_000
    assumptions: tuple[VariableDomain, ...] = ()
    rules: tuple[RewriteRule, ...] = ()

    def __post_init__(self):
        if self.mode not in (MODE_DIFFERENCE, MODE_QUOTIENT, MODE_BOTH):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.rewrite_step_budget <= 0:
            raise ValueError("rewrite step budget must be positive")
        if not self.preprocessors:
            raise ValueError("no preprocessor given")
        for p in self.preprocessors:
            if p not in ALL_PREPROCESSORS:
                raise ValueError(f"unknown preprocessor {p!r}")


@dataclass
class SymbolicOutcome:
    classification: str
    value: Optional[Fraction] = None
    winning_preprocessor: Optional[str] = None
    steps_used: int = 0
    error_kind: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.classification in (CLASS_ZERO, CLASS_ONE)


# --- rule table ---

def load_rewrite_rules(
    source: str,
    macro_table: MacroTable,
    translation_table: TranslationTable,
) -> tuple[RewriteRule, ...]:
    """Rules are ``pattern -> replacement`` with an optional
    ``? placeholder condition`` tail, one per line."""
    rules = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise MalformedRule(f"line {lineno}: missing '->'")
        head, _, tail = line.partition("->")
        body, _, cond_text = tail.partition("?")
        try:
            pattern = to_expr(parse(tokenize(head.strip(), placeholders=True),
                                    macro_table), translation_table)
            replacement = to_expr(parse(tokenize(body.strip(), placeholders=True),
                                        macro_table), translation_table)
        except MathVerifyError as exc:
            raise MalformedRule(f"line {lineno}: {exc}") from exc
        bound = {v.name for v in ir.walk(pattern) if _is_placeholder(v)}
        unbound = {v.name for v in ir.walk(replacement) if _is_placeholder(v)} - bound
        if unbound:
            raise MalformedRule(f"line {lineno}: the pattern does not bind "
                                f"{min(unbound)!r}, which the replacement uses")
        try:
            conditions = tuple(_parse_condition(clause, bound) for clause in
                               filter(None, (c.strip() for c in cond_text.split(","))))
        except MalformedRule as exc:
            raise MalformedRule(f"line {lineno}: {exc}") from exc
        rules.append(RewriteRule(pattern, replacement, conditions, line))
    return tuple(rules)


def _parse_condition(clause: str, bound: AbstractSet[str],
                     ) -> tuple[str, str, Optional[Fraction]]:
    """``name real``, or ``name OP value`` with OP one of ``>=``, ``>``,
    ``!=`` and a rational value, on a placeholder in ``bound``."""
    name, *rest = clause.split()
    kinds = {">=": "ge", ">": "gt", "!=": "ne"}
    if rest == ["real"]:
        condition = (name, "real", None)
    elif len(rest) == 2 and rest[0] in kinds:
        condition = (name, kinds[rest[0]], parse_rational(rest[1]))
    else:
        raise MalformedRule(f"bad condition {clause!r}")
    if name not in bound:
        raise MalformedRule(f"condition on {name!r}, which the pattern does not bind")
    return condition


# --- rule conditions ---

# The sign a ``ge``/``gt`` condition needs of ``bound - value``.
_CONDITION_FLOORS = {"ge": SIGN_NONNEG, "gt": SIGN_POSITIVE}


def _condition_holds(
    kind: str, value: Optional[Fraction], bound: Expr,
    domains: Sequence[VariableDomain],
) -> bool:
    """Whether `sign` proves that ``bound`` is real, or that ``bound -
    value`` is nonnegative (ge), positive (gt) or of either strict sign
    (ne)."""
    if kind == "real":
        return sign(bound, domains) >= SIGN_REAL
    above = sign(ir.sub(bound, Number(value)), domains)
    if kind == "ne":
        return above == SIGN_POSITIVE or \
            sign(ir.sub(Number(value), bound), domains) == SIGN_POSITIVE
    return above >= _CONDITION_FLOORS[kind]


# --- pattern matching ---

def _is_placeholder(expr: Expr) -> bool:
    return isinstance(expr, Var) and is_placeholder_name(expr.name)


def match_pattern(pattern: Expr, subject: Expr,
                  binding: dict[str, Expr]) -> bool:
    if _is_placeholder(pattern):
        name = pattern.name  # type: ignore[union-attr]
        if name in binding:
            return binding[name] == subject
        binding[name] = subject
        return True
    if type(pattern) is not type(subject):
        return False
    if isinstance(pattern, (Number, Const, Var)):
        return pattern == subject
    if isinstance(pattern, Neg):
        return match_pattern(pattern.operand, subject.operand, binding)
    if isinstance(pattern, Pow):
        return match_pattern(pattern.base, subject.base, binding) and \
            match_pattern(pattern.exponent, subject.exponent, binding)
    if isinstance(pattern, (Add, Mul)):
        p_children = ir.children(pattern)
        s_children = ir.children(subject)
        if len(p_children) != len(s_children):
            return False
        return _match_commutative(list(p_children), list(s_children), binding)
    if isinstance(pattern, FunctionApp):
        if pattern.func != subject.func or \
                len(pattern.params) != len(subject.params) or \
                len(pattern.args) != len(subject.args):
            return False
        for p, s in zip(pattern.params + pattern.args,
                        subject.params + subject.args):
            if not match_pattern(p, s, binding):
                return False
        return True
    if isinstance(pattern, Derivative):
        return pattern.var == subject.var and pattern.order == subject.order and \
            match_pattern(pattern.operand, subject.operand, binding)
    # A BigOp, the one node type left.
    if pattern.kind != subject.kind or pattern.var != subject.var:
        return False
    for p, s in ((pattern.lo, subject.lo), (pattern.hi, subject.hi)):
        if (p is None) != (s is None):
            return False
        if p is not None and not match_pattern(p, s, binding):
            return False
    return match_pattern(pattern.body, subject.body, binding)


def _match_commutative(pattern_children: list[Expr], subject_children: list[Expr],
                       binding: dict[str, Expr]) -> bool:
    if not pattern_children:
        return not subject_children
    p = pattern_children[0]
    for i, s in enumerate(subject_children):
        trial = dict(binding)
        if match_pattern(p, s, trial):
            rest = subject_children[:i] + subject_children[i + 1:]
            if _match_commutative(pattern_children[1:], rest, trial):
                binding.clear()
                binding.update(trial)
                return True
    return False


# id(rules) -> (rules, index); holding the rules keeps their id unique.
_RULE_INDEXES: dict[int, tuple[Sequence[RewriteRule], dict]] = {}


def _rule_index(rules: Sequence[RewriteRule]) -> dict:
    """Rules by pattern head, each list in table order.  A bare
    placeholder matches any subject, so its rule joins every list and
    (under the key None) the list for heads no pattern has.  Built once
    per rules object, which must not be mutated afterwards."""
    hit = _RULE_INDEXES.get(id(rules))
    if hit is not None and hit[0] is rules:
        return hit[1]
    index: dict = {None: []}
    for rule in rules:
        if not _is_placeholder(rule.pattern):
            index[ir.head(rule.pattern)] = []
    for rule in rules:
        if _is_placeholder(rule.pattern):
            for bucket in index.values():
                bucket.append(rule)
        else:
            index[ir.head(rule.pattern)].append(rule)
    if len(_RULE_INDEXES) >= 16:
        _RULE_INDEXES.clear()
    _RULE_INDEXES[id(rules)] = (rules, index)
    return index


class _Rewriter:
    """Bottom-up rewriting to a fixpoint per node on a candidate's
    context: a rule firing is one `NormContext.tick`, and the conditions
    read the context's domains.  `rewrite` hands back its input itself
    wherever no rule fired in it: a subtree whose `ir.heads` miss every
    pattern head is not even visited, unless a bare placeholder rule,
    which matches any node, is in the table.  ``done`` holds each node
    rewritten so far, in this call or (through the context's `NormMemo`)
    in earlier calls with the same rules and domains, in the form
    `NormContext.reuse` keeps and charges, None where no rule fired.  Not
    an `ir.map_bottom_up` pass: each node is charged through `reuse`, and
    a replacement is walked again until no rule fires."""

    def __init__(self, rules: Sequence[RewriteRule], ctx: NormContext):
        self.index = _rule_index(rules)
        # None when a bare placeholder rule can fire at any node.
        self.pattern_heads = None if self.index[None] else self.index.keys() - {None}
        self.ctx = ctx
        self.done = {} if ctx.memo is None else ctx.memo.rewrites

    def _try_rules(self, expr: Expr) -> Optional[Expr]:
        index, ctx = self.index, self.ctx
        for rule in index.get(ir.head(expr), index[None]):
            binding: dict[str, Expr] = {}
            if not match_pattern(rule.pattern, expr, binding):
                continue
            ok = True
            for name, kind, value in rule.conditions:
                bound = binding.get(name)
                if bound is None or not _condition_holds(kind, value, bound, ctx.domains):
                    ok = False
                    break
            if ok:
                ctx.tick()
                return ir.substitute(rule.replacement, binding)
        return None

    def rewrite(self, expr: Expr) -> Expr:
        if self.pattern_heads is not None \
                and self.pattern_heads.isdisjoint(ir.heads(expr)):
            return expr
        out = self.ctx.reuse(self.done, expr, self._rewrite_node)
        return expr if out is None else out

    def _rewrite_node(self, expr: Expr, ctx: NormContext) -> Optional[Expr]:
        rebuilt = ir.map_children(expr, self.rewrite)
        for _ in range(32):
            replaced = self._try_rules(rebuilt)
            if replaced is None:
                break
            rebuilt = ir.map_children(replaced, self.rewrite)
        return None if rebuilt is expr else rebuilt


def apply_rules(expr: Expr, rules: Sequence[RewriteRule],
                ctx: Optional[NormContext] = None) -> tuple[Expr, int]:
    """``expr`` rewritten by ``rules`` under the domains of ``ctx`` (by
    default a fresh context without domains), and the steps that added to
    it, one per rule firing.  The context's memo shares rewritten
    subtrees with earlier calls on the candidates of the same formula,
    which must pass the same rules."""
    ctx = ctx or NormContext()
    steps = ctx.steps
    out = _Rewriter(rules, ctx).rewrite(expr)
    return out, ctx.steps - steps


# --- expansion and conversion preprocessors ---

def expand(expr: Expr, *, budget: int = 500_000,
           memo: Optional[NormMemo] = None,
           domains: Sequence[VariableDomain] = ()) -> Expr:
    """Distribute products over sums and integer powers of sums; the
    result is a flattened, collected sum in canonical order.  ``domains``
    decide where a power of a product splits; ``memo`` shares normal
    forms as in `simplify`, whose assumptions they must then be."""
    ctx = NormContext(budget=budget, memo=memo, domains=domains)
    return emit(norm_plain(expr, ctx))


@functools.cache
def identities() -> dict[str, dict]:
    """The bundled identity table ``identities.rules``: section name ->
    pattern head -> the section's rows with that head, in table order.
    The rows are read against the bundled macro and translation tables
    once per process, on first use; `pipeline.run_pipeline` reads them
    before it starts workers, so forked ones inherit them."""
    from .pipeline import data_text  # pipeline imports this module
    macros = load_macro_table(data_text("macros.table"))
    translation = load_translation_table(data_text("translation.table"))
    parts = re.split(r"^\[(\w+)\]$", data_text("identities.rules"), flags=re.M)
    return {name: _rule_index(load_rewrite_rules(body, macros, translation))
            for name, body in zip(parts[1::2], parts[2::2])}


def apply_identity(section: str, node: Expr) -> Optional[Expr]:
    """The replacement of the first row of identity-table ``section``
    whose pattern matches ``node``, bound to it; None when no row does."""
    for rule in identities()[section].get(ir.head(node), ()):
        binding: dict[str, Expr] = {}
        if match_pattern(rule.pattern, node, binding):
            return _instantiate(rule.replacement, binding)
    return None


def _instantiate(template: Expr, binding: dict[str, Expr]) -> Expr:
    """``template`` with its placeholders bound: `ir.substitute`, except
    that a negation is rebuilt through `ir.neg_term`, so ``-var1`` bound
    to ``2x`` is the ``-2x`` the translator reads, not ``-(2x)``."""

    def bind(node: Expr) -> Expr:
        if isinstance(node, Var):
            return binding.get(node.name, node)
        if isinstance(node, Neg):
            return ir.neg_term(node.operand)
        return node

    return ir.map_bottom_up(template, {Var}, bind)


def _convert(section: str, expr: Expr) -> Expr:
    """``expr`` with each node that a row of identity-table ``section``
    matches replaced by that row, in one bottom-up pass that charges no
    steps; a replacement is not converted again."""

    def convert(node: Expr) -> Expr:
        out = apply_identity(section, node)
        return node if out is None else out

    return ir.map_bottom_up(expr, identities()[section].keys(), convert)


def to_exponential_form(expr: Expr) -> Expr:
    """Rewrite trigonometric/hyperbolic functions (and reciprocals) in
    terms of powers of e, by the identity table's ``exponential`` rows;
    every other node passes through unchanged."""
    return _convert("exponential", expr)


def to_hypergeometric_form(expr: Expr) -> Expr:
    """Rewrite powers of e and the functions of the identity table's
    ``hypergeometric`` rows into generalized hypergeometric form;
    unmatched nodes pass through unchanged."""
    return _convert("hypergeometric", expr)


# --- Bessel order-lattice reduction ---

def _is_bessel(node: Expr) -> bool:
    return isinstance(node, FunctionApp) and node.func in BESSEL_FAMILIES \
        and len(node.params) == 1 and len(node.args) == 1


def _bessel_nodes(expr: Expr, done: dict[Expr, tuple[Expr, ...]]) -> tuple[Expr, ...]:
    """The Bessel-family nodes of ``expr`` in pre-order (`ir.walk`),
    repeats included; ``done`` holds those of the nodes seen before."""
    if BESSEL_FAMILIES.isdisjoint(ir.heads(expr)):
        return ()
    hit = done.get(expr)
    if hit is not None:
        return hit
    out = (expr,) if _is_bessel(expr) else ()
    for child in ir.children(expr):
        out += _bessel_nodes(child, done)
    done[expr] = out
    return out


def _order_replacements(nodes: Sequence[Expr], ctx: NormContext,
                        ) -> dict[tuple[str, Expr, Expr], Expr]:
    """``(func, canonical order, canonical argument) -> recurrence form``
    for each of ``nodes`` that is two or more integer steps above the
    lowest order of its lattice class.  A class's base order is the first
    one met, so the result depends on the order of ``nodes``."""
    groups: dict[tuple[str, Expr], list[Expr]] = {}
    for node in nodes:
        key = (node.func, canon(node.args[0], ctx))
        order = canon(node.params[0], ctx)
        bucket = groups.setdefault(key, [])
        if order not in bucket:
            bucket.append(order)
    replacements: dict[tuple[str, Expr, Expr], Expr] = {}
    for (func, arg), orders in groups.items():
        classes: list[list[tuple[Expr, int]]] = []
        for order in orders:
            placed = False
            for cls in classes:
                base_order = cls[0][0]
                delta = canon(ir.sub(order, base_order), ctx)
                if isinstance(delta, Number) and delta.value.denominator == 1:
                    cls.append((order, int(delta.value)))
                    placed = True
                    break
            if not placed:
                classes.append([(order, 0)])
        for cls in classes:
            min_off = min(off for _, off in cls)
            members = [(order, off - min_off) for order, off in cls]
            if max(off for _, off in members) < 2:
                continue
            mu = next(order for order, off in members if off == 0)

            memo: dict[int, Expr] = {}

            def member_at(k: int) -> Expr:
                if k in memo:
                    return memo[k]
                order_k = canon(ir.add(mu, ir.num(k)), ctx)
                if k in (0, 1):
                    e: Expr = FunctionApp(func, (order_k,), (arg,))
                else:
                    prev_order = canon(ir.add(mu, ir.num(k - 1)), ctx)
                    ratio = ir.div(ir.mul(ir.num(2), prev_order), arg)
                    f_prev = member_at(k - 1)
                    f_prev2 = member_at(k - 2)
                    if func in ("bessel_j", "bessel_y"):
                        e = ir.sub(ir.mul(ratio, f_prev), f_prev2)
                    elif func == "bessel_i":
                        e = ir.sub(f_prev2, ir.mul(ratio, f_prev))
                    else:  # bessel_k
                        e = ir.add(f_prev2, ir.mul(ratio, f_prev))
                memo[k] = e
                return e

            for order, off in members:
                if off >= 2:
                    replacements[(func, order, arg)] = member_at(off)
    return replacements


def reduce_bessel_orders(expr: Expr, ctx: NormContext) -> Expr:
    """Rewrite Bessel-family terms whose orders differ by integers onto
    the two lowest lattice orders via the three-term recurrences.  A tree
    with no Bessel-family function comes back itself.  The replacements
    depend only on the tree's distinct Bessel nodes in order of first
    occurrence, so the candidates of one formula that hold the same ones
    share them through the context's memo (`NormContext.reuse`)."""
    if BESSEL_FAMILIES.isdisjoint(ir.heads(expr)):
        return expr
    memo = ctx.memo
    nodes = tuple(dict.fromkeys(
        _bessel_nodes(expr, {} if memo is None else memo.bessel_nodes)))
    replacements = ctx.reuse({} if memo is None else memo.computed, nodes,
                             _order_replacements)
    if not replacements:
        return expr

    # A replacement is a DAG with exponentially many paths in its order
    # gap, so each distinct node is walked once.
    done: dict[Expr, Expr] = {}

    def replace(node: Expr) -> Expr:
        """Top-down, so not an `ir.map_bottom_up` pass: a node is looked
        up under the arguments the replacements were keyed by, before the
        reductions inside them rebuild them."""
        if BESSEL_FAMILIES.isdisjoint(ir.heads(node)):
            return node
        out = done.get(node)
        if out is None:
            hit = node
            if _is_bessel(node):
                key = (node.func, canon(node.params[0], ctx), canon(node.args[0], ctx))
                hit = replacements.get(key, node)
            out = done[node] = ir.map_children(hit, replace)
        return out

    return replace(expr)


# --- simplification ---

def _classify(rf: RatForm, target: str, steps: int) -> SymbolicOutcome:
    # A quotient that normalizes to 0 is the constant ratio 0: its
    # numerator vanishes and its denominator does not, so the sides differ.
    if is_zero_form(rf) and target != MODE_QUOTIENT:
        return SymbolicOutcome(CLASS_ZERO, steps_used=steps)
    if target in (MODE_QUOTIENT, MODE_BOTH) and is_one_form(rf):
        return SymbolicOutcome(CLASS_ONE, steps_used=steps)
    value = constant_value(rf)
    if value is not None:
        return SymbolicOutcome(CLASS_OTHER_NUMERIC, value=value, steps_used=steps)
    return SymbolicOutcome(CLASS_UNSIMPLIFIED, steps_used=steps)


def simplify(expr: Expr, config: Optional[SimplifyConfig] = None,
             memo: Optional[NormMemo] = None,
             ) -> tuple[SymbolicOutcome, Optional[RatForm]]:
    """Normalize one expression and classify the result against the
    configured target (0 for differences, 1 for quotients).  The second
    element is the normal form, the `RatForm` that `norm` built (`emit`
    turns it into IR, its terms in order), or None when normalization
    stopped.

    The passes count on one `NormContext`: the rewrite rules may take a
    tenth of ``rewrite_step_budget`` (at least one step), and the Bessel
    pass and `norm` the whole budget after them.  ``steps_used`` is every
    step the candidate took, also when it ran out or raised.

    ``memo`` shares what the passes compute (derivatives resolved, rules
    applied, Bessel orders reduced, normal forms) with earlier calls on
    the candidates of the same formula, under the same assumptions and
    rules; ``steps_used`` counts what a fresh run would, whatever the
    memo reused."""
    config = config or SimplifyConfig()
    budget = config.rewrite_step_budget
    ctx = NormContext(budget=max(1, budget // 10), memo=memo,
                      domains=config.assumptions)
    try:
        e = resolve_derivatives(expr, None if memo is None else memo.derivatives)
        e, _ = apply_rules(e, config.rules, ctx)
        ctx.budget = ctx.steps + budget
        e = reduce_bessel_orders(e, ctx)
        rf = norm(e, ctx)
    except BudgetExceeded:
        return SymbolicOutcome(CLASS_UNSIMPLIFIED, steps_used=ctx.steps), None
    except SymbolicError as exc:
        return (
            SymbolicOutcome(CLASS_ERROR, error_kind=type(exc).__name__,
                            steps_used=ctx.steps),
            None,
        )
    return _classify(rf, config.mode, ctx.steps), rf


def _preprocess_variants(pre: str, lhs: Expr, rhs: Expr,
                         expanded: Callable[[], Optional[tuple[Expr, Expr]]],
                         ) -> list[tuple[Expr, Expr]]:
    """The converted ``(lhs, rhs)`` pairs of one preprocessor, which
    `SimplifyConfig` has checked; ``expanded`` returns both sides
    expanded, or None when expansion failed."""
    if pre == PRE_NONE:
        return [(lhs, rhs)]
    if pre == PRE_EXPONENTIAL:
        return [(to_exponential_form(lhs), to_exponential_form(rhs))]
    if pre == PRE_HYPERGEOMETRIC:
        return [(to_hypergeometric_form(lhs), to_hypergeometric_form(rhs))]
    sides = expanded()
    if sides is None:
        return []
    if pre == PRE_EXPAND:
        return [sides]
    el, er = sides
    return [
        (to_exponential_form(el), to_exponential_form(er)),
        (to_hypergeometric_form(el), to_hypergeometric_form(er)),
    ]


def verify_symbolic(
    rel: Relation,
    domains: Sequence[VariableDomain] = (),
    config: Optional[SimplifyConfig] = None,
) -> SymbolicOutcome:
    """Simplify lhs-rhs (and lhs/rhs when the mode allows) under each
    preprocessor in order; the first zero/one outcome wins.  A candidate
    that an earlier preprocessor already produced is not simplified
    again: ``simplify`` is deterministic, so the repeat could neither win
    nor be more informative than its first occurrence.  The candidates
    and the expansion of both sides share one `NormMemo`, which ends with
    the call, and normalize under the same assumptions."""
    config = config or SimplifyConfig()
    if rel.kind not in (ir.REL_EQ, ir.REL_EQUIV):
        raise NonEquationRelation(
            f"symbolic verification requires an equation, got {rel.kind!r}"
        )
    assumptions = tuple(domains) or config.assumptions
    attempts = []  # (config, candidate builder, winning class)
    if config.mode in (MODE_DIFFERENCE, MODE_BOTH):
        attempts.append((dataclasses.replace(
            config, mode=MODE_DIFFERENCE, assumptions=assumptions), ir.sub, CLASS_ZERO))
    # The quotient form refuses a literal zero side.
    if config.mode in (MODE_QUOTIENT, MODE_BOTH) \
            and rel.lhs != ir.ZERO and rel.rhs != ir.ZERO:
        attempts.append((dataclasses.replace(
            config, mode=MODE_QUOTIENT, assumptions=assumptions), ir.div, CLASS_ONE))

    memo = NormMemo()

    @functools.cache
    def expanded() -> Optional[tuple[Expr, Expr]]:
        try:
            budget = config.rewrite_step_budget
            return (expand(rel.lhs, budget=budget, memo=memo, domains=assumptions),
                    expand(rel.rhs, budget=budget, memo=memo, domains=assumptions))
        except (BudgetExceeded, SymbolicError):
            return None

    tried: set[tuple[str, Expr]] = set()
    best: Optional[SymbolicOutcome] = None
    for pre in config.preprocessors:
        for lhs, rhs in _preprocess_variants(pre, rel.lhs, rel.rhs, expanded):
            for mode_config, build, target in attempts:
                candidate = build(lhs, rhs)
                key = (mode_config.mode, candidate)
                if key in tried:
                    continue
                tried.add(key)
                outcome, _ = simplify(candidate, mode_config, memo)
                if outcome.classification == target:
                    outcome.winning_preprocessor = pre
                    return outcome
                if best is None or _more_informative(outcome, best):
                    best = outcome
    return best if best is not None else SymbolicOutcome(CLASS_UNSIMPLIFIED)


def _more_informative(candidate: SymbolicOutcome, current: SymbolicOutcome) -> bool:
    rank = {CLASS_OTHER_NUMERIC: 2, CLASS_UNSIMPLIFIED: 1, CLASS_ERROR: 0}
    return rank.get(candidate.classification, 0) > rank.get(current.classification, 0)
