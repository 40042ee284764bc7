"""Constraint interpretation: blueprints, set notation, and domains.

Formula constraints arrive as semantic LaTeX strings.  Three interpreters
run over each one: blueprint matching (token-for-token comparison against
pattern rules with ``var``/``varN`` placeholders, yielding hand-picked
test values), set-notation reading (``n=0,1,2,\\dots`` and ``a,b\\in A``
shapes, yielding variable domains), and compound-inequality splitting
(yielding interval domains).  Constraints that none of the interpreters
understand are reported as blueprint gaps instead of aborting the
verification.  `sign` is the only place where the interpreted domains
decide whether an expression is real, nonnegative or positive: the
rewrite rules' conditions and the normal form's power split both ask it.
What a token is (a relation and its kind, a variable, a placeholder) and
how tokens join back into text are the parser's lexicon decisions; this
module reads them from `parser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import ir
from .errors import (
    ConstraintError,
    InconsistentProgression,
    MalformedRule,
    MathVerifyError,
    PlaceholderValueCountMismatch,
    UnknownSetSymbol,
)
from .ir import Add, Const, Expr, FunctionApp, Mul, Neg, Number, Pow, Var, frozen
from .parser import (
    COMMA,
    DIGIT,
    RELATION_SPELLINGS,
    MacroTable,
    ParseNode,
    Token,
    flatten_tokens,
    is_placeholder_name,
    join_token_texts,
    parse,
    tokenize,
    variable_name,
)

_EMPTY_TABLE = MacroTable(())

SET_SYMBOLS = {
    "\\Real": "real",
    "\\Complex": "complex",
    "\\Integer": "integer",
    "\\Rational": "rational",
    "\\NatNumber": "natural",
}

BASE_INTEGER = "integer"
BASE_RATIONAL = "rational"
BASE_REAL = "real"
BASE_COMPLEX = "complex"

_DOTS = {"\\dots", "\\ldots", "\\cdots"}

# The relation kind that holds with the sides swapped, per inequality kind.
_CONVERSE = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le", "ne": "ne"}

_INEQUALITY_TEXTS = frozenset(
    text for text, kind in RELATION_SPELLINGS.items() if kind in _CONVERSE
)

# Each inequality spelling with its sides swapped, in the same style:
# < and >, \le and \ge, \leq and \geq; \ne and \neq are symmetric.
_FLIP = {text: text.translate(str.maketrans("<>lg", "><gl")) for text in _INEQUALITY_TEXTS}


@frozen
class VariableDomain:
    var: str
    base_set: str = BASE_REAL
    # (lower, lower_strict, upper, upper_strict); None bound = unbounded.
    interval: Optional[tuple[Optional[Fraction], bool, Optional[Fraction], bool]] = None
    # (start, step, end); end None = unbounded progression.
    progression: Optional[tuple[Fraction, Fraction, Optional[Fraction]]] = None
    finite_set: Optional[tuple[Fraction, ...]] = None
    exclusions: tuple[Fraction, ...] = ()

    def __post_init__(self):
        populated = sum(
            x is not None for x in (self.interval, self.progression, self.finite_set)
        )
        if populated > 1:
            raise MathVerifyError("domain may carry at most one shape")
        if self.progression is not None and self.progression[1] == 0:
            raise MathVerifyError("progression step must be nonzero")


@frozen
class SpecialValueAssignment:
    # (variable, value) pairs sorted by variable, one per variable.
    assignments: tuple[tuple[str, Fraction], ...]
    source_blueprint: str


@frozen
class ConstraintBlueprint:
    pattern_tokens: tuple[Token, ...]
    placeholders: tuple[str, ...]
    values: tuple[Fraction, ...]
    source: str

    def __post_init__(self):
        if not self.placeholders:
            raise MalformedRule(f"no placeholder in blueprint {self.source!r}")
        if len(self.placeholders) != len(self.values):
            raise PlaceholderValueCountMismatch(
                f"{self.source!r}: {len(self.placeholders)} placeholder(s), "
                f"{len(self.values)} value(s)"
            )


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedRule(f"not a rational number: {text!r}") from exc


def parse_blueprint_rules(
    rule_text: str, table: Optional[MacroTable] = None
) -> list[ConstraintBlueprint]:
    """Parse ``pattern ==> values`` rules, one per line, '#' comments allowed."""
    table = table or _EMPTY_TABLE
    blueprints = []
    for lineno, raw in enumerate(rule_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.count("==>") != 1:
            raise MalformedRule(f"line {lineno}: expected exactly one '==>'")
        left, right = (s.strip() for s in line.split("==>"))
        try:
            flat = tuple(flatten_tokens(parse(tokenize(left, placeholders=True), table)))
        except MathVerifyError as exc:
            raise MalformedRule(f"line {lineno}: {exc}") from exc
        placeholders: list[str] = []
        for t in flat:
            if is_placeholder_name(t.text) and t.text not in placeholders:
                placeholders.append(t.text)
        values = tuple(parse_rational(v.strip()) for v in right.split(","))
        blueprints.append(
            ConstraintBlueprint(flat, tuple(placeholders), values, line)
        )
    return blueprints


def match_constraint(
    constraint: ParseNode, blueprints: Sequence[ConstraintBlueprint]
) -> Optional[SpecialValueAssignment]:
    """First blueprint (rule-file order) whose token count, ordering, and
    categories all match; placeholders bind variable-like tokens, every
    other token must match exactly."""
    ctokens = flatten_tokens(constraint)
    for bp in blueprints:
        if len(bp.pattern_tokens) != len(ctokens):
            continue
        binding: dict[str, str] = {}
        ok = True
        for p, c in zip(bp.pattern_tokens, ctokens):
            if is_placeholder_name(p.text):
                name = variable_name(c)
                if name is None:
                    ok = False
                    break
                if p.text in binding and binding[p.text] != name:
                    ok = False
                    break
                binding[p.text] = name
            else:
                if p.category is not c.category or p.text != c.text:
                    ok = False
                    break
        if not ok:
            continue
        assignments = {
            binding[ph]: value for ph, value in zip(bp.placeholders, bp.values)
        }
        return SpecialValueAssignment(tuple(sorted(assignments.items())), bp.source)
    return None


# --- set notation ---

def _split_on(tokens: Sequence[Token], text: str) -> Optional[tuple[list[Token], list[Token]]]:
    for i, t in enumerate(tokens):
        if t.text == text:
            return list(tokens[:i]), list(tokens[i + 1:])
    return None


def _split_commas(tokens: Sequence[Token]) -> list[list[Token]]:
    chunks: list[list[Token]] = [[]]
    for t in tokens:
        if t.category is COMMA:
            chunks.append([])
        else:
            chunks[-1].append(t)
    return chunks


def _parse_var_list(tokens: Sequence[Token]) -> list[tuple[Fraction, str]]:
    """Left side of a set constraint: comma-separated variables, each with
    an optional rational coefficient (``2\\nu`` constrains nu via 2*nu)."""
    out = []
    for chunk in _split_commas(tokens):
        if not chunk:
            raise ConstraintError("empty variable in list")
        coefficient = Fraction(1)
        rest = chunk
        if len(chunk) >= 2 and chunk[0].category is DIGIT:
            coefficient = parse_rational(chunk[0].text)
            rest = chunk[1:]
        if len(rest) != 1:
            raise ConstraintError("variable list entry is not a simple symbol")
        name = variable_name(rest[0])
        if name is None:
            raise ConstraintError(f"not a variable token: {rest[0].text!r}")
        if coefficient == 0:
            raise ConstraintError("zero coefficient on a constrained variable")
        out.append((coefficient, name))
    return out


def _parse_value_element(tokens: Sequence[Token]) -> Union[Fraction, str, None]:
    """A value-list element: a signed rational, a dots marker, or a
    symbolic endpoint name.  Anything else raises."""
    if not tokens:
        raise ConstraintError("empty element in value list")
    if len(tokens) == 1 and tokens[0].text in _DOTS:
        return None  # dots marker
    value = _literal_value(tokens)
    if value is not None:
        return value
    sign, rest = _split_sign(tokens)
    if sign == 1 and len(rest) == 1:
        name = variable_name(rest[0])
        if name is not None:
            return name  # symbolic endpoint such as N
    raise ConstraintError(
        "value-list element is not a signed rational: "
        + " ".join(t.text for t in tokens)
    )


def _value_list_domain(
    tokens: Sequence[Token],
) -> tuple[Optional[tuple[Fraction, Fraction, Optional[Fraction]]], Optional[tuple[Fraction, ...]]]:
    """Interpret ``0,1,2,\\dots`` style lists: (progression, finite_set)."""
    chunks = _split_commas(tokens)
    elements = [_parse_value_element(c) for c in chunks]
    if not elements:
        raise ConstraintError("empty value list")
    dots_positions = [i for i, e in enumerate(elements) if e is None]
    if not dots_positions:
        if not all(isinstance(e, Fraction) for e in elements):
            raise ConstraintError("finite value list with a non-numeric member")
        return None, tuple(elements)  # type: ignore[arg-type]
    if len(dots_positions) > 1:
        raise ConstraintError("more than one dots marker")
    di = dots_positions[0]
    head = elements[:di]
    tail = elements[di + 1:]
    if len(head) < 2:
        raise InconsistentProgression(
            "progression needs at least two explicit terms before the dots"
        )
    if not all(isinstance(e, Fraction) for e in head):
        raise ConstraintError("non-numeric term before the dots")
    head_f = [e for e in head]  # type: list[Fraction]
    step = head_f[1] - head_f[0]
    if step == 0:
        raise InconsistentProgression("zero step")
    for i, term in enumerate(head_f):
        if term != head_f[0] + i * step:
            raise InconsistentProgression(
                f"terms {head_f} are not an arithmetic progression"
            )
    end: Optional[Fraction] = None
    if tail:
        if len(tail) != 1:
            raise ConstraintError("unexpected members after the dots")
        if isinstance(tail[0], Fraction):
            end = tail[0]
        # A symbolic endpoint (e.g. N) stays open-ended.
    return (head_f[0], step, end), None


def interpret_set_notation(constraint: ParseNode) -> list[VariableDomain]:
    """Interpret ``vars = value-list`` and ``vars \\in set`` constraints.

    Every listed variable receives the same domain; an optional integer
    coefficient on the left rescales the listed values.
    """
    tokens = flatten_tokens(constraint)
    in_split = _split_on(tokens, "\\in")
    if in_split is not None:
        lhs, rhs = in_split
        variables = _parse_var_list(lhs)
        if len(rhs) != 1:
            raise ConstraintError("set expression is not a single symbol")
        sym = rhs[0].text
        if sym not in SET_SYMBOLS:
            raise UnknownSetSymbol(sym)
        base = SET_SYMBOLS[sym]
        out = []
        for coefficient, name in variables:
            if coefficient != 1:
                raise ConstraintError("coefficient on a set-membership variable")
            if base == "natural":
                out.append(VariableDomain(
                    name, BASE_INTEGER,
                    interval=(Fraction(0), False, None, False),
                ))
            else:
                out.append(VariableDomain(name, base))
        return out
    eq_split = _split_on(tokens, "=")
    if eq_split is not None:
        lhs, rhs = eq_split
        variables = _parse_var_list(lhs)
        progression, finite = _value_list_domain(rhs)
        out = []
        for coefficient, name in variables:
            if progression is not None:
                start, step, end = progression
                scaled = (start / coefficient, step / coefficient,
                          None if end is None else end / coefficient)
                values_integral = all(
                    v.denominator == 1 for v in (scaled[0], scaled[1])
                )
                out.append(VariableDomain(
                    name,
                    BASE_INTEGER if values_integral else BASE_RATIONAL,
                    progression=scaled,
                ))
            else:
                scaled_set = tuple(v / coefficient for v in finite)
                values_integral = all(v.denominator == 1 for v in scaled_set)
                out.append(VariableDomain(
                    name,
                    BASE_INTEGER if values_integral else BASE_RATIONAL,
                    finite_set=scaled_set,
                ))
        return out
    raise ConstraintError("not a set-notation constraint")


# --- compound inequalities ---

def split_compound_inequality(constraint: ParseNode) -> list[str]:
    """``0 < x < 1`` becomes the atomic constraints ``x > 0`` and
    ``x < 1``; an n-relation chain yields n adjacent-pair atoms."""
    tokens = flatten_tokens(constraint)
    rel_idx = [i for i, t in enumerate(tokens) if t.text in _INEQUALITY_TEXTS]
    if not rel_idx:
        raise ConstraintError("no inequality relation in constraint")
    segments: list[list[Token]] = []
    prev = 0
    for i in rel_idx:
        segments.append(list(tokens[prev:i]))
        prev = i + 1
    segments.append(list(tokens[prev:]))
    if any(not s for s in segments):
        raise ConstraintError("inequality with a missing side")
    atoms = []
    for k, i in enumerate(rel_idx):
        left, right = segments[k], segments[k + 1]
        rel = tokens[i].text
        if _is_literal_number(left) and not _is_literal_number(right):
            left, right = right, left
            rel = _FLIP[rel]
        atoms.append(f"{join_token_texts(t.text for t in left)} {rel} "
                     f"{join_token_texts(t.text for t in right)}")
    return atoms


def _split_sign(tokens: Sequence[Token]) -> tuple[int, Sequence[Token]]:
    """-1 or 1, and the tokens after an optional leading + or - sign."""
    if tokens and tokens[0].text in ("+", "-"):
        return (-1 if tokens[0].text == "-" else 1), tokens[1:]
    return 1, tokens


def _is_literal_number(tokens: Sequence[Token]) -> bool:
    _, body = _split_sign(tokens)
    return len(body) == 1 and body[0].category is DIGIT


def _literal_value(tokens: Sequence[Token]) -> Optional[Fraction]:
    """The signed rational ``N`` or ``N/M`` the tokens spell after an
    optional leading + or -; None for anything else, ``N/0`` included."""
    sign, body = _split_sign(tokens)
    if len(body) == 1 and body[0].category is DIGIT:
        return sign * parse_rational(body[0].text)
    if len(body) == 3 and body[0].category is DIGIT and \
            body[1].text == "/" and body[2].category is DIGIT:
        denominator = parse_rational(body[2].text)
        if denominator:
            return sign * parse_rational(body[0].text) / denominator
    return None


def domain_from_atomic(atomic: str) -> Optional[VariableDomain]:
    """Interval or exclusion domain from one atomic inequality, when one
    side is a bare variable and the other a rational literal."""
    try:
        tokens = tokenize(atomic)
    except MathVerifyError:
        return None
    rel_idx = [i for i, t in enumerate(tokens) if t.text in _INEQUALITY_TEXTS]
    if len(rel_idx) != 1:
        return None
    i = rel_idx[0]
    left, right = tokens[:i], tokens[i + 1:]
    kind = RELATION_SPELLINGS[tokens[i].text]
    var = variable_name(left[0]) if len(left) == 1 else None
    value = _literal_value(right)
    if var is None or value is None:
        var = variable_name(right[0]) if len(right) == 1 else None
        value = _literal_value(left)
        if var is None or value is None:
            return None
        kind = _CONVERSE[kind]
    if kind == "ne":
        return VariableDomain(var, BASE_COMPLEX, exclusions=(value,))
    if kind in ("lt", "le"):
        return VariableDomain(var, BASE_REAL, interval=(None, False, value, kind == "lt"))
    return VariableDomain(var, BASE_REAL, interval=(value, kind == "gt", None, False))


# --- domain checking ---

def _accepts(domain: VariableDomain, value) -> bool:
    if isinstance(value, complex):
        if value.imag != 0:
            # Exclusions and shapes are real: a non-real value never
            # meets an exclusion and lies in no shape.
            return domain.base_set == BASE_COMPLEX and domain.interval is None \
                and domain.progression is None and domain.finite_set is None
        value = Fraction(value.real)
    value = Fraction(value)
    if value in domain.exclusions:
        return False
    if domain.base_set == BASE_INTEGER and value.denominator != 1:
        return False
    if domain.interval is not None:
        lower, lstrict, upper, ustrict = domain.interval
        if lower is not None and (value < lower or (lstrict and value == lower)):
            return False
        if upper is not None and (value > upper or (ustrict and value == upper)):
            return False
    if domain.progression is not None:
        start, step, end = domain.progression
        k = (value - start) / step
        if k.denominator != 1 or k < 0:
            return False
        if end is not None:
            if step > 0 and value > end:
                return False
            if step < 0 and value < end:
                return False
    if domain.finite_set is not None and value not in domain.finite_set:
        return False
    return True


def check_domain(domains: Sequence[VariableDomain], assignment: dict) -> bool:
    """True iff every assigned variable satisfies every domain naming it;
    variables without domains are unconstrained."""
    for name, value in assignment.items():
        for d in domains:
            if d.var == name and not _accepts(d, value):
                return False
    return True


# --- sign analysis ---

# What the domains prove about an expression, weakest first; each
# constant implies the ones before it.
SIGN_UNKNOWN, SIGN_REAL, SIGN_NONNEG, SIGN_POSITIVE = range(4)

_POSITIVE_CONSTANTS = frozenset({ir.EULER_E, ir.PI, ir.EULER_GAMMA})
# Functions that are real at real arguments.
_REAL_ON_REALS = frozenset({"sin", "cos", "sinh", "cosh", "tanh", "erf", "arctan"})


def _domain_sign(domain: VariableDomain) -> int:
    """What one domain proves about its variable, from its least value
    where it has one."""
    least, strict = None, False
    if domain.interval is not None:
        least, strict = domain.interval[:2]
    elif domain.progression is not None and domain.progression[1] > 0:
        least = domain.progression[0]
    elif domain.finite_set is not None:
        least = min(domain.finite_set, default=None)
    if least is not None and least >= 0:
        return SIGN_POSITIVE if least > 0 or strict else SIGN_NONNEG
    return SIGN_UNKNOWN if domain.base_set == BASE_COMPLEX else SIGN_REAL


def sign(expr: Expr, domains: Sequence[VariableDomain]) -> int:
    """The strongest ``SIGN_*`` fact the domains prove about ``expr`` on
    principal branches.  A variable gets the strongest fact of any domain
    naming it.  A power b^e is nonnegative or positive only when e is
    provably real (or an integer), so 5^i counts for nothing."""
    if isinstance(expr, Number):
        value = expr.value
        return SIGN_POSITIVE if value > 0 else SIGN_NONNEG if value == 0 else SIGN_REAL
    if isinstance(expr, Const):
        if expr.name in _POSITIVE_CONSTANTS:
            return SIGN_POSITIVE
        return SIGN_NONNEG if expr.name == ir.INFINITY else SIGN_UNKNOWN
    if isinstance(expr, Var):
        return max((_domain_sign(d) for d in domains if d.var == expr.name),
                   default=SIGN_UNKNOWN)
    if isinstance(expr, Neg):
        return min(sign(expr.operand, domains), SIGN_REAL)
    if isinstance(expr, Mul):
        return min(sign(f, domains) for f in expr.factors)
    if isinstance(expr, Add):
        signs = [sign(t, domains) for t in expr.terms]
        lowest = min(signs)
        # A sum of nonnegative terms is positive when one term is.
        return max(signs) if lowest == SIGN_NONNEG else lowest
    if isinstance(expr, Pow):
        base = sign(expr.base, domains)
        exponent = expr.exponent
        if isinstance(exponent, Number) and exponent.value.denominator == 1:
            if base == SIGN_REAL and exponent.value % 2 == 0:
                return SIGN_NONNEG
            return base
        if base >= SIGN_NONNEG and sign(exponent, domains) >= SIGN_REAL:
            return base
        return SIGN_UNKNOWN
    if isinstance(expr, FunctionApp) and expr.func in _REAL_ON_REALS \
            and not expr.params \
            and all(sign(a, domains) >= SIGN_REAL for a in expr.args):
        return SIGN_REAL
    return SIGN_UNKNOWN


# --- pipeline driver ---

@dataclass
class ConstraintInterpretation:
    domains: list[VariableDomain] = field(default_factory=list)
    specials: Optional[SpecialValueAssignment] = None
    unmatched: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)


def interpret_constraints(
    constraint_strings: Sequence[str],
    blueprints: Sequence[ConstraintBlueprint],
    table: Optional[MacroTable] = None,
) -> ConstraintInterpretation:
    """Run every interpreter over each constraint string and pool results.

    A constraint is handled when a blueprint matches, set notation reads
    cleanly, or at least one atomic inequality yields a domain; the rest
    land in the blueprint-gap list.
    """
    table = table or _EMPTY_TABLE
    result = ConstraintInterpretation()
    special_values: dict[str, Fraction] = {}
    sources: list[str] = []
    for text in constraint_strings:
        handled = False
        try:
            tree = parse(tokenize(text), table)
        except MathVerifyError:
            result.unmatched.append(text)
            continue
        matched = match_constraint(tree, blueprints)
        if matched is not None:
            special_values.update(matched.assignments)
            sources.append(matched.source_blueprint)
            handled = True
        try:
            result.domains.extend(interpret_set_notation(tree))
            handled = True
        except ConstraintError:
            pass
        try:
            atoms = split_compound_inequality(tree)
        except ConstraintError:
            atoms = []
        for atom in atoms:
            domain = domain_from_atomic(atom)
            if domain is not None:
                result.domains.append(domain)
                handled = True
        if not handled:
            result.unmatched.append(text)
    if special_values:
        # A blueprint value that its own domains reject is logged, and the
        # blueprint value wins.
        for name, value in special_values.items():
            named = [d for d in result.domains if d.var == name]
            if named and not check_domain(named, {name: value}):
                result.conflicts.append(
                    f"{name}={value} conflicts with interpreted domain"
                )
        result.specials = SpecialValueAssignment(tuple(sorted(special_values.items())),
                                                 ";".join(sources))
    return result
