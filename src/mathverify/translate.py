"""Parse-tree to IR translation.

Every record lands in exactly one bucket: translated, unknown macro,
insufficient semantics (prime-style derivatives without a differentiation
variable), or unsupported grammar.  The translation table carries the
function-convention metadata (argument rewrites such as squaring an
elliptic modulus into a parameter) that makes the IR interpretation
unambiguous.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import ir
from .errors import (
    InsufficientSemantics,
    MalformedEntry,
    UnknownMacro,
    UnsupportedGrammar,
)
from .ir import (
    BigOp,
    Const,
    Derivative,
    Expr,
    FunctionApp,
    Number,
    Relation,
    Var,
    frozen,
)
from .numeric import NUMERIC_FUNCTIONS
from .parser import (
    COMMA,
    CONTROL_SEQUENCE,
    DIGIT,
    GROUP,
    LEAF,
    MACRO_APP,
    OPERATOR,
    RELATION,
    RELATION_SPELLINGS,
    ROW,
    SUB_SUP,
    ParseNode,
    Token,
    variable_name,
)

_CONST_MEANINGS = {
    "const:imaginary_unit": ir.IMAGINARY_UNIT,
    "const:euler_e": ir.EULER_E,
    "const:pi": ir.PI,
    "const:euler_gamma": ir.EULER_GAMMA,
}

# Every function id the IR may carry: the ones the numeric kernel
# evaluates, and the basic q-hypergeometric, which only parses.
KNOWN_IR_FUNCTIONS = NUMERIC_FUNCTIONS | {"qgenhyper"}

# (param count, arg count) per function id, used to split flattened
# argument lists when reading the generic infix dialect back in.
FUNCTION_ARITIES: dict[str, tuple[int, int]] = {
    "bessel_j": (1, 1), "bessel_y": (1, 1), "bessel_i": (1, 1), "bessel_k": (1, 1),
    "jacobi_poly": (3, 1), "laguerre_poly": (2, 1), "hermite_poly": (1, 1),
    "cheby_t": (1, 1), "cheby_u": (1, 1), "legendre_poly": (1, 1),
}

ARG_REWRITES = ("none", "square", "complement_square")


@frozen
class TranslationEntry:
    meaning_id: str
    ir_id: str
    maple_name: Optional[str]
    numeric_support: bool
    arg_rewrite: str = "none"
    notes: str = ""


class TranslationTable:
    def __init__(self, entries: Sequence[TranslationEntry]):
        self._by_meaning: dict[str, TranslationEntry] = {}
        # The first entry of an IR id wins: elliptic_k has two.
        self._by_ir_id: dict[str, TranslationEntry] = {}
        for e in entries:
            if e.meaning_id in self._by_meaning:
                raise MalformedEntry(f"duplicate translation entry {e.meaning_id!r}")
            if e.ir_id not in KNOWN_IR_FUNCTIONS:
                raise MalformedEntry(f"{e.meaning_id}: unknown ir function {e.ir_id!r}")
            if e.arg_rewrite not in ARG_REWRITES:
                raise MalformedEntry(f"{e.meaning_id}: unknown arg rewrite {e.arg_rewrite!r}")
            self._by_meaning[e.meaning_id] = e
            self._by_ir_id.setdefault(e.ir_id, e)
        numeric_ok = {e.ir_id for e in entries if e.numeric_support}
        missing = numeric_ok - NUMERIC_FUNCTIONS
        if missing:
            raise MalformedEntry(f"numeric support claimed but not implemented: {sorted(missing)}")

    def get(self, meaning_id: str) -> Optional[TranslationEntry]:
        return self._by_meaning.get(meaning_id)

    def by_ir_id(self, ir_id: str) -> Optional[TranslationEntry]:
        return self._by_ir_id.get(ir_id)

    def __iter__(self):
        return iter(self._by_meaning.values())


def load_translation_table(source: str) -> TranslationTable:
    """Columns: meaning id, ir function id, Maple name ('-' for none),
    numeric support (y/n), argument rewrite id ('-' for none), free-text
    convention notes."""
    entries = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parts = line.split(None, 5)
        if len(parts) < 5:
            raise MalformedEntry(f"line {lineno}: expected at least 5 columns")
        meaning, ir_id, maple, numeric, rewrite = parts[:5]
        notes = parts[5] if len(parts) > 5 else ""
        if numeric not in ("y", "n"):
            raise MalformedEntry(f"line {lineno}: numeric flag must be y or n")
        entries.append(
            TranslationEntry(
                meaning_id=meaning,
                ir_id=ir_id,
                maple_name=None if maple == "-" else maple,
                numeric_support=numeric == "y",
                arg_rewrite="none" if rewrite == "-" else rewrite,
                notes=notes,
            )
        )
    return TranslationTable(entries)


def _apply_arg_rewrite(rewrite: str, args: tuple[Expr, ...]) -> tuple[Expr, ...]:
    if rewrite == "square":
        return tuple(ir.power(a, ir.num(2)) for a in args)
    if rewrite == "complement_square":
        return tuple(ir.sub(ir.ONE, ir.power(a, ir.num(2))) for a in args)
    return args


class _Translator:
    def __init__(self, table: TranslationTable):
        self.table = table

    # --- leaves ---

    def leaf(self, token: Token) -> Expr:
        if token.category is DIGIT:
            text = token.text
            return Number(Fraction(text) if "." in text else Fraction(int(text)))
        name = variable_name(token)
        if name is not None:
            return Var(name)
        if token.category is CONTROL_SEQUENCE:
            if token.text == "\\infty":
                return Const(ir.INFINITY)
            raise UnknownMacro(f"no known translation for {token.text!r}")
        if token.text == "'":
            raise InsufficientSemantics(
                "prime-notation derivative without a differentiation variable"
            )
        raise UnsupportedGrammar(f"cannot translate token {token.text!r}")

    # --- rows with infix structure ---

    def row(self, items: Sequence[ParseNode]) -> Expr:
        return self._additive(list(items))

    def _additive(self, items: Sequence[ParseNode]) -> Expr:
        if not items:
            raise UnsupportedGrammar("empty expression")
        terms: list[Expr] = []
        current: list[ParseNode] = []
        sign = 1

        def flush():
            nonlocal current, sign
            if not current:
                raise UnsupportedGrammar("operator without operand")
            term = self._multiplicative(current)
            terms.append(term if sign > 0 else ir.neg_term(term))
            current = []
            sign = 1

        for node in items:
            token = node.token if node.kind is LEAF else None
            if token is not None:
                category, text = token.category, token.text
                if category is OPERATOR or category is RELATION:
                    if text == "+" or text == "-":
                        # A sign ends the term before it, if there is one;
                        # a minus negates the term after it.
                        if current:
                            flush()
                        if text == "-":
                            sign = -sign
                        continue
                    if text == "\\pm" or text == "\\mp":
                        raise UnsupportedGrammar("unresolved plus-minus sign")
                if category is RELATION:
                    raise UnsupportedGrammar("nested relation")
                if category is COMMA:
                    raise UnsupportedGrammar("comma outside an argument list")
            current.append(node)
        flush()
        return ir.add(*terms) if len(terms) > 1 else terms[0]

    def _multiplicative(self, items: Sequence[ParseNode]) -> Expr:
        result: Optional[Expr] = None
        divide_next = False
        for node in items:
            token = node.token if node.kind is LEAF else None
            # `_additive` refuses relation tokens, so only operators are left.
            if token is not None and token.category is OPERATOR:
                text = token.text
                if text in ("*", "\\cdot", "\\times", "\\ast"):
                    continue
                if text == "/" or text == "\\div":
                    if divide_next:
                        raise UnsupportedGrammar("repeated division operator")
                    divide_next = True
                    continue
            factor = self.node(node)
            if result is None:
                result = factor
            elif divide_next:
                result = ir.div(result, factor)
                divide_next = False
            else:
                result = ir.mul(result, factor)
        if result is None or divide_next:
            raise UnsupportedGrammar("dangling operator")
        return result

    # --- structured nodes ---

    def node(self, node: ParseNode) -> Expr:
        if node.kind is LEAF:
            return self.leaf(node.token)
        if node.kind is GROUP or node.kind is ROW:
            return self.row(node.children)
        if node.kind is SUB_SUP:
            return self.sub_sup(node)
        if node.kind is MACRO_APP:
            return self.macro_app(node)
        raise UnsupportedGrammar(f"cannot translate node kind {node.kind}")

    def sub_sup(self, node: ParseNode) -> Expr:
        if node.base is None:
            raise UnsupportedGrammar("script without a base")
        base: Expr
        if node.sub is not None:
            base = self._decorated_variable(node.base, node.sub)
        else:
            base = self.node(node.base)
        if node.sup is not None:
            if self._is_prime(node.sup):
                raise InsufficientSemantics(
                    "prime-notation derivative without a differentiation variable"
                )
            return ir.power(base, self.node(node.sup))
        return base

    @staticmethod
    def _is_prime(node: ParseNode) -> bool:
        return (
            node.kind is LEAF
            and node.token is not None
            and node.token.text == "'"
        )

    def _decorated_variable(self, base: ParseNode, sub: ParseNode) -> Expr:
        # Subscripted symbols are atomic decorated names, not indexing.
        base_expr = self.node(base)
        if not isinstance(base_expr, Var):
            raise UnsupportedGrammar("subscript on a non-symbol")
        text = self._plain_text(sub)
        if text is None:
            raise UnsupportedGrammar("subscript is not a simple decoration")
        return Var(f"{base_expr.name}_{text}")

    def _plain_text(self, node: ParseNode) -> Optional[str]:
        if node.kind is LEAF and node.token is not None:
            if node.token.category is DIGIT:
                return node.token.text
            return variable_name(node.token)
        if node.kind in (GROUP, ROW):
            parts = [self._plain_text(c) for c in node.children]
            if all(p is not None for p in parts):
                return "".join(parts)  # type: ignore[arg-type]
        return None

    def _comma_list(self, node: ParseNode) -> list[Expr]:
        """Split a group on top-level commas; an empty group is an empty list."""
        if node.kind not in (GROUP, ROW):
            return [self.node(node)]
        chunks: list[list[ParseNode]] = [[]]
        for child in node.children:
            if child.kind is LEAF and child.token is not None and \
                    child.token.category is COMMA:
                chunks.append([])
            else:
                chunks[-1].append(child)
        if chunks == [[]]:
            return []
        return [self.row(c) for c in chunks]

    def macro_app(self, node: ParseNode) -> Expr:
        meaning = node.macro or ""
        if meaning in _CONST_MEANINGS:
            return Const(_CONST_MEANINGS[meaning])
        if meaning.startswith("set:"):
            raise UnsupportedGrammar(f"set symbol {node.macro_name} inside a formula")
        if meaning == "latex:frac" or meaning == "latex:ifrac":
            a, b = (self.node(p) for p in node.params)
            return ir.div(a, b)
        if meaning == "latex:sqrt":
            radicand = self.node(node.params[0])
            if node.optional_params:
                index = self.node(node.optional_params[0])
                return ir.power(radicand, ir.div(ir.ONE, index))
            return ir.power(radicand, ir.HALF)
        if meaning == "fn:binomial":
            a, b = (self.node(p) for p in node.params)
            return FunctionApp("binomial", (), (a, b))
        if meaning == "fn:pochhammer":
            a, n = (self.node(p) for p in node.params)
            return FunctionApp("pochhammer", (), (a, n))
        if meaning.startswith("bigop:"):
            return self.big_op(meaning[len("bigop:"):], node)
        if meaning == "fn:wronskian":
            return self.wronskian(node)
        if meaning == "fn:genhyper":
            return self.genhyper(node)
        if meaning == "fn:laguerre":
            degree = self.node(node.params[0])
            order = self.node(node.optional_params[0]) if node.optional_params else ir.ZERO
            return FunctionApp("laguerre_poly", (degree, order), (self.node(node.args[0]),))
        if meaning == "fn:legendre":
            if node.optional_params:
                raise UnsupportedGrammar("Legendre function with nonzero order")
            return FunctionApp(
                "legendre_poly", (self.node(node.params[0]),), (self.node(node.args[0]),)
            )
        if meaning.startswith("fn:"):
            entry = self.table.get(meaning)
            if entry is None:
                raise UnknownMacro(f"no known translation for {node.macro_name!r}")
            params = tuple(self.node(p) for p in node.params)
            args = tuple(self.node(a) for a in node.args)
            args = _apply_arg_rewrite(entry.arg_rewrite, args)
            return FunctionApp(entry.ir_id, params, args)
        raise UnknownMacro(f"no known translation for {node.macro_name!r}")

    def big_op(self, kind: str, node: ParseNode) -> Expr:
        def binder(p: ParseNode) -> str:
            e = self.node(p)
            if not isinstance(e, Var):
                raise UnsupportedGrammar(f"{node.macro_name}: binder must be a variable")
            return e.name

        if kind == "lim":
            var = binder(node.params[0])
            target = self.node(node.params[1])
            return BigOp(ir.OP_LIM, var, None, target, self.node(node.args[0]))
        if kind in ("sum", "prod"):
            var = binder(node.params[0])
            lo = self.node(node.params[1])
            hi = self.node(node.params[2])
            op = ir.OP_SUM if kind == "sum" else ir.OP_PROD
            return BigOp(op, var, lo, hi, self.node(node.args[0]))
        if kind == "int":
            lo = self.node(node.params[0])
            hi = self.node(node.params[1])
            var = binder(node.args[0])
            return BigOp(ir.OP_INT, var, lo, hi, self.node(node.args[1]))
        if kind == "antider":
            var = binder(node.args[0])
            return BigOp(ir.OP_ANTIDER, var, None, None, self.node(node.args[1]))
        raise UnsupportedGrammar(f"unknown big operator {kind!r}")

    def wronskian(self, node: ParseNode) -> Expr:
        var_expr = self.node(node.params[0])
        if not isinstance(var_expr, Var):
            raise UnsupportedGrammar("\\Wron: differentiation variable must be a symbol")
        f = self.node(node.args[0])
        g = self.node(node.args[1])
        v = var_expr.name
        return ir.sub(
            ir.mul(f, Derivative(g, v)),
            ir.mul(Derivative(f, v), g),
        )

    def genhyper(self, node: ParseNode) -> Expr:
        p_expr = self.node(node.params[0])
        q_expr = self.node(node.params[1])
        if not (isinstance(p_expr, Number) and isinstance(q_expr, Number)
                and p_expr.value.denominator == 1 and q_expr.value.denominator == 1
                and 0 <= p_expr.value <= 9 and 0 <= q_expr.value <= 9):
            raise UnsupportedGrammar("generalized hypergeometric with non-literal order")
        p, q = int(p_expr.value), int(q_expr.value)
        numerator = self._comma_list(node.args[0])
        denominator = self._comma_list(node.args[1])
        if len(numerator) != p or len(denominator) != q:
            raise UnsupportedGrammar(
                f"genhyper expects {p} numerator and {q} denominator parameters"
            )
        z = self.node(node.args[2])
        return FunctionApp(
            "genhyper",
            (p_expr, q_expr),
            tuple(numerator) + tuple(denominator) + (z,),
        )


def _split_relation_items(tree: ParseNode) -> tuple[str, list[ParseNode], list[ParseNode]]:
    items = list(tree.children) if tree.kind is ROW else [tree]
    rel_positions = [
        (i, RELATION_SPELLINGS[n.token.text])
        for i, n in enumerate(items)
        if n.kind is LEAF and n.token is not None
        and n.token.text in RELATION_SPELLINGS
    ]
    if not rel_positions:
        raise UnsupportedGrammar("no relation at the top level")
    if len(rel_positions) > 1:
        raise UnsupportedGrammar("unsplit relation chain reached translation")
    idx, kind = rel_positions[0]
    return kind, items[:idx], items[idx + 1:]


def to_relation(tree: ParseNode, table: TranslationTable) -> Relation:
    """Translate a parse tree holding exactly one top-level relation."""
    kind, lhs_items, rhs_items = _split_relation_items(tree)
    tr = _Translator(table)
    return Relation(kind, tr.row(lhs_items), tr.row(rhs_items))


def to_expr(tree: ParseNode, table: TranslationTable) -> Expr:
    """Translate a relation-free parse tree (used for rule files)."""
    items = list(tree.children) if tree.kind is ROW else [tree]
    return _Translator(table).row(items)
