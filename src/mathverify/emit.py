"""Expression emission to CAS dialects, plus a generic-infix reader.

MapleSyntax emission produces strings a Maple session can consume
directly, keeping an external cross-check path open even though
verification itself runs on the internal engine.  Maple function names
come only from the translation table's Maple column
(``TranslationTable.by_ir_id``); this module keeps only Maple's argument
conventions (elliptic modulus, Jacobi's degree first, hypergeometric
bracket lists).  GenericInfix is the package's own plain-text dialect;
``parse_infix`` reads it back and round-trips structurally.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from . import ir
from .errors import NoDialectMapping, UnsupportedGrammar
from .ir import (
    Add,
    BigOp,
    Const,
    Derivative,
    Expr,
    FunctionApp,
    Mul,
    Neg,
    Number,
    Pow,
    Var,
)
from .translate import FUNCTION_ARITIES, TranslationTable

DIALECT_MAPLE = "maple"
DIALECT_GENERIC = "generic"

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5

_GENERIC_CONSTANTS = {
    ir.IMAGINARY_UNIT: "I",
    ir.EULER_E: "E",
    ir.PI: "Pi",
    ir.EULER_GAMMA: "EulerGamma",
    ir.INFINITY: "Infinity",
}

_MAPLE_CONSTANTS = {
    ir.IMAGINARY_UNIT: "I",
    ir.EULER_E: "exp(1)",
    ir.PI: "Pi",
    ir.EULER_GAMMA: "gamma",
    ir.INFINITY: "infinity",
}


class _Emitter:
    def __init__(self, dialect: str, table: Optional[TranslationTable]):
        self.dialect = dialect
        self.table = table

    def emit(self, expr: Expr, prec: int = 0) -> str:
        text, my_prec = self._emit(expr)
        if my_prec < prec:
            return f"({text})"
        return text

    def _emit(self, expr: Expr) -> tuple[str, int]:
        if isinstance(expr, Number):
            v = expr.value
            if v.denominator == 1:
                return (str(v.numerator), _PREC_ATOM if v >= 0 else _PREC_UNARY)
            return (f"{v.numerator}/{v.denominator}", _PREC_MUL)
        if isinstance(expr, Const):
            names = _MAPLE_CONSTANTS if self.dialect == DIALECT_MAPLE else _GENERIC_CONSTANTS
            return (names[expr.name], _PREC_ATOM)
        if isinstance(expr, Var):
            return (expr.name, _PREC_ATOM)
        if isinstance(expr, Add):
            parts = [self.emit(expr.terms[0], _PREC_ADD)]
            for t in expr.terms[1:]:
                piece = self.emit(t, _PREC_ADD)
                if piece.startswith("-"):
                    parts.append(f" - {piece[1:]}")
                else:
                    parts.append(f" + {piece}")
            return ("".join(parts), _PREC_ADD)
        if isinstance(expr, Mul):
            return (
                "*".join(self.emit(f, _PREC_MUL + (1 if i else 0))
                         for i, f in enumerate(expr.factors)),
                _PREC_MUL,
            )
        if isinstance(expr, Neg):
            return (f"-{self.emit(expr.operand, _PREC_UNARY + 1)}", _PREC_UNARY)
        if isinstance(expr, Pow):
            base = self.emit(expr.base, _PREC_POW + 1)
            exponent = self.emit(expr.exponent, _PREC_POW + 1)
            return (f"{base}^{exponent}", _PREC_POW)
        if isinstance(expr, FunctionApp):
            return (self._function(expr), _PREC_ATOM)
        if isinstance(expr, Derivative):
            return (self._derivative(expr), _PREC_ATOM)
        if isinstance(expr, BigOp):
            return (self._bigop(expr), _PREC_ATOM)
        raise NoDialectMapping(f"cannot emit {expr!r}")

    def _call(self, name: str, args: Sequence[Expr]) -> str:
        return f"{name}({', '.join(self.emit(a) for a in args)})"

    def _function(self, expr: FunctionApp) -> str:
        func, params, args = expr.func, expr.params, expr.args
        if self.dialect == DIALECT_GENERIC:
            name = func
        else:
            name = self._maple_name(func)
            if func in ("elliptic_k", "elliptic_e"):
                # The IR carries the parameter m; Maple's elliptic functions
                # take the modulus k = sqrt(m).
                m = args[0]
                if isinstance(m, Pow) and m.exponent == ir.num(2):
                    args = (m.base,)
                else:
                    args = (ir.power(m, ir.HALF),)
            elif func == "jacobi_poly":
                # Maple takes the degree first.
                alpha, beta, n = params
                params = (n, alpha, beta)
        if func == "genhyper":
            p = int(params[0].value)  # type: ignore[union-attr]
            q = int(params[1].value)  # type: ignore[union-attr]
            nums = ", ".join(self.emit(a) for a in args[:p])
            dens = ", ".join(self.emit(a) for a in args[p:p + q])
            return f"{name}([{nums}], [{dens}], {self.emit(args[p + q])})"
        return self._call(name, params + args)

    def _maple_name(self, func: str) -> str:
        entry = self.table.by_ir_id(func) if self.table is not None else None
        if entry is None or entry.maple_name is None:
            raise NoDialectMapping(f"{func} has no Maple spelling")
        return entry.maple_name

    def _derivative(self, expr: Derivative) -> str:
        f = self.emit(expr.operand)
        if self.dialect == DIALECT_MAPLE:
            if expr.order == 1:
                return f"diff({f}, {expr.var})"
            return f"diff({f}, {expr.var}${expr.order})"
        if expr.order == 1:
            return f"diff({f}, {expr.var})"
        return f"diff({f}, {expr.var}, {expr.order})"

    def _bigop(self, expr: BigOp) -> str:
        body = self.emit(expr.body)
        lo = self.emit(expr.lo) if expr.lo is not None else ""
        hi = self.emit(expr.hi) if expr.hi is not None else ""
        if self.dialect == DIALECT_MAPLE:
            if expr.kind == ir.OP_SUM:
                return f"sum({body}, {expr.var}={lo}..{hi})"
            if expr.kind == ir.OP_PROD:
                return f"product({body}, {expr.var}={lo}..{hi})"
            if expr.kind == ir.OP_INT:
                return f"int({body}, {expr.var}={lo}..{hi})"
            if expr.kind == ir.OP_LIM:
                return f"limit({body}, {expr.var}={hi})"
            return f"int({body}, {expr.var})"
        if expr.kind == ir.OP_SUM:
            return f"sum({expr.var}, {lo}, {hi}, {body})"
        if expr.kind == ir.OP_PROD:
            return f"prod({expr.var}, {lo}, {hi}, {body})"
        if expr.kind == ir.OP_INT:
            return f"integrate({lo}, {hi}, {expr.var}, {body})"
        if expr.kind == ir.OP_LIM:
            return f"limit({expr.var}, {hi}, {body})"
        return f"antider({expr.var}, {body})"


def emit_cas(expr: Expr, dialect: str,
             table: Optional[TranslationTable] = None) -> str:
    """Serialize an IR expression in the requested dialect."""
    if dialect not in (DIALECT_MAPLE, DIALECT_GENERIC):
        raise ValueError(f"unknown dialect {dialect!r}")
    return _Emitter(dialect, table).emit(expr)


def emit_relation(rel: ir.Relation, dialect: str,
                  table: Optional[TranslationTable] = None) -> str:
    symbol = {
        ir.REL_EQ: "=", ir.REL_LT: "<", ir.REL_GT: ">", ir.REL_NE: "<>",
        ir.REL_LE: "<=", ir.REL_GE: ">=", ir.REL_TO: "->", ir.REL_EQUIV: "=",
    }[rel.kind]
    return f"{emit_cas(rel.lhs, dialect, table)} {symbol} {emit_cas(rel.rhs, dialect, table)}"


# --- generic-infix reader ---

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<num>\d+)|(?P<op>[-+*/^(),\[\]]))"
)

_CONST_BY_NAME = {v: k for k, v in _GENERIC_CONSTANTS.items()}

_BIGOP_HEADS = {"sum", "prod", "integrate", "limit", "antider", "diff"}


class _InfixReader:
    def __init__(self, text: str):
        self.tokens = self._lex(text)
        self.i = 0

    @staticmethod
    def _lex(text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise UnsupportedGrammar(f"cannot lex {text[pos:]!r}")
                break
            tokens.append(m.group(m.lastgroup))
            pos = m.end()
        return tokens

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise UnsupportedGrammar("unexpected end of input")
        if expected is not None and tok != expected:
            raise UnsupportedGrammar(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def expression(self) -> Expr:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            terms.append(t if op == "+" else ir.neg_term(t))
        return ir.add(*terms) if len(terms) > 1 else terms[0]

    def term(self) -> Expr:
        result = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            result = ir.mul(result, rhs) if op == "*" else ir.div(result, rhs)
        return result

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return ir.neg_term(self.factor())
        if self.peek() == "+":
            self.take()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.peek() == "^":
            self.take()
            return ir.power(base, self.factor())
        return base

    def primary(self) -> Expr:
        tok = self.take()
        if tok == "(":
            inner = self.expression()
            self.take(")")
            return inner
        if tok.isdigit():
            return Number(Fraction(int(tok)))
        if not tok[0].isalpha():
            raise UnsupportedGrammar(f"unexpected token {tok!r}")
        if self.peek() == "(":
            return self._call(tok)
        if tok in _CONST_BY_NAME:
            return Const(_CONST_BY_NAME[tok])
        return Var(tok)

    def _bracket_list(self) -> list[Expr]:
        self.take("[")
        items: list[Expr] = []
        if self.peek() != "]":
            items.append(self.expression())
            while self.peek() == ",":
                self.take()
                items.append(self.expression())
        self.take("]")
        return items

    def _call(self, name: str) -> Expr:
        self.take("(")
        if name == "genhyper":
            nums = self._bracket_list()
            self.take(",")
            dens = self._bracket_list()
            self.take(",")
            z = self.expression()
            self.take(")")
            return FunctionApp(
                "genhyper",
                (ir.num(len(nums)), ir.num(len(dens))),
                tuple(nums) + tuple(dens) + (z,),
            )
        args: list[Expr] = []
        if self.peek() != ")":
            args.append(self.expression())
            while self.peek() == ",":
                self.take()
                args.append(self.expression())
        self.take(")")
        if name in _BIGOP_HEADS:
            return self._bigop(name, args)
        arity = FUNCTION_ARITIES.get(name)
        if arity is not None:
            n_params, n_args = arity
            if len(args) != n_params + n_args:
                raise UnsupportedGrammar(f"{name} expects {n_params + n_args} arguments")
            return FunctionApp(name, tuple(args[:n_params]), tuple(args[n_params:]))
        return FunctionApp(name, (), tuple(args))

    def _bigop(self, name: str, args: list[Expr]) -> Expr:
        def var_name(e: Expr) -> str:
            if not isinstance(e, Var):
                raise UnsupportedGrammar(f"{name} binder must be a name")
            return e.name

        if name in ("sum", "prod"):
            kind = ir.OP_SUM if name == "sum" else ir.OP_PROD
            return BigOp(kind, var_name(args[0]), args[1], args[2], args[3])
        if name == "integrate":
            return BigOp(ir.OP_INT, var_name(args[2]), args[0], args[1], args[3])
        if name == "limit":
            return BigOp(ir.OP_LIM, var_name(args[0]), None, args[1], args[2])
        if name == "antider":
            return BigOp(ir.OP_ANTIDER, var_name(args[0]), None, None, args[1])
        if name == "diff":
            order = 1
            if len(args) == 3:
                if not isinstance(args[2], Number) or args[2].value.denominator != 1:
                    raise UnsupportedGrammar("diff order must be an integer")
                order = int(args[2].value)
            return Derivative(args[0], var_name(args[1]), order)
        raise UnsupportedGrammar(f"unknown operator {name!r}")


def parse_infix(text: str) -> Expr:
    """Read a generic-infix expression back into the IR."""
    reader = _InfixReader(text)
    expr = reader.expression()
    if reader.peek() is not None:
        raise UnsupportedGrammar(f"trailing input {reader.tokens[reader.i:]!r}")
    return expr
