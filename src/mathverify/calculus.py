"""Symbolic differentiation over the IR.

Used to resolve explicit Derivative nodes (the Wronskian macro's
expansion) into derivative-free expressions before evaluation or
simplification.  Functions without a differentiation rule leave the
Derivative node in place; callers decide how to degrade.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import ir
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
    free_variables,
)


_MINUS_HALF = Number(Fraction(-1, 2))


def _dfn(func: str, u: Expr) -> Optional[Expr]:
    """Derivative of f(u) with respect to u, for single-argument kernels."""
    f = lambda name: FunctionApp(name, (), (u,))
    if func == "sin":
        return f("cos")
    if func == "cos":
        return ir.neg_term(f("sin"))
    if func == "tan":
        return ir.power(f("sec"), ir.num(2))
    if func == "sec":
        return ir.mul(f("sec"), f("tan"))
    if func == "csc":
        return ir.mul(ir.MINUS_ONE, f("csc"), f("cot"))
    if func == "cot":
        return ir.neg_term(ir.power(f("csc"), ir.num(2)))
    if func == "sinh":
        return f("cosh")
    if func == "cosh":
        return f("sinh")
    if func == "tanh":
        return ir.power(f("sech"), ir.num(2))
    if func == "sech":
        return ir.mul(ir.MINUS_ONE, f("sech"), f("tanh"))
    if func == "csch":
        return ir.mul(ir.MINUS_ONE, f("csch"), f("coth"))
    if func == "coth":
        return ir.neg_term(ir.power(f("csch"), ir.num(2)))
    if func == "ln":
        return ir.div(ir.ONE, u)
    if func == "arcsin":
        return ir.power(ir.sub(ir.ONE, ir.power(u, ir.num(2))), _MINUS_HALF)
    if func == "arctan":
        return ir.div(ir.ONE, ir.add(ir.ONE, ir.power(u, ir.num(2))))
    if func == "erf":
        return ir.mul(
            ir.num(2),
            ir.power(Const(ir.PI), _MINUS_HALF),
            ir.power(Const(ir.EULER_E), ir.neg_term(ir.power(u, ir.num(2)))),
        )
    if func == "erfc":
        return ir.mul(
            ir.num(-2),
            ir.power(Const(ir.PI), _MINUS_HALF),
            ir.power(Const(ir.EULER_E), ir.neg_term(ir.power(u, ir.num(2)))),
        )
    return None


# Bessel-family derivatives in terms of adjacent orders.
_BESSEL_SIGNS = {
    "bessel_j": (1, -1, ir.HALF.value),
    "bessel_y": (1, -1, ir.HALF.value),
    "bessel_i": (1, 1, ir.HALF.value),
    "bessel_k": (-1, -1, ir.HALF.value),
}


def differentiate(expr: Expr, var: str) -> Optional[Expr]:
    """d(expr)/d(var), or None when no rule applies."""
    if isinstance(expr, Var):
        return ir.ONE if expr.name == var else ir.ZERO
    if isinstance(expr, (Number, Const)):
        return ir.ZERO
    if isinstance(expr, Neg):
        d = differentiate(expr.operand, var)
        return None if d is None else ir.neg_term(d)
    if isinstance(expr, Add):
        parts = [differentiate(t, var) for t in expr.terms]
        if any(p is None for p in parts):
            return None
        return ir.add(*parts)  # type: ignore[arg-type]
    if isinstance(expr, Mul):
        terms = []
        for i, f in enumerate(expr.factors):
            d = differentiate(f, var)
            if d is None:
                return None
            if d == ir.ZERO:
                continue
            rest = [g for j, g in enumerate(expr.factors) if j != i]
            terms.append(ir.mul(d, *rest))
        return ir.add(*terms) if terms else ir.ZERO
    if isinstance(expr, Pow):
        base, exponent = expr.base, expr.exponent
        db = differentiate(base, var)
        if db is None:
            return None
        if var not in free_variables(exponent):
            if db == ir.ZERO:
                return ir.ZERO
            return ir.mul(exponent, ir.power(base, ir.sub(exponent, ir.ONE)), db)
        de = differentiate(exponent, var)
        if de is None:
            return None
        if base == Const(ir.EULER_E):
            return ir.mul(expr, de)
        # b^e * (e' ln b + e b'/b)
        return ir.mul(
            expr,
            ir.add(ir.mul(de, FunctionApp("ln", (), (base,))),
                   ir.mul(exponent, ir.div(db, base))),
        )
    if isinstance(expr, FunctionApp):
        if expr.func in _BESSEL_SIGNS and len(expr.args) == 1:
            order = expr.params[0]
            if var in free_variables(order):
                return None
            dz = differentiate(expr.args[0], var)
            if dz is None:
                return None
            s_lo, s_hi, half = _BESSEL_SIGNS[expr.func]
            z = expr.args[0]
            lower = FunctionApp(expr.func, (ir.sub(order, ir.ONE),), (z,))
            upper = FunctionApp(expr.func, (ir.add(order, ir.ONE),), (z,))
            inner = ir.add(ir.mul(ir.num(s_lo), lower), ir.mul(ir.num(s_hi), upper))
            return ir.mul(Number(half), inner, dz)
        if len(expr.args) == 1 and not expr.params:
            u = expr.args[0]
            du = differentiate(u, var)
            if du is None:
                return None
            if du == ir.ZERO:
                return ir.ZERO
            outer = _dfn(expr.func, u)
            if outer is None:
                return None
            return ir.mul(outer, du)
        if not any(var in free_variables(a) for a in expr.params + expr.args):
            return ir.ZERO
        return None
    if isinstance(expr, Derivative):
        inner = resolve_derivatives(expr)
        if isinstance(inner, Derivative):
            return None
        return differentiate(inner, var)
    if isinstance(expr, BigOp):
        if var not in free_variables(expr):
            return ir.ZERO
        return None
    return None


def resolve_derivatives(expr: Expr, done: Optional[dict[Expr, Expr]] = None) -> Expr:
    """Replace Derivative nodes with explicit derivatives where rules
    exist; unresolved nodes stay in the tree.  A tree with no Derivative
    node comes back itself.  ``done`` maps nodes already resolved to
    their results, and gains those of this call."""
    if Derivative not in ir.heads(expr):
        return expr
    if done is None:
        done = {}
    hit = done.get(expr)
    if hit is not None:
        return hit
    if isinstance(expr, Derivative):
        operand = resolve_derivatives(expr.operand, done)
        current: Expr = operand
        for _ in range(expr.order):
            d = differentiate(current, expr.var)
            if d is None:
                current = Derivative(operand, expr.var, expr.order)
                break
            current = d
    else:
        current = ir.map_children(expr, lambda child: resolve_derivatives(child, done))
    done[expr] = current
    return current
