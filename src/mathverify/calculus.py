"""Symbolic differentiation over the IR.

Used to resolve explicit Derivative nodes (the Wronskian macro's
expansion) into derivative-free expressions before evaluation or
simplification.  The sum, product, power and chain rules are here; the
derivative of each function is a row of the ``[derivative]`` section of
the identity table ``data/identities.rules`` (`symbolic.identities`).
Functions without a row leave the Derivative node in place; callers
decide how to degrade.
"""

from __future__ import annotations

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


def differentiate(expr: Expr, var: str) -> Optional[Expr]:
    """d(expr)/d(var), or None when no rule applies.

    A function's derivative is its ``derivative`` row of the identity
    table times the derivative of its last argument; a function with no
    row, or whose other parameters and arguments depend on ``var``, has
    none.  A Derivative node inside ``expr`` is one `resolve_derivatives`
    could not resolve, so it has none either."""
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
    if isinstance(expr, FunctionApp) and expr.args:
        *fixed, u = expr.params + expr.args
        if any(var in free_variables(c) for c in fixed):
            return None
        du = differentiate(u, var)
        if du is None or du == ir.ZERO:
            return du
        from .symbolic import apply_identity  # symbolic imports this module
        outer = apply_identity("derivative", expr)
        return None if outer is None else ir.mul(outer, du)
    if isinstance(expr, BigOp) and var not in free_variables(expr):
        return ir.ZERO
    return None


def resolve_derivatives(expr: Expr, done: Optional[dict[Expr, Expr]] = None) -> Expr:
    """Replace Derivative nodes with explicit derivatives where rules
    exist; unresolved nodes stay in the tree.  A tree with no Derivative
    node comes back itself.  ``done`` (a fresh table by default) maps
    nodes already resolved to their results, and gains those of this
    call (`ir.map_bottom_up`)."""
    return ir.map_bottom_up(expr, {Derivative}, _resolve, {} if done is None else done)


def _resolve(node: Expr) -> Expr:
    """A Derivative node whose operand is resolved, differentiated
    ``order`` times; itself where a step has no rule.  Any other node
    comes back itself."""
    if not isinstance(node, Derivative):
        return node
    current = node.operand
    for _ in range(node.order):
        current = differentiate(current, node.var)
        if current is None:
            return node
    return current
