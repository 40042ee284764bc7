"""CAS-neutral expression IR.

Expressions are immutable trees built from a small set of variants.  The
smart constructors (`add`, `mul`, `neg`, `power`) maintain the structural
invariants the rest of the pipeline relies on: n-ary sums/products are
flattened and never have fewer than two operands, numeric literals fold
eagerly, and negation of a literal folds into the literal itself.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from operator import is_
from typing import AbstractSet, Callable, Iterator, Optional


class Expr:
    """Base class for all IR expression nodes.

    Every node memoizes its hash, its `sort_key` and its `heads` in three
    slots, filled on first use.  They are not dataclass fields, so
    equality, ``repr`` and pickling see only the fields."""

    __slots__ = ("_hash", "_sort_key", "_heads")


def frozen(cls):
    """``dataclass(frozen=True, slots=True)`` with an ``__init__`` that
    costs about half the stock one.

    The stock frozen ``__init__`` writes each field through
    ``object.__setattr__``.  The one generated here in its place takes the
    same parameters and defaults, writes each slot through its member
    descriptor and then calls ``__post_init__`` when the class defines
    one.  Equality, hashing, ``repr``, pickling, `dataclasses.replace` and
    the `FrozenInstanceError` on assignment are the stock dataclass's.
    A field with a ``default_factory``, ``init=False`` or ``kw_only``,
    which this ``__init__`` does not reproduce, raises TypeError."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    params, lines, env = [], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: frozen supports "
                            "positional fields with plain defaults only")
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"  _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("  self.__post_init__()")
    source = (f"def _make({', '.join(env)}):\n"
              f" def __init__(self, {', '.join(params)}):\n"
              + "\n".join(lines)
              + "\n return __init__\n")
    namespace: dict = {}
    exec(source, {}, namespace)
    init = namespace["_make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


def _node(cls):
    """A `frozen` node whose field hash is computed once."""
    cls = frozen(cls)
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


# Constant identifiers.
IMAGINARY_UNIT = "imaginary_unit"
EULER_E = "euler_e"
PI = "pi"
EULER_GAMMA = "euler_gamma"
INFINITY = "infinity"

CONSTANT_NAMES = frozenset({IMAGINARY_UNIT, EULER_E, PI, EULER_GAMMA, INFINITY})

# Relation kinds (the eight relations retained by the second extraction scan).
REL_EQ = "eq"
REL_LT = "lt"
REL_GT = "gt"
REL_NE = "ne"
REL_LE = "le"
REL_GE = "ge"
REL_TO = "to"
REL_EQUIV = "equiv"

RELATION_KINDS = (REL_EQ, REL_LT, REL_GT, REL_NE, REL_LE, REL_GE, REL_TO, REL_EQUIV)

# BigOp kinds.
OP_SUM = "sum"
OP_PROD = "prod"
OP_INT = "int"
OP_LIM = "lim"
OP_ANTIDER = "antider"


@_node
class Number(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@_node
class Const(Expr):
    name: str

    def __post_init__(self):
        if self.name not in CONSTANT_NAMES:
            raise ValueError(f"unknown constant {self.name!r}")


@_node
class Var(Expr):
    name: str


@_node
class Add(Expr):
    terms: tuple[Expr, ...]


@_node
class Mul(Expr):
    factors: tuple[Expr, ...]


@_node
class Pow(Expr):
    base: Expr
    exponent: Expr


@_node
class Neg(Expr):
    operand: Expr


@_node
class FunctionApp(Expr):
    func: str
    params: tuple[Expr, ...] = ()
    args: tuple[Expr, ...] = ()


@_node
class Derivative(Expr):
    operand: Expr
    var: str
    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("derivative order must be >= 1")


@_node
class BigOp(Expr):
    kind: str
    var: str
    lo: Optional[Expr]
    hi: Optional[Expr]
    body: Expr


@frozen
class Relation:
    kind: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")


ZERO = Number(Fraction(0))
ONE = Number(Fraction(1))
MINUS_ONE = Number(Fraction(-1))
HALF = Number(Fraction(1, 2))


def num(value) -> Number:
    return Number(Fraction(value))


def add(*terms: Expr) -> Expr:
    """Flattened n-ary sum with numeric folding."""
    flat: list[Expr] = []
    acc = None  # the sum of the Number terms, once there is one
    for t in terms:
        if isinstance(t, Add):
            inner = t.terms
        else:
            inner = (t,)
        for u in inner:
            if isinstance(u, Number):
                acc = u.value if acc is None else acc + u.value
            else:
                flat.append(u)
    if acc:
        flat.append(Number(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Expr) -> Expr:
    """Flattened n-ary product with numeric folding."""
    flat: list[Expr] = []
    acc = None  # the product of the Number factors, once there is one
    for f in factors:
        if isinstance(f, Mul):
            inner = f.factors
        else:
            inner = (f,)
        for u in inner:
            if isinstance(u, Number):
                acc = u.value if acc is None else acc * u.value
            else:
                flat.append(u)
    if acc is not None:
        if acc == 0:
            return ZERO
        if acc == -1 and len(flat) == 1:
            return neg(flat[0])
        if acc != 1:
            flat.insert(0, Number(acc))
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(operand: Expr) -> Expr:
    if isinstance(operand, Number):
        return Number(-operand.value)
    if isinstance(operand, Neg):
        return operand.operand
    return Neg(operand)


def sub(lhs: Expr, rhs: Expr) -> Expr:
    return add(lhs, neg_term(rhs))


def neg_term(operand: Expr) -> Expr:
    """Negation that pushes through products so sums stay flat."""
    if isinstance(operand, Number):
        return Number(-operand.value)
    if isinstance(operand, Neg):
        return operand.operand
    if isinstance(operand, Mul):
        return mul(MINUS_ONE, operand)
    return Neg(operand)


# Exact rational powers are folded only up to this many bits per
# numerator or denominator, far below the roughly 14,000 bits (4300
# digits) that Python will convert from int to str.
MAX_EXACT_POWER_BITS = 4096


def exact_power_too_large(base: Fraction, exponent: Fraction) -> bool:
    """Whether base**exponent may exceed `MAX_EXACT_POWER_BITS`; checked
    before computing, so a huge power is never built."""
    bits = max(base.numerator.bit_length(), base.denominator.bit_length())
    return abs(exponent) * bits > MAX_EXACT_POWER_BITS


def power(base: Expr, exponent: Expr) -> Expr:
    if isinstance(exponent, Number):
        if exponent.value == 1:
            return base
        if exponent.value == 0:
            return ONE
        if isinstance(base, Number) and exponent.value.denominator == 1 \
                and not exact_power_too_large(base.value, exponent.value):
            e = int(exponent.value)
            if e >= 0:
                return Number(base.value ** e)
            if base.value != 0:
                return Number(Fraction(1) / base.value ** (-e))
    return Pow(base, exponent)


def div(lhs: Expr, rhs: Expr) -> Expr:
    if isinstance(lhs, Number) and isinstance(rhs, Number) and rhs.value != 0:
        return Number(lhs.value / rhs.value)
    return mul(lhs, power(rhs, MINUS_ONE))


def children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, Add):
        return expr.terms
    if isinstance(expr, Mul):
        return expr.factors
    if isinstance(expr, Pow):
        return (expr.base, expr.exponent)
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, FunctionApp):
        return expr.params + expr.args
    if isinstance(expr, Derivative):
        return (expr.operand,)
    if isinstance(expr, BigOp):
        out = []
        if expr.lo is not None:
            out.append(expr.lo)
        if expr.hi is not None:
            out.append(expr.hi)
        out.append(expr.body)
        return tuple(out)
    return ()


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_variables(expr: Expr) -> set[str]:
    """Names of free variables; constants never contribute and BigOp
    binders are excluded from their own body."""
    out: set[str] = set()
    _collect_free(expr, frozenset(), out)
    return out


def _collect_free(expr: Expr, bound: frozenset[str], out: set[str]) -> None:
    if isinstance(expr, Var):
        if expr.name not in bound:
            out.add(expr.name)
        return
    if isinstance(expr, BigOp):
        # Bounds are evaluated in the enclosing scope; only the body binds.
        if expr.lo is not None:
            _collect_free(expr.lo, bound, out)
        if expr.hi is not None:
            _collect_free(expr.hi, bound, out)
        _collect_free(expr.body, bound | {expr.var}, out)
        return
    if isinstance(expr, Derivative):
        _collect_free(expr.operand, bound, out)
        if expr.var not in bound:
            out.add(expr.var)
        return
    for c in children(expr):
        _collect_free(c, bound, out)


def _same(new: tuple, old: tuple) -> bool:
    return all(map(is_, new, old))


def map_children(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` from ``fn`` applied to each direct child.

    When ``fn`` returns every child itself (``is``), the result is
    ``expr`` itself, so a pass that changes nothing in a subtree hands
    back the very nodes it was given, with their memoized hashes.
    Otherwise sums, products, powers and negations go through the smart
    constructors, so the result keeps their invariants; absent BigOp
    bounds stay absent and leaves come back unchanged."""
    if isinstance(expr, (Number, Const, Var)):
        return expr
    if isinstance(expr, Add):
        terms = tuple(map(fn, expr.terms))
        return expr if _same(terms, expr.terms) else add(*terms)
    if isinstance(expr, Mul):
        factors = tuple(map(fn, expr.factors))
        return expr if _same(factors, expr.factors) else mul(*factors)
    if isinstance(expr, Pow):
        base, exponent = fn(expr.base), fn(expr.exponent)
        if base is expr.base and exponent is expr.exponent:
            return expr
        return power(base, exponent)
    if isinstance(expr, Neg):
        operand = fn(expr.operand)
        return expr if operand is expr.operand else neg(operand)
    if isinstance(expr, FunctionApp):
        params, args = tuple(map(fn, expr.params)), tuple(map(fn, expr.args))
        if _same(params, expr.params) and _same(args, expr.args):
            return expr
        return FunctionApp(expr.func, params, args)
    if isinstance(expr, Derivative):
        operand = fn(expr.operand)
        if operand is expr.operand:
            return expr
        return Derivative(operand, expr.var, expr.order)
    if isinstance(expr, BigOp):
        lo = fn(expr.lo) if expr.lo is not None else None
        hi = fn(expr.hi) if expr.hi is not None else None
        body = fn(expr.body)
        if lo is expr.lo and hi is expr.hi and body is expr.body:
            return expr
        return BigOp(expr.kind, expr.var, lo, hi, body)
    raise TypeError(f"not an Expr: {expr!r}")


def head(expr: Expr):
    """What a rewrite pattern must share with a subject to match it: the
    function name of a `FunctionApp`, the node type otherwise."""
    return expr.func if isinstance(expr, FunctionApp) else type(expr)


# The heads of a node of each non-FunctionApp type, alone.
_TYPE_HEADS = {cls: frozenset((cls,)) for cls in
               (Number, Const, Var, Add, Mul, Pow, Neg, Derivative, BigOp)}


def heads(expr: Expr) -> frozenset:
    """The `head` of every node in ``expr``, computed once per node.  A
    pass that acts only on some heads can hand back a subtree whose heads
    miss them all."""
    try:
        return expr._heads
    except AttributeError:
        pass
    own = head(expr)
    out = _TYPE_HEADS.get(own) or frozenset((own,))
    for child in children(expr):
        part = heads(child)
        if out <= part:
            out = part  # share the child's set
        elif not part <= out:
            out = out | part
    object.__setattr__(expr, "_heads", out)
    return out


def map_bottom_up(expr: Expr, only: AbstractSet, fn: Callable[[Expr], Expr],
                  done: Optional[dict[Expr, Expr]] = None) -> Expr:
    """``fn`` applied to each node after its children (`map_children`),
    only in subtrees whose `heads` meet ``only``: a subtree that misses
    them all comes back itself, unvisited.  ``done``, when given, maps the
    nodes mapped so far to their results, and gains those of this call."""

    def walk(node: Expr) -> Expr:
        if only.isdisjoint(heads(node)):
            return node
        if done is None:
            return fn(map_children(node, walk))
        out = done.get(node)
        if out is None:
            out = done[node] = fn(map_children(node, walk))
        return out

    return walk(expr)


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-avoiding substitution of free variables.  Not a
    `map_bottom_up` pass: a `BigOp` hides its binder from its body."""
    if not mapping:
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, BigOp):
        # Bounds see the whole mapping; the body never sees its own binder.
        inner = {k: v for k, v in mapping.items() if k != expr.var}
        return BigOp(
            expr.kind,
            expr.var,
            substitute(expr.lo, mapping) if expr.lo is not None else None,
            substitute(expr.hi, mapping) if expr.hi is not None else None,
            substitute(expr.body, inner),
        )
    return map_children(expr, lambda child: substitute(child, mapping))


def sort_key(expr: Expr) -> tuple:
    """Deterministic total order used for canonical printing and sorting;
    computed once per node."""
    try:
        return expr._sort_key
    except AttributeError:
        key = _sort_key(expr)
        object.__setattr__(expr, "_sort_key", key)
        return key


def _sort_key(expr: Expr) -> tuple:
    if isinstance(expr, Number):
        return (0, str(expr.value))
    if isinstance(expr, Const):
        return (1, expr.name)
    if isinstance(expr, Var):
        return (2, expr.name)
    if isinstance(expr, Pow):
        return (3, sort_key(expr.base), sort_key(expr.exponent))
    if isinstance(expr, Mul):
        return (4,) + tuple(sort_key(f) for f in expr.factors)
    if isinstance(expr, Add):
        return (5,) + tuple(sort_key(t) for t in expr.terms)
    if isinstance(expr, Neg):
        return (6, sort_key(expr.operand))
    if isinstance(expr, FunctionApp):
        return (7, expr.func) + tuple(sort_key(c) for c in expr.params + expr.args)
    if isinstance(expr, Derivative):
        return (8, expr.var, expr.order, sort_key(expr.operand))
    if isinstance(expr, BigOp):
        key = [9, expr.kind, expr.var]
        for b in (expr.lo, expr.hi):
            key.append(sort_key(b) if b is not None else ("",))
        key.append(sort_key(expr.body))
        return tuple(key)
    raise TypeError(f"not an Expr: {expr!r}")
