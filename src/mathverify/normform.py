"""Canonical rational normal form over function atoms.

Expressions normalize to a fraction of multivariate Laurent polynomials
whose indeterminates ("atoms") are variables, constants, function
applications with canonicalized arguments, and powers with symbolic
exponents.  Like atoms merge by adding exponents, so exponent laws
(e^x e^y = e^{x+y}) fall out of collection; a rational exponent splits
off its integer part (z^(n+f) = z^n z^f, 0 <= f < 1), which folds into
numbers, compound bases and powers, and the exponent of the imaginary
unit reduces into [0, 2), so a power has one form however its exponent
was reached; even powers of sin/sinh eliminate through the
Pythagorean relations; gamma arguments shift to a canonical fractional
part (the recurrence Gamma(z+1) = z Gamma(z) run to a fixpoint); and
gamma pairs with arguments summing to an integer contract through the
reflection formula.  An expression equals zero exactly when its
normalized numerator is the empty polynomial.

Rational coefficients and exponents are stored as ``int`` when integral
and as ``Fraction`` otherwise, so the common integer case skips
``Fraction`` arithmetic.  `_q` converts where a value comes in from a
``Number`` (`const_poly`, `_as_exp_key`) and where ``Fraction``
arithmetic can make one integral (`_exp_add`, and `_poly_add_into`,
which every product passes through).  The two kinds hash and compare
equal, so monomial keys merge either way.  ``Number.value`` is always a
``Fraction``: `emit` builds ``Number``, which converts.

Most products in normalization have a one-term constant factor (a
product's start, a negation, a denominator of 1).  `poly_mul` scales by
it without `mono_mul` where no monomial of the other factor would fold
(`_settled`), charging the loop's 2 ticks per term: ``steps`` and where
a budget runs out stay the same.

A normalized fraction has one form, `RatForm`, whose ``num`` and ``den``
are the polynomial dicts normalization built, in no particular order;
`emit` orders the terms.  No code writes those dicts once the form is
built (the one in-place write, `_poly_add_into`, fills a dict that
`poly_add` or `poly_mul` has just made), so forms share them, and the
memo keeps them.

A `NormContext` counts steps against a budget and carries the variable
domains under which a power of a product splits (`_norm_pow`).  It is
the one step counter of a `symbolic.simplify` candidate: the rewrite
rules, the Bessel pass and `norm` all tick it.  Given a
`NormMemo`, the contexts of one formula's candidates, which carry the
same domains, share the normal forms of the subtrees they have in
common, and each reuse is charged the steps that normalizing it afresh
in that context would count: its own ticks, plus those of the `canon`
keys it needs that the context has not yet paid for.  So ``steps``, and
where a budget runs out, are the same with or without the memo.  The
memo also holds what `symbolic.simplify`'s passes before `norm` compute
per node, so each candidate of the formula runs them once per subtree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Optional, Sequence, TypeVar, Union

from . import ir
from .constraints import SIGN_NONNEG, VariableDomain, sign
from .errors import BudgetExceeded, SymbolicError
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
    frozen,
)

# A rational coefficient or exponent: int when integral, Fraction
# otherwise.  `Number.value` is always a Fraction.
Rat = Union[int, Fraction]
_RAT = (int, Fraction)
ExpKey = Union[Rat, Expr]  # a rational exponent (Rat) or a symbolic one
Mono = tuple[tuple[Expr, ExpKey], ...]
Poly = dict[Mono, Rat]  # nonzero Rat coefficients

EMPTY_MONO: Mono = ()

T = TypeVar("T")
K = TypeVar("K")


def _q(x: Rat) -> Rat:
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x

ODD_FUNCTIONS = frozenset({
    "sin", "tan", "csc", "cot", "sinh", "tanh", "csch", "coth",
    "arcsin", "arctan", "erf",
})
EVEN_FUNCTIONS = frozenset({"cos", "sec", "cosh", "sech"})

BESSEL_FAMILIES = frozenset({"bessel_j", "bessel_y", "bessel_i", "bessel_k"})

_MAX_GAMMA_SHIFT = 32
_MAX_HYPER_UNROLL = 12
_MAX_BIGOP_UNROLL = 64
# The largest integer power of a sum that `poly_pow` expands.
POWER_CAP = 64


class NormMemo:
    """What the candidates of one formula share: the results of the
    passes `simplify` runs on each, `norm` and the three before it.

    Every entry of ``norms``, ``canons``, ``computed`` and ``rewrites``
    has one shape, (value, own ticks, canon closure): the ticks spent
    outside nested `canon` computations and the closure of the `canon`
    keys the computation touched, so that a context reusing it can charge
    what computing it afresh would cost (`NormContext.charge`).
    `NormContext.reuse` fills and charges ``norms``, which maps a non-leaf
    node to its `norm_plain` result (a `RatForm`, which no code writes, so
    the entry is the result itself), ``computed``, which holds the Bessel
    pass's replacement maps keyed by the tuple of Bessel nodes they were
    computed from, and ``rewrites``, the rewriter's result per node, None
    where no rule fired in it.  ``canons`` maps a `canon` key to its
    canonical IR; its closure includes the key itself.

    The passes before `norm` keep their other per-node results here too:
    ``derivatives`` (`calculus.resolve_derivatives`) and ``bessel_nodes``
    (the Bessel-family nodes below a node, in pre-order).  Every entry is
    keyed by node, so a candidate's root is always computed afresh, and
    holds for the one set of domains and rewrite rules the memo serves.
    Nothing in it depends on a step budget or on the order in which
    contexts fill it."""

    __slots__ = ("norms", "canons", "computed", "derivatives", "rewrites",
                 "bessel_nodes")

    def __init__(self):
        # node -> (RatForm, own ticks, canon closure)
        self.norms: dict[Expr, tuple] = {}
        # key -> (canonical IR, own ticks, canon closure including key)
        self.canons: dict[Expr, tuple] = {}
        # key -> (value, own ticks, canon closure)
        self.computed: dict[object, tuple] = {}
        # node -> (rewritten node or None, own ticks, canon closure)
        self.rewrites: dict[Expr, tuple] = {}
        # node -> node with its derivatives resolved
        self.derivatives: dict[Expr, Expr] = {}
        # node -> the Bessel-family nodes in it, in pre-order
        self.bessel_nodes: dict[Expr, tuple[Expr, ...]] = {}


_NO_KEYS: frozenset = frozenset()


class NormContext:
    """Step budget and memoization shared across one candidate.

    ``steps`` counts one tick per rule firing, normalized node,
    polynomial term product and folded monomial.  `canon` is memoized per
    context, so a context counts each `canon` key's computation once: the
    set of keys it has charged is closed downward (with a key, every key
    its computation touched).  Without a memo that is all that is reused.  With a
    `NormMemo`, `canon` and `reuse` results (`norm_plain`'s among them) computed
    by earlier contexts are reused too, and each reuse is charged what a fresh
    computation would count here (`charge`), so ``steps`` and the point
    where the budget runs out do not depend on what the memo held.  The
    memo is keyed by node alone, so every context sharing one must carry
    the same ``domains``.  A context that raised is not used again."""

    __slots__ = ("budget", "steps", "memo", "domains", "_canon_memo",
                 "_canon_ticks", "_touched")

    def __init__(self, budget: int = 200_000, memo: Optional[NormMemo] = None,
                 domains: Sequence[VariableDomain] = ()):
        self.budget = budget
        self.steps = 0
        self.memo = memo
        self.domains = domains
        # canon key -> canonical IR, for every key this context charged
        self._canon_memo: dict[Expr, Expr] = {}
        # The own ticks of those keys, summed.
        self._canon_ticks = 0
        # Canon closures touched by the computations in progress; each
        # finished `_norm` or `canon` folds its part into one frozenset.
        self._touched: list[frozenset] = []

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise BudgetExceeded(f"rewrite budget of {self.budget} steps exhausted")

    def charge(self, own: int, keys: frozenset) -> None:
        """Count a reused memo entry as a fresh computation here would:
        ``own`` ticks, plus the own ticks of each `canon` key in ``keys``
        this context has not charged yet, which it then has.  Past the
        budget, ``steps`` ends one over it, as ticking one by one would."""
        new, canon_ticks = (), 0
        if keys:
            charged, canons = self._canon_memo, self.memo.canons
            new = [k for k in keys if k not in charged]
            canon_ticks = sum(canons[k][1] for k in new)
        steps = self.steps + own + canon_ticks
        if steps > self.budget:
            self.steps = self.budget + 1
            raise BudgetExceeded(f"rewrite budget of {self.budget} steps exhausted")
        self.steps = steps
        self._canon_ticks += canon_ticks
        for k in new:
            charged[k] = canons[k][0]

    def reuse(self, table: dict, key: K, compute: Callable[[K, NormContext], T]) -> T:
        """``compute(key, self)``, stored in ``table`` under ``key`` with
        its own ticks and canon closure, and charged on reuse what
        computing it here would count (`charge`).  ``table`` is one of
        the memo's, or, without a memo, a table of the caller's own."""
        touched = self._touched
        hit = table.get(key)
        if hit is not None:
            value, own, keys = hit
            self.charge(own, keys)
            if keys:
                touched.append(keys)
            return value
        start = len(touched)
        steps, canon_ticks = self.steps, self._canon_ticks
        value = compute(key, self)
        own = self.steps - steps - (self._canon_ticks - canon_ticks)
        table[key] = (value, own, _close(touched, start))
        return value


ONE_POLY: Poly = {EMPTY_MONO: 1}


def const_poly(value: Rat) -> Poly:
    return {} if value == 0 else {EMPTY_MONO: _q(value)}


# --- monomial and polynomial arithmetic ---

def _exp_sortable(exp: ExpKey):
    if isinstance(exp, _RAT):
        return (0, -exp)  # larger powers sort first within equal atoms
    return (1,) + ir.sort_key(exp)


def _mono_sort_key(mono: Mono):
    degree = sum(e for _, e in mono if isinstance(e, _RAT))
    return (-degree, tuple((ir.sort_key(a), _exp_sortable(e)) for a, e in mono))


def _exp_to_expr(exp: ExpKey) -> Expr:
    return Number(exp) if isinstance(exp, _RAT) else exp


def _exp_add(a: ExpKey, b: ExpKey, ctx: NormContext) -> ExpKey:
    if isinstance(a, _RAT) and isinstance(b, _RAT):
        return _q(a + b)
    total = norm(ir.add(_exp_to_expr(a), _exp_to_expr(b)), ctx)
    return _as_exp_key(emit(total))


def _exp_negate(exp: ExpKey, ctx: NormContext) -> ExpKey:
    if isinstance(exp, _RAT):
        return -exp
    return _as_exp_key(emit(norm(ir.neg_term(exp), ctx)))


def _as_exp_key(expr: Expr) -> ExpKey:
    return _q(expr.value) if isinstance(expr, Number) else expr


def _exact_rational_pow(base: Rat, exp: Rat) -> Optional[Rat]:
    """base**exp when the result is exactly rational and not too large
    to fold (`ir.exact_power_too_large`), else None."""
    if ir.exact_power_too_large(base, exp):
        return None
    if exp.denominator == 1:
        e = int(exp)
        if e >= 0:
            return base ** e
        return None if base == 0 else Fraction(1) / base ** (-e)
    if base < 0:
        return None  # principal value is not real
    pn = _exact_root(base.numerator, exp.denominator)
    pd = _exact_root(base.denominator, exp.denominator)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd) ** exp.numerator


def _exact_root(n: int, k: int) -> Optional[int]:
    """The integer k-th root of n >= 0 when it is exact, else None.
    Integer Newton steps from above, so no float conversion can overflow."""
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x ** k == n else None
        x = y


def _post_mono(entries: dict[Expr, ExpKey], coef: Rat, ctx: NormContext) -> Poly:
    """Fold special atoms of a raw monomial and expand Pythagorean powers.
    ``coef`` is nonzero, and stays so: a ``Number`` atom is positive
    (`_norm_pow`), so folding one multiplies by a nonzero value.

    A rational exponent e of a ``Number``, ``Add``, ``Mul``, ``Neg`` or
    ``Pow`` atom splits into n + f with n = floor(e) and 0 <= f < 1, and
    z^n folds where that is exact: z^(n+f) = z^n z^f holds on the principal
    branch for integer n and z != 0.  An exponent of i reduces into [0, 2).
    So a power of an atom has one form however its exponent was reached."""
    factors: list[Poly] = []
    clean: dict[Expr, ExpKey] = {}
    for atom, exp in entries.items():
        if not isinstance(exp, _RAT):
            clean[atom] = exp
            continue
        if exp == 0:
            continue
        if isinstance(atom, Const):
            if atom.name == ir.IMAGINARY_UNIT:
                # i^(2k + r) = (-1)^k i^r
                k, r = divmod(exp, 2)
                if k % 2:
                    coef = -coef
                if r == 0:
                    continue
                exp = _q(r)
        elif isinstance(atom, Number):
            folded = _exact_rational_pow(atom.value, exp)
            if folded is not None:
                coef *= folded
                continue
            n = _floor_fraction(exp)
            folded = _exact_rational_pow(atom.value, n) if n else None
            if folded is not None:
                coef *= folded
                exp -= n
        elif isinstance(atom, (Add, Mul, Neg, Pow)):
            n = _floor_fraction(exp)
            power = _integer_power(atom, n, ctx) if n else None
            if power is not None:
                factors.append(power)
                exp -= n
                if exp == 0:
                    continue
        elif isinstance(atom, FunctionApp) and atom.func in ("sin", "sinh") and \
                exp.denominator == 1 and exp >= 2:
            k, r = divmod(int(exp), 2)
            u = atom.args[0]
            cos_atom = FunctionApp("cos" if atom.func == "sin" else "cosh", (), (u,))
            sign = 1 if atom.func == "sin" else -1
            square: Poly = {EMPTY_MONO: sign, ((cos_atom, 2),): -sign}
            factors.append(poly_pow(square, k, ctx))
            if r:
                clean[atom] = 1
            continue
        clean[atom] = exp
    mono = tuple(sorted(clean.items(), key=lambda kv: ir.sort_key(kv[0])))
    result: Poly = {mono: coef}
    for f in factors:
        result = poly_mul(result, f, ctx)
    return result


def _integer_power(atom: Expr, n: int, ctx: NormContext) -> Optional[Poly]:
    """atom**n for an ``Add``, ``Mul``, ``Neg`` or ``Pow`` atom and an
    integer n != 0, when that is a polynomial, else None."""
    if isinstance(atom, Pow):
        # (w^a)^n = w^(a n) holds for integer n on principal branches.  A
        # Number w^a is its own normal form (`_norm_pow`), so at n = 1 it
        # would only rebuild itself.
        if n == 1 and isinstance(atom.base, Number):
            return None
        rf = norm_plain(Pow(atom.base, ir.mul(Number(n), atom.exponent)), ctx)
    else:
        # A compound base re-expands into a genuine polynomial when that
        # is exact.
        rf = _rat_pow(norm_plain(atom, ctx), n, ctx)
    return rf.num if rf.den == ONE_POLY else None


def mono_mul(m1: Mono, m2: Mono, coef: Rat, ctx: NormContext) -> Poly:
    entries: dict[Expr, ExpKey] = {}
    for atom, exp in m1 + m2:
        if atom in entries:
            entries[atom] = _exp_add(entries[atom], exp, ctx)
        else:
            entries[atom] = exp
    ctx.tick()
    return _post_mono(entries, coef, ctx)


def _poly_add_into(out: Poly, q: Poly) -> None:
    for mono, c in q.items():
        nc = out.get(mono, 0) + c
        if nc == 0:
            out.pop(mono, None)
        else:
            out[mono] = _q(nc)


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    _poly_add_into(out, q)
    return out


def _settled(mono: Mono) -> bool:
    """Whether `_post_mono` hands ``mono`` back unchanged: each exponent
    symbolic, or a nonzero rational e on an atom that does not fold at e.
    Those are: i with 0 < e < 2; any other ``Const``; an ``Add``, ``Mul``
    or ``Neg`` with 0 < e < 1; a ``Pow`` with 0 < e < 1, or with e < 2 and
    a ``Number`` base; sin/sinh unless e is an integer >= 2; every other
    atom but a ``Number``.  An integral ``Fraction`` exponent counts as its
    integer."""
    for atom, exp in mono:
        if not isinstance(exp, _RAT):
            continue
        if exp == 0 or isinstance(atom, Number):
            return False
        if isinstance(atom, Const):
            if atom.name == ir.IMAGINARY_UNIT and not 0 < exp < 2:
                return False
        elif isinstance(atom, (Add, Mul, Neg)):
            if exp < 0 or exp >= 1:
                return False
        elif isinstance(atom, Pow):
            if exp < 0 or exp >= 2 or exp >= 1 and not isinstance(atom.base, Number):
                return False
        elif isinstance(atom, FunctionApp):
            if exp >= 2 and exp.denominator == 1 and atom.func in ("sin", "sinh"):
                return False
    return True


def poly_mul(p: Poly, q: Poly, ctx: NormContext) -> Poly:
    """p q, a `mono_mul` per pair of terms, each one tick here and what
    `mono_mul` counts.  Scaling path: by a constant ``{EMPTY_MONO: c}``,
    with every monomial of the other factor `_settled`, each term times c
    in that factor's order, charged in bulk the loop's 2 ticks per term;
    where that passes the budget the loop runs and raises at its tick."""
    if len(p) == 1 and EMPTY_MONO in p:
        p, q = q, p  # by a one-term constant, both loop orders agree
    if len(q) == 1 and EMPTY_MONO in q:
        steps = ctx.steps + 2 * len(p)
        if steps <= ctx.budget and all(map(_settled, p)):
            ctx.steps = steps
            c = q[EMPTY_MONO]
            return {m: _q(c * c1) for m, c1 in p.items()}
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            ctx.tick()
            _poly_add_into(out, mono_mul(m1, m2, c1 * c2, ctx))
    return out


def poly_pow(p: Poly, n: int, ctx: NormContext) -> Poly:
    """``p**n`` for n >= 0."""
    if n > POWER_CAP:
        raise BudgetExceeded(f"power {n} exceeds the expansion cap {POWER_CAP}")
    result = ONE_POLY
    base = p
    while n:
        if n & 1:
            result = poly_mul(result, base, ctx)
        n >>= 1
        if n:
            base = poly_mul(base, base, ctx)
    return result


def _mono_inverse(mono: Mono, ctx: NormContext) -> Mono:
    return tuple((atom, _exp_negate(exp, ctx)) for atom, exp in mono)


class _ZeroDenominator(SymbolicError):
    pass


@frozen
class RatForm:
    """A normalized fraction num/den.  The dicts are never written once
    the form is built, and their terms are in no particular order: `emit`
    sorts them.  Coefficients and rational exponents are `Rat`: int when
    integral, Fraction otherwise."""

    num: Poly
    den: Poly


def _rat_const(value: Rat) -> RatForm:
    return RatForm(const_poly(value), ONE_POLY)


def _rat_add(a: RatForm, b: RatForm, ctx: NormContext) -> RatForm:
    if a.den == b.den:
        return RatForm(poly_add(a.num, b.num), a.den)
    return RatForm(
        poly_add(poly_mul(a.num, b.den, ctx), poly_mul(b.num, a.den, ctx)),
        poly_mul(a.den, b.den, ctx),
    )


def _rat_mul(a: RatForm, b: RatForm, ctx: NormContext) -> RatForm:
    return RatForm(poly_mul(a.num, b.num, ctx), poly_mul(a.den, b.den, ctx))


def _rat_inv(a: RatForm, ctx: NormContext) -> RatForm:
    if not a.num:
        raise _ZeroDenominator("division by an expression that normalizes to zero")
    if len(a.num) == 1:
        (mono, coef), = a.num.items()
        inv_poly = {_mono_inverse(mono, ctx): Fraction(1) / coef}
        return RatForm(poly_mul(a.den, inv_poly, ctx), ONE_POLY)
    return RatForm(a.den, a.num)


def _rat_pow(a: RatForm, n: int, ctx: NormContext) -> RatForm:
    if n < 0:
        return _rat_pow(_rat_inv(a, ctx), -n, ctx)
    return RatForm(poly_pow(a.num, n, ctx), poly_pow(a.den, n, ctx))


def _atom_rat(atom: Expr, exp: ExpKey = 1) -> RatForm:
    """atom**exp for a nonzero exponent."""
    return RatForm({((atom, exp),): 1}, ONE_POLY)


def _atom_power(atom: Expr, exp: ExpKey, ctx: NormContext) -> RatForm:
    """atom**exp for a nonzero exponent, folded as in a product
    (`_post_mono`), so that a power has one form however it was built."""
    mono = ((atom, exp),)
    if _settled(mono):
        return RatForm({mono: 1}, ONE_POLY)
    return RatForm(_post_mono({atom: exp}, 1, ctx), ONE_POLY)


# --- normalization ---

def norm(expr: Expr, ctx: Optional[NormContext] = None) -> RatForm:
    ctx = ctx or NormContext()
    return _gamma_reflect(norm_plain(expr, ctx), ctx)


_LEAVES = (Number, Const, Var)


def norm_plain(expr: Expr, ctx: NormContext) -> RatForm:
    """Normalize without the gamma reflection pass: `_norm_node`, reused
    through the context's memo (`NormContext.reuse`) for a non-leaf node
    when the context has one."""
    memo = ctx.memo
    if memo is None or isinstance(expr, _LEAVES):
        return _norm_node(expr, ctx)
    return ctx.reuse(memo.norms, expr, _norm_node)


def _close(touched: list[frozenset], start: int, key: Optional[Expr] = None) -> frozenset:
    """Fold the closures touched since ``start``, and ``key`` if given,
    into the one closure this returns and leaves in their place."""
    parts = touched[start:]
    if key is None:
        if not parts:
            return _NO_KEYS
        if len(parts) == 1:
            return parts[0]
        keys = frozenset().union(*parts)
    else:
        keys = frozenset((key,)).union(*parts)
    touched[start:] = [keys]
    return keys


def _norm_node(expr: Expr, ctx: NormContext) -> RatForm:
    ctx.tick()
    if isinstance(expr, Number):
        return _rat_const(expr.value)
    if isinstance(expr, Const):
        return _atom_rat(expr)
    if isinstance(expr, Var):
        return _atom_rat(expr)
    if isinstance(expr, Add):
        total = _rat_const(0)
        for t in expr.terms:
            total = _rat_add(total, norm_plain(t, ctx), ctx)
        return total
    if isinstance(expr, Mul):
        prod = _rat_const(1)
        for f in expr.factors:
            prod = _rat_mul(prod, norm_plain(f, ctx), ctx)
        return prod
    if isinstance(expr, Neg):
        return _rat_mul(_rat_const(-1), norm_plain(expr.operand, ctx), ctx)
    if isinstance(expr, Pow):
        return _norm_pow(expr, ctx)
    if isinstance(expr, FunctionApp):
        return _norm_function(expr, ctx)
    if isinstance(expr, Derivative):
        return _atom_rat(Derivative(canon(expr.operand, ctx), expr.var, expr.order))
    if isinstance(expr, BigOp):
        return _norm_bigop(expr, ctx)
    raise SymbolicError(f"cannot normalize {expr!r}")


def _norm_pow(expr: Pow, ctx: NormContext) -> RatForm:
    exp_rat = norm_plain(expr.exponent, ctx)
    exp_expr = emit(exp_rat)
    base_rat = norm_plain(expr.base, ctx)
    if isinstance(exp_expr, Number) and exp_expr.value.denominator == 1:
        return _rat_pow(base_rat, int(exp_expr.value), ctx)
    # Non-integer exponent: principal value.
    exp_key = _as_exp_key(exp_expr)
    if not base_rat.num:
        if _positive_real_part(exp_rat):
            return _rat_const(0)
        raise _ZeroDenominator(
            "zero base with an exponent of no known positive real part")
    base_expr = emit(base_rat)
    if base_expr == ir.ONE:
        return _rat_const(1)
    if isinstance(base_expr, Number):
        if isinstance(exp_key, _RAT):
            folded = _exact_rational_pow(base_expr.value, exp_key)
            if folded is not None:
                return _rat_const(folded)
        if base_expr.value > 0:
            return _atom_power(base_expr, exp_key, ctx)
        return _atom_rat(Pow(base_expr, exp_expr))
    if base_rat.den == ONE_POLY and len(base_rat.num) == 1:
        (m, coef), = base_rat.num.items()
        if coef > 0:
            # (c P R)^s = c^s P^s R^s holds for rational c > 0 and P >= 0:
            # each atom power that `sign` proves nonnegative splits off,
            # and the rest R stays one atom.
            out = _rat_const(1)
            if coef != 1:
                out = _rat_mul(out, _norm_pow(Pow(Number(coef), exp_expr), ctx), ctx)
            rest = []
            for atom, aexp in m:
                factor = ir.power(atom, _exp_to_expr(aexp))
                if sign(factor, ctx.domains) >= SIGN_NONNEG:
                    out = _rat_mul(out, _atom_rat(factor, exp_key), ctx)
                else:
                    rest.append(factor)
            if rest:
                out = _rat_mul(out, _atom_rat(ir.mul(*rest), exp_key), ctx)
            return out
    return _atom_power(base_expr, exp_key, ctx)


_I_MONO: Mono = ((Const(ir.IMAGINARY_UNIT), 1),)


def _positive_real_part(rat: RatForm) -> bool:
    """Whether a normal form is a + b i with rational a > 0, an exponent
    for which the principal value of 0^(a + b i) is 0."""
    return rat.den == ONE_POLY and rat.num.keys() <= {EMPTY_MONO, _I_MONO} \
        and rat.num.get(EMPTY_MONO, 0) > 0


def canon(expr: Expr, ctx: NormContext) -> Expr:
    """Canonical IR of an expression, memoized in the context and, when
    it has a memo, shared through that.  A context charges a key's
    computation once, as `NormContext.charge` counts it.  Not a
    `NormContext.reuse` call: its closure holds its own key, and a hit
    that this context has charged costs nothing."""
    memo = ctx.memo
    cached = ctx._canon_memo.get(expr)
    if cached is not None:
        if memo is not None:
            ctx._touched.append(memo.canons[expr][2])
        return cached
    if memo is None:
        result = ctx._canon_memo[expr] = emit(norm_plain(expr, ctx))
        return result
    hit = memo.canons.get(expr)
    if hit is not None:
        result, _, keys = hit
        ctx.charge(0, keys)  # keys holds expr, so this charges it too
        ctx._touched.append(keys)
        return result
    touched = ctx._touched
    start = len(touched)
    steps, canon_ticks = ctx.steps, ctx._canon_ticks
    result = emit(norm_plain(expr, ctx))
    own = ctx.steps - steps - (ctx._canon_ticks - canon_ticks)
    memo.canons[expr] = (result, own, _close(touched, start, expr))
    ctx._canon_memo[expr] = result
    ctx._canon_ticks += own
    return result


# --- function-atom canonicalization ---

def _norm_function(expr: FunctionApp, ctx: NormContext) -> RatForm:
    func = expr.func
    if func == "binomial":
        a, b = expr.args
        return norm_plain(
            ir.div(
                FunctionApp("gamma", (), (ir.add(a, ir.ONE),)),
                ir.mul(
                    FunctionApp("gamma", (), (ir.add(b, ir.ONE),)),
                    FunctionApp("gamma", (), (ir.add(ir.sub(a, b), ir.ONE),)),
                ),
            ),
            ctx,
        )
    if func == "pochhammer":
        a, n = expr.args
        n_c = canon(n, ctx)
        if isinstance(n_c, Number) and n_c.value.denominator == 1 and \
                0 <= n_c.value <= _MAX_HYPER_UNROLL * 2:
            prod = _rat_const(1)
            for k in range(int(n_c.value)):
                prod = _rat_mul(prod, norm_plain(ir.add(a, ir.num(k)), ctx), ctx)
            return prod
        return norm_plain(
            ir.div(
                FunctionApp("gamma", (), (ir.add(a, n),)),
                FunctionApp("gamma", (), (a,)),
            ),
            ctx,
        )
    if func == "gamma":
        return _norm_gamma(expr.args[0], ctx)
    if func == "genhyper":
        return _norm_genhyper(expr, ctx)
    if func == "elliptic_k" or func == "elliptic_e":
        m = canon(expr.args[0], ctx)
        if m == ir.ZERO:
            return norm_plain(ir.div(Const(ir.PI), ir.num(2)), ctx)
        if func == "elliptic_e" and m == ir.ONE:
            return _rat_const(1)
        return _atom_rat(FunctionApp(func, (), (m,)))
    params = tuple(canon(p, ctx) for p in expr.params)
    args = tuple(canon(a, ctx) for a in expr.args)
    if (func in ODD_FUNCTIONS or func in EVEN_FUNCTIONS) and len(args) == 1 \
            and not params:
        arg_rat = norm_plain(args[0], ctx)
        if _leading_negative(arg_rat):
            flipped = RatForm(poly_mul(arg_rat.num, const_poly(-1), ctx), arg_rat.den)
            atom = _atom_rat(FunctionApp(func, (), (emit(flipped),)))
            return _rat_mul(_rat_const(-1), atom, ctx) if func in ODD_FUNCTIONS \
                else atom
    return _atom_rat(FunctionApp(func, params, args))


def _leading_negative(rat: RatForm) -> bool:
    if not rat.num:
        return False
    lead = min(rat.num.items(), key=lambda kv: _mono_sort_key(kv[0]))
    return lead[1] < 0


def _norm_gamma(arg: Expr, ctx: NormContext) -> RatForm:
    arg_rat = norm_plain(arg, ctx)
    if arg_rat.den != ONE_POLY:
        return _atom_rat(FunctionApp("gamma", (), (emit(arg_rat),)))
    poly = arg_rat.num
    c = poly.get(EMPTY_MONO, 0)
    if poly.keys() <= {EMPTY_MONO}:
        return _gamma_constant(c, ctx)
    shift = _floor_fraction(c)
    if shift == 0 or abs(shift) > _MAX_GAMMA_SHIFT:
        return _atom_rat(FunctionApp("gamma", (), (emit(arg_rat),)))
    rep_poly = poly_add(poly, const_poly(-shift))
    atom = FunctionApp("gamma", (), (emit(RatForm(rep_poly, ONE_POLY)),))
    result = _atom_rat(atom)
    if shift > 0:
        # Gamma(u + k) = (u+k-1)...(u) Gamma(u)
        for j in range(1, shift + 1):
            factor = RatForm(poly_add(poly, const_poly(-j)), ONE_POLY)
            result = _rat_mul(result, factor, ctx)
    else:
        # Gamma(u - k) = Gamma(u) / ((u-k)(u-k+1)...(u-1))
        for j in range(0, -shift):
            factor = RatForm(poly_add(poly, const_poly(j)), ONE_POLY)
            result = _rat_mul(result, _rat_inv(factor, ctx), ctx)
    return result


def _floor_fraction(c: Rat) -> int:
    return c.numerator // c.denominator


def _gamma_constant(c: Rat, ctx: NormContext) -> RatForm:
    shift = _floor_fraction(c)
    # The folded value is a product of |shift| factors, none larger than
    # c in numerator or denominator, so it is bounded like c**shift.
    if (c.denominator == 1 and c < 1) or ir.exact_power_too_large(c, shift):
        # A pole (kept so evaluation reports it), or too large to fold.
        return _atom_rat(FunctionApp("gamma", (), (Number(c),)))
    if c.denominator == 1:
        return _rat_const(factorial(int(c) - 1))
    rep = c - shift
    if rep == Fraction(1, 2):
        result = _atom_rat(Const(ir.PI), Fraction(1, 2))
    else:
        result = _atom_rat(FunctionApp("gamma", (), (Number(rep),)))
    if shift > 0:
        value = 1
        for j in range(1, shift + 1):
            value *= c - j
        return _rat_mul(result, _rat_const(value), ctx)
    if shift < 0:
        value = 1
        for j in range(0, -shift):
            value *= c + j
        return _rat_mul(result, _rat_inv(_rat_const(value), ctx), ctx)
    return result


def _norm_genhyper(expr: FunctionApp, ctx: NormContext) -> RatForm:
    p = int(expr.params[0].value)  # type: ignore[union-attr]
    q = int(expr.params[1].value)  # type: ignore[union-attr]
    numerator = [canon(a, ctx) for a in expr.args[:p]]
    denominator = [canon(a, ctx) for a in expr.args[p:p + q]]
    z = canon(expr.args[p + q], ctx)
    # Upper-parameter zero terminates the series at its first term.
    if any(a == ir.ZERO for a in numerator):
        return _rat_const(1)
    if z == ir.ZERO:
        return _rat_const(1)
    # Matching parameters cancel.
    num_left: list[Expr] = []
    den_left = list(denominator)
    for a in numerator:
        if a in den_left:
            den_left.remove(a)
        else:
            num_left.append(a)
    numerator, denominator = num_left, den_left
    p, q = len(numerator), len(denominator)
    if p == 0 and q == 0:
        return norm_plain(ir.power(Const(ir.EULER_E), z), ctx)
    terminating = [
        int(-a.value) for a in numerator
        if isinstance(a, Number) and a.value.denominator == 1 and a.value <= 0
    ]
    if terminating and min(terminating) <= _MAX_HYPER_UNROLL:
        n = min(terminating)
        total: Expr = ir.ZERO
        for k in range(n + 1):
            term: Expr = ir.div(ir.power(z, ir.num(k)), ir.num(factorial(k)))
            for a in numerator:
                term = ir.mul(term, FunctionApp("pochhammer", (), (a, ir.num(k))))
            for b in denominator:
                term = ir.div(term, FunctionApp("pochhammer", (), (b, ir.num(k))))
            total = ir.add(total, term)
        return norm_plain(total, ctx)
    atom = FunctionApp(
        "genhyper",
        (ir.num(p), ir.num(q)),
        tuple(sorted(numerator, key=ir.sort_key))
        + tuple(sorted(denominator, key=ir.sort_key))
        + (z,),
    )
    return _atom_rat(atom)


def _norm_bigop(expr: BigOp, ctx: NormContext) -> RatForm:
    lo = canon(expr.lo, ctx) if expr.lo is not None else None
    hi = canon(expr.hi, ctx) if expr.hi is not None else None
    if expr.kind in (ir.OP_SUM, ir.OP_PROD) and isinstance(lo, Number) and \
            isinstance(hi, Number) and lo.value.denominator == 1 and \
            hi.value.denominator == 1:
        span = int(hi.value) - int(lo.value) + 1
        if 0 <= span <= _MAX_BIGOP_UNROLL:
            acc = _rat_const(0 if expr.kind == ir.OP_SUM else 1)
            for k in range(int(lo.value), int(hi.value) + 1):
                piece = norm_plain(
                    ir.substitute(expr.body, {expr.var: ir.num(k)}), ctx
                )
                acc = _rat_add(acc, piece, ctx) if expr.kind == ir.OP_SUM \
                    else _rat_mul(acc, piece, ctx)
            return acc
    body = canon(expr.body, ctx)
    return _atom_rat(BigOp(expr.kind, expr.var, lo, hi, body))


# --- gamma reflection ---

def _gamma_atoms(mono: Mono) -> list[tuple[int, Expr]]:
    """Index and argument of each gamma atom in ``mono`` with a positive
    integer exponent: the atoms a reflection pair is drawn from."""
    return [
        (i, atom.args[0]) for i, (atom, exp) in enumerate(mono)
        if isinstance(atom, FunctionApp) and atom.func == "gamma"
        and isinstance(exp, _RAT) and exp.denominator == 1 and exp >= 1
    ]


def _gamma_pairs(mono: Mono, ctx: NormContext) -> Optional[tuple[int, int, Expr, int]]:
    """Indices of a gamma pair whose arguments sum to an integer m in
    {0, 1}; returns (i, j, argument_of_first, m)."""
    gammas = _gamma_atoms(mono)
    for x in range(len(gammas)):
        for y in range(x + 1, len(gammas)):
            i, u = gammas[x]
            j, v = gammas[y]
            total = emit(norm_plain(ir.add(u, v), ctx))
            if isinstance(total, Number) and total.value.denominator == 1 \
                    and total.value in (0, 1):
                return i, j, u, int(total.value)
    return None


def _reflect_poly(p: Poly, ctx: NormContext) -> tuple[RatForm, bool]:
    # With no monomial holding two gamma atoms nothing can pair, and the
    # term-by-term rebuild below would only copy ``p`` (with no ticks).
    if all(len(_gamma_atoms(mono)) < 2 for mono in p):
        return RatForm(p, ONE_POLY), False
    changed = False
    total = RatForm({}, ONE_POLY)
    for mono, coef in p.items():
        pair = _gamma_pairs(mono, ctx)
        if pair is None:
            total = _rat_add(total, RatForm({mono: coef}, ONE_POLY), ctx)
            continue
        changed = True
        i, j, u, m = pair
        rest = []
        for k, (atom, exp) in enumerate(mono):
            if k in (i, j):
                if isinstance(exp, _RAT) and exp > 1:
                    rest.append((atom, exp - 1))
            else:
                rest.append((atom, exp))
        sin_arg = emit(norm_plain(ir.mul(Const(ir.PI), u), ctx))
        sin_atom = FunctionApp("sin", (), (sin_arg,))
        # Gamma(u)Gamma(1-u) = pi/sin(pi u); Gamma(u)Gamma(-u) = -pi/(u sin(pi u)).
        replacement = _rat_mul(
            _atom_rat(Const(ir.PI)),
            _rat_inv(_atom_rat(sin_atom), ctx),
            ctx,
        )
        if m == 0:
            replacement = _rat_mul(replacement, _rat_const(-1), ctx)
            replacement = _rat_mul(replacement, _rat_inv(norm_plain(u, ctx), ctx), ctx)
        piece = _rat_mul(RatForm({tuple(rest): coef}, ONE_POLY), replacement, ctx)
        total = _rat_add(total, piece, ctx)
    return total, changed


def _gamma_reflect(rat: RatForm, ctx: NormContext) -> RatForm:
    for _ in range(8):
        num_rat, ch1 = _reflect_poly(rat.num, ctx)
        den_rat, ch2 = _reflect_poly(rat.den, ctx)
        if not (ch1 or ch2):
            return rat
        # num/den each became rational forms; recombine.
        rat = _rat_mul(num_rat, _rat_inv(den_rat, ctx), ctx)
    return rat


# --- emission ---

def emit(rf: RatForm) -> Expr:
    """The IR of a normal form, its terms in `_mono_sort_key` order, so
    equal forms emit equal IR whatever order their dicts hold."""
    num = _emit_poly(rf.num)
    if rf.den == ONE_POLY:
        return num
    if not rf.num:
        return ir.ZERO
    den = _emit_poly(rf.den)
    return ir.mul(num, ir.power(den, ir.MINUS_ONE))


def _emit_poly(poly: Poly) -> Expr:
    if not poly:
        return ir.ZERO
    terms = []
    for mono, coef in sorted(poly.items(), key=lambda kv: _mono_sort_key(kv[0])):
        factors: list[Expr] = []
        if coef != 1 or not mono:
            factors.append(Number(coef))
        for atom, exp in mono:
            factors.append(ir.power(atom, _exp_to_expr(exp)))
        terms.append(ir.mul(*factors) if len(factors) != 1 else factors[0])
    return ir.add(*terms) if len(terms) != 1 else terms[0]


# --- classification helpers ---

def is_zero_form(rf: RatForm) -> bool:
    return not rf.num


def is_one_form(rf: RatForm) -> bool:
    return rf.num == rf.den


def constant_value(rf: RatForm) -> Optional[Fraction]:
    num, den = rf.num, rf.den
    if num.keys() <= {EMPTY_MONO} and den.keys() <= {EMPTY_MONO}:
        n = num.get(EMPTY_MONO, 0)
        d = den.get(EMPTY_MONO, 0)
        if d != 0:
            return Fraction(n) / d
    return None
