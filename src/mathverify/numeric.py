"""Numeric verification: test-value assignment and high-precision evaluation.

The evaluation kernel runs on mpmath with a guard-digit working precision
(requested digits + 10).  Verification assigns candidate values to free
variables, filters them through the interpreted constraints, evaluates
both relation sides at every surviving assignment, and classifies the
outcome against the configured threshold.  Timeout enforcement is
cooperative: every evaluation step and series loop polls a deadline.
Each function value is computed once per formula: both sides share one
value table across all assignments, and nothing is kept across formulae.
The evaluator table ``_EVALUATORS`` is the one list of evaluable function
ids: ``NUMERIC_FUNCTIONS`` is its key set, and the translation table's
numeric flags are checked against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import mpmath
from mpmath import mp

from . import ir
from .calculus import resolve_derivatives
from .constraints import SpecialValueAssignment, VariableDomain, check_domain
from .errors import (
    ConvergenceFailure,
    EvaluationError,
    MathVerifyError,
    NumericallyUnsupported,
    PoleOrSingularity,
    VerificationTimeout,
)
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
    Relation,
    Var,
    free_variables,
)

DEFAULT_TEST_VALUES = (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))

MODE_ABSOLUTE = "absolute"
MODE_RELATIVE = "relative"
MODE_QUOTIENT = "quotient"


@dataclass
class NumericConfig:
    test_values: tuple = DEFAULT_TEST_VALUES
    threshold: float = 0.001
    precision_digits: int = 10
    timeout_seconds: float = 300.0
    comparison_mode: str = MODE_ABSOLUTE

    def __post_init__(self):
        # Written as ``not > 0`` so that NaN is rejected too.
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.precision_digits < 1:
            raise ValueError("precision must be at least one digit")
        if not self.timeout_seconds > 0:
            raise ValueError("timeout must be positive")
        if self.comparison_mode not in (MODE_ABSOLUTE, MODE_RELATIVE, MODE_QUOTIENT):
            raise ValueError(f"unknown comparison mode {self.comparison_mode!r}")


class Deadline:
    """Cooperative cancellation checkpoint for long evaluations."""

    __slots__ = ("_limit",)

    def __init__(self, seconds: Optional[float]):
        self._limit = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self._limit is not None and time.monotonic() > self._limit:
            raise VerificationTimeout("verification exceeded its time limit")


_NO_DEADLINE = Deadline(None)


# The most function values one context keeps; past it, new values are
# computed and not stored, so a long sum or integral stays bounded in memory.
MAX_TABLE_VALUES = 10_000


class EvalContext:
    """State of one ``verify_numeric`` or ``eval_expr`` call.

    ``values`` is the value table: it maps ``(func, mp.prec, number of
    params, raw operand...)`` to the finite value of that function
    application, or to the `MathVerifyError` its evaluation raised, which
    every later occurrence raises again without evaluating.  An operand
    is keyed by its raw ``_mpf_`` or ``_mpc_`` tuple, which tells a real
    from a complex number with zero imaginary part; the working precision
    is in the key because ``mp.quad`` raises it inside an integrand.
    """

    __slots__ = ("deadline", "branch_sensitive", "values")

    def __init__(self, deadline: Deadline = _NO_DEADLINE):
        self.deadline = deadline
        self.branch_sensitive = False
        self.values: dict[tuple, object] = {}


def _to_mp(value):
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    if isinstance(value, complex):
        return mp.mpc(value.real, value.imag)
    if isinstance(value, (int, float)):
        return mp.mpf(value)
    return value  # already an mpmath number


def _is_real(x) -> bool:
    return isinstance(x, mpmath.mpf) or (hasattr(x, "imag") and x.imag == 0)


def _is_integer_mp(x) -> bool:
    return _is_real(x) and mp.isint(mp.re(x))


def _check_finite(x):
    if not mp.isfinite(x):
        raise PoleOrSingularity(f"non-finite value {x}")
    return x


def eval_expr(expr: Expr, assignment: dict, config: NumericConfig,
              ctx: Optional[EvalContext] = None):
    """Evaluate an IR expression to an mpmath number at the assignment.

    Works at ``precision_digits`` plus ten guard digits, or at the
    caller's ``mp.dps`` when that is higher; principal
    branches everywhere, with branch-sensitive operations recorded on the
    context.  Without ``ctx`` the call gets a fresh context, so its value
    table dies with the call; a context passed in keeps its table.
    """
    if ctx is None:
        ctx = EvalContext()
    with mp.workdps(max(mp.dps, config.precision_digits + 10)):
        mp_assign = {k: _to_mp(v) for k, v in assignment.items()}
        return _eval(expr, mp_assign, ctx)


def _eval(expr: Expr, assign: dict, ctx: EvalContext):
    ctx.deadline.check()
    if isinstance(expr, Number):
        return mp.mpf(expr.value.numerator) / mp.mpf(expr.value.denominator)
    if isinstance(expr, Const):
        if expr.name == ir.IMAGINARY_UNIT:
            return mp.mpc(0, 1)
        if expr.name == ir.EULER_E:
            return mp.e + 0
        if expr.name == ir.PI:
            return mp.pi + 0
        if expr.name == ir.EULER_GAMMA:
            return mp.euler + 0
        raise EvaluationError(f"constant {expr.name} has no finite value")
    if isinstance(expr, Var):
        try:
            return assign[expr.name]
        except KeyError:
            raise EvaluationError(f"unassigned variable {expr.name!r}") from None
    if isinstance(expr, Add):
        total = mp.mpf(0)
        for t in expr.terms:
            total += _eval(t, assign, ctx)
        return _check_finite(total)
    if isinstance(expr, Mul):
        prod = mp.mpf(1)
        for f in expr.factors:
            prod *= _eval(f, assign, ctx)
        return _check_finite(prod)
    if isinstance(expr, Neg):
        return -_eval(expr.operand, assign, ctx)
    if isinstance(expr, Pow):
        return _eval_pow(expr, assign, ctx)
    if isinstance(expr, FunctionApp):
        return _eval_function(expr, assign, ctx)
    if isinstance(expr, Derivative):
        resolved = resolve_derivatives(expr)
        if isinstance(resolved, Derivative):
            raise NumericallyUnsupported(f"derivative of {_head_name(expr.operand)}")
        return _eval(resolved, assign, ctx)
    if isinstance(expr, BigOp):
        return _eval_bigop(expr, assign, ctx)
    raise EvaluationError(f"cannot evaluate {expr!r}")


def _head_name(expr: Expr) -> str:
    if isinstance(expr, FunctionApp):
        return expr.func
    return type(expr).__name__.lower()


def _eval_pow(expr: Pow, assign: dict, ctx: EvalContext):
    base = _eval(expr.base, assign, ctx)
    exponent = _eval(expr.exponent, assign, ctx)
    if base == 0:
        if exponent == 0:
            return mp.mpf(1)
        if mp.re(exponent) > 0:
            return mp.mpf(0)
        raise PoleOrSingularity("zero base with an exponent of non-positive real part")
    if _is_real(base) and mp.re(base) < 0 and not _is_integer_mp(exponent):
        ctx.branch_sensitive = True
    # Both operands are finite and the base is not zero; mpmath's exponent
    # range is unbounded, so the power neither raises nor overflows.
    return _check_finite(mp.power(base, exponent))


def _eval_function(expr: FunctionApp, assign: dict, ctx: EvalContext):
    func = expr.func
    if func not in NUMERIC_FUNCTIONS:
        raise NumericallyUnsupported(func)
    params = [_eval(p, assign, ctx) for p in expr.params]
    args = [_eval(a, assign, ctx) for a in expr.args]
    # A hit follows the miss that set any branch flag in this context.
    key = (func, mp.prec, len(params),
           *[getattr(v, "_mpf_", None) or v._mpc_ for v in params + args])
    values = ctx.values
    value = values.get(key)
    if value is not None:
        if isinstance(value, MathVerifyError):
            raise _bare_copy(value)
        return value
    try:
        value = _apply(func, params, args, ctx)
    except MathVerifyError as exc:
        if len(values) < MAX_TABLE_VALUES:
            values[key] = _bare_copy(exc)
        raise
    if len(values) < MAX_TABLE_VALUES:
        values[key] = value
    return value


def _bare_copy(exc: MathVerifyError) -> MathVerifyError:
    """``exc`` with its message and attributes but no traceback or cause.
    The table stores and raises such copies: an error raised here would
    carry frames that hold the context, and so keep the table alive."""
    copy = type(exc).__new__(type(exc), *exc.args)
    copy.__dict__.update(exc.__dict__)
    return copy


def _apply(func: str, params: list, args: list, ctx: EvalContext):
    """The finite value of one function application, or the
    `MathVerifyError` that tells why there is none."""
    try:
        value = _dispatch(func, params, args, ctx)
    except mpmath.libmp.NoConvergence as exc:
        raise ConvergenceFailure(str(exc)) from exc
    except (ZeroDivisionError, ValueError, ArithmeticError) as exc:
        raise PoleOrSingularity(f"{func}: {exc}") from exc
    return _check_finite(value)


def _flag_negative_real(z, ctx: EvalContext) -> None:
    # On the negative reals the principal branch decides the value.
    if _is_real(z) and mp.re(z) < 0:
        ctx.branch_sensitive = True


def _ln(params: list, args: list, ctx: EvalContext):
    _flag_negative_real(args[0], ctx)
    if args[0] == 0:
        raise PoleOrSingularity("log of zero")
    return mp.log(args[0])


def _log_gamma(params: list, args: list, ctx: EvalContext):
    _flag_negative_real(args[0], ctx)
    return mp.loggamma(args[0])


def _eval_genhyper(params: list, args: list, ctx: EvalContext):
    p, q = int(mp.re(params[0])), int(mp.re(params[1]))
    a_s = args[:p]
    b_s = args[p:p + q]
    z = args[p + q]
    terminating = any(_is_integer_mp(a) and mp.re(a) <= 0 for a in a_s)
    if (p, q) not in ((0, 0), (0, 1), (1, 1), (2, 1)) and not terminating:
        raise NumericallyUnsupported(f"genhyper({p},{q})")
    return mp.hyper(a_s, b_s, z)


def _of_arg(f):
    return lambda params, args, ctx: f(args[0])


def _of_param_and_arg(f):
    return lambda params, args, ctx: f(params[0], args[0])


def _of_two_args(f):
    return lambda params, args, ctx: f(args[0], args[1])


# Function id -> evaluator of the evaluated (params, args, context).  The
# keys are the function ids the kernel can evaluate.
_EVALUATORS = {
    "sin": _of_arg(mp.sin), "cos": _of_arg(mp.cos), "tan": _of_arg(mp.tan),
    "sec": _of_arg(mp.sec), "csc": _of_arg(mp.csc), "cot": _of_arg(mp.cot),
    "sinh": _of_arg(mp.sinh), "cosh": _of_arg(mp.cosh), "tanh": _of_arg(mp.tanh),
    "sech": _of_arg(mp.sech), "csch": _of_arg(mp.csch), "coth": _of_arg(mp.coth),
    "arcsin": _of_arg(mp.asin), "arccos": _of_arg(mp.acos), "arctan": _of_arg(mp.atan),
    "ln": _ln, "gamma": _of_arg(mp.gamma), "log_gamma": _log_gamma,
    "erf": _of_arg(mp.erf), "erfc": _of_arg(mp.erfc),
    "bessel_j": _of_param_and_arg(mp.besselj), "bessel_y": _of_param_and_arg(mp.bessely),
    "bessel_i": _of_param_and_arg(mp.besseli), "bessel_k": _of_param_and_arg(mp.besselk),
    "genhyper": _eval_genhyper,
    # Params (alpha, beta, n) and (n, alpha); mpmath takes the degree first.
    "jacobi_poly": lambda params, args, ctx: mp.jacobi(params[2], params[0], params[1],
                                                       args[0]),
    "laguerre_poly": lambda params, args, ctx: mp.laguerre(params[0], params[1], args[0]),
    "hermite_poly": _of_param_and_arg(mp.hermite),
    "cheby_t": _of_param_and_arg(mp.chebyt), "cheby_u": _of_param_and_arg(mp.chebyu),
    "legendre_poly": _of_param_and_arg(mp.legendre),
    "elliptic_k": _of_arg(mp.ellipk), "elliptic_e": _of_arg(mp.ellipe),
    "binomial": _of_two_args(mp.binomial), "pochhammer": _of_two_args(mp.rf),
}

NUMERIC_FUNCTIONS = frozenset(_EVALUATORS)


def _dispatch(func: str, params: list, args: list, ctx: EvalContext):
    try:
        evaluate = _EVALUATORS[func]
    except KeyError:
        raise NumericallyUnsupported(func) from None
    return evaluate(params, args, ctx)


_INFINITY = Const(ir.INFINITY)
_MINUS_INFINITY = Neg(_INFINITY)


def _integral_bound(bound: Expr, assign: dict, ctx: EvalContext):
    """An integral's bound; ``\\infty`` and ``-\\infty`` become ``mp.inf``
    and ``-mp.inf``, which ``mp.quad`` accepts."""
    if bound == _INFINITY:
        return mp.inf
    if bound == _MINUS_INFINITY:
        return -mp.inf
    return _eval(bound, assign, ctx)


def _eval_bigop(expr: BigOp, assign: dict, ctx: EvalContext):
    if expr.kind in (ir.OP_SUM, ir.OP_PROD):
        lo = _eval(expr.lo, assign, ctx)
        hi = _eval(expr.hi, assign, ctx)
        if not (_is_integer_mp(lo) and _is_integer_mp(hi)):
            raise NumericallyUnsupported(f"{expr.kind} with non-integer bounds")
        lo_i, hi_i = int(mp.re(lo)), int(mp.re(hi))
        acc = mp.mpf(0) if expr.kind == ir.OP_SUM else mp.mpf(1)
        inner = dict(assign)
        for k in range(lo_i, hi_i + 1):
            ctx.deadline.check()
            inner[expr.var] = mp.mpf(k)
            term = _eval(expr.body, inner, ctx)
            acc = acc + term if expr.kind == ir.OP_SUM else acc * term
        return _check_finite(acc)
    if expr.kind == ir.OP_INT:
        lo = _integral_bound(expr.lo, assign, ctx)
        hi = _integral_bound(expr.hi, assign, ctx)
        if not (_is_real(lo) and _is_real(hi)):
            raise NumericallyUnsupported("integral over a non-finite real interval")
        inner = dict(assign)

        def integrand(t):
            ctx.deadline.check()
            inner[expr.var] = t
            return _eval(expr.body, inner, ctx)

        # mp.quad returns its best estimate rather than raise NoConvergence.
        value, error = mp.quad(integrand, [mp.re(lo), mp.re(hi)], error=True)
        # Over an infinite interval a divergent integral still gets a finite
        # estimate, which only the error estimate gives away.  That estimate
        # is absolute and at most 1, so it is not scaled by the value.
        if (mp.isinf(lo) or mp.isinf(hi)) and error > mp.sqrt(mp.eps):
            raise ConvergenceFailure("integral over an infinite interval does not converge")
        return _check_finite(value)
    raise NumericallyUnsupported(f"big operator {expr.kind}")


# --- test value assignment ---

def _integer_candidates(domain: VariableDomain) -> Optional[list[Fraction]]:
    """Smallest three members for countable domains; None when the domain
    does not prescribe one."""
    if domain.progression is not None:
        start, step, end = domain.progression
        values = []
        v = start
        while len(values) < 3:
            if end is not None:
                if (step > 0 and v > end) or (step < 0 and v < end):
                    break
            values.append(v)
            v = v + step
        return values
    if domain.finite_set is not None:
        return sorted(domain.finite_set)[:3]
    if domain.base_set == "integer":
        lo = Fraction(0)
        if domain.interval is not None:
            lower, lower_strict, _, _ = domain.interval
            if lower is not None:
                lo = Fraction(int(lower) + (1 if lower_strict and lower == int(lower) else 0))
                while lo < lower or (lower_strict and lo == lower):
                    lo += 1
        return [lo, lo + 1, lo + 2]
    return None


def generate_assignments(
    variables: set[str],
    domains: Sequence[VariableDomain],
    specials: Optional[SpecialValueAssignment],
    config: NumericConfig,
) -> list[dict[str, Fraction]]:
    """Cartesian product of per-variable candidate lists, filtered by the
    interpreted domains.  Closed formulae get the single empty assignment."""
    if not variables:
        return [{}]
    special_values = dict(specials.assignments) if specials is not None else {}
    per_var: dict[str, list[Fraction]] = {}
    for name in sorted(variables):
        if name in special_values:
            # Kept even when an interpreted domain disagrees (the
            # conflict is logged upstream).
            per_var[name] = [special_values[name]]
            continue
        var_domains = [d for d in domains if d.var == name]
        candidates: Optional[list[Fraction]] = None
        for d in var_domains:
            candidates = _integer_candidates(d)
            if candidates is not None:
                break
        if candidates is None:
            candidates = [Fraction(v) if not isinstance(v, complex) else v
                          for v in config.test_values]
        kept = [v for v in candidates if check_domain(var_domains, {name: v})]
        per_var[name] = kept
    assignments: list[dict[str, Fraction]] = [{}]
    for name in sorted(variables):
        new: list[dict[str, Fraction]] = []
        for base in assignments:
            for v in per_var[name]:
                ext = dict(base)
                ext[name] = v
                new.append(ext)
        assignments = new
    return assignments


# --- relation verification ---

@dataclass
class EvalRecord:
    assignment: dict[str, str]
    lhs: complex
    rhs: complex
    discrepancy: float


CLASS_VERIFIED = "verified"
CLASS_ABOVE_THRESHOLD = "above_threshold"
CLASS_NO_VALID_VALUES = "no_valid_values"
CLASS_EVALUATION_ERROR = "evaluation_error"
CLASS_TIMEOUT = "timeout"
CLASS_UNSUPPORTED = "numerically_unsupported"


@dataclass
class NumericOutcome:
    classification: str
    detail: Optional[str] = None
    worst: Optional[float] = None
    evaluations: list[EvalRecord] = field(default_factory=list)
    skipped: list[dict[str, str]] = field(default_factory=list)
    branch_sensitive: bool = False

    @property
    def verified(self) -> bool:
        return self.classification == CLASS_VERIFIED


def _fmt_assignment(assignment: dict) -> dict[str, str]:
    return {k: str(v) for k, v in assignment.items()}


def _discrepancy(kind: str, lhs, rhs, config: NumericConfig) -> tuple[float, bool]:
    """(reported discrepancy, point passes)."""
    threshold = config.threshold
    if kind in (ir.REL_EQ, ir.REL_EQUIV, ir.REL_NE):
        if config.comparison_mode == MODE_QUOTIENT and rhs != 0:
            d = float(abs(lhs / rhs - 1))
        elif config.comparison_mode == MODE_RELATIVE:
            scale = max(abs(lhs), abs(rhs), mp.mpf(1))
            d = float(abs(lhs - rhs) / scale)
        else:
            d = float(abs(lhs - rhs))
        if kind == ir.REL_NE:
            return d, d >= threshold
        return d, d < threshold
    # Order relations need essentially real values.
    imag = float(max(abs(mp.im(lhs)), abs(mp.im(rhs))))
    if imag >= threshold:
        return imag, False
    # a > b is checked as b < a, and a >= b as b <= a.
    a, b = mp.re(lhs), mp.re(rhs)
    if kind in (ir.REL_GT, ir.REL_GE):
        a, b = b, a
    margin = max(float(a - b), 0.0)
    if kind in (ir.REL_LT, ir.REL_GT):
        return margin, a < b
    # Computed equality slack for the non-strict relations.
    return margin, a <= b + mp.mpf(10) ** (-config.precision_digits)


def verify_numeric(
    rel: Relation,
    domains: Sequence[VariableDomain] = (),
    specials: Optional[SpecialValueAssignment] = None,
    config: Optional[NumericConfig] = None,
) -> NumericOutcome:
    """Evaluate the relation at every valid assignment and classify."""
    config = config or NumericConfig()
    if rel.kind == ir.REL_TO:
        raise ValueError("limit relations are not numerically verifiable")
    deadline = Deadline(config.timeout_seconds)
    ctx = EvalContext(deadline)
    variables = free_variables(rel.lhs) | free_variables(rel.rhs)
    assignments = generate_assignments(variables, domains, specials, config)
    if not assignments:
        return NumericOutcome(CLASS_NO_VALID_VALUES)
    lhs = resolve_derivatives(rel.lhs)
    rhs = resolve_derivatives(rel.rhs)
    evaluations: list[EvalRecord] = []
    skipped: list[dict[str, str]] = []
    worst: Optional[float] = None
    all_pass = True
    with mp.workdps(config.precision_digits + 10):
        for assignment in assignments:
            mp_assign = {k: _to_mp(v) for k, v in assignment.items()}
            try:
                lv = _eval(lhs, mp_assign, ctx)
                rv = _eval(rhs, mp_assign, ctx)
            except PoleOrSingularity:
                skipped.append(_fmt_assignment(assignment))
                continue
            except NumericallyUnsupported as exc:
                return NumericOutcome(
                    CLASS_UNSUPPORTED, detail=exc.function_id,
                    evaluations=evaluations, skipped=skipped,
                    branch_sensitive=ctx.branch_sensitive,
                )
            except VerificationTimeout:
                return NumericOutcome(
                    CLASS_TIMEOUT, evaluations=evaluations, skipped=skipped,
                    branch_sensitive=ctx.branch_sensitive,
                )
            except EvaluationError as exc:
                return NumericOutcome(
                    CLASS_EVALUATION_ERROR, detail=exc.kind,
                    evaluations=evaluations, skipped=skipped,
                    branch_sensitive=ctx.branch_sensitive,
                )
            d, ok = _discrepancy(rel.kind, lv, rv, config)
            evaluations.append(
                EvalRecord(_fmt_assignment(assignment), complex(lv), complex(rv), d)
            )
            if not ok:
                all_pass = False
                worst = d if worst is None else max(worst, d)
    if not evaluations:
        return NumericOutcome(CLASS_NO_VALID_VALUES, skipped=skipped,
                              branch_sensitive=ctx.branch_sensitive)
    if all_pass:
        return NumericOutcome(CLASS_VERIFIED, evaluations=evaluations,
                              skipped=skipped, branch_sensitive=ctx.branch_sensitive)
    return NumericOutcome(
        CLASS_ABOVE_THRESHOLD, worst=worst, evaluations=evaluations,
        skipped=skipped, branch_sensitive=ctx.branch_sensitive,
    )
