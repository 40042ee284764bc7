import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import oracles
from mathverify import ir, numeric
from mathverify.calculus import resolve_derivatives
from mathverify.constraints import (
    SpecialValueAssignment,
    VariableDomain,
    interpret_constraints,
)
from mathverify.errors import (
    ConvergenceFailure,
    EvaluationError,
    MathVerifyError,
    NumericallyUnsupported,
    PoleOrSingularity,
)
from mathverify.ir import (
    Add,
    BigOp,
    Const,
    Derivative,
    FunctionApp,
    Number,
    Pow,
    Var,
    free_variables,
)
from mathverify.numeric import (
    CLASS_ABOVE_THRESHOLD,
    CLASS_EVALUATION_ERROR,
    CLASS_NO_VALID_VALUES,
    CLASS_TIMEOUT,
    CLASS_UNSUPPORTED,
    CLASS_VERIFIED,
    MODE_QUOTIENT,
    MODE_RELATIVE,
    NUMERIC_FUNCTIONS,
    EvalContext,
    EvalRecord,
    NumericConfig,
    NumericOutcome,
    eval_expr,
    generate_assignments,
    verify_numeric,
)
from mathverify.parser import parse, tokenize
from mathverify.translate import to_relation

CONFIG = NumericConfig()
TOL = mpf(10) ** -10


def _f(func, *args, params=()):
    return FunctionApp(func, tuple(params), tuple(args))


def kernel(func, params, args, dps=25):
    expr = _f(func, *[Var(f"a{i}") for i in range(len(args))],
              params=[Var(f"p{i}") for i in range(len(params))])
    assign = {f"p{i}": v for i, v in enumerate(params)}
    assign.update({f"a{i}": v for i, v in enumerate(args)})
    return eval_expr(expr, assign, NumericConfig(precision_digits=dps))


def agree(value, reference):
    return abs(mpc(value) - mpc(reference)) <= TOL * max(1, abs(mpc(reference)))


# Twenty-plus sample points per function: a real sweep plus complex points.
REAL_POINTS = [Fraction(n, 10) for n in
               (-27, -19, -13, -8, -3, 2, 4, 7, 11, 14, 16, 19, 23, 26, 31)]
COMPLEX_POINTS = [complex(0.4, 0.7), complex(-0.8, 0.3), complex(1.2, -0.9),
                  complex(-1.4, -0.6), complex(0.1, 1.3), complex(2.2, 0.4)]
ALL_POINTS = REAL_POINTS + COMPLEX_POINTS  # 21 points


def _points(exclude=lambda z: False):
    points = [z for z in ALL_POINTS if not exclude(z)]
    assert len(points) >= 20 or exclude is not None
    return points


@pytest.mark.parametrize("z", ALL_POINTS)
def test_oracle_sin(z):
    with mp.workdps(30):
        assert agree(kernel("sin", (), (z,)), oracles.sin_series(z))


@pytest.mark.parametrize("z", ALL_POINTS)
def test_oracle_cos(z):
    with mp.workdps(30):
        assert agree(kernel("cos", (), (z,)), oracles.cos_series(z))


@pytest.mark.parametrize("z", ALL_POINTS)
def test_oracle_tan_as_ratio(z):
    with mp.workdps(30):
        ref = oracles.sin_series(z) / oracles.cos_series(z)
        assert agree(kernel("tan", (), (z,)), ref)


@pytest.mark.parametrize("z", ALL_POINTS)
def test_oracle_sinh_cosh_tanh(z):
    with mp.workdps(30):
        assert agree(kernel("sinh", (), (z,)), oracles.sinh_series(z))
        assert agree(kernel("cosh", (), (z,)), oracles.cosh_series(z))
        ref = oracles.sinh_series(z) / oracles.cosh_series(z)
        assert agree(kernel("tanh", (), (z,)), ref)


@pytest.mark.parametrize("z", ALL_POINTS)
def test_oracle_reciprocal_trig(z):
    with mp.workdps(30):
        assert agree(kernel("sec", (), (z,)), 1 / oracles.cos_series(z))
        assert agree(kernel("csc", (), (z,)), 1 / oracles.sin_series(z))
        assert agree(kernel("cot", (), (z,)),
                     oracles.cos_series(z) / oracles.sin_series(z))
        assert agree(kernel("sech", (), (z,)), 1 / oracles.cosh_series(z))
        assert agree(kernel("csch", (), (z,)), 1 / oracles.sinh_series(z))
        assert agree(kernel("coth", (), (z,)),
                     oracles.cosh_series(z) / oracles.sinh_series(z))


@pytest.mark.parametrize("z", [z for z in ALL_POINTS
                               if not (isinstance(z, Fraction) and z <= 0)])
def test_oracle_ln(z):
    with mp.workdps(30):
        assert agree(kernel("ln", (), (z,)), oracles.ln_atanh(z))


def test_oracle_ln_point_count():
    pts = [z for z in ALL_POINTS if not (isinstance(z, Fraction) and z <= 0)]
    # Complex points plus the positive reals still exceed ten; pad with a
    # second sweep to honor the twenty-point contract.
    extra = [Fraction(n, 7) for n in range(1, 15)]
    with mp.workdps(30):
        for z in pts + extra:
            assert agree(kernel("ln", (), (z,)), oracles.ln_atanh(z))
    assert len(pts + extra) >= 20


INVERSE_POINTS = [Fraction(n, 100) for n in
                  (-95, -80, -66, -51, -37, -22, -9, 4, 18, 27, 39, 48, 55,
                   63, 72, 81, 88, 93)] + [complex(0.3, 0.2), complex(-0.4, 0.5)]


@pytest.mark.parametrize("z", INVERSE_POINTS)
def test_oracle_arcsin_arctan(z):
    with mp.workdps(30):
        assert agree(kernel("arcsin", (), (z,)), oracles.arcsin_series(z))
        assert agree(kernel("arctan", (), (z,)), oracles.arctan_series(z))


@pytest.mark.parametrize("z", INVERSE_POINTS)
def test_oracle_arccos(z):
    with mp.workdps(30):
        ref = mp.pi / 2 - oracles.arcsin_series(z)
        assert agree(kernel("arccos", (), (z,)), ref)


GAMMA_POINTS = [Fraction(n, 10) for n in
                (-27, -19, -13, -7, -3, 3, 5, 8, 12, 15, 19, 24, 28, 33, 41)] \
    + COMPLEX_POINTS


@pytest.mark.parametrize("z", GAMMA_POINTS)
def test_oracle_gamma(z):
    with mp.workdps(35):
        assert agree(kernel("gamma", (), (z,)), oracles.spouge_gamma(z))


@pytest.mark.parametrize("z", [z for z in GAMMA_POINTS
                               if not isinstance(z, Fraction) or z > 0])
def test_oracle_log_gamma(z):
    # log-gamma's own branch structure differs from log(Gamma) by 2 pi i
    # multiples, so the comparison goes through the exponential.
    with mp.workdps(35):
        value = mp.exp(kernel("log_gamma", (), (z,), dps=30))
        assert agree(value, oracles.spouge_gamma(z))


def test_pythagorean_identity_at_three_halves():
    expr = ir.add(
        ir.power(_f("sin", Var("x")), ir.num(2)),
        ir.power(_f("cos", Var("x")), ir.num(2)),
    )
    value = eval_expr(expr, {"x": Fraction(3, 2)}, CONFIG)
    assert abs(value - 1) < mpf(10) ** -10


def test_gamma_half_is_sqrt_pi():
    value = kernel("gamma", (), (Fraction(1, 2),), dps=12)
    with mp.workdps(22):
        assert abs(value - mp.sqrt(mp.pi)) < mpf(10) ** -11


@pytest.mark.parametrize("z", ALL_POINTS)
def test_oracle_erf_erfc(z):
    with mp.workdps(30):
        ref = oracles.erf_series(z)
        assert agree(kernel("erf", (), (z,)), ref)
        assert agree(kernel("erfc", (), (z,)), 1 - ref)


BESSEL_CASES = [
    (nu, z)
    for nu in (Fraction(-3, 10), Fraction(1, 2), Fraction(13, 10), Fraction(5, 2))
    for z in (Fraction(3, 10), Fraction(9, 10), Fraction(8, 5), Fraction(27, 10),
              complex(1.1, 0.4))
]  # 20 points


@pytest.mark.parametrize("nu,z", BESSEL_CASES)
def test_oracle_bessel_j(nu, z):
    with mp.workdps(30):
        assert agree(kernel("bessel_j", (nu,), (z,)), oracles.bessel_j_series(nu, z))


@pytest.mark.parametrize("nu,z", BESSEL_CASES)
def test_oracle_bessel_y(nu, z):
    with mp.workdps(30):
        assert agree(kernel("bessel_y", (nu,), (z,)), oracles.bessel_y_from_j(nu, z))


@pytest.mark.parametrize("nu,z", BESSEL_CASES)
def test_oracle_bessel_i(nu, z):
    with mp.workdps(30):
        assert agree(kernel("bessel_i", (nu,), (z,)), oracles.bessel_i_series(nu, z))


@pytest.mark.parametrize("nu,z", BESSEL_CASES)
def test_oracle_bessel_k(nu, z):
    with mp.workdps(30):
        assert agree(kernel("bessel_k", (nu,), (z,)), oracles.bessel_k_from_i(nu, z))


HYPER_CASES = (
    [((), (Fraction(3, 2),), z) for z in
     (Fraction(-7, 10), Fraction(2, 5), Fraction(6, 5), complex(0.3, 0.5))]
    + [((Fraction(-1, 2),), (Fraction(5, 4),), z) for z in
       (Fraction(-3, 5), Fraction(1, 5), Fraction(4, 5), complex(-0.2, 0.4))]
    + [((Fraction(1, 3), Fraction(2, 3)), (Fraction(7, 5),), z) for z in
       (Fraction(-2, 5), Fraction(1, 4), Fraction(3, 5), Fraction(-4, 5),
        complex(0.2, 0.3), complex(-0.3, -0.2))]
    + [((Fraction(1), Fraction(1)), (Fraction(2),), z) for z in
       (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 10),
        complex(0.1, 0.2), Fraction(-9, 10), Fraction(7, 10))]
)  # 20 points across 0F1, 1F1, 2F1


@pytest.mark.parametrize("a_s,b_s,z", HYPER_CASES)
def test_oracle_genhyper(a_s, b_s, z):
    params = (ir.num(len(a_s)), ir.num(len(b_s)))
    args = tuple(Number(v) for v in a_s) + tuple(Number(v) for v in b_s)
    expr = FunctionApp("genhyper", params, args + (Var("z"),))
    value = eval_expr(expr, {"z": z}, NumericConfig(precision_digits=25))
    with mp.workdps(30):
        ref = oracles.hyper_series(list(a_s), list(b_s), z)
    assert agree(value, ref)


def test_two_f_one_log_identity():
    # 2F1(1,1;2;1/2) = 2 ln 2 to ten significant digits.
    expr = FunctionApp("genhyper", (ir.num(2), ir.num(1)),
                       (ir.ONE, ir.ONE, ir.num(2), ir.HALF))
    value = eval_expr(expr, {}, NumericConfig(precision_digits=12))
    with mp.workdps(22):
        assert abs(value - 2 * mp.log(2)) < mpf(10) ** -11


POLY_CASES = [
    (n, x) for n in (0, 1, 2, 3, 5, 7, 8)
    for x in (Fraction(-7, 10), Fraction(2, 5), Fraction(13, 10))
]  # 21 points


@pytest.mark.parametrize("n,x", POLY_CASES)
def test_oracle_orthogonal_polynomials(n, x):
    alpha, beta = Fraction(2, 5), Fraction(7, 10)
    with mp.workdps(30):
        assert agree(kernel("jacobi_poly", (alpha, beta, n), (x,)),
                     oracles.jacobi_recurrence(n, alpha, beta, x))
        assert agree(kernel("laguerre_poly", (n, alpha), (x,)),
                     oracles.laguerre_recurrence(n, alpha, x))
        assert agree(kernel("hermite_poly", (n,), (x,)),
                     oracles.hermite_recurrence(n, x))
        assert agree(kernel("cheby_t", (n,), (x,)),
                     oracles.chebyshev_t_recurrence(n, x))
        assert agree(kernel("cheby_u", (n,), (x,)),
                     oracles.chebyshev_u_recurrence(n, x))
        assert agree(kernel("legendre_poly", (n,), (x,)),
                     oracles.legendre_recurrence(n, x))


ELLIPTIC_POINTS = [Fraction(n, 100) for n in
                   (-60, -35, -20, -5, 2, 8, 15, 22, 30, 38, 45, 52, 60, 67,
                    73, 80, 86, 91, 95, 99)]  # 20 points


@pytest.mark.parametrize("m", ELLIPTIC_POINTS)
def test_oracle_elliptic(m):
    with mp.workdps(30):
        assert agree(kernel("elliptic_k", (), (m,)), oracles.elliptic_k_agm(m))
        assert agree(kernel("elliptic_e", (), (m,)), oracles.elliptic_e_agm(m))


POCHHAMMER_CASES = [
    (a, n) for a in (Fraction(-7, 10), Fraction(1, 3), Fraction(3, 2),
                     Fraction(5, 2), complex(0.3, 0.8))
    for n in (0, 1, 3, 6)
]  # 20 points


@pytest.mark.parametrize("a,n", POCHHAMMER_CASES)
def test_oracle_pochhammer(a, n):
    with mp.workdps(30):
        assert agree(kernel("pochhammer", (), (a, n)),
                     oracles.pochhammer_product(a, n))


BINOMIAL_CASES = [
    (a, b) for a in (Fraction(9, 2), Fraction(13, 3), Fraction(7), Fraction(21, 4))
    for b in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3))
]  # 20 points


@pytest.mark.parametrize("a,b", BINOMIAL_CASES)
def test_oracle_binomial(a, b):
    with mp.workdps(35):
        ref = oracles.spouge_gamma(a + 1) / (
            oracles.spouge_gamma(b + 1) * oracles.spouge_gamma(a - b + 1))
        assert agree(kernel("binomial", (), (a, b)), ref)


def test_finite_sum_and_product():
    body = ir.power(Var("k"), ir.num(2))
    total = eval_expr(BigOp(ir.OP_SUM, "k", ir.ZERO, ir.num(10), body), {}, CONFIG)
    assert abs(total - 385) < TOL
    prod = eval_expr(BigOp(ir.OP_PROD, "k", ir.ONE, ir.num(6), Var("k")), {}, CONFIG)
    assert abs(prod - 720) < TOL


def test_quadrature_against_simpson():
    body = ir.power(Const(ir.EULER_E), ir.neg_term(ir.power(Var("t"), ir.num(2))))
    value = eval_expr(BigOp(ir.OP_INT, "t", ir.ZERO, ir.ONE, body), {}, CONFIG)
    with mp.workdps(30):
        ref = oracles.simpson(lambda t: mp.exp(-t * t), 0, 1, 4000)
    assert abs(value - ref) < mpf(10) ** -9


def test_integral_of_square_is_exact():
    value = eval_expr(
        BigOp(ir.OP_INT, "t", ir.ZERO, ir.ONE, ir.power(Var("t"), ir.num(2))),
        {}, CONFIG)
    assert abs(value - mpf(1) / 3) < TOL


CONJUGATE_FUNCS = [
    ("sin", ()), ("cos", ()), ("sinh", ()), ("cosh", ()), ("erf", ()),
    ("gamma", ()), ("bessel_j", (Fraction(1, 2),)),
]


@pytest.mark.parametrize("func,params", CONJUGATE_FUNCS)
def test_conjugate_symmetry(func, params):
    # Real-analytic kernels commute with conjugation on their test domain.
    for z in (complex(0.7, 0.4), complex(1.3, -0.6), complex(0.2, 1.1)):
        v1 = kernel(func, params, (z,))
        v2 = kernel(func, params, (z.conjugate(),))
        assert abs(mp.conj(mpc(v1)) - mpc(v2)) < TOL


# --- assignment generation ---

def test_default_assignments_cartesian():
    out = generate_assignments({"x", "y"}, [], None, CONFIG)
    assert len(out) == 9
    assert {frozenset(a.items()) for a in out} == {
        frozenset({("x", vx), ("y", vy)})
        for vx in CONFIG.test_values for vy in CONFIG.test_values
    }


def test_blueprint_value_overrides():
    specials = SpecialValueAssignment((("x", Fraction(1, 2)),), "0 < var < 1 ==> 1/2")
    out = generate_assignments({"x"}, [], specials, CONFIG)
    assert out == [{"x": Fraction(1, 2)}]


def test_integer_domain_uses_smallest_members():
    domain = VariableDomain("n", "integer",
                            progression=(Fraction(0), Fraction(1), None))
    out = generate_assignments({"n"}, [domain], None, CONFIG)
    assert out == [{"n": Fraction(0)}, {"n": Fraction(1)}, {"n": Fraction(2)}]


def test_interval_domain_filters_defaults():
    domain = VariableDomain("x", "real",
                            interval=(Fraction(0), True, Fraction(1), True))
    out = generate_assignments({"x"}, [domain], None, CONFIG)
    assert out == [{"x": Fraction(1, 2)}]


def test_closed_formula_single_empty_assignment():
    assert generate_assignments(set(), [], None, CONFIG) == [{}]


def test_blueprint_value_wins_over_conflicting_domain():
    specials = SpecialValueAssignment((("x", Fraction(1, 2)),), "rule")
    domain = VariableDomain("x", "real",
                            interval=(Fraction(2), False, None, False))
    out = generate_assignments({"x"}, [domain], specials, CONFIG)
    assert out == [{"x": Fraction(1, 2)}]


# --- relation verification ---

def _sin(x):
    return _f("sin", x)


def _cos(x):
    return _f("cos", x)


def test_double_angle_verified():
    rel = ir.Relation(ir.REL_EQ, _sin(ir.mul(ir.num(2), Var("x"))),
                      ir.mul(ir.num(2), _sin(Var("x")), _cos(Var("x"))))
    out = verify_numeric(rel, (), None, CONFIG)
    assert out.classification == CLASS_VERIFIED
    assert len(out.evaluations) == 3


def test_seeded_sign_error_above_threshold():
    rel = ir.Relation(ir.REL_EQ, _sin(ir.mul(ir.num(2), Var("x"))),
                      ir.mul(ir.num(2), _sin(Var("x")), _sin(Var("x"))))
    out = verify_numeric(rel, (), None, CONFIG)
    assert out.classification == CLASS_ABOVE_THRESHOLD
    by_x = {ev.assignment["x"]: ev.discrepancy for ev in out.evaluations}
    assert by_x["1/2"] == pytest.approx(0.3818, abs=5e-4)
    assert out.worst > 0.001


def test_all_values_filtered_is_no_valid_values():
    domain = VariableDomain("x", "real",
                            interval=(Fraction(10), False, None, False))
    rel = ir.Relation(ir.REL_EQ, Var("x"), Var("x"))
    out = verify_numeric(rel, [domain], None, CONFIG)
    assert out.classification == CLASS_NO_VALID_VALUES


def test_inequality_relation_checked():
    rel = ir.Relation(ir.REL_LT, ir.power(Var("x"), ir.num(2)),
                      ir.add(ir.power(Var("x"), ir.num(2)), ir.ONE))
    out = verify_numeric(rel, (), None, CONFIG)
    assert out.classification == CLASS_VERIFIED
    # The reversed relation fails with the violation margin recorded.
    flipped = ir.Relation(ir.REL_GT, ir.power(Var("x"), ir.num(2)),
                          ir.add(ir.power(Var("x"), ir.num(2)), ir.ONE))
    out = verify_numeric(flipped, (), None, CONFIG)
    assert out.classification == CLASS_ABOVE_THRESHOLD


def test_ne_relation_uses_threshold_tolerance():
    rel = ir.Relation(ir.REL_NE, Var("x"), ir.add(Var("x"), ir.ONE))
    assert verify_numeric(rel, (), None, CONFIG).classification == CLASS_VERIFIED
    rel_eq = ir.Relation(ir.REL_NE, Var("x"), Var("x"))
    assert verify_numeric(rel_eq, (), None, CONFIG).classification == \
        CLASS_ABOVE_THRESHOLD


def test_singularity_bookkeeping():
    # 1/(x - 1/2) hits a pole at the x = 1/2 test value and is skipped.
    body = ir.div(ir.ONE, ir.sub(Var("x"), ir.HALF))
    rel = ir.Relation(ir.REL_EQ, body, body)
    out = verify_numeric(rel, (), None, CONFIG)
    assert out.classification == CLASS_VERIFIED
    assert len(out.evaluations) + len(out.skipped) == 3
    assert len(out.skipped) == 1


def test_numerically_unsupported_function():
    rel = ir.Relation(
        ir.REL_EQ,
        FunctionApp("qgenhyper", (ir.num(1), ir.num(1)),
                    (Var("a"), Var("b"), Var("z"))),
        ir.ONE,
    )
    out = verify_numeric(rel, (), None, CONFIG)
    assert out.classification == "numerically_unsupported"
    assert out.detail == "qgenhyper"


def test_determinism():
    rel = ir.Relation(ir.REL_EQ, _sin(ir.mul(ir.num(2), Var("x"))),
                      ir.mul(ir.num(2), _sin(Var("x")), _cos(Var("x"))))
    out1 = verify_numeric(rel, (), None, CONFIG)
    out2 = verify_numeric(rel, (), None, CONFIG)
    assert [ev.__dict__ for ev in out1.evaluations] == \
        [ev.__dict__ for ev in out2.evaluations]
    assert out1.classification == out2.classification


def test_timeout_is_strict():
    big_sum = BigOp(ir.OP_SUM, "k", ir.ZERO, ir.num(100_000_000),
                    _sin(Var("k")))
    rel = ir.Relation(ir.REL_EQ, big_sum, ir.ZERO)
    config = NumericConfig(timeout_seconds=2)
    start = time.monotonic()
    out = verify_numeric(rel, (), None, config)
    elapsed = time.monotonic() - start
    assert out.classification == CLASS_TIMEOUT
    assert elapsed < 3.0


def test_branch_sensitive_tagging():
    # (-2)^(1/2) is a principal-branch choice and gets tagged.
    rel = ir.Relation(ir.REL_EQ,
                      Pow(ir.num(-2), ir.HALF), Pow(ir.num(-2), ir.HALF))
    out = verify_numeric(rel, (), None, CONFIG)
    assert out.classification == CLASS_VERIFIED
    assert out.branch_sensitive


def test_precision_guard_digits():
    # Working precision carries ten guard digits past the request.
    value = eval_expr(FunctionApp("gamma", (), (ir.HALF,)), {},
                      NumericConfig(precision_digits=10))
    with mp.workdps(30):
        assert abs(value - mp.sqrt(mp.pi)) < mpf(10) ** -15


def test_evaluation_keeps_a_higher_caller_precision():
    # mpmath.diff raises the working precision around its calls; an
    # evaluation that dropped back to precision_digits + 10 would round
    # the step away and return 0.
    sin_x = FunctionApp("sin", (), (Var("x"),))
    config = NumericConfig(precision_digits=20)
    with mp.workdps(30):
        slope = mp.diff(lambda x: eval_expr(sin_x, {"x": x}, config), mpf(1) / 2)
        assert abs(slope - mp.cos(mpf(1) / 2)) < mpf(10) ** -25
        assert mp.dps == 30


# --- inputs the kernel rejects or classifies ---

def test_constants_and_unassigned_variables():
    with mp.workdps(20):
        assert eval_expr(Const(ir.EULER_GAMMA), {}, CONFIG) == +mp.euler
    with pytest.raises(EvaluationError, match="constant infinity"):
        eval_expr(Const(ir.INFINITY), {}, CONFIG)
    with pytest.raises(EvaluationError, match="unassigned variable 'y'"):
        eval_expr(Var("y"), {"x": Fraction(1)}, CONFIG)
    with pytest.raises(EvaluationError, match="cannot evaluate"):
        eval_expr(ir.Expr(), {}, CONFIG)


def test_infinite_constant_is_an_evaluation_error():
    rel = ir.Relation(ir.REL_EQ, ir.add(Var("x"), Const(ir.INFINITY)),
                      Const(ir.INFINITY))
    out = verify_numeric(rel, (), None, CONFIG)
    assert (out.classification, out.detail) == \
        (CLASS_EVALUATION_ERROR, "evaluation_error")


def test_series_that_does_not_converge_is_an_evaluation_error():
    big = Number(Fraction(10000))
    laguerre = _f("laguerre_poly", big, params=(ir.add(big, ir.HALF), ir.HALF))
    with pytest.raises(ConvergenceFailure):
        eval_expr(laguerre, {}, CONFIG)
    out = verify_numeric(ir.Relation(ir.REL_EQ, laguerre, ir.ZERO), (), None, CONFIG)
    assert (out.classification, out.detail) == \
        (CLASS_EVALUATION_ERROR, "convergence_failure")


def test_derivatives_are_resolved_or_unsupported():
    value = eval_expr(Derivative(_sin(Var("x")), "x"), {"x": Fraction(1, 2)}, CONFIG)
    with mp.workdps(20):
        assert abs(value - mp.cos(0.5)) < TOL
    unresolved = Derivative(_f("genhyper", Var("x"), params=(ir.ZERO, ir.ZERO)), "x")
    with pytest.raises(NumericallyUnsupported, match="derivative of genhyper"):
        eval_expr(unresolved, {"x": Fraction(1, 2)}, CONFIG)
    integral = BigOp(ir.OP_INT, "t", ir.ZERO, Var("x"), Var("t"))
    with pytest.raises(NumericallyUnsupported, match="derivative of bigop"):
        eval_expr(Derivative(integral, "x"), {"x": Fraction(1, 2)}, CONFIG)


def test_unsupported_big_operators_and_hypergeometric_orders():
    limit = BigOp(ir.OP_LIM, "t", ir.ZERO, ir.ZERO, Var("t"))
    with pytest.raises(NumericallyUnsupported, match="big operator lim"):
        eval_expr(limit, {}, CONFIG)
    complex_path = BigOp(ir.OP_INT, "t", ir.ZERO, Const(ir.IMAGINARY_UNIT), Var("t"))
    with pytest.raises(NumericallyUnsupported, match="non-finite real interval"):
        eval_expr(complex_path, {}, CONFIG)
    three_f_two = FunctionApp("genhyper", (ir.num(3), ir.num(2)),
                              (ir.ONE, ir.ONE, ir.ONE, ir.num(2), ir.num(2), Var("z")))
    out = verify_numeric(ir.Relation(ir.REL_EQ, three_f_two, ir.ONE), (), None, CONFIG)
    assert (out.classification, out.detail) == (CLASS_UNSUPPORTED, "genhyper(3,2)")


def test_every_registered_function_is_dispatched():
    ctx = EvalContext()
    with pytest.raises(NumericallyUnsupported):
        numeric._dispatch("qgenhyper", [], [mpf(1)], ctx)
    # Each registered id reaches its own branch: none falls through to
    # the unsupported error.
    operands = {"genhyper": ([mpf(0), mpf(0)], [mpf(1) / 4]),
                "jacobi_poly": ([mpf(1) / 2, mpf(1) / 2, mpf(2)], [mpf(1) / 4]),
                "laguerre_poly": ([mpf(2), mpf(1) / 2], [mpf(1) / 4]),
                "binomial": ([], [mpf(5), mpf(2)]),
                "pochhammer": ([], [mpf(1) / 2, mpf(3)])}
    for func in sorted(NUMERIC_FUNCTIONS):
        params, args = operands.get(func, ([mpf(2)], [mpf(1) / 4]))
        with mp.workdps(20):
            assert mp.isfinite(numeric._dispatch(func, params, args, ctx)), func


def test_limit_relations_are_rejected():
    with pytest.raises(ValueError, match="limit relations"):
        verify_numeric(ir.Relation(ir.REL_TO, Var("x"), ir.ZERO), (), None, CONFIG)


# --- logarithms and zero bases ---

def test_log_branches():
    ctx = EvalContext()
    value = eval_expr(_f("ln", Var("x")), {"x": Fraction(-1, 2)}, CONFIG, ctx)
    with mp.workdps(20):
        assert abs(value - mpc(mp.log(0.5), mp.pi)) < TOL
    assert ctx.branch_sensitive
    ctx = EvalContext()
    eval_expr(_f("log_gamma", Var("x")), {"x": Fraction(-1, 2)}, CONFIG, ctx)
    assert ctx.branch_sensitive
    ctx = EvalContext()
    eval_expr(_f("log_gamma", Var("x")), {"x": Fraction(1, 2)}, CONFIG, ctx)
    assert not ctx.branch_sensitive
    with pytest.raises(PoleOrSingularity, match="log of zero"):
        eval_expr(_f("ln", ir.ZERO), {}, CONFIG)


@pytest.mark.parametrize("exponent,value", [
    (ir.ZERO, 1),
    (ir.num(2), 0),
    (ir.add(ir.num(2), Const(ir.IMAGINARY_UNIT)), 0),
    (ir.add(ir.HALF, ir.mul(ir.num(-3), Const(ir.IMAGINARY_UNIT))), 0),
])
def test_zero_base_with_exponent_of_positive_real_part(exponent, value):
    assert eval_expr(Pow(ir.ZERO, exponent), {}, CONFIG) == value


@pytest.mark.parametrize("exponent", [
    ir.num(-2), Const(ir.IMAGINARY_UNIT), ir.add(ir.num(-1), Const(ir.IMAGINARY_UNIT)),
])
def test_zero_base_with_exponent_of_non_positive_real_part(exponent):
    with pytest.raises(PoleOrSingularity, match="non-positive real part"):
        eval_expr(Pow(ir.ZERO, exponent), {}, CONFIG)


# --- assignment generation for countable and finite domains ---

def test_bounded_progression_stops_at_its_end():
    domain = VariableDomain("n", "integer",
                            progression=(Fraction(1), Fraction(2), Fraction(3)))
    out = generate_assignments({"n"}, [domain], None, CONFIG)
    assert out == [{"n": Fraction(1)}, {"n": Fraction(3)}]


def test_finite_set_uses_its_three_smallest_members():
    domain = VariableDomain("n", "integer",
                            finite_set=tuple(Fraction(v) for v in (7, -2, 4, 5)))
    out = generate_assignments({"n"}, [domain], None, CONFIG)
    assert out == [{"n": Fraction(-2)}, {"n": Fraction(4)}, {"n": Fraction(5)}]


@pytest.mark.parametrize("lower,strict,first", [
    (Fraction(2), False, 2), (Fraction(2), True, 3),
    (Fraction(5, 2), False, 3), (Fraction(-5, 2), True, -2),
])
def test_integer_interval_starts_at_its_smallest_member(lower, strict, first):
    domain = VariableDomain("n", "integer", interval=(lower, strict, None, False))
    out = generate_assignments({"n"}, [domain], None, CONFIG)
    assert out == [{"n": Fraction(first + k)} for k in range(3)]


# --- comparison modes and order relations ---

def _outcome(kind, lhs, rhs, **config):
    return verify_numeric(ir.Relation(kind, lhs, rhs), (), None,
                          NumericConfig(**config))


def test_relative_mode_scales_by_the_larger_side():
    # lhs and rhs differ by 10 at 10^5: absolute fails, relative passes.
    lhs = ir.mul(ir.num(100_000), ir.add(Var("x"), ir.num(2)))
    rhs = ir.add(lhs, ir.num(10))
    assert _outcome(ir.REL_EQ, lhs, rhs).classification == CLASS_ABOVE_THRESHOLD
    out = _outcome(ir.REL_EQ, lhs, rhs, comparison_mode=MODE_RELATIVE)
    assert out.classification == CLASS_VERIFIED
    assert out.evaluations[0].discrepancy == pytest.approx(10 / 150_010)


def test_quotient_mode_compares_the_ratio_to_one():
    lhs = ir.mul(ir.num(1001), Var("x"))
    rhs = ir.mul(ir.num(1000), Var("x"))
    out = _outcome(ir.REL_EQ, lhs, rhs, comparison_mode=MODE_QUOTIENT,
                   threshold=0.01)
    assert out.classification == CLASS_VERIFIED
    assert [ev.discrepancy for ev in out.evaluations] == \
        [pytest.approx(0.001)] * 3
    # A zero right-hand side falls back to the absolute difference.
    out = _outcome(ir.REL_EQ, ir.ZERO, ir.mul(ir.ZERO, Var("x")),
                   comparison_mode=MODE_QUOTIENT)
    assert out.classification == CLASS_VERIFIED


def test_non_strict_order_relations_allow_equality():
    x2 = ir.power(Var("x"), ir.num(2))
    for kind in (ir.REL_LE, ir.REL_GE):
        assert _outcome(kind, x2, x2).classification == CLASS_VERIFIED
    assert _outcome(ir.REL_LE, x2, ir.add(x2, ir.ONE)).classification == CLASS_VERIFIED
    out = _outcome(ir.REL_GE, x2, ir.add(x2, ir.ONE))
    assert out.classification == CLASS_ABOVE_THRESHOLD
    assert out.worst == pytest.approx(1.0)
    # The strict relations do not.
    for kind in (ir.REL_LT, ir.REL_GT):
        out = _outcome(kind, x2, x2)
        assert (out.classification, out.worst) == (CLASS_ABOVE_THRESHOLD, 0.0)


def test_order_relation_with_complex_sides_fails():
    out = _outcome(ir.REL_LT, Const(ir.IMAGINARY_UNIT), ir.num(2))
    assert out.classification == CLASS_ABOVE_THRESHOLD
    assert out.worst == pytest.approx(1.0)


# --- the value table ---

def _reference(rel, domains, specials, config):
    """verify_numeric's outcome, with each side at each assignment
    evaluated through eval_expr in a fresh context: nothing is shared."""
    assignments = generate_assignments(
        free_variables(rel.lhs) | free_variables(rel.rhs), domains, specials, config)
    if not assignments:
        return NumericOutcome(CLASS_NO_VALID_VALUES)
    sides = (resolve_derivatives(rel.lhs), resolve_derivatives(rel.rhs))
    evaluations, skipped, worst, branch = [], [], None, False
    for assignment in assignments:
        shown = {k: str(v) for k, v in assignment.items()}
        values = []
        try:
            for side in sides:
                ctx = EvalContext()
                try:
                    values.append(eval_expr(side, assignment, config, ctx))
                finally:
                    branch = branch or ctx.branch_sensitive
        except PoleOrSingularity:
            skipped.append(shown)
            continue
        except NumericallyUnsupported as exc:
            return NumericOutcome(CLASS_UNSUPPORTED, exc.function_id, None,
                                  evaluations, skipped, branch)
        except EvaluationError as exc:
            return NumericOutcome(CLASS_EVALUATION_ERROR, exc.kind, None,
                                  evaluations, skipped, branch)
        lv, rv = values
        d, ok = numeric._discrepancy(rel.kind, lv, rv, config)
        evaluations.append(EvalRecord(shown, complex(lv), complex(rv), d))
        if not ok:
            worst = d if worst is None else max(worst, d)
    if not evaluations:
        return NumericOutcome(CLASS_NO_VALID_VALUES, skipped=skipped,
                              branch_sensitive=branch)
    return NumericOutcome(CLASS_VERIFIED if worst is None else CLASS_ABOVE_THRESHOLD,
                          worst=worst, evaluations=evaluations, skipped=skipped,
                          branch_sensitive=branch)


@pytest.fixture
def dispatch_calls(monkeypatch):
    """A list that grows by one entry per numeric._dispatch call."""
    calls = []
    dispatch = numeric._dispatch

    def counting(func, params, args, ctx):
        calls.append(func)
        return dispatch(func, params, args, ctx)
    monkeypatch.setattr(numeric, "_dispatch", counting)
    return calls


def test_value_table_keeps_every_outcome_field(tables, mini_corpus, dispatch_calls):
    shared = fresh = relations = 0
    for record in mini_corpus:
        try:
            tree = parse(tokenize(record.latex), tables.macro_table)
            rel = to_relation(tree, tables.translation_table)
        except MathVerifyError:
            continue
        if rel.kind == ir.REL_TO:
            continue
        relations += 1
        interp = interpret_constraints(record.constraints, tables.blueprints,
                                       tables.macro_table)
        start = len(dispatch_calls)
        out = verify_numeric(rel, interp.domains, interp.specials, CONFIG)
        middle = len(dispatch_calls)
        ref = _reference(rel, interp.domains, interp.specials, CONFIG)
        assert out == ref, record.id
        shared += middle - start
        fresh += len(dispatch_calls) - middle
    assert relations == 38
    # The table serves some of the calls a fresh context makes.
    assert shared < fresh


def _fresh_value(expr, assignment, config):
    """expr's value, each node evaluated in its own context from the
    values of its operands, so no function value is ever looked up."""
    if isinstance(expr, (Var, Number)):
        return eval_expr(expr, assignment, config)
    operands = expr.terms if isinstance(expr, Add) else expr.params + expr.args
    values = [_fresh_value(o, assignment, config) for o in operands]
    if any(abs(v) > 1000 for v in values):
        raise OverflowError  # keeps each call cheap; the draw is rejected
    slots = tuple(Var(f"v{i}") for i in range(len(values)))
    if isinstance(expr, Add):
        node = Add(slots)
    else:
        node = FunctionApp(expr.func, slots[:len(expr.params)],
                           slots[len(expr.params):])
    return eval_expr(node, {f"v{i}": v for i, v in enumerate(values)}, config)


LEAVES = (Var("x"), Var("y"), Number(Fraction(-1, 2)), ir.HALF,
          Number(Fraction(3, 2)))
# Function id -> number of params.  Every function takes one argument
# except binomial and pochhammer; genhyper's params are (p, q).
SHAPES = dict.fromkeys(NUMERIC_FUNCTIONS, 0) | dict.fromkeys(
    ("bessel_j", "bessel_y", "bessel_i", "bessel_k", "hermite_poly",
     "cheby_t", "cheby_u", "legendre_poly"), 1) | {
    "jacobi_poly": 3, "laguerre_poly": 2, "genhyper": 2}
TWO_ARGUMENTS = ("binomial", "pochhammer")
HYPER_ORDERS = ((0, 1), (1, 1), (2, 1))


@st.composite
def function_trees(draw):
    """A sum of function applications whose operands repeat.  Each
    application's arguments are drawn from the leaves and the earlier
    applications, its params (and genhyper's a and b) from the leaves.
    Half the applications take the function and arguments of an earlier
    one and draw its params again: a repeat, or the same argument at
    other params.  Jacobi's and Laguerre's params are positive: at
    n = alpha = -1/2 mpmath spends seconds before it raises."""
    pool = list(LEAVES)
    for _ in range(draw(st.integers(2, 6))):
        apps = pool[len(LEAVES):]
        if apps and draw(st.booleans()):
            earlier = draw(st.sampled_from(apps))
            func = earlier.func
            arguments = earlier.args[-2 if func in TWO_ARGUMENTS else -1:]
            if func == "genhyper":
                orders = tuple(int(n.value) for n in earlier.params)
        else:
            func = draw(st.sampled_from(sorted(SHAPES)))
            arguments = tuple(draw(st.sampled_from(pool))
                              for _ in range(2 if func in TWO_ARGUMENTS else 1))
            orders = draw(st.sampled_from(HYPER_ORDERS))
        positive = func in ("jacobi_poly", "laguerre_poly")
        leaf = st.sampled_from(LEAVES[3:] if positive else LEAVES)
        if func == "genhyper":
            params = tuple(ir.num(n) for n in orders)
            arguments = tuple(draw(leaf) for _ in range(sum(orders))) + arguments
        else:
            params = tuple(draw(leaf) for _ in range(SHAPES[func]))
        pool.append(FunctionApp(func, params, arguments))
    return Add(tuple(pool[len(LEAVES):]))


TREE_POINTS = [Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), complex(0.5, 0.25)]


@settings(max_examples=150, deadline=None)
@given(function_trees(), st.sampled_from(TREE_POINTS), st.sampled_from(TREE_POINTS),
       st.sampled_from([5, 15, 40]))
def test_value_table_gives_the_values_of_fresh_contexts(tree, x, y, digits):
    config = NumericConfig(precision_digits=digits)
    assignment = {"x": x, "y": y}
    try:
        expected = _fresh_value(tree, assignment, config)
    except OverflowError:
        reject()
    except EvaluationError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            eval_expr(tree, assignment, config)
        return
    value = eval_expr(tree, assignment, config)
    assert type(value) is type(expected)
    assert value == expected


def test_integrand_does_not_reuse_values_of_another_precision():
    # mp.quad works 20 bits above the call's precision, and the midpoint
    # node t = 1/2 is the same mpf as x = 1/2.  The integral of
    # sin(t) - sin(x) is small, so a sin(1/2) served at the outer
    # precision would move it by many units in its last place.
    integrand = ir.sub(_sin(Var("t")), _sin(Var("x")))
    integral = BigOp(ir.OP_INT, "t", ir.ZERO, ir.ONE, integrand)
    assignment = {"x": Fraction(1, 2)}
    for digits in (5, 10, 20):
        config = NumericConfig(precision_digits=digits)
        value = eval_expr(ir.Mul((_sin(Var("x")), integral)), assignment, config)
        parts = [eval_expr(e, assignment, config) for e in (_sin(Var("x")), integral)]
        with mp.workdps(digits + 10):
            assert value == mpf(1) * parts[0] * parts[1]


def test_real_and_complex_operands_of_equal_value_are_kept_apart(dispatch_calls):
    tree = Add((_sin(Var("x")), _sin(Var("y"))))
    assignment = {"x": Fraction(1, 2), "y": complex(0.5, 0)}
    value = eval_expr(tree, assignment, CONFIG)
    assert type(value) is mpc
    assert dispatch_calls == ["sin", "sin"]
    assert value == _fresh_value(tree, assignment, CONFIG)


def test_repeated_pole_is_skipped_at_every_assignment(dispatch_calls):
    # The pole of gamma and the infinite value of K(1) are stored as the
    # errors they raise: both raise at every occurrence, and only the
    # first one is evaluated.
    for pole in (_f("gamma", ir.num(-1)), _f("elliptic_k", ir.ONE)):
        del dispatch_calls[:]
        side = ir.add(Var("x"), pole)
        out = verify_numeric(ir.Relation(ir.REL_EQ, side, side), (), None, CONFIG)
        assert out.classification == CLASS_NO_VALID_VALUES
        assert out.skipped == [{"x": "-1/2"}, {"x": "1/2"}, {"x": "3/2"}]
        assert dispatch_calls == [pole.func]
        # The table holds the error without the frames it was raised
        # through, and each occurrence raises an equal one.
        ctx = EvalContext()
        raised = []
        for _ in range(2):
            with pytest.raises(PoleOrSingularity) as info:
                eval_expr(pole, {}, CONFIG, ctx)
            raised.append(str(info.value))
        (stored,) = ctx.values.values()
        assert type(stored) is PoleOrSingularity and stored.__traceback__ is None
        assert raised == [str(stored)] * 2


def test_failed_evaluation_is_dispatched_once_per_operands(tables, monkeypatch):
    # At n = alpha = -1/2 mpmath takes seconds before it raises; each of
    # the three x values there is one failed evaluation, the other 24
    # assignments are values the rhs reuses, and no key is dispatched twice.
    from mathverify.extraction import FormulaRecord
    from mathverify.pipeline import PipelineOptions, verify_record

    keys = []
    dispatch = numeric._dispatch

    def counting(func, params, args, ctx):
        keys.append((func, *map(str, params + args)))
        return dispatch(func, params, args, ctx)
    monkeypatch.setattr(numeric, "_dispatch", counting)
    record = FormulaRecord("OP.99", "OP",
                           r"\LaguerreL[\alpha]{n}@{x} = \LaguerreL[\alpha]{n}@{x}")
    out = verify_record(record, tables, PipelineOptions(run_symbolic=False)).numeric
    assert out.classification == CLASS_VERIFIED
    assert len(out.evaluations) == 24
    assert out.skipped == [{"alpha": "-1/2", "n": "-1/2", "x": x}
                           for x in ("-1/2", "1/2", "3/2")]
    assert len(keys) == 27
    assert len(set(keys)) == len(keys)


def test_log_of_a_negative_real_stays_branch_sensitive(dispatch_calls):
    side = ir.add(_f("ln", Var("x")), _f("ln", Var("x")))
    out = verify_numeric(ir.Relation(ir.REL_EQ, side, side), (), None, CONFIG)
    assert out.classification == CLASS_VERIFIED
    assert out.branch_sensitive
    # One call per test value; the other three uses at each are served.
    assert dispatch_calls == ["ln"] * 3
    positive = VariableDomain("x", "real", interval=(Fraction(0), True, None, False))
    out = verify_numeric(ir.Relation(ir.REL_EQ, side, side), [positive], None, CONFIG)
    assert not out.branch_sensitive


def test_value_table_dies_with_its_call(dispatch_calls):
    rel = ir.Relation(ir.REL_EQ, _f("gamma", Var("x")), _f("gamma", Var("x")))
    verify_numeric(rel, (), None, CONFIG)
    verify_numeric(rel, (), None, CONFIG)
    eval_expr(_f("gamma", ir.HALF), {}, CONFIG)
    eval_expr(_f("gamma", ir.HALF), {}, CONFIG)
    assert dispatch_calls == ["gamma"] * 8


def test_value_table_is_bounded():
    body = _sin(Var("k"))
    ctx = EvalContext()
    eval_expr(BigOp(ir.OP_SUM, "k", ir.ONE, ir.num(numeric.MAX_TABLE_VALUES + 50), body),
              {}, CONFIG, ctx)
    assert len(ctx.values) == numeric.MAX_TABLE_VALUES
