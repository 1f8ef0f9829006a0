"""Parser, evaluator, differentiator and simplifier tests."""

import math

import mpmath
import numpy as np
import pytest

from radialift import expr
from radialift.bessel import Order, bessel_j_tilde, jtilde_at_zero
from radialift.errors import (EvaluationDomainError, ExpressionSyntaxError,
                              UnknownIdentifierError, UnsupportedOrderError)


def test_parse_variable_identity():
    assert isinstance(expr.parse("s"), expr.Variable)


def test_parse_sech_structure():
    e = expr.parse("sech(3.14159*s)")
    assert isinstance(e, expr.Apply) and e.name == "sech"
    assert isinstance(e.arg, expr.Product)
    assert e.arg.left.value == 3.14159
    assert isinstance(e.arg.right, expr.Variable)


def test_parse_composed_profile():
    e = expr.parse("exp(-s^2) * (1 - 2*s^2)")
    assert e.evaluate(0.0) == 1.0 + 0.0j


def test_precedence_and_right_associative_power():
    assert expr.parse("-s^2").evaluate(3.0).real == -9.0
    assert expr.parse("2^3^2").evaluate(0.0).real == 512.0
    assert expr.parse("2^-3").evaluate(0.0).real == 0.125
    assert expr.parse("1 - 2 - 3").evaluate(0.0).real == -4.0
    assert expr.parse("12/4/3").evaluate(0.0).real == 1.0


def test_evaluate_examples():
    assert expr.evaluate(expr.parse("sech(s)"), 0.0) == 1.0 + 0.0j
    assert expr.evaluate(expr.parse("sqrt(s)"), -1.0) == pytest.approx(1j, abs=1e-15)
    assert expr.evaluate(expr.parse("s^3 - 2*s"), 2.0) == 4.0 + 0.0j


def test_principal_branch():
    assert expr.parse("sqrt(s)").evaluate(-4.0) == pytest.approx(2j, abs=1e-15)
    assert expr.parse("log(s)").evaluate(-1.0) == pytest.approx(1j * math.pi, abs=1e-15)
    # non-integer power of a negative real goes through the principal branch
    assert expr.parse("s^0.5").evaluate(-1.0) == pytest.approx(1j, abs=1e-15)


def test_pi_and_i_constants():
    assert expr.parse("pi").evaluate(0.0).real == math.pi
    assert expr.parse("i^2").evaluate(0.0) == pytest.approx(-1.0 + 0j, abs=1e-15)


def test_differentiate_sech():
    d = expr.differentiate(expr.parse("sech(pi*s)"))
    closed = -math.pi / math.cosh(math.pi) * math.tanh(math.pi)
    assert d.evaluate(1.0) == pytest.approx(closed, abs=1e-15)


def test_differentiate_constant_is_zero():
    d = expr.differentiate(expr.parse("3.5"))
    assert d.evaluate(1.234) == 0.0


def test_differentiate_matches_finite_difference():
    e = expr.parse("exp(-s^2)")
    d = expr.differentiate(e)
    h = 1e-5
    fd = (e.evaluate(1 + h) - e.evaluate(1 - h)) / (2 * h)
    assert abs(d.evaluate(1.0) - (-2 * math.exp(-1))) < 1e-14
    assert abs(d.evaluate(1.0) - fd) < 1e-8


def test_simplify_identities():
    z = expr.simplify(expr.parse("0*s + s^2"))
    assert str(z) == "s^2"
    assert str(expr.simplify(expr.parse("s^1"))) == "s"
    d = expr.simplify(expr.differentiate(expr.parse("sech(pi*s)")))
    closed = -math.pi / math.cosh(math.pi) * math.tanh(math.pi)
    assert d.evaluate(1.0) == pytest.approx(closed, abs=1e-15)


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("sech(")
    assert err.value.offset == 5
    assert len(err.value.expected) > 0
    with pytest.raises(ExpressionSyntaxError) as err:
        expr.parse("1 + * 2")
    assert err.value.offset == 4


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        expr.parse("foo(s)")
    assert err.value.name == "foo"
    with pytest.raises(UnknownIdentifierError):
        expr.parse("x + 1")


def test_domain_errors_name_the_node():
    with pytest.raises(EvaluationDomainError):
        expr.parse("1/s").evaluate(0.0)
    with pytest.raises(EvaluationDomainError):
        expr.parse("log(s)").evaluate(0.0)
    with pytest.raises(EvaluationDomainError):
        expr.parse("s^-1").evaluate(0.0)
    # on arrays the error names the first point that fails
    xs = np.array([0.5, 1.0, 2.0, 1.0])
    for text in ("1/(s-1)", "log(s-1)", "(s-1)^-2", "(s-1)^(-0.5)",
                 "(s-1)^i"):
        with pytest.raises(EvaluationDomainError) as err:
            expr.parse(text).eval_array(xs)
        assert err.value.value == 1.0, text
    # a denominator that is 0 everywhere fails at the first point
    with pytest.raises(EvaluationDomainError) as err:
        expr.parse("1/(0*s)").eval_array(xs)
    assert err.value.value == 0.5
    assert expr.parse("(s-1)^0").eval_array(xs).tolist() == [1.0] * 4


def test_eval_array_matches_scalar():
    e = expr.parse("sech(s) * exp(-s^2) + s^3")
    xs = np.array([0.0, 0.7, 2.0, -1.3])
    vec = e.eval_array(xs)
    for x, v in zip(xs, vec):
        assert complex(v) == e.evaluate(x)


# general powers: (text, the same function in mpmath)
_POWERS = (
    ("(1+s^2)^(-1.5)", lambda x: (1 + x ** 2) ** mpmath.mpf(-1.5)),
    ("s^s", lambda x: x ** x),
    ("(2+sin(s))^(s/3)", lambda x: (2 + mpmath.sin(x)) ** (x / 3)),
)


@pytest.mark.parametrize("text, reference", _POWERS)
def test_power_derivatives_match_mpmath(text, reference):
    e = expr.parse(text)
    assert isinstance(e, expr.Power)
    for k, d in enumerate(expr.derivatives(e, 2)):
        reparsed = expr.parse(str(d))
        for x in (0.7, 1.9):
            with mpmath.workdps(30):
                ref = complex(mpmath.diff(reference, mpmath.mpf(x), k))
            value = d.evaluate(x)
            assert abs(value - ref) <= 4e-15 * abs(ref), (text, k, x)
            assert abs(reparsed.evaluate(x) - value) <= 1e-15 * abs(value)


def test_power_substitute_simplify_and_complex_constants():
    e = expr.parse("(1+s^2)^(-1.5)").substitute(expr.parse("2*s"))
    assert isinstance(e, expr.Power)
    assert e.evaluate(0.35) == expr.parse("(1+(2*s)^2)^(-1.5)").evaluate(0.35)
    folded = expr.simplify(expr.parse("2^0.5*s"))
    assert isinstance(folded, expr.Product)
    assert folded.left.value == 2 ** 0.5 and folded.right is expr.S
    assert str(expr.simplify(expr.Power(expr.S, expr.parse("4/2")))) == "s^2"
    assert expr.parse("(1+i*s)^0.5").has_complex_constant()
    assert not expr.parse("s^s").has_complex_constant()
    for text, printed in (("(2+3*i)*s", "(2.0 + 3.0*i)*s"),
                          ("(2-3*i)*s", "(2.0 - 3.0*i)*s")):
        folded = expr.simplify(expr.parse(text))
        assert str(folded) == printed
        assert expr.parse(printed).evaluate(0.6) == folded.evaluate(0.6)


# ---------------------------------------------------------------------------
# the Bessel node Jt_nu(u), which the kernel catalog builds

def _jt(twice_nu, a):
    return expr.BesselJt(Order(twice_nu), expr.Product(expr.Constant(a), expr.S))


def test_bessel_node_is_even_and_real_only():
    e = _jt(3, 0.8)
    xs = np.array([0.0, 0.3, 1.7, 6.5, 40.0])
    assert e.eval_array(-xs).tolist() == e.eval_array(xs).tolist()
    assert e.evaluate(-1.7) == e.evaluate(1.7) == bessel_j_tilde(Order(3), 0.8 * 1.7)
    assert e.evaluate(0.0) == jtilde_at_zero(1.5)
    with pytest.raises(EvaluationDomainError, match=r"complex argument in Jt_\(3/2\)"):
        _jt(3, 1j).evaluate(1.0)
    with pytest.raises(EvaluationDomainError) as err:
        expr.BesselJt(Order(0), expr.parse("(s-1)*i")).eval_array(
            np.array([1.0, 2.0, 3.0]))
    assert err.value.value == 2.0


@pytest.mark.parametrize("twice_nu", [-1, 0, 1, 2, 3, 7, 10, 31, 60, 116])
def test_bessel_node_derivatives_match_mpmath(twice_nu):
    # d/ds Jt_nu(a s) = -a^2 s Jt_(nu+1)(a s): the paper's index shift.  The
    # scale a^k Jt_(nu+1)(0) is the size of the k-th derivative at 0
    a, nu = 0.8, mpmath.mpf(twice_nu) / 2
    e = _jt(twice_nu, a)
    reference = lambda x: mpmath.besselj(nu, a * x) / (a * x) ** nu
    for k, d in enumerate(expr.derivatives(e, 2)[1:], start=1):
        for x in (0.3, 1.7, 6.5, 40.0):
            with mpmath.workdps(30):
                ref = float(mpmath.diff(reference, mpmath.mpf(x), k))
            scale = a ** k * jtilde_at_zero(twice_nu / 2 + 1)
            assert abs(d.evaluate(x).real - ref) <= 1e-13 * scale, (k, x)


def test_bessel_node_derivative_stops_at_the_order_ceiling():
    _jt(118, 1.0).diff()
    with pytest.raises(UnsupportedOrderError):
        _jt(120, 1.0).diff()


def test_bessel_node_substitute_and_simplify():
    e = expr.BesselJt(Order(2), expr.S).substitute(expr.parse("2*s"))
    assert str(e) == "Jt_(1)(2.0*s)"
    assert e.evaluate(0.6) == bessel_j_tilde(Order(2), 1.2)
    simplified = expr.simplify(expr.BesselJt(Order(2), expr.parse("1*s + 0")))
    assert isinstance(simplified, expr.BesselJt) and simplified.arg is expr.S
    assert not e.has_complex_constant() and _jt(1, 1j).has_complex_constant()


# ---------------------------------------------------------------------------
# randomized property checks (seeded; no time-dependent behaviour)

_FUNCS = sorted(expr.FUNCTION_NAMES)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        choice = rng.integers(0, 3)
        if choice == 0:
            return expr.S
        if choice == 1:
            return expr.Constant(round(float(rng.uniform(-3, 3)), 3))
        return expr.IntegerPower(expr.S, int(rng.integers(1, 4)))
    kind = rng.integers(0, 6)
    if kind == 0:
        return expr.Sum(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 1:
        return expr.Product(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 2:
        return expr.Quotient(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 3:
        return expr.Negate(_random_tree(rng, depth - 1))
    if kind == 4:
        return expr.IntegerPower(_random_tree(rng, depth - 1), int(rng.integers(1, 4)))
    name = _FUNCS[rng.integers(0, len(_FUNCS))]
    return expr.Apply(name, _random_tree(rng, depth - 1))


def _subterm_values(node, s):
    """Values of every subtree at s, or None if any evaluation fails."""
    out = []
    try:
        def walk(n):
            for child in n._children():
                walk(child)
            out.append((n, n.evaluate(s)))
        walk(node)
    except Exception:
        return None
    return out


def _point_is_safe(node, s, h):
    """Reject points near poles, branch cuts, or huge magnitudes."""
    for x in (s - h, s, s + h):
        vals = _subterm_values(node, x)
        if vals is None:
            return False
        for sub, v in vals:
            if not np.isfinite([v.real, v.imag]).all() or abs(v) > 1e5:
                return False
        for sub, _ in vals:
            if isinstance(sub, expr.Quotient):
                d = sub.den.evaluate(x)
                if abs(d) < 1e-2:
                    return False
            if isinstance(sub, expr.Apply) and sub.name in ("log", "sqrt"):
                a = sub.arg.evaluate(x)
                if abs(a.imag) < 1e-6 and a.real < 1e-2:
                    return False
            if isinstance(sub, expr.Apply) and sub.name == "tanh":
                # poles of tanh at i pi/2 + i pi k are irrelevant on the real line
                continue
    return True


def test_random_derivatives_match_finite_differences():
    rng = np.random.default_rng(271828)
    checked = 0
    for _ in range(500):
        tree = _random_tree(rng, 6)
        try:
            deriv = expr.simplify(expr.differentiate(tree))
        except Exception:
            continue
        for _ in range(10):
            s = float(rng.uniform(0.05, 2.5))
            h = 1e-6 * max(1.0, abs(s))
            if not _point_is_safe(tree, s, h):
                continue
            try:
                d = deriv.evaluate(s)
            except Exception:
                continue
            if abs(d) > 1e4:
                continue
            fd1 = (tree.evaluate(s + h) - tree.evaluate(s - h)) / (2 * h)
            fd2 = (tree.evaluate(s + h / 2) - tree.evaluate(s - h / 2)) / h
            scale = max(abs(d), abs(fd2), 1.0)
            if abs(fd1 - fd2) > 1e-5 * scale:
                continue  # the FD oracle itself is unreliable here
            richardson = (4.0 * fd2 - fd1) / 3.0
            assert abs(richardson - d) / scale < 1e-6, (str(tree), s, d, richardson)
            checked += 1
    assert checked > 1500  # the filters must not hollow the test out


def test_random_print_parse_roundtrip():
    rng = np.random.default_rng(314159)
    points = rng.uniform(-2.5, 2.5, 100)
    trees = 0
    while trees < 60:
        tree = _random_tree(rng, 5)
        text = str(tree)
        reparsed = expr.parse(text)
        for s in points:
            try:
                a = tree.evaluate(float(s))
            except Exception:
                continue
            b = reparsed.evaluate(float(s))
            if not np.isfinite([a.real, a.imag]).all():
                continue
            assert abs(a - b) <= 1e-14 * (1 + abs(a)), (text, s)
        trees += 1


def test_random_simplify_preserves_values():
    rng = np.random.default_rng(161803)
    for _ in range(300):
        tree = _random_tree(rng, 5)
        simplified = expr.simplify(tree)
        for _ in range(5):
            s = float(rng.uniform(0.05, 2.5))
            try:
                a = tree.evaluate(s)
            except Exception:
                continue
            if not np.isfinite([a.real, a.imag]).all() or abs(a) > 1e8:
                continue
            b = simplified.evaluate(s)
            assert abs(a - b) <= 1e-14 * (1 + abs(a)), str(tree)
