"""Closed-form radial profiles as immutable expression trees.

The grammar is the profile language used by the rest of the package: one
variable ``s``, decimal literals (scientific notation allowed), operators
``+ - * / ^`` with standard precedence (``^`` tightest, right associative,
then unary minus, then ``* /``, then ``+ -``), parentheses, the constants
``pi`` and ``i``, and the unary functions exp, sin, cos, sinh, cosh, tanh,
sech, sqrt, log.

Everything evaluates over the complex numbers; ``sqrt`` and ``log`` use the
principal branch (argument in (-pi, pi]) and ``sech`` is computed as
1/cosh.  Trees are immutable, so parsing, evaluation, differentiation and
simplification are all pure and thread-safe.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import EvaluationDomainError, ExpressionSyntaxError, UnknownIdentifierError

__all__ = [
    "Expression", "Constant", "Variable", "Sum", "Product", "Quotient",
    "Negate", "IntegerPower", "Power", "Apply", "S",
    "parse", "evaluate", "differentiate", "derivatives", "simplify",
    "FUNCTION_NAMES",
]


def _first(s, bad):
    """The first point of s where ``bad`` holds, as a complex number; a
    ``bad`` that does not depend on s holds at every point."""
    return complex(np.asarray(s)[np.broadcast_to(bad, np.shape(s))][0])


# ---------------------------------------------------------------------------
# nodes

class Expression:
    """Base node. Subclasses implement _eval, _diff, _children and printing."""

    __slots__ = ()

    # -- public API ---------------------------------------------------------

    def evaluate(self, s):
        """Value at one complex (or real) point, with domain checking."""
        with np.errstate(all="ignore"):
            out = self._eval(complex(s))
        return complex(out)

    def eval_array(self, s):
        """Vectorized evaluation; returns a complex ndarray shaped like s."""
        arr = np.asarray(s, dtype=complex)
        with np.errstate(all="ignore"):
            out = self._eval(arr)
        out = np.asarray(out, dtype=complex)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape).copy()
        return out

    def diff(self):
        """Exact symbolic derivative with respect to ``s``."""
        raise NotImplementedError

    def substitute(self, replacement):
        """A copy of the tree with every Variable replaced by ``replacement``."""
        raise NotImplementedError

    def has_complex_constant(self):
        return any(c.has_complex_constant() for c in self._children())

    def _children(self):
        return ()

    def constant_value(self):
        """The complex value if this subtree is constant, else None."""
        return None

    # -- printing -----------------------------------------------------------

    _PREC = 0

    def __str__(self):
        return self._text()

    def _text(self):
        raise NotImplementedError

    def _paren(self, child, min_prec):
        t = child._text()
        return f"({t})" if child._PREC < min_prec else t

    def __repr__(self):
        return f"<{type(self).__name__} {self._text()!r}>"


class Constant(Expression):
    __slots__ = ("value",)
    _PREC = 100

    def __init__(self, value):
        self.value = complex(value)

    def _eval(self, s):
        return self.value

    def diff(self):
        return Constant(0.0)

    def substitute(self, replacement):
        return self

    def constant_value(self):
        return self.value

    def has_complex_constant(self):
        return self.value.imag != 0.0

    def _text(self):
        v = self.value
        if v.imag == 0.0:
            re_ = repr(v.real)
            return re_ if v.real >= 0 else f"({re_})"
        if v.real == 0.0 and v.imag == 1.0:
            return "i"
        sign = "+" if v.imag >= 0 else "-"
        return f"({v.real!r} {sign} {abs(v.imag)!r}*i)"


class Variable(Expression):
    __slots__ = ()
    _PREC = 100

    def _eval(self, s):
        return s

    def diff(self):
        return Constant(1.0)

    def substitute(self, replacement):
        return replacement

    def _text(self):
        return "s"


S = Variable()


class Sum(Expression):
    __slots__ = ("left", "right")
    _PREC = 1

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _children(self):
        return (self.left, self.right)

    def _eval(self, s):
        return self.left._eval(s) + self.right._eval(s)

    def diff(self):
        return Sum(self.left.diff(), self.right.diff())

    def substitute(self, r):
        return Sum(self.left.substitute(r), self.right.substitute(r))

    def _text(self):
        if isinstance(self.right, Negate):
            return f"{self._paren(self.left, 1)} - {self._paren(self.right.operand, 2)}"
        return f"{self._paren(self.left, 1)} + {self._paren(self.right, 2)}"


class Product(Expression):
    __slots__ = ("left", "right")
    _PREC = 2

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _children(self):
        return (self.left, self.right)

    def _eval(self, s):
        return self.left._eval(s) * self.right._eval(s)

    def diff(self):
        return Sum(Product(self.left.diff(), self.right),
                   Product(self.left, self.right.diff()))

    def substitute(self, r):
        return Product(self.left.substitute(r), self.right.substitute(r))

    def _text(self):
        return f"{self._paren(self.left, 2)}*{self._paren(self.right, 3)}"


class Quotient(Expression):
    __slots__ = ("num", "den")
    _PREC = 2

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def _children(self):
        return (self.num, self.den)

    def _eval(self, s):
        den = self.den._eval(s)
        if np.any(den == 0):
            raise EvaluationDomainError(self.den, _first(s, den == 0),
                                        "division by zero")
        return self.num._eval(s) / den

    def diff(self):
        return Quotient(
            Sum(Product(self.num.diff(), self.den),
                Negate(Product(self.num, self.den.diff()))),
            IntegerPower(self.den, 2))

    def substitute(self, r):
        return Quotient(self.num.substitute(r), self.den.substitute(r))

    def _text(self):
        return f"{self._paren(self.num, 2)}/{self._paren(self.den, 3)}"


class Negate(Expression):
    __slots__ = ("operand",)
    _PREC = 3

    def __init__(self, operand):
        self.operand = operand

    def _children(self):
        return (self.operand,)

    def _eval(self, s):
        return -self.operand._eval(s)

    def diff(self):
        return Negate(self.operand.diff())

    def substitute(self, r):
        return Negate(self.operand.substitute(r))

    def constant_value(self):
        v = self.operand.constant_value()
        return None if v is None else -v

    def _text(self):
        return f"-{self._paren(self.operand, 4)}"


class IntegerPower(Expression):
    __slots__ = ("base", "n")
    _PREC = 4

    def __init__(self, base, n):
        self.base = base
        self.n = int(n)

    def _children(self):
        return (self.base,)

    def _eval(self, s):
        base = self.base._eval(s)
        if self.n < 0 and np.any(base == 0):
            raise EvaluationDomainError(self, _first(s, base == 0),
                                        "zero base with negative power")
        return base ** self.n

    def diff(self):
        if self.n == 0:
            return Constant(0.0)
        return Product(Product(Constant(self.n), IntegerPower(self.base, self.n - 1)),
                       self.base.diff())

    def substitute(self, r):
        return IntegerPower(self.base.substitute(r), self.n)

    def _text(self):
        return f"{self._paren(self.base, 5)}^{self.n}"


class Power(Expression):
    """General power with complex principal branch for non-integer exponents."""

    __slots__ = ("base", "exponent")
    _PREC = 4

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent

    def _children(self):
        return (self.base, self.exponent)

    def _eval(self, s):
        base = self.base._eval(s)
        expo = self.exponent._eval(s)
        # 0 to a negative or complex power: Python complex raises, numpy
        # arrays would give NaN
        bad = (base == 0) & ((np.real(expo) < 0) | (np.imag(expo) != 0))
        if np.any(bad):
            raise EvaluationDomainError(self, _first(s, bad),
                                        "zero base with negative or complex power")
        return base ** expo

    def diff(self):
        # d(u^v) = u^v * (v' log u + v u'/u)
        u, v = self.base, self.exponent
        return Product(Power(u, v),
                       Sum(Product(v.diff(), Apply("log", u)),
                           Product(v, Quotient(u.diff(), u))))

    def substitute(self, r):
        return Power(self.base.substitute(r), self.exponent.substitute(r))

    def _text(self):
        return f"{self._paren(self.base, 5)}^{self._paren(self.exponent, 4)}"


def _sech(x):
    return 1.0 / np.cosh(x)


_FUNC_EVAL = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sech": _sech,
    "sqrt": np.sqrt,
    "log": np.log,
}

FUNCTION_NAMES = frozenset(_FUNC_EVAL)


class Apply(Expression):
    __slots__ = ("name", "arg")
    _PREC = 100

    def __init__(self, name, arg):
        if name not in _FUNC_EVAL:
            raise ValueError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg

    def _children(self):
        return (self.arg,)

    def _eval(self, s):
        arg = self.arg._eval(s)
        if self.name == "log" and np.any(arg == 0):
            raise EvaluationDomainError(self, _first(s, arg == 0), "log of zero")
        return _FUNC_EVAL[self.name](arg)

    def diff(self):
        u = self.arg
        du = u.diff()
        inner = {
            "exp": lambda: Apply("exp", u),
            "sin": lambda: Apply("cos", u),
            "cos": lambda: Negate(Apply("sin", u)),
            "sinh": lambda: Apply("cosh", u),
            "cosh": lambda: Apply("sinh", u),
            "tanh": lambda: IntegerPower(Apply("sech", u), 2),
            "sech": lambda: Negate(Product(Apply("sech", u), Apply("tanh", u))),
            "sqrt": lambda: Quotient(Constant(0.5), Apply("sqrt", u)),
            "log": lambda: Quotient(Constant(1.0), u),
        }[self.name]()
        return Product(inner, du)

    def substitute(self, r):
        return Apply(self.name, self.arg.substitute(r))

    def _text(self):
        return f"{self.name}({self.arg._text()})"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_CONSTANTS = {"pi": math.pi, "i": 1j}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r}", pos,
                expected=("number", "identifier", "operator"))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, offset = self.peek()
        got = "end of input" if kind == "end" else repr(value)
        raise ExpressionSyntaxError(
            f"expected {' or '.join(sorted(expected))}, got {got}", offset, expected)

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        self.fail((op,))

    # expr := term (('+'|'-') term)*
    def parse_expression(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Sum(node, rhs) if value == "+" else Sum(node, Negate(rhs))
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = Product(node, rhs) if value == "*" else Quotient(node, rhs)
            else:
                return node

    # unary := '-' unary | power
    def parse_unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Negate(self.parse_unary())
        return self.parse_power()

    # power := atom ('^' unary)?   (right associative through the unary rule)
    def parse_power(self):
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            expo = self.parse_unary()
            return _make_power(base, expo)
        return base

    def parse_atom(self):
        kind, value, offset = self.peek()
        if kind == "number":
            self.advance()
            return Constant(float(value))
        if kind == "name":
            self.advance()
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNC_EVAL:
                    raise UnknownIdentifierError(value, offset)
                self.advance()
                arg = self.parse_expression()
                self.expect_op(")")
                return Apply(value, arg)
            if value == "s":
                return S
            if value in _CONSTANTS:
                return Constant(_CONSTANTS[value])
            raise UnknownIdentifierError(value, offset)
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_expression()
            self.expect_op(")")
            return node
        self.fail(("number", "identifier", "(", "-"))


def _make_power(base, expo):
    v = expo.constant_value()
    if v is not None and v.imag == 0.0 and float(v.real).is_integer() and abs(v.real) <= 1024:
        return IntegerPower(base, int(v.real))
    return Power(base, expo)


def parse(text):
    """Parse profile text into an Expression.

    Raises ExpressionSyntaxError (with byte offset and expected-token set) on
    malformed input, UnknownIdentifierError on unrecognized names.
    """
    parser = _Parser(text)
    node = parser.parse_expression()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {value!r}", offset,
                                    expected=("end of input",))
    return node


def evaluate(expression, s):
    """Evaluate an expression at a complex scalar."""
    return expression.evaluate(s)


def differentiate(expression):
    """Exact symbolic d/ds."""
    return expression.diff()


def derivatives(expression, k):
    """[e, De, ..., D^k e]: e as given, each derivative simplified.

    The one place where the package takes repeated symbolic derivatives.
    """
    out = [expression]
    for _ in range(k):
        out.append(simplify(out[-1].diff()))
    return out


# ---------------------------------------------------------------------------
# simplification (best effort, value preserving)

def simplify(expression):
    """Constant folding, 0/1 identities and power flattening.

    Only value preservation is guaranteed: on its domain the result evaluates
    to the same values as the input up to roundoff of folded constants.
    """
    return _simplify(expression)


def _is_const(node, value=None):
    if not isinstance(node, Constant):
        return False
    return True if value is None else node.value == value


def _fold(node):
    """Fold a node whose children are all constants; keep it on any failure."""
    try:
        return Constant(node.evaluate(0.0))
    except Exception:
        return node


def _simplify(node):
    if isinstance(node, (Constant, Variable)):
        return node

    if isinstance(node, Sum):
        left, right = _simplify(node.left), _simplify(node.right)
        if _is_const(left, 0):
            return right
        if _is_const(right, 0):
            return left
        if isinstance(left, Constant) and isinstance(right, Constant):
            return Constant(left.value + right.value)
        return Sum(left, right)

    if isinstance(node, Product):
        left, right = _simplify(node.left), _simplify(node.right)
        if _is_const(left, 0) or _is_const(right, 0):
            return Constant(0.0)
        if _is_const(left, 1):
            return right
        if _is_const(right, 1):
            return left
        if isinstance(left, Constant) and isinstance(right, Constant):
            return Constant(left.value * right.value)
        # pull negations out of products (exact sign flips)
        if isinstance(left, Negate) and isinstance(right, Negate):
            return _simplify(Product(left.operand, right.operand))
        if isinstance(left, Negate):
            return Negate(_simplify(Product(left.operand, right)))
        if isinstance(right, Negate):
            if isinstance(left, Constant):
                return _simplify(Product(Constant(-left.value), right.operand))
            return Negate(_simplify(Product(left, right.operand)))
        # merge constants across one nesting level
        if isinstance(left, Constant) and isinstance(right, Product) \
                and isinstance(right.left, Constant):
            return Product(Constant(left.value * right.left.value), right.right)
        if isinstance(right, Constant):
            return Product(right, left) if not isinstance(left, Constant) else Product(left, right)
        return Product(left, right)

    if isinstance(node, Quotient):
        num, den = _simplify(node.num), _simplify(node.den)
        if _is_const(num, 0):
            return Constant(0.0)
        if _is_const(den, 1):
            return num
        if isinstance(num, Constant) and isinstance(den, Constant) and den.value != 0:
            return Constant(num.value / den.value)
        return Quotient(num, den)

    if isinstance(node, Negate):
        operand = _simplify(node.operand)
        if isinstance(operand, Negate):
            return operand.operand
        if isinstance(operand, Constant):
            return Constant(-operand.value)
        return Negate(operand)

    if isinstance(node, IntegerPower):
        base = _simplify(node.base)
        if node.n == 0:
            return Constant(1.0)
        if node.n == 1:
            return base
        if isinstance(base, IntegerPower):
            return _simplify(IntegerPower(base.base, base.n * node.n))
        if isinstance(base, Constant):
            return _fold(IntegerPower(base, node.n))
        return IntegerPower(base, node.n)

    if isinstance(node, Power):
        base, expo = _simplify(node.base), _simplify(node.exponent)
        rebuilt = _make_power(base, expo)
        if isinstance(rebuilt, IntegerPower):
            return _simplify(rebuilt)
        if isinstance(base, Constant) and isinstance(expo, Constant):
            return _fold(rebuilt)
        return rebuilt

    if isinstance(node, Apply):
        arg = _simplify(node.arg)
        rebuilt = Apply(node.name, arg)
        if isinstance(arg, Constant):
            return _fold(rebuilt)
        return rebuilt

    return node
