"""The dimension-recursion operator and its multi-step closed form.

One application of the operator maps the n-dimensional radial Fourier
transform F to the (n+2)-dimensional one:

    F_(n+2)(rho) = -(1 / (2 pi rho)) * dF_n/drho        (rho > 0)

so that k applications land at dimension n + 2k.  The k-step version
expands into the basis rho^-(2k-l) D^l with integer coefficients

    c_(k,l) = (-1)^l (2k-l-1)! / (2^(k-l) (k-l)! (l-1)!),

up to sign the coefficients of the Bessel polynomial y_(k-1) (Grosswald,
1978).  ``iterate_operator_symbolic`` rebuilds the same table by applying
the rewrite rho^-m D^l -> -(1/rho) D (rho^-m D^l) exactly, and is the
independent oracle for the closed-form coefficients.

``lift_once`` (k = 1) and ``lift_to_dimension`` (any k) both evaluate
that sum in one private evaluator, from the derivatives D^0..D^k that an
engine supplies at rho.  At rho = 0 the step has a removable singularity;
there the evaluator takes the j = 0 Taylor term of the even profile,

    F_(n+2k)(0) = k! D^(2k)F(0) / ((2k)! (-pi)^k),

from the engine's D^(2k) at 0.  Engines: symbolic (exact, for expression
profiles, through ``expr.derivatives``), Chebyshev collocation on a window
[a, b] with a > 0, and Richardson-extrapolated central differences.  Each
engine owns the origin: central differences read the profile at |t| when
t = 0, the even extension; the symbolic engine takes an h^2 Richardson
limit of an order it cannot evaluate at 0, up to order 2, bounded by the
gap of its last two levels (odd orders read 0, higher ones raise); the
Chebyshev window excludes 0.
Numerical differentiation is the dominant error source of the whole
pipeline, so the engine is always swappable and every result carries the
engine's error bounds propagated through the sum.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .errors import EngineError, ParityError
from .quadrature import _tidy
from .transform import AnalyticProfile, _as_profile, radial_fourier

__all__ = [
    "CoefficientTable", "corollary_coefficients", "iterate_operator_symbolic",
    "AnalyticEngine", "ChebyshevEngine", "CentralFDEngine", "LiftResult",
    "lift_once", "lift_once_symbolic", "lift_prediff", "lift_to_dimension",
    "default_engine",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# exact coefficient tables

@dataclass(frozen=True)
class CoefficientTable:
    """Exact coefficients {l: c_(k,l)} of the k-step operator expansion."""

    k: int
    entries: tuple  # ((l, int), ...) sorted by l

    def coefficient(self, ell):
        return dict(self.entries)[ell]

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return ", ".join(str(c) for _, c in self.entries)


def corollary_coefficients(k):
    """Closed-form table c_(k,l) for l = 1..k, exact integers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    entries = []
    for ell in range(1, k + 1):
        num = (-1) ** ell * math.factorial(2 * k - ell - 1)
        den = 2 ** (k - ell) * math.factorial(k - ell) * math.factorial(ell - 1)
        entries.append((ell, num // den))  # exact: den divides num
    return CoefficientTable(k, tuple(entries))


def iterate_operator_symbolic(k):
    """Independent oracle: iterate the rewrite -(1/rho) D, exactly, k times.

    Operators are stored as {(m, l): a} meaning sum of a * rho^-m * D^l.
    After k steps every term has m = 2k - l; the table is read off in that
    basis (the 1/(2 pi)^k prefactor is kept out, matching the closed form).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    terms = {(0, 0): 1}
    for _ in range(k):
        nxt = {}
        for (m, ell), a in terms.items():
            # D(a rho^-m D^l F) = -m a rho^-(m+1) D^l F + a rho^-m D^(l+1) F
            # then multiply by -(1/rho)
            key1 = (m + 2, ell)
            nxt[key1] = nxt.get(key1, 0) + a * m
            key2 = (m + 1, ell + 1)
            nxt[key2] = nxt.get(key2, 0) - a
        terms = {key: a for key, a in nxt.items() if a != 0}
    entries = []
    for (m, ell), a in sorted(terms.items(), key=lambda item: item[0][1]):
        if m != 2 * k - ell:
            raise AssertionError(f"unexpected basis term rho^-{m} D^{ell} at k={k}")
        entries.append((ell, a))
    return CoefficientTable(k, tuple(entries))


# ---------------------------------------------------------------------------
# derivative engines: derivatives(profile, t, max_order) returns
# ([d0, d1, ..., d_max_order], error_bounds) at t

def _even_limit_at_zero(d, m):
    """D^m of an even profile at 0, where its expression d cannot be
    evaluated, and its error bound.

    Odd orders vanish, exactly.  Orders up to 2 take d(h) = d(0) + O(h^2),
    Richardson in h^2, at offsets well above the cancellation floor of
    expressions singular at 0 (sin(t)/t forms), bounded by the gap between
    the last two Richardson levels; higher orders lose too much to that
    floor and raise.
    """
    if m % 2:
        return 0.0, 0.0
    if m > 2:
        raise EngineError(
            f"order {m} at 0 needs a limit, which the analytic engine takes "
            "only up to order 2")
    vals = [d.evaluate(h) for h in (4e-2, 2e-2, 1e-2)]
    first = [(4.0 * b - a) / 3.0 for a, b in zip(vals, vals[1:])]
    limit = (16.0 * first[1] - first[0]) / 15.0
    return limit, abs(limit - first[1])


class AnalyticEngine:
    """Exact symbolic differentiation; profiles must carry an expression.

    Its bounds are 0, except for a limit at 0 (``_even_limit_at_zero``)."""

    def derivatives(self, profile, t, max_order):
        e = profile.expression
        if e is None:
            raise EngineError("analytic engine needs an expression profile")
        values, bounds = [], []
        for m, d in enumerate(_expr.derivatives(e, max_order)):
            try:
                value, bound = d.evaluate(t), 0.0
            except (ValueError, ArithmeticError):
                if t != 0.0:
                    raise
                value, bound = _even_limit_at_zero(d, m)
            values.append(value)
            bounds.append(bound)
        return values, bounds


class ChebyshevEngine:
    """Chebyshev interpolant of the profile on [a, b], 0 < a, differentiated.

    The error bound per order multiplies the interpolant's coefficient tail
    by the spectral differentiation amplification (2/(b-a)) * degree^2.
    """

    def __init__(self, degree=64, interval=(0.1, 4.0)):
        a, b = interval
        if not 0 < a < b:
            raise ValueError("Chebyshev interval needs 0 < a < b")
        if degree < 4:
            raise ValueError("degree must be >= 4")
        self.degree = int(degree)
        self.interval = (float(a), float(b))
        self._cache = weakref.WeakKeyDictionary()

    def _fit(self, profile):
        fit = self._cache.get(profile)
        if fit is None:
            a, b = self.interval
            fit = np.polynomial.chebyshev.Chebyshev.interpolate(
                lambda t: np.real(profile.values(t)), self.degree, domain=[a, b])
            self._cache[profile] = fit
        return fit

    def derivatives(self, profile, t, max_order):
        a, b = self.interval
        if not a <= t <= b:
            raise EngineError(
                f"point {t} outside the Chebyshev window [{a}, {b}]")
        fit = self._fit(profile)
        tail = float(np.max(np.abs(fit.coef[-3:])))
        amp = 2.0 / (b - a) * self.degree ** 2
        values, bounds = [], []
        deriv = fit
        for m in range(max_order + 1):
            values.append(float(deriv(t)))
            bounds.append(tail * amp ** m)
            if m < max_order:
                deriv = deriv.deriv()
        return values, bounds


def _fornberg_weights(z, x, m):
    """Finite-difference weights for derivatives 0..m at z on nodes x."""
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for v in range(mn, 0, -1):
                    c[i, v] = c1 * (v * c[i - 1, v - 1] - c5 * c[i - 1, v]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for v in range(mn, 0, -1):
                c[j, v] = (c4 * c[j, v] - v * c[j, v - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


# the stencil at h, h/2 and h/4, extrapolated twice
_RICHARDSON_LEVELS = 2


class CentralFDEngine:
    """Central finite differences with Richardson extrapolation.

    Supports derivative orders up to 4; order m reads offsets
    -(m//2+2)..(m//2+2) at h, h/2 and h/4, each distinct node once, in one
    ``profile.values`` call.  The error bound per order is the difference
    between the two finest Richardson levels.  At t = 0 the stencil reads
    the profile at |t|, its even extension.
    """

    def __init__(self, step=0.01):
        if step <= 0:
            raise ValueError("step must be positive")
        self.step = float(step)

    def derivatives(self, profile, t, max_order):
        if max_order > 4:
            raise EngineError("central differences support order <= 4")
        steps = self.step * 0.5 ** np.arange(_RICHARDSON_LEVELS + 1)
        stencils = [[t + np.arange(-(m // 2 + 2), m // 2 + 3, dtype=float) * h
                     for h in steps] for m in range(1, max_order + 1)]
        nodes = np.concatenate([[t], *(x for row in stencils for x in row)])
        radii, where = np.unique(np.abs(nodes) if t == 0.0 else nodes,
                                 return_inverse=True)
        samples = np.real(profile.values(radii))[where]
        values, bounds, start = [float(samples[0])], [0.0], 1
        for m, row in enumerate(stencils, 1):
            table = []
            for x in row:
                weights = _fornberg_weights(t, x, m)[:, m]
                table.append(float(np.dot(weights, samples[start:start + x.size])))
                start += x.size
            # Richardson on the h^2 expansion of the symmetric stencils
            order_gain = 4.0
            for level in range(1, len(table)):
                for j in range(len(table) - 1, level - 1, -1):
                    table[j] = table[j] + (table[j] - table[j - 1]) / (order_gain - 1.0)
                order_gain *= 4.0
            values.append(table[-1])
            bounds.append(abs(table[-1] - table[-2]))
        return values, bounds


def default_engine(profile):
    """Analytic for expression profiles, Chebyshev on a sampled grid, else FD."""
    profile = _as_profile(profile)
    if profile.expression is not None:
        return AnalyticEngine()
    grid = getattr(profile, "grid", None)
    if grid is not None:
        return ChebyshevEngine(degree=min(64, len(grid) - 1),
                               interval=(float(grid[0]), float(grid[-1])))
    return CentralFDEngine()


# ---------------------------------------------------------------------------
# the lift

@dataclass
class LiftResult:
    """Lift value and the engine's error bounds propagated through the sum."""

    value: float
    error_estimate: float = 0.0

    def __float__(self):
        return float(self.value)


def _corollary_sum(profile, rho, k, engine):
    """k steps at rho >= 0.

    rho > 0: (2 pi)^-k sum_l c_(k,l) rho^(l-2k) (D^l profile)(rho).
    rho = 0: the limit k! (D^(2k) profile)(0) / ((2k)! (-pi)^k).
    """
    engine = engine or default_engine(profile)
    if rho == 0:
        values, bounds = engine.derivatives(profile, 0.0, 2 * k)
        den = math.factorial(2 * k) * (-math.pi) ** k / math.factorial(k)
        return LiftResult(_tidy(values[2 * k] / den), abs(bounds[2 * k] / den))
    values, bounds = engine.derivatives(profile, float(rho), k)
    scale = _TWO_PI ** (-k)
    total = 0.0
    err = 0.0
    for ell, coeff in corollary_coefficients(k):
        weight = float(coeff) * rho ** (ell - 2 * k) * scale
        total += weight * values[ell]
        err += abs(weight) * bounds[ell]
    return LiftResult(_tidy(total), err)


def lift_once(profile, r, engine=None):
    """One dimension step: -(1/(2 pi r)) d(profile)/dr at r >= 0.

    At r = 0 this is the limit -(1/(2 pi)) F''(0) of the even profile.
    """
    profile = _as_profile(profile)
    if r < 0:
        raise ValueError("lift_once needs r >= 0")
    return _corollary_sum(profile, r, 1, engine)


def lift_once_symbolic(expression):
    """The lifted profile as an expression: -(1/(2 pi s)) d(expression)/ds."""
    if isinstance(expression, str):
        expression = _expr.parse(expression)
    lifted = _expr.Quotient(
        _expr.Negate(expression.diff()),
        _expr.Product(_expr.Constant(_TWO_PI), _expr.S))
    return _expr.simplify(lifted)


def lift_prediff(profile, n, r, spec=None):
    """Pre-differentiated lift: differentiate the input profile, then transform.

    Builds eta(t) = n f(t) + t f'(t) symbolically and returns
    (1 / (2 pi r^2)) * F_n(eta)(r), which equals F_(n+2)(f)(r).
    """
    profile = _as_profile(profile)
    if profile.expression is None:
        raise EngineError("lift_prediff needs an analytic profile "
                          "(the input itself is differentiated)")
    if r <= 0:
        raise ValueError("r must be positive")
    e, de = _expr.derivatives(profile.expression, 1)
    eta = _expr.simplify(_expr.Sum(
        _expr.Product(_expr.Constant(float(n)), e),
        _expr.Product(_expr.S, de)))
    transformed = radial_fourier(AnalyticProfile(eta), n, r, spec)
    return _tidy(transformed / (_TWO_PI * r * r))


def lift_to_dimension(profile, base_dim, target_dim, rho, engine=None):
    """Closed multi-step lift from base_dim (1 or 2) to target_dim at rho.

    k = (target_dim - base_dim) / 2 steps:
    value = (2 pi)^-k * sum_l c_(k,l) rho^(l-2k) (D^l profile)(rho).
    At rho = 0 the value is k! D^(2k) profile(0) / ((2k)! (-pi)^k).
    target_dim == base_dim is the degenerate identity.
    """
    profile = _as_profile(profile)
    if base_dim not in (1, 2):
        raise ParityError(f"base dimension must be 1 or 2, got {base_dim}")
    step = target_dim - base_dim
    if step < 0 or step % 2 != 0:
        raise ParityError(
            f"target {target_dim} is not base {base_dim} plus an even step")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    k = step // 2
    if k == 0:
        return LiftResult(_tidy(profile.values(np.asarray([rho]))[0]))
    return _corollary_sum(profile, rho, k, engine)
