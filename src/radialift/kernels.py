"""Closed-form kernel catalog and the function-level applications.

The catalog carries the kernels of functions of the Laplacian that have
closed forms, indexed by family and dimension:

* resolvent of -Delta at z (off the nonnegative real axis, finite), odd
  1 <= n <= 121, c = sqrt(-z), Re c > 0: the paper's k-step corollary
  F_(1+2k) = (2 pi)^(-k) sum_l c_(k,l) r^(l-2k) D^l F_1, k = (n-1)/2, with
  the table of ``lift.corollary_coefficients``, on F_1 = e^(-c r) / (2c).
  This is (2 pi)^(-n/2) (c/r)^(n/2-1) K_(n/2-1)(c r), singular at r = 0
  from n = 3 on; the ceiling is that of the Bessel order n/2 - 1.
* spectral projection onto [0, E], 1 <= n <= 120: one closed form in every
  dimension, (2 pi)^(-n/2) E^(n/2) Jt_(n/2)(sqrt(E) r), since the paper's
  step n -> n + 2 acts on Jt_nu as the index shift
  d/dx Jt_nu(x) = -x Jt_(nu+1)(x).  n=1 reads
  sin(r sqrt(E)) / (pi r).  The form is finite at r = 0, where it equals
  E^(n/2) / ((4 pi)^(n/2) Gamma(n/2 + 1)); the ceiling is that of the
  Bessel order n/2.
* heat kernel (4 pi t)^(-n/2) e^(-r^2 / 4t), any n >= 1; the cheapest
  high-quality cross-check for the multiplier path.
* the sech family, odd 1 <= n <= 15: sech(pi r) is its own 1-d transform,
  and the same corollary on it gives the rest, one sum over the symbolic
  derivatives D^l sech(pi r).  Each D^l is a polynomial in sech and tanh,
  so the tree grows with n, which sets the ceiling: at n = 15 it has
  about 344,000 characters.

Each family has one function that returns its kernel as an expression in
s and validates its own parameters: ``resolvent_profile(n, z)``,
``projection_profile(n, E)``, ``heat_profile(n, t)`` and
``sech_transform_profile(n)``.  The ``*_kernel`` functions evaluate them
at one radius.

``kernel_of_multiplier`` computes the kernel of f(-Delta) directly: the
transform of t -> f(4 pi^2 t^2) (the transform is self-inverse on radial
functions).  Resolvent multipliers decay only like 1/t^2, and their
transforms converge conditionally; the oscillatory engine sums them and
says through its flag whether it did.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import expr as _expr
from .bessel import Order
from .errors import BranchError, SphereRuleError
from .expr import (Apply, BesselJt, Constant, IntegerPower, Negate, Product,
                   Quotient, S, Sum)
from .lift import corollary_coefficients
from .quadrature import QuadratureSpec, integrate_finite
from .transform import (AnalyticProfile, _checked_value, radial_fourier,
                        spherical_mean)

__all__ = [
    "sqrt_minus_z", "resolvent_profile", "projection_profile", "heat_profile",
    "sech_transform_profile", "resolvent_kernel", "projection_kernel",
    "kernel_of_multiplier", "heat_kernel", "dalembert", "kirchhoff",
    "even_to_squared",
]

# Kirchhoff's sphere rule: Gauss-Legendre in the colatitude, trapezoid in
# the longitude; the check reruns it at twice both orders
_SPHERE_GLQ_ORDER = 24
_SPHERE_TRAP_ORDER = 48


def sqrt_minus_z(z):
    """Principal sqrt(-z), positive real part for finite z off [0, inf)."""
    z = complex(z)
    if not cmath.isfinite(z):  # NaN fails it too
        raise ValueError(f"resolvent z must be finite, got z = {z}")
    if z.imag == 0.0 and z.real >= 0.0:
        raise BranchError(f"z={z} lies on the nonnegative real axis")
    return cmath.sqrt(-z)


# ---------------------------------------------------------------------------
# closed-form expressions

def _corollary(base, n):
    """The paper's k-step corollary on a 1-d transform, k = (n-1)/2:
    (2 pi)^(-k) sum_l c_(k,l) s^(l-2k) D^l base, simplified; base at n = 1."""
    k = (n - 1) // 2
    if k == 0:
        return base
    ds = _expr.derivatives(base, k)
    terms = [Product(Constant(coeff * (2.0 * math.pi) ** -k),
                     Product(IntegerPower(S, ell - 2 * k), ds[ell]))
             for ell, coeff in corollary_coefficients(k)]
    return _expr.simplify(functools.reduce(Sum, terms))


@functools.cache
def resolvent_profile(n, z):
    """Expression for the resolvent kernel in odd dimension 1 <= n <= 121:
    the corollary on exp(-c s) / (2c)."""
    if n % 2 == 0 or not 1 <= n <= 121:
        raise ValueError(f"resolvent kernel covers odd dimensions 1 <= n <= 121, got n = {n}")
    c = sqrt_minus_z(z)
    return _corollary(Product(Constant(1.0 / (2.0 * c)),
                              Apply("exp", Product(Constant(-c), S))), n)


@functools.cache
def projection_profile(n, energy):
    """Expression for the spectral projection kernel onto [0, E], 1 <= n <= 120:
    (2 pi)^(-n/2) E^(n/2) Jt_(n/2)(sqrt(E) s)."""
    if not 1 <= n <= 120:
        raise ValueError(f"projection kernel covers dimensions 1 <= n <= 120, got n = {n}")
    if not 0 < energy < math.inf:  # written so that NaN fails it
        raise ValueError(f"projection energy E must be positive and finite, got E = {energy}")
    jt = BesselJt(Order(n), Product(Constant(math.sqrt(energy)), S))
    return Product(Constant((energy / (2.0 * math.pi)) ** (n / 2.0)), jt)


@functools.cache
def sech_transform_profile(n):
    """Transform of sech(pi |x|) in odd dimension 1 <= n <= 15, by the corollary."""
    if n % 2 == 0 or not 1 <= n <= 15:
        raise ValueError(f"sech transforms cover odd dimensions 1 <= n <= 15, got n = {n}")
    return _corollary(_expr.parse("sech(pi*s)"), n)


def heat_profile(n, t):
    """Expression for the heat kernel (4 pi t)^(-n/2) exp(-s^2 / 4t), t > 0."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 < t < math.inf:  # written so that NaN fails it
        raise ValueError(f"heat time t must be positive and finite, got t = {t}")
    amp = (4.0 * math.pi * t) ** (-n / 2.0)
    return Product(Constant(amp),
                   Apply("exp", Negate(Quotient(IntegerPower(S, 2),
                                                Constant(4.0 * t)))))


def resolvent_kernel(n, z, r):
    """Kernel of (-Delta - z)^(-1) at radius r >= 0, odd n <= 121, z off [0, inf)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return resolvent_profile(n, z).evaluate(r)


def projection_kernel(n, energy, r):
    """Kernel of the spectral projection chi_[0,E](-Delta) at radius r >= 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return projection_profile(n, energy).evaluate(r).real


def heat_kernel(n, t, r):
    """(4 pi t)^(-n/2) exp(-r^2 / 4t), n >= 1, t > 0."""
    return heat_profile(n, t).evaluate(r).real


# ---------------------------------------------------------------------------
# kernel of a general spectral multiplier

def kernel_of_multiplier(f, n, r, spec=None):
    """Kernel of f(-Delta) at radius r: the transform of t -> f(4 pi^2 t^2).

    ``f`` is an expression in one variable (the spectral parameter).  A
    multiplier that is not integrable near 0 raises IntegrabilityError, and
    one whose transform does not converge raises ConvergenceError.
    """
    if isinstance(f, str):
        f = _expr.parse(f)
    inner = Product(Constant(4.0 * math.pi ** 2), IntegerPower(S, 2))
    profile = AnalyticProfile(_expr.simplify(f.substitute(inner)))
    return radial_fourier(profile, n, r, spec)


# ---------------------------------------------------------------------------
# wave-equation solution operators

def dalembert(phi, t, x, spec=None):
    """d'Alembert's formula: (1/2) integral of phi over [x-t, x+t].  An
    integral that does not converge raises ConvergenceError."""
    if t == 0.0:
        return 0.0
    a, b = sorted((x - t, x + t))
    value = _checked_value(integrate_finite(phi, a, b, spec), "d'Alembert",
                           f"t={t}, x={x}")
    return math.copysign(1.0, t) * 0.5 * float(np.real(value))


def kirchhoff(phi, t, x, spec=None):
    """Kirchhoff's formula u(t, x) = (t / 4 pi) integral_S2 phi(x - t theta).

    phi maps an ndarray point of shape (3,) to a number.  The sphere rule is
    evaluated at orders (24, 48) and at doubled orders; disagreement beyond
    tolerance raises SphereRuleError.
    """
    if t == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    spec = spec or QuadratureSpec()
    shifted = lambda y: phi(x - y)
    glq, trap = _SPHERE_GLQ_ORDER, _SPHERE_TRAP_ORDER
    coarse = t * spherical_mean(shifted, 3, abs(t), glq, trap)
    fine = t * spherical_mean(shifted, 3, abs(t), 2 * glq, 2 * trap)
    if abs(fine - coarse) > 100.0 * spec.tolerance(fine):
        raise SphereRuleError(
            f"sphere rule orders ({glq},{trap}) and doubled "
            f"disagree by {abs(fine - coarse):.3g}")
    return fine


# ---------------------------------------------------------------------------
# even-function composition (f(x) = g(x^2))

def even_to_squared(f, k, t, spec=None):
    """k-th derivative of g at t, where f(x) = g(x^2) and f is even.

    k = 0 returns f(sqrt(t)).  For k >= 1,

        g^(k)(T) = k! 2^(1-2k) k C(2k, k) / (2k)! *
                   integral_0^1 (1 - u^2)^(k-1) f^(2k)(u sqrt(T)) du,

    with f^(2k) obtained by repeated symbolic differentiation.  An integral
    that does not converge raises ConvergenceError.
    """
    if isinstance(f, str):
        f = _expr.parse(f)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    for u in np.linspace(0.2, 2.0, 10):
        if abs(f.evaluate(u) - f.evaluate(-u)) > 1e-12:
            raise ValueError(f"profile is not even at u={u:.3g}")
    if k == 0:
        return f.evaluate(math.sqrt(t)).real
    d = _expr.derivatives(f, 2 * k)[-1]
    root = math.sqrt(t)
    coeff = (math.factorial(k) * 2.0 ** (1 - 2 * k) * k * math.comb(2 * k, k)
             / math.factorial(2 * k))

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return (1.0 - u ** 2) ** (k - 1) * np.real(d.eval_array(u * root))

    value = _checked_value(integrate_finite(integrand, 0.0, 1.0, spec),
                           "even_to_squared", f"t={t}")
    return coeff * float(np.real(value))
