"""Closed-form kernel catalog and the function-level applications.

The catalog carries the kernels of functions of the Laplacian that have
closed forms, indexed by family and dimension:

* resolvent of -Delta at z (off the nonnegative real axis), odd n <= 9:
  n=1: e^(-c r) / (2 c),  n=3: e^(-c r) / (4 pi r),
  n=5: (1 + c r) e^(-c r) / (8 pi^2 r^3),  with c = sqrt(-z), Re c > 0;
  n=7 and 9 are produced by symbolically applying the dimension lift to the
  n=5 (resp. n=7) expression and cached, rather than hand-transcribed.
* spectral projection onto [0, E], 1 <= n <= 120: one closed form in every
  dimension, (2 pi)^(-n/2) E^(n/2) Jt_(n/2)(sqrt(E) r), since the paper's
  step n -> n + 2 acts on Jt_nu as the index shift
  d/dx Jt_nu(x) = -x Jt_(nu+1)(x).  n=1 reads
  sin(r sqrt(E)) / (pi r).  The form is finite at r = 0, where it equals
  E^(n/2) / ((4 pi)^(n/2) Gamma(n/2 + 1)); the ceiling is that of the
  Bessel order n/2.
* heat kernel (4 pi t)^(-n/2) e^(-r^2 / 4t), any n >= 1; the cheapest
  high-quality cross-check for the multiplier path.
* the sech family: sech(pi r) is its own 1-d transform, and odd-dimension
  transforms follow by lifting.

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
from .lift import lift_once_symbolic
from .quadrature import QuadratureSpec, integrate_finite
from .transform import (AnalyticProfile, _checked_value, radial_fourier,
                        spherical_mean)

__all__ = [
    "sqrt_minus_z", "resolvent_profile", "projection_profile", "heat_profile",
    "sech_transform_profile", "resolvent_kernel", "projection_kernel",
    "kernel_of_multiplier", "heat_kernel", "dalembert", "kirchhoff",
    "even_to_squared",
]

_RESOLVENT_MAX_DIM = 9
# Kirchhoff's sphere rule: Gauss-Legendre in the colatitude, trapezoid in
# the longitude; the check reruns it at twice both orders
_SPHERE_GLQ_ORDER = 24
_SPHERE_TRAP_ORDER = 48


def sqrt_minus_z(z):
    """Principal sqrt(-z), positive real part for z off [0, inf)."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise BranchError(f"z={z} lies on the nonnegative real axis")
    return cmath.sqrt(-z)


# ---------------------------------------------------------------------------
# closed-form expressions and their lifted extensions

def _exp_decay(c):
    """exp(-c s) as an expression, c a (complex) constant."""
    return Apply("exp", Negate(Product(Constant(c), S)))


def _resolvent_base(n, z):
    c = sqrt_minus_z(z)
    if n == 1:
        return Product(Constant(1.0 / (2.0 * c)), _exp_decay(c))
    if n == 3:
        return Quotient(_exp_decay(c), Product(Constant(4.0 * math.pi), S))
    if n == 5:
        num = Product(Sum(Constant(1.0), Product(Constant(c), S)), _exp_decay(c))
        return Quotient(num, Product(Constant(8.0 * math.pi ** 2),
                                     IntegerPower(S, 3)))
    raise ValueError(n)


@functools.cache
def resolvent_profile(n, z):
    """Expression for the resolvent kernel in odd dimension n <= 9."""
    if n % 2 == 0 or not 1 <= n <= _RESOLVENT_MAX_DIM:
        raise ValueError(f"resolvent catalog covers odd n <= {_RESOLVENT_MAX_DIM}, got {n}")
    if n <= 5:
        return _resolvent_base(n, z)
    return lift_once_symbolic(resolvent_profile(n - 2, z))


@functools.cache
def projection_profile(n, energy):
    """Expression for the spectral projection kernel onto [0, E], 1 <= n <= 120:
    (2 pi)^(-n/2) E^(n/2) Jt_(n/2)(sqrt(E) s)."""
    if n < 1:
        raise ValueError(f"projection kernel needs n >= 1, got {n}")
    if energy <= 0:
        raise ValueError("projection energy must be positive")
    jt = BesselJt(Order(n), Product(Constant(math.sqrt(energy)), S))
    return Product(Constant((energy / (2.0 * math.pi)) ** (n / 2.0)), jt)


@functools.cache
def sech_transform_profile(n):
    """Transform of sech(pi |x|) in odd dimension n (generated above n=3)."""
    if n % 2 == 0 or n < 1:
        raise ValueError("sech transforms are cataloged for odd n")
    if n == 1:
        return _expr.parse("sech(pi*s)")
    if n == 3:
        return _expr.parse("sech(pi*s)*tanh(pi*s)/(2*s)")
    return lift_once_symbolic(sech_transform_profile(n - 2))


def heat_profile(n, t):
    """Expression for the heat kernel (4 pi t)^(-n/2) exp(-s^2 / 4t), t > 0."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if t <= 0:
        raise ValueError("heat needs t > 0")
    amp = (4.0 * math.pi * t) ** (-n / 2.0)
    return Product(Constant(amp),
                   Apply("exp", Negate(Quotient(IntegerPower(S, 2),
                                                Constant(4.0 * t)))))


def resolvent_kernel(n, z, r):
    """Kernel of (-Delta - z)^(-1) at radius r, odd n <= 9, z off [0, inf)."""
    if r <= 0:
        raise ValueError("r must be positive")
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
