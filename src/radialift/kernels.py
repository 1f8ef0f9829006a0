"""Closed-form kernel catalog and the function-level applications.

The catalog carries the kernels of functions of the Laplacian that have
closed forms, indexed by family and dimension:

* resolvent of -Delta at z (off the nonnegative real axis), odd n <= 9:
  n=1: e^(-c r) / (2 c),  n=3: e^(-c r) / (4 pi r),
  n=5: (1 + c r) e^(-c r) / (8 pi^2 r^3),  with c = sqrt(-z), Re c > 0;
  n=7 and 9 are produced by symbolically applying the dimension lift to the
  n=5 (resp. n=7) expression and cached, rather than hand-transcribed.
* spectral projection onto [0, E], odd n <= 7:
  n=1: sin(r sqrt(E)) / (pi r),
  n=3: (sin(r sqrt(E)) - r sqrt(E) cos(r sqrt(E))) / (2 pi^2 r^3),
  n=5, 7 again by symbolic lifting.
* heat kernel (4 pi t)^(-n/2) e^(-r^2 / 4t), any n; the cheapest
  high-quality cross-check for the multiplier path.
* the sech family: sech(pi r) is its own 1-d transform, and odd-dimension
  transforms follow by lifting.

``kernel_of_multiplier`` computes the kernel of f(-Delta) directly: the
transform of t -> f(4 pi^2 t^2) (the transform is self-inverse on radial
functions).  The absolute-integrability probe is advisory here: resolvent
multipliers fail the sufficient condition yet converge conditionally, so a
failed probe downgrades to a warning and the oscillatory engine decides.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .errors import BranchError, SphereRuleError
from .expr import Apply, Constant, IntegerPower, Negate, Product, Quotient, S, Sum
from .lift import lift_once_symbolic
from .quadrature import QuadratureSpec, integrate_finite
from .transform import AnalyticProfile, radial_fourier_result, spherical_mean

__all__ = [
    "KernelSpec", "sqrt_minus_z", "resolvent_kernel", "projection_kernel",
    "kernel_of_multiplier", "heat_kernel", "dalembert", "kirchhoff",
    "even_to_squared", "kernel_profile", "sech_transform_profile",
]

_RESOLVENT_MAX_DIM = 9
_PROJECTION_MAX_DIM = 7


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


def _projection_base(n, energy):
    root = math.sqrt(energy)
    arg = Product(Constant(root), S)
    if n == 1:
        return Quotient(Apply("sin", arg), Product(Constant(math.pi), S))
    if n == 3:
        num = Sum(Apply("sin", arg),
                  Negate(Product(Product(Constant(root), S), Apply("cos", arg))))
        return Quotient(num, Product(Constant(2.0 * math.pi ** 2),
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
    """Expression for the spectral projection kernel in odd dimension n <= 7."""
    if n % 2 == 0 or not 1 <= n <= _PROJECTION_MAX_DIM:
        raise ValueError(f"projection catalog covers odd n <= {_PROJECTION_MAX_DIM}, got {n}")
    if energy <= 0:
        raise ValueError("projection energy must be positive")
    if n <= 3:
        return _projection_base(n, energy)
    return lift_once_symbolic(projection_profile(n - 2, energy))


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


def resolvent_kernel(n, z, r):
    """Kernel of (-Delta - z)^(-1) at radius r, odd n <= 9, z off [0, inf)."""
    if r <= 0:
        raise ValueError("r must be positive")
    sqrt_minus_z(z)  # branch validation
    return resolvent_profile(n, z).evaluate(r)


def projection_kernel(n, energy, r):
    """Kernel of the spectral projection chi_[0,E](-Delta) at radius r."""
    if r <= 0:
        raise ValueError("r must be positive")
    return projection_profile(n, energy).evaluate(r).real


def heat_kernel(n, t, r):
    """(4 pi t)^(-n/2) exp(-r^2 / 4t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return (4.0 * math.pi * t) ** (-n / 2.0) * math.exp(-r * r / (4.0 * t))


# ---------------------------------------------------------------------------
# kernel of a general spectral multiplier

def kernel_of_multiplier(f, n, r, spec=None):
    """Kernel of f(-Delta) at radius r: the transform of t -> f(4 pi^2 t^2).

    ``f`` is an expression in one variable (the spectral parameter).  The
    integrability probe only warns on failure: the sufficient condition
    misses conditionally convergent multipliers (resolvents), which the
    oscillatory engine sums fine.  Non-convergence still raises.
    """
    if isinstance(f, str):
        f = _expr.parse(f)
    inner = Product(Constant(4.0 * math.pi ** 2), IntegerPower(S, 2))
    profile = AnalyticProfile(_expr.simplify(f.substitute(inner)))
    res = radial_fourier_result(profile, n, r, spec, force=True)
    if not res.converged:
        from .errors import ConvergenceError
        raise ConvergenceError(
            f"multiplier transform did not converge at r={r}", res)
    return res.value


# ---------------------------------------------------------------------------
# wave-equation solution operators

def dalembert(phi, t, x, spec=None):
    """d'Alembert's formula: (1/2) integral of phi over [x-t, x+t]."""
    if t == 0.0:
        return 0.0
    a, b = sorted((x - t, x + t))
    res = integrate_finite(phi, a, b, spec)
    return math.copysign(1.0, t) * 0.5 * float(np.real(res.value))


def kirchhoff(phi, t, x, spec=None, glq_order=24, trap_order=48):
    """Kirchhoff's formula u(t, x) = (t / 4 pi) integral_S2 phi(x - t theta).

    phi maps an ndarray point of shape (3,) to a number.  The sphere rule is
    evaluated at the requested orders and at doubled orders; disagreement
    beyond tolerance raises SphereRuleError.
    """
    if t == 0.0:
        return 0.0
    x = np.asarray(x, dtype=float)
    spec = spec or QuadratureSpec()
    shifted = lambda y: phi(x - y)
    coarse = t * spherical_mean(shifted, 3, abs(t), glq_order, trap_order)
    fine = t * spherical_mean(shifted, 3, abs(t), 2 * glq_order, 2 * trap_order)
    if abs(fine - coarse) > 100.0 * max(spec.abs_tol, spec.rel_tol * abs(fine)):
        raise SphereRuleError(
            f"sphere rule orders ({glq_order},{trap_order}) and doubled "
            f"disagree by {abs(fine - coarse):.3g}")
    return fine


# ---------------------------------------------------------------------------
# even-function composition (f(x) = g(x^2))

def even_to_squared(f, k, t, spec=None):
    """k-th derivative of g at t, where f(x) = g(x^2) and f is even.

    k = 0 returns f(sqrt(t)).  For k >= 1,

        g^(k)(T) = k! 2^(1-2k) k C(2k, k) / (2k)! *
                   integral_0^1 (1 - u^2)^(k-1) f^(2k)(u sqrt(T)) du,

    with f^(2k) obtained by repeated symbolic differentiation.
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

    res = integrate_finite(integrand, 0.0, 1.0, spec)
    return coeff * float(np.real(res.value))


# ---------------------------------------------------------------------------
# tagged kernel descriptions (CLI-facing)

_FAMILIES = ("sech", "gaussian", "resolvent", "projection", "heat", "wave")


@dataclass(frozen=True)
class KernelSpec:
    """Tagged description of an analytic kernel family in dimension n."""

    family: str
    n: int
    z: complex | None = None
    energy: float | None = None
    t: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.family == "resolvent":
            if self.z is None:
                raise ValueError("resolvent needs z")
            sqrt_minus_z(self.z)
        if self.family == "projection" and (self.energy is None or self.energy <= 0):
            raise ValueError("projection needs E > 0")
        if self.family == "heat" and (self.t is None or self.t <= 0):
            raise ValueError("heat needs t > 0")
        if self.family == "wave" and self.t is None:
            raise ValueError("wave needs t")


def kernel_profile(spec):
    """Closed-form profile expression for a cataloged KernelSpec."""
    if spec.family == "sech":
        return sech_transform_profile(spec.n)
    if spec.family == "gaussian":
        return _expr.parse("exp(-pi*s^2)")
    if spec.family == "resolvent":
        return resolvent_profile(spec.n, spec.z)
    if spec.family == "projection":
        return projection_profile(spec.n, spec.energy)
    if spec.family == "heat":
        amp = (4.0 * math.pi * spec.t) ** (-spec.n / 2.0)
        return Product(Constant(amp),
                       Apply("exp", Negate(Quotient(IntegerPower(S, 2),
                                                    Constant(4.0 * spec.t)))))
    raise ValueError(f"{spec.family} has no pointwise kernel profile; "
                     "use dalembert (n=1) or kirchhoff (n=3)")
