"""Radial Fourier transforms, Hankel transforms, and spherical means.

The transform of a radial profile f in dimension n at radius r is

    (2 pi)^(n/2) * integral_0^inf f(t) Jt_{n/2-1}(2 pi t r) t^(n-1) dt,

evaluated by the oscillatory half-line engine, which steps every radius of
a grid in lockstep.  Dimensions 1 and 2 run through the same machinery
(orders -1/2 and 0) rather than being special cased, and so does r = 0:
there the kernel is the constant Jt(0), and the engine's omega = 0 line
gives the moment (2 pi)^(n/2) Jt(0) * integral of f t^(n-1).

Profiles are either closed-form expressions, sampled grids (cubic spline
inside the grid, zero beyond it, with a one-time warning), or wrapped
callables for numerically defined functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as _expr
from .bessel import Order, _as_order, bessel_j
from .errors import ConvergenceError, IntegrabilityError
from .quadrature import (QuadratureSpec, integrate_finite,
                         integrate_bessel_halfline, split_halfline_at_zeros)

__all__ = [
    "RadialProfile", "AnalyticProfile", "SampledProfile", "CallableProfile",
    "profile_from_text", "sphere_surface", "radial_fourier",
    "radial_fourier_result", "radial_fourier_grid", "hankel", "hankel_result",
    "hankel_fourier_relation", "integrability_check", "IntegrabilityReport",
    "spherical_mean", "TransformResult",
]


def _check_dimension(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def sphere_surface(n):
    """Surface area of the unit sphere in n-space: 2 pi^(n/2) / Gamma(n/2)."""
    n = _check_dimension(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# profiles

class RadialProfile:
    """A radial function of t >= 0; subclasses fix how values are produced."""

    is_complex = False

    def values(self, t):
        """Complex ndarray of profile values on ndarray t."""
        raise NotImplementedError

    def value(self, t):
        out = complex(self.values(np.asarray([float(t)]))[0])
        return out if self.is_complex else out.real

    def __call__(self, t):
        return self.value(t)

    @property
    def expression(self):
        return None


class AnalyticProfile(RadialProfile):
    """Profile given by a closed-form expression in the variable s."""

    def __init__(self, expression):
        if isinstance(expression, str):
            expression = _expr.parse(expression)
        self._expr = expression
        self.is_complex = expression.has_complex_constant()

    @property
    def expression(self):
        return self._expr

    def values(self, t):
        return self._expr.eval_array(t)

    def __repr__(self):
        return f"AnalyticProfile({str(self._expr)!r})"


class SampledProfile(RadialProfile):
    """Profile known on a strictly increasing positive grid.

    Values inside the grid come from a natural cubic spline; beyond the last
    grid point the profile is extended by zero (warned once, since transforms
    integrate over the whole half line).  Below the first grid point the
    spline extrapolates.
    """

    def __init__(self, grid, samples):
        grid = np.asarray(grid, dtype=float)
        samples = np.asarray(samples, dtype=float)
        if grid.ndim != 1 or grid.size < 8:
            raise ValueError("sampled profiles need at least 8 grid points")
        if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing and positive")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(samples))):
            raise ValueError("grid and samples must be finite")
        if samples.shape != grid.shape:
            raise ValueError("samples must match the grid")
        self.grid = grid
        self.samples = samples
        from scipy.interpolate import CubicSpline  # slow import, loaded on use
        # not-a-knot keeps the short extrapolation down to t=0 at spline
        # accuracy; a natural boundary would force f''=0 there
        self._spline = CubicSpline(grid, samples, bc_type="not-a-knot")
        self._warned = False

    def values(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        inside = t <= self.grid[-1]
        if np.any(~inside) and not self._warned:
            warnings.warn("sampled profile extended by zero beyond "
                          f"t={self.grid[-1]:.6g}", RuntimeWarning, stacklevel=2)
            self._warned = True
        if np.any(inside):
            out[inside] = self._spline(t[inside])
        return out


class CallableProfile(RadialProfile):
    """Wrap a numerically defined radial function (e.g. a computed transform)."""

    def __init__(self, fn, is_complex=False):
        self._fn = fn
        self.is_complex = is_complex

    def values(self, t):
        t = np.asarray(t, dtype=float)
        try:
            out = np.asarray(self._fn(t), dtype=complex)
            if out.shape != t.shape:
                raise ValueError
        except (TypeError, ValueError):
            out = np.asarray([self._fn(float(v)) for v in t], dtype=complex)
        return out


def profile_from_text(text):
    return AnalyticProfile(_expr.parse(text))


def _as_profile(f):
    if isinstance(f, RadialProfile):
        return f
    if isinstance(f, _expr.Expression):
        return AnalyticProfile(f)
    if isinstance(f, str):
        return profile_from_text(f)
    if callable(f):
        return CallableProfile(f)
    raise TypeError(f"cannot interpret {f!r} as a radial profile")


# ---------------------------------------------------------------------------
# integrability gate (sufficient condition, probed numerically)

@dataclass
class IntegrabilityReport:
    """Outcome of probing the two absolute-integrability pieces.

    The near piece is integral_0^1 |f| t^(n+1) dt; the tail piece is
    integral_1^inf |f| t^((n+1)/2) dt, probed up to the cutoff 1e4 with
    a geometric-window trend test.
    """

    passed: bool
    near_value: float
    tail_value: float
    tail_ratio: float
    failed_piece: str | None = None

    def __bool__(self):
        return self.passed

    def __str__(self):
        if self.passed:
            return (f"integrability probe passed (near={self.near_value:.4g}, "
                    f"tail={self.tail_value:.4g})")
        return (f"integrability probe failed: {self.failed_piece} piece divergent "
                f"(near={self.near_value:.4g}, tail={self.tail_value:.4g}, "
                f"window ratio {self.tail_ratio:.3g})")


_GATE_CUTOFF = 1e4


def integrability_check(f, n):
    """Probe the sufficient integrability condition for the transform in
    dimension n, split into a near and a tail piece at t = 1.

    Heuristic by design: finite cutoff plus window-trend extrapolation.  The
    condition is sufficient, not necessary; conditionally convergent
    integrands can fail it and still be computable (see ``force`` on
    radial_fourier).
    """
    profile = _as_profile(f)
    n = _check_dimension(n)
    probe_spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-13, max_panels=400)

    def absf(t):
        return np.abs(profile.values(t))

    near = integrate_finite(lambda t: absf(t) * t ** (n + 1), 0.0, 1.0,
                            probe_spec)
    if not near.converged:
        return IntegrabilityReport(False, abs(near.value), 0.0, math.inf, "near")

    power = (n + 1) / 2.0
    a = 1.0
    total = 0.0
    prev = None
    ratio = 0.0
    # full doubling windows only; a truncated last window would bias the trend
    while 2.0 * a <= _GATE_CUTOFF:
        b = 2.0 * a
        w = integrate_finite(lambda t: absf(t) * t ** power, a, b, probe_spec)
        contrib = abs(w.value)
        total += contrib
        if prev is not None and prev > 0:
            ratio = contrib / prev
        prev = contrib
        if contrib < 1e-13 * (1.0 + total):
            return IntegrabilityReport(True, abs(near.value), total, ratio)
        a = b
    if ratio >= 0.95:
        return IntegrabilityReport(False, abs(near.value), total, ratio, "tail")
    # extrapolate the remaining geometric tail
    tail_extra = prev * ratio / (1.0 - ratio) if 0 < ratio < 1 else 0.0
    return IntegrabilityReport(True, abs(near.value), total + tail_extra, ratio)


def _gate(profile, n, force):
    """Integrability report for dimension n, probed once per profile; the
    probe takes no radius, so the verdict holds at every radius."""
    cache = getattr(profile, "_gate_cache", None)
    if cache is None:
        cache = {}
        try:
            profile._gate_cache = cache
        except AttributeError:
            pass
    report = cache.get(n)
    if report is None:
        report = integrability_check(profile, n)
        cache[n] = report
    if not report.passed:
        if not force:
            raise IntegrabilityError(report)
        warnings.warn(f"forcing transform despite gate failure: {report}",
                      RuntimeWarning, stacklevel=3)
    return report


# ---------------------------------------------------------------------------
# the transforms

@dataclass
class TransformResult:
    value: complex
    error_estimate: float
    evaluations: int
    converged: bool
    method: str = "direct"


def _finalize(profile, quad, method):
    value = complex(quad.value)
    if not profile.is_complex:
        value = value.real
    return TransformResult(value, quad.error_estimate, quad.evaluations,
                           quad.converged, method)


def radial_fourier_grid(f, n, radii, spec=None, force=False):
    """Full-diagnostics radial Fourier transform in dimension n at every radius.

    The gate runs once, and every radius, 0 included, goes through one
    lockstep half-line pass; at r = 0 that pass gives the moment.  Returns
    one TransformResult per radius, in order.
    """
    profile = _as_profile(f)
    n = _check_dimension(n)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1:
        raise TypeError("radii must be a one-dimensional sequence")
    if not (radii >= 0).all():
        raise ValueError("r must be nonnegative")
    order = Order.for_dimension(n)
    prefactor = (2.0 * math.pi) ** (n / 2.0)

    _gate(profile, n, force)

    def g(t):
        # 0 where the profile is: t^(n-1) may overflow there, and inf * 0 is NaN
        v = profile.values(t)
        return np.where(v == 0, 0.0, v * t ** (n - 1))

    with np.errstate(all="ignore"):
        quads = integrate_bessel_halfline(g, order, 2.0 * math.pi * radii, spec)
    for quad in quads:
        quad.value = prefactor * complex(quad.value)
        quad.error_estimate *= prefactor
    return [_finalize(profile, quad, "direct") for quad in quads]


def radial_fourier_result(f, n, r, spec=None, force=False):
    """Full-diagnostics radial Fourier transform in dimension n at radius r."""
    if np.ndim(r) != 0:
        raise TypeError("r must be a scalar; use radial_fourier_grid for grids")
    return radial_fourier_grid(f, n, [float(r)], spec, force)[0]


def radial_fourier(f, n, r, spec=None, force=False):
    """Radial Fourier transform value; raises ConvergenceError if not converged."""
    res = radial_fourier_result(f, n, r, spec, force)
    if not res.converged:
        raise ConvergenceError(
            f"transform quadrature did not converge at r={r} "
            f"(estimate {res.error_estimate:.3g})", res)
    return res.value


def hankel_result(f, nu, r, spec=None):
    """Classical Hankel transform integral_0^inf f(t) J_nu(r t) t dt.

    The kernel is J_nu(r t) = Jt_nu(r t) (r t)^nu from the same Bessel code
    as radial_fourier, so agreement between the two checks the quadrature
    and the normalization, not the Bessel evaluation.
    """
    profile = _as_profile(f)
    order = _as_order(nu)
    if np.ndim(r) != 0:
        raise TypeError("r must be a scalar; map over grids explicitly")
    r = float(r)
    if r <= 0:
        raise ValueError("r must be positive")

    def integrand(t, omega):
        return (profile.values(t.ravel()) * bessel_j(order, (omega * t).ravel())
                * t.ravel()).reshape(t.shape)

    quad = split_halfline_at_zeros(integrand, order, r, spec)
    return _finalize(profile, quad, "direct")


def hankel(f, nu, r, spec=None):
    res = hankel_result(f, nu, r, spec)
    if not res.converged:
        raise ConvergenceError(
            f"Hankel quadrature did not converge at r={r}", res)
    return res.value


def hankel_fourier_relation(f, n, r, spec=None):
    """Both sides of the transform/Hankel identity.

    Returns (lhs, rhs) with lhs the direct radial transform and rhs
    (2 pi / r^nu) H_nu(f(t) t^nu)(2 pi r), nu = n/2 - 1.  Both sides use
    the same Bessel kernel, so agreement checks the quadrature and the
    normalization, not the Bessel evaluation.
    """
    profile = _as_profile(f)
    n = _check_dimension(n)
    nu = n / 2.0 - 1.0
    lhs = radial_fourier(profile, n, r, spec)

    def weighted(t):
        t = np.asarray(t, dtype=float)
        return profile.values(t) * t ** nu

    rhs = (2.0 * math.pi / r ** nu) * hankel(CallableProfile(
        weighted, is_complex=profile.is_complex), Order(n - 2),
        2.0 * math.pi * r, spec)
    return lhs, rhs


# ---------------------------------------------------------------------------
# spherical means

def _mean_circle(F, r, points):
    theta = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    vals = [F(np.array([r * math.cos(t), r * math.sin(t)])) for t in theta]
    return float(np.mean(vals))


def _mean_sphere3(F, r, glq_order, trap_order):
    u, w = np.polynomial.legendre.leggauss(glq_order)
    phi = np.linspace(0.0, 2.0 * math.pi, trap_order, endpoint=False)
    sin_theta = np.sqrt(1.0 - u ** 2)
    total = 0.0
    for ui, si, wi in zip(u, sin_theta, w):
        ring = [F(np.array([r * si * math.cos(p), r * si * math.sin(p), r * ui]))
                for p in phi]
        total += wi * float(np.mean(ring))
    return 0.5 * total


def spherical_mean(F, n, r, glq_order=24, trap_order=48):
    """Average of F over the sphere of radius r in n-space, n in {1, 2, 3}.

    F receives one point as an ndarray of shape (n,).  n=1 is the even part,
    n=2 a periodic trapezoid over the circle, n=3 Gauss-Legendre in the
    colatitude times trapezoid in longitude (exact for polynomial degree
    well past 12 at the default orders).
    """
    n = _check_dimension(n)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if n == 1:
        return 0.5 * (float(F(np.array([r]))) + float(F(np.array([-r]))))
    if n == 2:
        return _mean_circle(F, r, max(8, trap_order))
    if n == 3:
        return _mean_sphere3(F, r, glq_order, trap_order)
    raise ValueError(f"spherical_mean supports n <= 3, got {n}")
