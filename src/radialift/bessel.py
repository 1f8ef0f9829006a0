"""Bessel functions J_nu and the normalized form Jt_nu(x) = x^(-nu) J_nu(x).

Orders are integer or half-integer with nu >= -1/2, which is exactly what the
radial transform needs (nu = n/2 - 1 for dimension n >= 1).  Evaluation
strategy, chosen for absolute accuracy <= 1e-12 up to x = 1e4:

* x < 1 (half-integer orders) and x <= 14 (integer orders): power series of
  Jt_nu, accumulated in extended precision to beat the cancellation near
  the upper end of the range.
* beyond that, one climb from the kernels of dimensions 1 and 2: every
  order is reached from nu0 = -1/2 (half-integer orders, anchored by the
  closed forms sqrt(2/(pi x)) cos x and sqrt(2/(pi x)) sin x) or nu0 = 0
  (integer orders, anchored by Hankel's expansion of J_0 and J_1) by the
  three-term recurrence, whose step nu -> nu + 1 is the step n -> n + 2 of
  the dimension recursion F_(n+2) = -(1/(2 pi r)) dF_n/dr.  The climb runs
  upward where x >= nu and downward Miller-style below that.

The series/asymptotic switch sits at 14 because the optimally truncated
asymptotic series bottoms out near 5e-13 at x = 12; at 14 both branches
agree to ~2e-14 (covered by an overlap test).

Zero finding is one array pass: Jt_nu is scanned on a grid finer than the
smallest zero gap, and all sign changes are refined together by Illinois
false position, which needs no J_(nu+1) and so works up to the order
ceiling.  All functions are pure; the zero cache only grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BesselDomainError, UnsupportedOrderError, ZeroFindingError

__all__ = ["Order", "bessel_j", "bessel_j_tilde", "bessel_zeros", "jtilde_at_zero"]

_SERIES_ASYMPTOTIC_SWITCH = 14.0
_MAX_TWICE_NU = 120


@dataclass(frozen=True)
class Order:
    """Bessel order nu = twice_nu / 2; covers integers and half-integers."""

    twice_nu: int

    def __post_init__(self):
        if self.twice_nu < -1:
            raise UnsupportedOrderError(
                f"order {self.twice_nu/2} below -1/2 is not supported")
        if self.twice_nu > _MAX_TWICE_NU:
            raise UnsupportedOrderError(
                f"order {self.twice_nu/2} beyond {_MAX_TWICE_NU/2} is not supported")

    @property
    def nu(self):
        return self.twice_nu / 2.0

    @property
    def is_half_integer(self):
        return self.twice_nu % 2 != 0

    @classmethod
    def for_dimension(cls, n):
        """nu = n/2 - 1 for the n-dimensional radial transform."""
        if n < 1:
            raise BesselDomainError(f"dimension must be >= 1, got {n}")
        return cls(n - 2)

    def __str__(self):
        return f"{self.twice_nu}/2" if self.is_half_integer else str(self.twice_nu // 2)


def jtilde_at_zero(nu):
    """Limit value Jt_nu(0) = 1 / (2^nu Gamma(nu+1))."""
    v = nu.nu if isinstance(nu, Order) else float(nu)
    return 1.0 / (2.0 ** v * math.gamma(v + 1.0))


# ---------------------------------------------------------------------------
# power series of Jt_nu (extended precision accumulation)

def _jtilde_series(nu, x):
    """Jt_nu on an ndarray via the alternating power series.

    Jt_nu(x) = sum_m (-1)^m x^(2m) / (2^(2m+nu) m! Gamma(m+nu+1)).
    """
    xl = np.asarray(x, dtype=np.longdouble)
    x2 = xl * xl
    # the stop test scales with Jt_nu(0) = max |Jt_nu|, far below 1 at high orders
    peak = np.longdouble(jtilde_at_zero(nu))
    term = np.full_like(xl, peak)
    total = term.copy()
    for m in range(1, 120):
        term = term * (-x2 / np.longdouble(4.0 * m * (m + nu)))
        total += term
        if np.all(np.abs(term) <= 1e-22 * (peak + np.abs(total))):
            break
    return np.asarray(total, dtype=float)


# ---------------------------------------------------------------------------
# the anchors: Hankel's expansion for orders 0 and 1, closed forms for -1/2, 1/2

def _j_asymptotic(nu_int, x):
    """J_nu for nu in {0, 1} on an ndarray, x > ~10."""
    mu = 4.0 * nu_int * nu_int
    inv_x = 1.0 / np.asarray(x, dtype=float)
    p = np.ones_like(inv_x)
    q = np.zeros_like(inv_x)
    # a_k / x^k built incrementally; stop at the smallest term
    term = np.ones_like(inv_x)
    prev_size = np.inf
    for k in range(1, 40):
        term = term * ((mu - (2 * k - 1) ** 2) / (8.0 * k)) * inv_x
        size = float(np.max(np.abs(term)))
        if size >= prev_size or size < 1e-20:
            break
        prev_size = size
        if k % 2 == 1:
            q += term if k % 4 == 1 else -term
        else:
            p += term if k % 4 == 0 else -term
    chi = x - nu_int * (math.pi / 2.0) - math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _halfint_closed(k, x):
    """J_(k - 1/2) for k in {0, 1} on an ndarray: sqrt(2/(pi x)) cos x or sin x."""
    amp = np.sqrt(2.0 / (math.pi * x))
    return amp * np.cos(x) if k == 0 else amp * np.sin(x)


# ---------------------------------------------------------------------------
# the climb from the orders -1/2 and 0

def _j_large(order, x):
    """J_nu on an ndarray x in the large-argument regime.

    nu = nu0 + steps climbs from nu0 = -1/2 (half-integer orders, closed
    forms) or nu0 = 0 (integer orders, Hankel's expansion) by the three-term
    recurrence J_(m-1) + J_(m+1) = (2 m / x) J_m.  Upward where x >= nu;
    below that the upward climb loses digits, so the Miller recurrence runs
    down from a trial start well above nu and is rescaled by the larger of
    the two true anchors, which keeps the normalization away from their zeros.
    """
    nu0, anchor = ((-0.5, _halfint_closed) if order.is_half_integer
                   else (0.0, _j_asymptotic))
    steps = (order.twice_nu + 1) // 2
    if steps <= 1:
        return anchor(steps, x)
    out = np.empty_like(x)
    up = x >= order.nu
    if np.any(up):
        xs = x[up]
        j_lo, j_hi = anchor(0, xs), anchor(1, xs)
        for k in range(1, steps):
            j_lo, j_hi = j_hi, (2.0 * (nu0 + k) / xs) * j_hi - j_lo
        out[up] = j_hi
    if np.any(~up):
        xs = x[~up]
        j_hi = np.zeros_like(xs)
        j_lo = np.full_like(xs, 1e-30)
        for k in range(steps + max(18, steps // 2 + 10), 0, -1):
            if k == steps:
                top = j_lo
            # from the trial J_(nu0+k) (j_lo) and J_(nu0+k+1) down to J_(nu0+k-1)
            j_lo, j_hi = (2.0 * (nu0 + k) / xs) * j_lo - j_hi, j_lo
        true0, true1 = anchor(0, xs), anchor(1, xs)
        use0 = np.abs(true0) >= np.abs(true1)
        denom = np.where(use0, j_lo, j_hi)
        truth = np.where(use0, true0, true1)
        out[~up] = top * np.where(
            denom != 0, truth / np.where(denom != 0, denom, 1.0), 0.0)
    return out


# ---------------------------------------------------------------------------
# public evaluation

def _as_order(nu):
    if isinstance(nu, Order):
        return nu
    twice = 2.0 * float(nu)
    if not twice.is_integer():
        raise UnsupportedOrderError(f"order must be integer or half-integer, got {nu}")
    return Order(int(twice))


def _jtilde_array(order, x):
    """Jt_nu on an ndarray with x >= 0, dispatching per regime."""
    nu = order.nu
    out = np.empty_like(x)
    if order.is_half_integer:
        small = x < 1.0
    else:
        small = x <= _SERIES_ASYMPTOTIC_SWITCH
    if np.any(small):
        out[small] = _jtilde_series(nu, x[small])
    if np.any(~small):
        xs = x[~small]
        out[~small] = _j_large(order, xs) * xs ** (-nu)
    return out


def bessel_j_tilde(nu, x):
    """Jt_nu(x) = x^(-nu) J_nu(x), continuous at 0; scalar or ndarray x >= 0."""
    order = _as_order(nu)
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr < 0):
        raise BesselDomainError("bessel_j_tilde requires x >= 0")
    out = _jtilde_array(order, arr)
    return float(out[0]) if scalar else out


def bessel_j(nu, x):
    """Classical J_nu(x); scalar or ndarray, x > 0."""
    order = _as_order(nu)
    scalar = np.isscalar(x)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr <= 0):
        raise BesselDomainError("bessel_j requires x > 0")
    out = _jtilde_array(order, arr) * arr ** order.nu
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# zeros

# entries are replaced by longer lists, never mutated: concurrent callers
# at worst find the same zeros twice
_zero_cache = {}

# Spacing of the scan grid.  It is below j_(nu,1) >= pi/2 and below the
# smallest gap between consecutive zeros (about 3.1, at nu = 0), so each grid
# interval holds at most one zero and every zero shows as one sign change.
_SCAN_STEP = 1.0
_REFINE_ITERATIONS = 100
_ROOT_RTOL = 4e-16  # bracket width, relative, at which a root is done


def _sign_change_brackets(order, start, count):
    """Grid intervals from ``start`` on where Jt_nu changes sign, in order.

    The grid runs past (count + nu/2 + 1/4) pi, which bounds j_(nu,count)
    from above for every supported order.
    """
    stop = (count + 0.5 * order.nu + 0.25) * math.pi + _SCAN_STEP
    xs = start + _SCAN_STEP * np.arange(math.ceil((stop - start) / _SCAN_STEP) + 1)
    fs = bessel_j_tilde(order, xs)
    i = np.flatnonzero(np.signbit(fs[:-1]) != np.signbit(fs[1:]))
    return xs[i], xs[i + 1], fs[i], fs[i + 1]


def _refine_roots(order, a, b, fa, fb):
    """Roots of Jt_nu in the brackets between a and b, all refined together.

    Illinois false position: b is the newest point, and an end kept for a
    second step has its value halved so that the iteration cannot stall
    against it.  Each step lands at least half the stopping width inside
    the bracket, so a step onto the root closes the bracket on the next.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    for _ in range(_REFINE_ITERATIONS):
        live = np.flatnonzero(np.abs(b - a) > _ROOT_RTOL * np.maximum(a, b))
        if live.size == 0:
            break
        a0, b0, fa0, fb0 = a[live], b[live], fa[live], fb[live]
        margin = 0.5 * _ROOT_RTOL * np.maximum(a0, b0)
        c = np.clip(b0 - fb0 * (b0 - a0) / (fb0 - fa0),
                    np.minimum(a0, b0) + margin, np.maximum(a0, b0) - margin)
        fc = bessel_j_tilde(order, c)
        flip = np.signbit(fc) != np.signbit(fb0)
        a[live] = np.where(flip, b0, a0)
        fa[live] = np.where(flip, fb0, 0.5 * fa0)
        b[live], fb[live] = c, fc
    return 0.5 * (a + b)


def bessel_zeros(nu, count):
    """First ``count`` positive zeros of J_nu, strictly increasing."""
    order = _as_order(nu)
    if count < 1:
        raise ValueError("count must be >= 1")
    known = _zero_cache.get(order.twice_nu, [])
    if len(known) >= count:
        return list(known[:count])
    missing = count - len(known)
    prev = known[-1] if known else 0.0
    # the next zero lies more than one grid step beyond the last known one
    start = prev + _SCAN_STEP if known else 0.0
    brackets = [v[:missing] for v in _sign_change_brackets(order, start, count)]
    if brackets[0].size < missing:
        raise ZeroFindingError(len(known) + brackets[0].size + 1,
                               "could not bracket a sign change")
    roots = _refine_roots(order, *brackets)
    steps = np.diff(np.concatenate(([prev], roots)))
    if np.any(steps <= 0):
        raise ZeroFindingError(len(known) + int(np.argmax(steps <= 0)) + 1,
                               "zeros not increasing")
    residual = np.abs(bessel_j(order, roots))
    if np.any(residual > 1e-12):
        bad = int(np.argmax(residual > 1e-12))
        raise ZeroFindingError(len(known) + bad + 1,
                               f"residual {residual[bad]:.2e} above 1e-12")
    zeros = known + roots.tolist()
    _zero_cache[order.twice_nu] = zeros
    return list(zeros)
