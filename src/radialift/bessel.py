"""Bessel functions J_nu and the normalized form Jt_nu(x) = x^(-nu) J_nu(x).

Orders are integer or half-integer with nu >= -1/2, which is exactly what the
radial transform needs (nu = n/2 - 1 for dimension n >= 1).  Evaluation
strategy, chosen for absolute accuracy <= 1e-12 up to x = 1e4:

* nu = -1/2 and nu = 1/2 (dimensions 1 and 3): the closed forms
  Jt_(-1/2)(x) = sqrt(2/pi) cos x and Jt_(1/2)(x) = sqrt(2/pi) sin x / x on
  the whole half line.  The paper's step n -> n + 2 on the kernel,
  Jt_(nu+1)(x) = -(1/x) d/dx Jt_nu(x), takes the first to the second.
* the other half-integer orders (odd dimensions n >= 5) in two regimes,
  split at x_s = max(1, min(nu, 2 sqrt(nu + 1))): below it the power series
  of Jt_nu, in one pass (no term exceeds the first, and the terms' absolute
  sum is at most 7.6 times the sum's); above it the climb from cos x and
  sin x by the paper's step, which keeps its digits from x_s on up to
  2 nu = 15 (within 3.4e-15 relative).  From 2 nu = 17 on, the upward climb
  loses digits below nu (1.1e-14 at 17, 5.4e-13 at 23, 1e-2 at 49), so
  those orders keep a third regime: the Miller band on [x_s, nu).
* integer orders: the power series up to x = 14, adding a term at a time
  until the last is negligible.  Both series accumulate in extended
  precision, to beat the cancellation near the upper end of their ranges.
* beyond the series, one climb from the kernels of dimensions 1 and 2:
  every order is reached from nu0 = -1/2 (half-integer orders, anchored by
  cos x and sin x, which are sqrt(pi x / 2) J_(-1/2) and sqrt(pi x / 2)
  J_(1/2)) or nu0 = 0 (integer orders, anchored by Hankel's expansion of
  J_0 and J_1) by the three-term recurrence, whose step nu -> nu + 1 is the
  step n -> n + 2 of the dimension recursion
  F_(n+2) = -(1/(2 pi r)) dF_n/dr.  The climb runs upward where x >= nu and
  downward Miller-style below that.  It gives rho J_nu, with
  rho = sqrt(pi x / 2) for half-integer orders and 1 for integer ones, so
  ``bessel_j`` takes J_nu from it (the amplitude is sqrt(2/pi)/sqrt(x), and
  Hankel's sqrt(2/(pi x)) is formed without pi x) and never forms
  Jt_nu x^nu, which underflows times overflows at large x: J_nu is finite
  up to the largest float.  Hankel's phase x - nu pi/2 - pi/4 is rounded at
  the scale of x, so integer orders lose it at very large x: J_1(1e20)
  reads 6.1e-11 where it is -7.95e-11.  The half-integer anchors keep
  theirs, since cos x and sin x reduce x exactly.

A call costs at most one regime mask (series or climb), and a climb one more
(up or down) where it has a Miller band; the closed forms need none.  An
array that lies on one side of a mask goes to that side whole; only one that
straddles it, as the kernel arguments of a transform point's first rounds
do, is split into copies and scattered back.

The series/asymptotic switch sits at 14 because the optimally truncated
asymptotic series bottoms out near 5e-13 at x = 12; at 14 both branches
agree to ~2e-14 (covered by an overlap test).

Zero finding is one array pass: Jt_nu is scanned on a grid finer than the
smallest zero gap, and all sign changes are refined together by Illinois
false position, which needs no J_(nu+1) and so works up to the order
ceiling.  All functions are pure; the zero cache only grows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BesselDomainError, UnsupportedOrderError, ZeroFindingError

__all__ = ["Order", "bessel_j", "bessel_j_tilde", "bessel_zeros", "jtilde_at_zero"]

_SERIES_ASYMPTOTIC_SWITCH = 14.0
# from this half-integer order on, the Miller band keeps the digits that the
# upward climb from x_s loses below nu
_MILLER_TWICE_NU = 17
_MAX_TWICE_NU = 120
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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
        if (np.abs(term) <= 1e-22 * (peak + np.abs(total))).all():
            break
    return np.asarray(total, dtype=float)


@functools.cache
def _series_seam(nu):
    """x_s = max(1, min(nu, 2 sqrt(nu + 1))): the half-integer series runs
    below it and the climb from it.  Up to 2 sqrt(nu + 1) no term of the
    series exceeds the first, and the terms' absolute sum is at most 7.6
    times the sum's (at 2 nu = 11; mpmath, every order)."""
    return max(1.0, min(nu, 2.0 * math.sqrt(nu + 1.0)))


@functools.cache
def _series_denominators(nu):
    """4 m (m + nu) for m = 1, 2, ... until the term at x_s is below 1e-22
    of the first; read-only, extended precision."""
    x2, size, denominators = _series_seam(nu) ** 2, 1.0, []
    while size > 1e-22:
        m = len(denominators) + 1
        denominators.append(4.0 * m * (m + nu))
        size *= x2 / denominators[-1]
    out = np.array(denominators, dtype=np.longdouble)
    out.flags.writeable = False
    return out


def _halfint_series(nu, x):
    """Jt_nu for a half-integer nu >= 3/2 on an ndarray with 0 <= x < x_s.

    The series of ``_jtilde_series`` in one pass.  Terms shrink with x, so
    the count that x_s needs serves every argument below it, and a value
    depends on its own argument alone.  Every term is one cumulative product
    over an (arguments x terms) extended precision array, and the sum is
    rounded once.
    """
    xl = x.astype(np.longdouble)
    terms = np.cumprod(np.divide.outer(-(xl * xl), _series_denominators(nu)),
                       axis=1)
    return (jtilde_at_zero(nu) * (1.0 + terms.sum(axis=1))).astype(float)


# ---------------------------------------------------------------------------
# the anchors: Hankel's expansion for orders 0 and 1, closed forms for -1/2, 1/2

def _j_asymptotic(nu_int, x):
    """J_nu for nu in {0, 1} on an ndarray, x > ~10."""
    mu = 4.0 * nu_int * nu_int
    inv_x = 1.0 / np.asarray(x, dtype=float)
    p = np.ones_like(inv_x)
    q = np.zeros_like(inv_x)
    # a_k / x^k built incrementally; stop at the smallest term.  It is
    # largest where 1/x is, and correctly rounded products are monotone, so
    # that element's term, in Python floats, picks the last term for the
    # whole array (NaN runs all 39, as a NaN maximum would)
    term = np.ones_like(inv_x)
    term_max, prev_size = 1.0, math.inf
    inv_max = float(inv_x.max())
    for k in range(1, 40):
        c = (mu - (2 * k - 1) ** 2) / (8.0 * k)
        term_max = term_max * c * inv_max
        size = abs(term_max)
        if size >= prev_size or size < 1e-20:
            break
        prev_size = size
        term = term * c * inv_x
        if k % 2 == 1:
            q += term if k % 4 == 1 else -term
        else:
            p += term if k % 4 == 0 else -term
    chi = x - nu_int * (math.pi / 2.0) - math.pi / 4.0
    # sqrt(2/(pi x)) to the bit, with no overflow of pi x up to the largest x
    amp = np.sqrt(0.5 / ((math.pi / 4.0) * x))
    return amp * (p * np.cos(chi) - q * np.sin(chi))


def _halfint_pair(x):
    """sqrt(pi x / 2) J_nu for nu = -1/2 and 1/2 on an ndarray: cos x, sin x."""
    return np.cos(x), np.sin(x)


def _hankel_pair(x):
    """J_0 and J_1 on an ndarray by Hankel's expansion."""
    return _j_asymptotic(0, x), _j_asymptotic(1, x)


# ---------------------------------------------------------------------------
# the climb from the orders -1/2 and 0

def _split(mask, x, inside, outside):
    """inside(x) where mask holds and outside(x) elsewhere.  An array on one
    side goes whole to that side's function; only a mixed one is copied
    apart and scattered back."""
    count = np.count_nonzero(mask)
    if count == mask.size:
        return inside(x)
    if count == 0:
        return outside(x)
    out = np.empty_like(x)
    out[mask] = inside(x[mask])
    rest = ~mask
    out[rest] = outside(x[rest])
    return out


def _climb(order, x):
    """rho(x) J_nu on a nonempty ndarray x in the climb regime, nu != +-1/2,
    with rho = sqrt(pi x / 2) for half-integer orders and 1 for integer ones.

    nu = nu0 + steps climbs from nu0 = -1/2 (half-integer orders, where
    rho J_(-1/2) = cos x and rho J_(1/2) = sin x) or nu0 = 0 (integer orders,
    Hankel's expansion) by the three-term recurrence
    J_(m-1) + J_(m+1) = (2 m / x) J_m, which a factor rho(x) leaves as it is.
    Upward where x >= nu.  Below nu the upward climb loses digits as nu
    grows, so for integer orders and half-integer orders from
    ``_MILLER_TWICE_NU`` on the Miller recurrence runs down there, from a
    trial start well above nu, and is rescaled by the larger of the two true
    anchors, which keeps the normalization away from their zeros.  Lower
    half-integer orders climb upward from x_s on their whole range.  The
    x >= nu mask is the call's one mask: an array on one side of it climbs
    whole, and only one that straddles it is split.
    """
    steps = (order.twice_nu + 1) // 2
    if order.is_half_integer:
        nu0, pair = -0.5, _halfint_pair
    else:
        if steps <= 1:
            return _j_asymptotic(steps, x)
        nu0, pair = 0.0, _hankel_pair

    def up(xs):
        j_lo, j_hi = pair(xs)
        for k in range(1, steps):
            j_lo, j_hi = j_hi, (2.0 * (nu0 + k) / xs) * j_hi - j_lo
        return j_hi

    def down(xs):
        j_hi = np.zeros_like(xs)
        j_lo = np.full_like(xs, 1e-30)
        for k in range(steps + max(18, steps // 2 + 10), 0, -1):
            if k == steps:
                top = j_lo
            # from the trial J_(nu0+k) (j_lo) and J_(nu0+k+1) down to J_(nu0+k-1)
            j_lo, j_hi = (2.0 * (nu0 + k) / xs) * j_lo - j_hi, j_lo
        true0, true1 = pair(xs)
        use0 = np.abs(true0) >= np.abs(true1)
        denom = np.where(use0, j_lo, j_hi)
        truth = np.where(use0, true0, true1)
        return top * np.where(
            denom != 0, truth / np.where(denom != 0, denom, 1.0), 0.0)

    if order.is_half_integer and order.twice_nu < _MILLER_TWICE_NU:
        return up(x)
    return _split(x >= order.nu, x, up, down)


# ---------------------------------------------------------------------------
# public evaluation

def _as_order(nu):
    if isinstance(nu, Order):
        return nu
    twice = 2.0 * float(nu)
    if not twice.is_integer():
        raise UnsupportedOrderError(f"order must be integer or half-integer, got {nu}")
    return Order(int(twice))


def _bessel_array(order, x, tilde):
    """Jt_nu (tilde) or J_nu on a 1-d ndarray with x >= 0 (NaN passes through).

    nu = -1/2 and 1/2 are closed forms on the whole array.  For every other
    order one mask picks the regime: the series below x_s (half-integer) or
    up to 14 (integer), the climb beyond.  An array that lies in one regime,
    as every segment after the first rounds of a transform point does, goes
    to it whole; only one that straddles the seam is split.  An empty array
    takes the series, which returns it empty.  The series gives Jt_nu and
    the climb rho J_nu; each is scaled to the other form only on its own
    side, where no factor overflows or underflows before the product does.
    """
    nu = order.nu
    if order.twice_nu in (-1, 1):
        if order.twice_nu == -1:
            jt = _SQRT_2_OVER_PI * np.cos(x)
        else:
            jt = _SQRT_2_OVER_PI * np.divide(np.sin(x), x, out=np.ones(x.shape),
                                             where=x != 0)
        return jt if tilde else jt * x ** nu
    if order.is_half_integer:
        small, series = x < _series_seam(nu), _halfint_series
    else:
        small, series = x <= _SERIES_ASYMPTOTIC_SWITCH, _jtilde_series

    def below(xs):
        jt = series(nu, xs)
        return jt if tilde else jt * xs ** nu

    def beyond(xs):
        rho_j = _climb(order, xs)
        if not order.is_half_integer:  # rho = 1
            return rho_j * xs ** (-nu) if tilde else rho_j
        return rho_j * (_SQRT_2_OVER_PI * xs ** -(nu + 0.5) if tilde
                        else _SQRT_2_OVER_PI / np.sqrt(xs))

    return _split(small, x, below, beyond)


def bessel_j_tilde(nu, x):
    """Jt_nu(x) = x^(-nu) J_nu(x), continuous at 0; x >= 0 or NaN.

    A scalar gives a float and an array an array of its shape.  A 1-d float
    array, as every kernel call of a transform passes, goes to the kernel
    as it is, after the one sign check.
    """
    order = _as_order(nu)
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64:
        if np.count_nonzero(x < 0):
            raise BesselDomainError("bessel_j_tilde requires x >= 0")
        return _bessel_array(order, x, True)
    arr = np.asarray(x, dtype=float)
    out = bessel_j_tilde(order, arr.ravel()).reshape(arr.shape)
    return float(out) if np.isscalar(x) else out


def bessel_j(nu, x):
    """Classical J_nu(x); x > 0 or NaN.  Shapes as for ``bessel_j_tilde``.

    Finite up to the largest float.  Integer orders lose the phase of
    Hankel's expansion at very large x (J_1(1e20) reads 6.1e-11 for
    -7.95e-11), since x - nu pi/2 - pi/4 is rounded at the scale of x.
    """
    order = _as_order(nu)
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    if np.count_nonzero(flat <= 0):
        raise BesselDomainError("bessel_j requires x > 0")
    out = _bessel_array(order, flat, False).reshape(arr.shape)
    return float(out) if np.isscalar(x) else out


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
