"""Adaptive quadrature for finite intervals and oscillatory half-line integrals.

Everything runs on one adaptive Gauss-Kronrod 7/15 loop over many intervals
in lockstep, ``integrate_finite``.  The first panels of all intervals go to
the integrand in one call.  Each interval that misses tolerance then
bisects its own worst panel (largest embedded-rule error first), and the
halves of all such panels go to the integrand in one call per round, until
every interval meets its tolerance or its panel budget.  Given two numbers,
``integrate_finite`` integrates the one interval between them.  Each
interval gives one result: its estimate is the exact sum of its panels'
estimates, and NaN from the integrand is a NaN value and estimate, which
stops that interval's refinement and never counts as converged.

Half-line integrals of g(t) Jt_nu(omega t), the transform's kernel, are
split at the kernel's zeros t_k = z_k / omega, so each segment carries one
sign of the oscillation, and Wynn's epsilon algorithm accelerates the
partial sums.  The splitter, ``split_halfline_at_zeros``, takes g, the
order and one omega or an array of them, and applies the kernel itself;
transforms, moments and Hankel transforms all go through it.  Every
omega keeps its own partial sums, epsilon table and exit rules.  The head
[0, z_1 / omega] is integrated over the windows [0, 1], [1, 3], [3, 7], ...
cut at its end, so that a profile living near 0 is seen even when omega is
tiny.  Every head runs to min(end, 1e8) and may stop past that once three
windows in a row are negligible.  A head with no end (omega = 0, the
moment, or z_1 / omega overflowed) also stops there at once if it has read
only zeros.  Per round, each omega's line hands over its next pieces (head
windows while its head runs, then one segment), one ``integrate_finite``
call integrates those of every line, and each line folds its own back in.
``integrate_halfline_decaying`` is the omega = 0 line of order 0.

The engine's flag is the verdict on the tail, so three rules keep a tail that
does not decay from reading as converged:

* the accelerated exit also needs the last two segments to shrink, each
  below 0.999 times the one before: the epsilon table can steady on a value
  that is not the integral while the segments grow or hold their size;
* every head, not only an endless one, ends unconverged after eight
  windows in a row past 1e8, each above 100 abs_tol and over 0.99 times
  the one before;
* a head window past 1e8 that its panels could not resolve ends the line
  unconverged: the rules there judge windows by size.  This bounds an
  endless head that still oscillates, as the moment of sin(t)/t does.

Values may be complex (profiles with complex parameters integrate directly);
error bookkeeping uses absolute values throughout.  A result whose value or
estimate is not finite never counts as converged.
"""

from __future__ import annotations

import cmath
import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import _as_order, bessel_j_tilde, bessel_zeros, jtilde_at_zero

__all__ = [
    "QuadratureSpec", "QuadratureResult",
    "integrate_finite", "integrate_halfline_decaying",
    "split_halfline_at_zeros",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget limits shared by all integration routines."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_panels: int = 2000
    max_oscillations: int = 500

    def __post_init__(self):
        # written so that NaN fails each test
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.rel_tol < 1e-15:
            raise ValueError("rel_tol below 1e-15 is not resolvable")
        if not (self.max_panels > 0 and self.max_oscillations > 0):
            raise ValueError("budget limits must be positive")

    def tolerance(self, scale):
        return max(self.abs_tol, self.rel_tol * abs(scale))


@dataclass
class QuadratureResult:
    """Value plus an honest (heuristic upper-bound) error estimate."""

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


DEFAULT_SPEC = QuadratureSpec()


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 nodes (QUADPACK dqk15 constants)

_XGK = np.array([
    -0.9914553711208126392068547, -0.9491079123427585245261897,
    -0.8648644233597690727897128, -0.7415311855993944398638648,
    -0.5860872354676911302941448, -0.4058451513773971669066064,
    -0.2077849550078984676006894, 0.0,
    0.2077849550078984676006894, 0.4058451513773971669066064,
    0.5860872354676911302941448, 0.7415311855993944398638648,
    0.8648644233597690727897128, 0.9491079123427585245261897,
    0.9914553711208126392068547,
])
_WGK = np.array([
    0.0229353220105292249637320, 0.0630920926299785532907007,
    0.1047900103222501838398763, 0.1406532597155259187451896,
    0.1690047266392679028265834, 0.1903505780647854099132564,
    0.2044329400752988924141620, 0.2094821410847278280129992,
    0.2044329400752988924141620, 0.1903505780647854099132564,
    0.1690047266392679028265834, 0.1406532597155259187451896,
    0.1047900103222501838398763, 0.0630920926299785532907007,
    0.0229353220105292249637320,
])
_WG = np.array([
    0.1294849661688696932706114, 0.2797053914892766679014678,
    0.3818300505051189449503698, 0.4179591836734693877551020,
    0.3818300505051189449503698, 0.2797053914892766679014678,
    0.1294849661688696932706114,
])
_NODES = _XGK.size


def _call_integrand(f, x):
    """Evaluate f on the 1-d ndarray x, tolerating scalar-only callables."""
    try:
        y = np.asarray(f(x))
        if y.shape != x.shape:
            raise ValueError
        return y
    except (TypeError, ValueError, IndexError):
        return np.asarray([f(float(v)) for v in x])


def _kronrod_panels(f, lo, hi, keys):
    """One Gauss-Kronrod panel on each [lo_i, hi_i], all in one integrand call.

    f gets the nodes flat and, given ``keys`` (one per panel), one key per
    node.  Without keys a scalar-only f is called node by node; with them f
    is one of this package's vectorized integrands, called once.  Returns
    the Kronrod values and the embedded-rule error estimates as lists.
    """
    # halves first: lo + hi overflows once both ends pass ~9e307
    mid = 0.5 * lo + 0.5 * hi
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK
    x = nodes.ravel()
    y = (_call_integrand(f, x) if keys is None
         else f(x, np.repeat(keys, _NODES))).reshape(nodes.shape)
    kron = half * np.add.reduce(_WGK * y, axis=1)
    # the 7 Gauss nodes are the odd-indexed Kronrod nodes
    gauss = half * np.add.reduce(_WG * y[:, 1::2], axis=1)
    # hypot, not np.abs: numpy's complex abs can differ from it in the last bit
    diff = kron - gauss
    return kron.tolist(), np.hypot(diff.real, diff.imag).tolist()


def _panel_sum(heap):
    """The estimate of an interval: the exact sum of its panels' estimates."""
    return math.fsum(entry[4] for entry in heap)


def _integrate_intervals(f, lo, hi, spec, keys=None):
    """Adaptive GK15 on every [lo_i, hi_i] in lockstep.

    Each interval starts as one panel.  Each interval that misses tolerance
    bisects its own worst panel per round, exactly as a lone adaptive
    integrator would, and the halves of all of them are evaluated in one
    integrand call.  About one half-line segment in seven refines, and
    refining those one interval at a time made a 128-radius transform grid
    2-3x slower.  ``keys`` (or None) is one extra integrand argument per
    interval.

    An interval's value is the running sum of its panels'.  Its estimate
    runs along as well, but under cancellation that sum drifts, even below
    zero; where it says the interval meets tolerance, the interval decides
    on the exact sum of its panels' estimates instead, and every interval
    that refined reports that sum.  NaN from the integrand makes the value
    and the estimate NaN, and a NaN estimate compares false, so that
    interval stops refining at once.

    Returns lists: values, errors and panel counts.
    """
    values, errors = _kronrod_panels(f, lo, hi, keys)
    counts = [1] * len(values)
    live = [i for i, (value, error) in enumerate(zip(values, errors))
            if error > spec.tolerance(value) and spec.max_panels > 1]
    if not live:
        return values, errors, counts

    lo, hi = lo.tolist(), hi.tolist()
    # one heap of panels per interval that refines; the rest allocate nothing
    heaps = {i: [(-errors[i], lo[i], hi[i], values[i], errors[i])] for i in live}
    while live:
        todo = []
        for i in live:
            heap = heaps[i]
            while counts[i] < spec.max_panels:
                if not errors[i] > spec.tolerance(values[i]):
                    errors[i] = _panel_sum(heap)
                    if not errors[i] > spec.tolerance(values[i]):
                        break
                _, pa, pb, pval, perr = heapq.heappop(heap)
                mid = 0.5 * pa + 0.5 * pb
                if mid <= pa or mid >= pb:  # exhausted at machine precision
                    heapq.heappush(heap, (0.0, pa, pb, pval, 0.0))
                    errors[i] -= perr
                    continue
                todo.append((i, pa, mid, pb, pval, perr))
                break
        if not todo:
            break
        # the halves of the j-th bisected panel are rows 2j (left) and 2j+1
        new_lo = np.array([x for _, pa, mid, _, _, _ in todo for x in (pa, mid)])
        new_hi = np.array([x for _, _, mid, pb, _, _ in todo for x in (mid, pb)])
        new_keys = None if keys is None \
            else np.repeat(keys[[item[0] for item in todo]], 2)
        hk, he = _kronrod_panels(f, new_lo, new_hi, new_keys)
        live = []
        for j, (i, pa, mid, pb, pval, perr) in enumerate(todo):
            lval, rval = hk[2 * j], hk[2 * j + 1]
            lerr, rerr = he[2 * j], he[2 * j + 1]
            values[i] += lval + rval - pval
            errors[i] += lerr + rerr - perr
            heapq.heappush(heaps[i], (-lerr, pa, mid, lval, lerr))
            heapq.heappush(heaps[i], (-rerr, mid, pb, rval, rerr))
            counts[i] += 1
            live.append(i)
    for i, heap in heaps.items():
        errors[i] = _panel_sum(heap)
    return values, errors, counts


def integrate_finite(f, a, b, spec=None, keys=None):
    """Adaptive integral of f over [a, b], or over every [a_i, b_i] in lockstep.

    Panels with the largest embedded-rule error are bisected first, and
    the estimate is the sum of the final panels' estimates.  A
    non-convergent run (panel budget exhausted) returns the best value with
    ``converged=False``, and so does one whose value or estimate is not
    finite: NaN from the integrand gives a NaN value and estimate, with the
    evaluations spent counted.  With numbers a < b the result is one
    QuadratureResult; with 1-d arrays a and b it is a list with one result
    per interval.  f gets the nodes flat; given ``keys``, one number per
    interval (a list of one for numbers a and b), f also gets the key of
    each node's interval as a second flat array.
    """
    spec = spec or DEFAULT_SPEC
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    single = lo.ndim == 0 and hi.ndim == 0
    if single:
        if not lo < hi:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        lo, hi = lo[None], hi[None]
    elif lo.ndim != 1 or lo.shape != hi.shape or not (lo < hi).all():
        raise ValueError("need 1-d arrays a and b of one length, with a < b")
    if keys is not None:
        keys = np.asarray(keys)
        if keys.shape != lo.shape:
            raise ValueError("need one key per interval")
    results = [_result(v, e, c, spec)
               for v, e, c in zip(*_integrate_intervals(f, lo, hi, spec, keys))]
    return results[0] if single else results


def _result(value, error, panels, spec):
    # the first panel takes 15 nodes, every bisection two more panels
    return QuadratureResult(_tidy(value), error, _NODES * (2 * panels - 1),
                            error <= spec.tolerance(value)
                            and _finite(value, error))


def _finite(value, error):
    """Whether a result may count as converged: a value or estimate that
    is inf or NaN never does."""
    return cmath.isfinite(value) and math.isfinite(error)


def _tidy(value):
    value = complex(value)
    return value.real if value.imag == 0.0 else value


# ---------------------------------------------------------------------------
# Wynn epsilon acceleration

_WYNN_DEPTH = 12


class _WynnEpsilon:
    """Streaming epsilon table; feed partial sums, read the deepest estimate."""

    def __init__(self):
        self.diagonal = []

    def add(self, s):
        prev = self.diagonal
        col = [complex(s)]
        for k in range(min(len(prev), 2 * _WYNN_DEPTH)):
            delta = col[k] - prev[k]
            if abs(delta) < 1e-305:
                break
            lower = prev[k - 1] if k >= 1 else 0.0
            col.append(lower + 1.0 / delta)
        self.diagonal = col
        # even-indexed entries are the accelerated estimates
        best_idx = len(col) - 1
        if best_idx % 2 == 1:
            best_idx -= 1
        return col[best_idx]


# ---------------------------------------------------------------------------
# oscillatory half-line integrals

# how far every head runs before its stop rule may end it, the moment's
# (omega = 0) too, so that a second bump beyond a gap is reached
_HEAD_REACH = 1e8


class _HalfLine:
    """One omega's line: its pieces (head windows, then segments), partial
    sums, epsilon table, streak counters, exit rules, budget and scale, the
    kernel's constant Jt_nu(0) at omega = 0, where the line integrates g."""

    __slots__ = ("spec", "omega", "end", "scale", "k", "a", "width",
                 "head_streak", "partial", "evals", "panel_err", "wynn",
                 "accel", "accel_deltas", "small_streak", "grow_streak",
                 "shrink_streak", "max_seg", "last_seg")

    def __init__(self, spec, omega, z1, order):
        self.spec = spec
        self.omega = omega
        self.end = z1 / omega if omega else math.inf
        self.scale = None if omega else jtilde_at_zero(order)
        self.k = 0  # segments done
        self.a = 0.0
        self.width = 1.0
        self.head_streak = 0
        self.partial = 0j
        self.evals = 0
        self.panel_err = 0.0
        self.wynn = _WynnEpsilon()
        self.accel = None
        self.accel_deltas = []
        self.small_streak = 0
        self.grow_streak = 0
        self.shrink_streak = 0
        self.max_seg = 0.0
        self.last_seg = math.inf

    def pieces(self, zeros):
        """The next head windows of [0, 1], [1, 3], [3, 7], ... (each twice
        as wide as the last), cut at the head's end: all of them up to
        t = 1e8, where no stop rule can end the head, then as many as the
        stop rule needs before it can; after the head, the next segment."""
        if not self.a < self.end:
            k, omega = self.k, self.omega
            return [(zeros[k] / omega, zeros[k + 1] / omega)]
        out = []
        while self.a < self.end and (self.a < _HEAD_REACH
                                     or len(out) < 3 - self.head_streak):
            b = min(self.a + self.width, self.end)
            out.append((self.a, b))
            self.a = b
            self.width *= 2.0
        return out

    def fold(self, a, b, part):
        """Fold in the piece [a, b], which integrated to ``part``: a head
        window before the head's end, else a segment; the line's result if
        it ends there (out of budget after max_oscillations segments)."""
        if a < self.end:
            return self.add_head(a, b, part)
        self.k += 1
        done = self.add(self.k, a, part)
        if done is None and self.k >= self.spec.max_oscillations:
            return self.out_of_budget()
        return done

    def _truncate(self, a):
        """The far-tail rule, for a piece from t = a whose value is NaN (or,
        for a segment, infinite): an integrand that fails there after three
        consecutive negligible contributions, head windows and segments
        alike, ends the sum there, with a warning; sooner, it ends the line
        unconverged, with its partial sum and an infinite estimate."""
        if self.small_streak < 3:
            return self._result(self.partial, math.inf, False)
        warnings.warn("integrand failed in the far tail; truncating "
                      f"at t={a:.3g} after negligible contributions",
                      RuntimeWarning, stacklevel=5)
        return self._result(self.partial, self.panel_err + abs(self.last_seg))

    def _result(self, value, error, converged=True):
        """The line's result at any exit, scaled at omega = 0: converged only
        if the exit says so and the value and the estimate are finite."""
        converged = converged and _finite(value, error)
        value = _tidy(value)
        if self.scale is not None:
            value, error = value * self.scale, error * self.scale
        return QuadratureResult(value, error, self.evals, converged)

    def add_head(self, a, b, part):
        """Fold in the head window [a, b], which integrated to ``part``; a
        result if the head ends the sum there, else None.

        Once a window reaches t = 1e8, the head stops after three windows
        in a row, each negligible against the nonzero running total and no
        larger than the one before.  It ends unconverged at a window that
        did not converge within its panels, or after eight windows in a
        row, each above 100 abs_tol and over 0.99 times the one before, as
        a divergent integral's are.  A head with no end also stops at once
        while that total is still exactly 0 (so a profile that lives only
        beyond 1e8 reads 0 there)."""
        self.evals += part.evaluations
        if cmath.isnan(part.value):
            return self._truncate(a)
        spec = self.spec
        self.partial += complex(part.value)
        self.panel_err += part.error_estimate
        size = abs(part.value)
        self.small_streak = self.small_streak + 1 if size <= spec.abs_tol else 0
        negligible = self.partial and size <= min(self.last_seg, max(
            spec.abs_tol, 0.01 * spec.rel_tol * abs(self.partial)))
        self.head_streak = self.head_streak + 1 if negligible else 0
        grew = size > max(100.0 * spec.abs_tol, 0.99 * self.last_seg)
        self.last_seg = size
        if b < _HEAD_REACH:
            return None
        # divergence watch: 0.99^1000 > 1e-5, and fewer than 1000 windows
        # lie between 1e8 and overflow, so a tail that shrinks more slowly
        # never meets the tolerance.  The rules here judge windows by size,
        # which a window the panels did not resolve does not give.
        self.grow_streak = self.grow_streak + 1 if grew else 0
        if self.grow_streak >= 8 or not part.converged:
            return self._result(self.partial, self.panel_err + size, False)
        if self.head_streak >= 3 or (self.end == math.inf and not self.partial):
            return self._result(self.partial, self.panel_err + size)
        return None

    def add(self, k, a, seg):
        """Fold in segment k, which starts at t = a and integrated to ``seg``;
        a result once done, else None."""
        spec = self.spec
        self.evals += seg.evaluations
        if not cmath.isfinite(seg.value):
            return self._truncate(a)
        if k == 1:  # seed the epsilon table with the head sum
            self.accel = self.wynn.add(self.partial)
        self.panel_err += seg.error_estimate
        self.partial += complex(seg.value)
        seg_size = abs(seg.value)

        accel_new = self.wynn.add(self.partial)
        self.accel_deltas.append(abs(accel_new - self.accel))
        self.accel = accel_new

        # negligible-terms exit: the plain sum has converged.  One more
        # contribution than the truncation rule above needs, so that an
        # overflow arriving right after three dead segments still truncates
        # cleanly.  The streak runs on from the head, so a segment that
        # fails right after an all-zero head is truncated.
        if seg_size <= spec.abs_tol:
            self.small_streak += 1
            if self.small_streak >= 4 and k >= 4:
                return self._result(self.partial,
                                    self.panel_err + 3 * seg_size)
        else:
            self.small_streak = 0

        # accelerated exit: epsilon estimates have stabilized while the last
        # two segments shrink; a tail that grows or holds its size (a
        # divergent or merely bounded oscillation) can also steady the
        # epsilon table, on a value that is not the integral
        self.shrink_streak = self.shrink_streak + 1 \
            if seg_size < 0.999 * self.last_seg else 0
        deltas = self.accel_deltas
        if k >= 6 and len(deltas) >= 2 and self.shrink_streak >= 2:
            tol = spec.tolerance(self.accel)
            if deltas[-1] <= tol and deltas[-2] <= tol:
                return self._result(self.accel, self.panel_err
                                    + 4.0 * max(deltas[-1], deltas[-2]))

        # divergence watch: a long run of new global maxima means the tail
        # is growing outright (local humps after an integrand zero stay
        # below the running maximum and do not trigger this)
        if seg_size > self.max_seg and seg_size > 100.0 * spec.abs_tol:
            self.grow_streak += 1
            if self.grow_streak >= 8 and k >= 12:
                return self._result(self.accel, self.panel_err + seg_size,
                                    False)
        else:
            self.grow_streak = 0
        self.max_seg = max(self.max_seg, seg_size)
        self.last_seg = seg_size
        return None

    def out_of_budget(self):
        deltas = self.accel_deltas
        err = self.panel_err + (abs(deltas[-1]) if deltas else abs(self.last_seg))
        return self._result(self.accel, err + abs(self.last_seg), False)


def split_halfline_at_zeros(g, nu, omega, spec=None):
    """Integral of g(t) * Jt_nu(omega t) over [0, inf), split at t_k = z_k / omega.

    ``z_k`` are the zeros of J_nu, so each segment carries one sign of the
    oscillation.  ``omega`` is one number >= 0, giving one QuadratureResult,
    or a 1-d array of them, giving a list with one result per omega.

    g gets a flat array of nodes and returns one value per node; a g that
    takes only numbers is called node by node.  The engine applies the
    kernel itself.  At omega = 0 the kernel is the constant Jt_nu(0): that
    line integrates g alone, so the head's stop rule and the tolerance apply
    to the plain moment, and its value and estimate are then scaled by
    Jt_nu(0).  numpy's floating-point warnings stay inside the engine.  NaN
    from g ends only that omega's line: after three contributions below
    abs_tol with a RuntimeWarning, sooner unconverged.  Each omega is one
    ``_HalfLine``, which owns the head and segment rules of the module
    docstring; one loop runs them all.
    """
    spec = spec or DEFAULT_SPEC
    order = _as_order(nu)
    omegas = np.asarray(omega, dtype=float)
    scalar = omegas.ndim == 0
    omegas = np.atleast_1d(omegas)
    if omegas.ndim != 1:
        raise ValueError("omega must be a number or a 1-d array")
    if not all(0.0 <= w < math.inf for w in omegas.tolist()):
        raise ValueError("omega must be nonnegative and finite")
    moments = (omegas == 0.0).any()

    def integrand(t, w):
        y = _call_integrand(g, t)
        if moments:  # a kernel of 1 on the panels of omega = 0
            zero = w == 0.0
            if not zero.all():
                y = np.where(zero, y, y * bessel_j_tilde(order, w * t))
            return y
        return y * bessel_j_tilde(order, w * t)

    with np.errstate(all="ignore"):
        chunk = 64
        zeros = bessel_zeros(order, chunk)
        inner = QuadratureSpec(rel_tol=spec.rel_tol, abs_tol=spec.abs_tol,
                               max_panels=min(spec.max_panels, 200),
                               max_oscillations=spec.max_oscillations)
        lines = [_HalfLine(spec, w, zeros[0], order) for w in omegas.tolist()]
        results = [None] * len(lines)
        running = list(range(len(lines)))
        while running:
            # a line's next segment ends at z_(k+2)
            if max(lines[i].k for i in running) + 2 > len(zeros):
                zeros = bessel_zeros(order, len(zeros) + chunk)
            pieces = [(i, a, b) for i in running
                      for a, b in lines[i].pieces(zeros)]
            owner, lo, hi = zip(*pieces)
            parts = integrate_finite(integrand, np.array(lo), np.array(hi),
                                     inner, omegas[list(owner)])
            for i, a, b, part in zip(owner, lo, hi, parts):
                if results[i] is None:  # a line's pieces after its end
                    results[i] = lines[i].fold(a, b, part)
            running = [i for i in running if results[i] is None]
    return results[0] if scalar else results


def integrate_halfline_decaying(f, spec=None):
    """Integral over [0, inf) of a non-oscillatory decaying integrand: the
    omega = 0 line of the half-line engine, whose kernel Jt_0(0) is 1."""
    return split_halfline_at_zeros(f, 0, 0.0, spec)
