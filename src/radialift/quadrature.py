"""Adaptive quadrature for finite intervals and oscillatory half-line integrals.

Everything runs on one adaptive Gauss-Kronrod 7/15 loop over many intervals
in lockstep, ``integrate_finite``.  The first panels of all intervals go to
the integrand in one call.  Each interval that misses tolerance then
bisects its own worst panel (largest embedded-rule error first), and the
halves of all such panels go to the integrand in one call per round, until
every interval meets its tolerance or its panel budget.  Given two numbers,
``integrate_finite`` integrates the one interval between them.

Half-line Bessel-kernel integrals are split at the kernel's zeros
t_k = z_k / omega, so each segment carries one sign of the oscillation, and
Wynn's epsilon algorithm accelerates the partial sums.  The splitter takes
one omega or an array of them.  Every omega keeps its own partial sums,
epsilon table and exit rules.  The head [0, z_1 / omega] is integrated over
the windows [0, 1], [1, 3], [3, 7], ... cut at its end, so that a profile
living near 0 is seen even when omega is tiny.  A head runs to
min(end, 1e8) and may stop past that once three windows in a row are
negligible.  The heads go first, then the segments, the next segment of
every omega per round; each round is one ``integrate_finite`` call.
omega = 0 is the moment: its head never ends, its stop rule applies from
the first window, and ``integrate_halfline_decaying`` is that line.

Values may be complex (profiles with complex parameters integrate directly);
error bookkeeping uses absolute values throughout.
"""

from __future__ import annotations

import cmath
import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import _as_order, bessel_j_tilde, bessel_zeros, jtilde_at_zero
from .errors import PoisonedEvaluationError

__all__ = [
    "QuadratureSpec", "QuadratureResult",
    "integrate_finite", "integrate_bessel_halfline",
    "integrate_halfline_decaying", "split_halfline_at_zeros",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget limits shared by all integration routines."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_panels: int = 2000
    max_oscillations: int = 500

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.rel_tol < 1e-15:
            raise ValueError("rel_tol below 1e-15 is not resolvable")
        if min(self.max_panels, self.max_oscillations) <= 0:
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

    @property
    def real(self):
        return self.value.real if isinstance(self.value, complex) else self.value


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

    Without ``keys`` f gets the nodes flat, and a scalar-only f is called
    node by node; with them f is one of this package's vectorized
    integrands and gets the nodes as a (panels, 15) array and the keys as a
    (panels, 1) column.  Returns the Kronrod values and the embedded-rule
    error estimates as lists, and the nodes and integrand values as
    (panels, 15) arrays.
    """
    # halves first: lo + hi overflows once both ends pass ~9e307
    mid = 0.5 * lo + 0.5 * hi
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _XGK
    y = _call_integrand(f, nodes.ravel()).reshape(nodes.shape) if keys is None \
        else f(nodes, keys[:, None])
    kron = half * np.add.reduce(_WGK * y, axis=1)
    # the 7 Gauss nodes are the odd-indexed Kronrod nodes
    gauss = half * np.add.reduce(_WG * y[:, 1::2], axis=1)
    # hypot, not np.abs: numpy's complex abs can differ from it in the last bit
    diff = kron - gauss
    return kron.tolist(), np.hypot(diff.real, diff.imag).tolist(), nodes, y


def _first_nan(nodes, y):
    """The first node whose value is NaN, or None."""
    bad = np.isnan(y)
    return float(nodes[bad][0]) if bad.any() else None


def _integrate_intervals(f, lo, hi, spec, keys=None):
    """Adaptive GK15 on every [lo_i, hi_i] in lockstep.

    Each interval starts as one panel.  Each interval that misses tolerance
    bisects its own worst panel per round, exactly as a lone adaptive
    integrator would, and the halves of all of them are evaluated in one
    integrand call.  About one half-line segment in seven refines, and
    refining those one interval at a time made a 128-radius transform grid
    2-3x slower.  ``keys`` (or None) is one extra integrand argument per
    interval.

    Returns lists (values, errors, panel counts) and a dict that maps each
    interval whose integrand gave NaN to the first such node; the list
    entries of such an interval are not meaningful.
    """
    values, errors, nodes, y = _kronrod_panels(f, lo, hi, keys)
    counts = [1] * len(values)
    poisoned = {}
    live = []
    for i, (value, error) in enumerate(zip(values, errors)):
        if value != value:  # a NaN node makes the Kronrod sum NaN
            node = _first_nan(nodes[i], y[i])
            if node is not None:
                poisoned[i] = node
                continue
        if error > spec.tolerance(value) and spec.max_panels > 1:
            live.append(i)
    if not live:
        return values, errors, counts, poisoned

    lo, hi = lo.tolist(), hi.tolist()
    # one heap of panels per interval that refines; the rest allocate nothing
    heaps = {i: [(-errors[i], lo[i], hi[i], values[i], errors[i])] for i in live}
    while live:
        todo = []
        for i in live:
            heap = heaps[i]
            while (errors[i] > spec.tolerance(values[i])
                   and counts[i] < spec.max_panels):
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
        hk, he, nodes, y = _kronrod_panels(f, new_lo, new_hi, new_keys)
        live = []
        for j, (i, pa, mid, pb, pval, perr) in enumerate(todo):
            lval, rval = hk[2 * j], hk[2 * j + 1]
            if lval != lval or rval != rval:
                node = _first_nan(nodes[2 * j:2 * j + 2], y[2 * j:2 * j + 2])
                if node is not None:
                    poisoned[i] = node
                    continue
            lerr, rerr = he[2 * j], he[2 * j + 1]
            values[i] += lval + rval - pval
            errors[i] += lerr + rerr - perr
            heapq.heappush(heaps[i], (-lerr, pa, mid, lval, lerr))
            heapq.heappush(heaps[i], (-rerr, mid, pb, rval, rerr))
            counts[i] += 1
            live.append(i)
    return values, errors, counts, poisoned


def integrate_finite(f, a, b, spec=None, keys=None):
    """Adaptive integral of f over [a, b], or over every [a_i, b_i] in lockstep.

    Panels with the largest embedded-rule error are bisected first.  A
    non-convergent run (panel budget exhausted) returns the best value with
    ``converged=False``.  With numbers a < b the result is one
    QuadratureResult, and NaN from the integrand raises
    PoisonedEvaluationError.  With 1-d arrays a and b it is a list with one
    result per interval, None where the integrand gave NaN; f gets the
    nodes flat, or, given ``keys`` (one number per interval), the nodes as a
    (panels, 15) array and the keys as a (panels, 1) column.
    """
    spec = spec or DEFAULT_SPEC
    lo, hi = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if lo.ndim == 0 and hi.ndim == 0:
        if not lo < hi:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        values, errors, counts, poisoned = _integrate_intervals(
            f, lo[None], hi[None], spec)
        if poisoned:
            raise PoisonedEvaluationError(poisoned[0])
        return _result(values[0], errors[0], counts[0], spec)
    if lo.ndim != 1 or lo.shape != hi.shape or not (lo < hi).all():
        raise ValueError("need 1-d arrays a and b of one length, with a < b")
    if keys is not None:
        keys = np.asarray(keys)
    values, errors, counts, poisoned = _integrate_intervals(
        f, lo, hi, spec, keys)
    return [None if i in poisoned else _result(v, e, c, spec)
            for i, (v, e, c) in enumerate(zip(values, errors, counts))]


def _result(value, error, panels, spec):
    # the first panel takes 15 nodes, every bisection two more panels
    return QuadratureResult(_tidy(value), error, _NODES * (2 * panels - 1),
                            error <= spec.tolerance(value))


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

# how far a head runs before its stop rule may end it; the moment's head
# (omega = 0, reach 0) stops by that rule throughout and ends here instead
_HEAD_REACH = 1e8


class _HalfLine:
    """Head windows, partial sums, epsilon table, streak counters and exit
    rules of one omega."""

    __slots__ = ("spec", "end", "reach", "a", "width", "head_streak",
                 "partial", "evals", "panel_err", "wynn", "accel",
                 "accel_deltas", "small_streak", "grow_streak", "max_seg",
                 "last_seg")

    def __init__(self, spec, end, reach):
        self.spec = spec
        self.end = end
        self.reach = reach
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
        self.max_seg = 0.0
        self.last_seg = math.inf

    def head_windows(self):
        """The next windows of [0, 1], [1, 3], [3, 7], ... (each twice as
        wide as the last), cut at the head's end: all of them up to the
        reach, where the stop rule cannot end the head, then as many as it
        needs before it can."""
        out = []
        while self.a < self.end and (self.a < self.reach
                                     or len(out) < 3 - self.head_streak):
            b = min(self.a + self.width, self.end)
            out.append((self.a, b))
            self.a = b
            self.width *= 2.0
        return out

    def _truncate(self, a):
        """The far-tail rule: an integrand that fails at t = a after three
        consecutive negligible contributions, head windows and segments
        alike, ends the sum there, with a warning; sooner, it raises
        PoisonedEvaluationError."""
        if self.small_streak < 3:
            raise PoisonedEvaluationError(a)
        warnings.warn("integrand failed in the far tail; truncating "
                      f"at t={a:.3g} after negligible contributions",
                      RuntimeWarning, stacklevel=4)
        return QuadratureResult(_tidy(self.partial),
                                self.panel_err + abs(self.last_seg),
                                self.evals, True)

    def add_head(self, a, b, part):
        """Fold in the head window [a, b], which integrated to ``part`` (None
        where the integrand gave NaN); a result if the head ends the sum
        there, else None.

        Once a window reaches the reach, the head stops after three windows
        in a row, each negligible against the nonzero running total and no
        larger than the one before.  The moment's reach is 0, so a profile
        with a second bump beyond a gap can be cut off there; its head ends
        where its next window would start at t = 1e8 or later, converged if
        its estimate meets the tolerance."""
        if part is None:
            return self._truncate(a)
        spec = self.spec
        self.partial += complex(part.value)
        self.panel_err += part.error_estimate
        self.evals += part.evaluations
        size = abs(part.value)
        self.small_streak = self.small_streak + 1 if size <= spec.abs_tol else 0
        negligible = self.partial and size <= min(self.last_seg, max(
            spec.abs_tol, 0.01 * spec.rel_tol * abs(self.partial)))
        self.head_streak = self.head_streak + 1 if negligible else 0
        self.last_seg = size
        stopped = self.head_streak >= 3 and b >= self.reach
        if stopped or (not self.reach and b >= _HEAD_REACH):
            err = self.panel_err + size
            converged = stopped or err <= spec.tolerance(self.partial)
            return QuadratureResult(_tidy(self.partial), err, self.evals,
                                    converged)
        return None

    def add(self, k, a, seg):
        """Fold in segment k, which starts at t = a and integrated to ``seg``
        (None where the integrand gave NaN); a result once done, else None."""
        spec = self.spec
        if seg is None or not cmath.isfinite(seg.value):
            return self._truncate(a)
        if k == 1:  # seed the epsilon table with the head sum
            self.accel = self.wynn.add(self.partial)
        self.evals += seg.evaluations
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
        # fails right after an all-zero head is truncated, not raised.
        if seg_size <= spec.abs_tol:
            self.small_streak += 1
            if self.small_streak >= 4 and k >= 4:
                return QuadratureResult(_tidy(self.partial),
                                        self.panel_err + 3 * seg_size,
                                        self.evals, True)
        else:
            self.small_streak = 0

        # accelerated exit: epsilon estimates have stabilized
        deltas = self.accel_deltas
        if k >= 6 and len(deltas) >= 2:
            tol = spec.tolerance(self.accel)
            if deltas[-1] <= tol and deltas[-2] <= tol:
                err = self.panel_err + 4.0 * max(deltas[-1], deltas[-2])
                return QuadratureResult(_tidy(self.accel), err, self.evals, True)

        # divergence watch: a long run of new global maxima means the tail
        # is growing outright (local humps after an integrand zero stay
        # below the running maximum and do not trigger this)
        if seg_size > self.max_seg and seg_size > 100.0 * spec.abs_tol:
            self.grow_streak += 1
            if self.grow_streak >= 8 and k >= 12:
                return QuadratureResult(_tidy(self.accel),
                                        self.panel_err + seg_size,
                                        self.evals, False)
        else:
            self.grow_streak = 0
        self.max_seg = max(self.max_seg, seg_size)
        self.last_seg = seg_size
        return None

    def out_of_budget(self):
        deltas = self.accel_deltas
        err = self.panel_err + (abs(deltas[-1]) if deltas else abs(self.last_seg))
        return QuadratureResult(_tidy(self.accel), err + abs(self.last_seg),
                                self.evals, False)


def split_halfline_at_zeros(integrand, nu, omega, spec=None):
    """Integrate ``integrand(t, omega)`` over [0, inf), split at t_k = z_k / omega.

    ``z_k`` are the zeros of J_nu, so each segment carries one sign of the
    oscillation; Wynn's epsilon algorithm accelerates the partial sums.
    ``omega`` is one number >= 0, giving one QuadratureResult, or a 1-d
    array of them, giving a list with one result per omega.  The integrand
    receives the nodes as a (panels, 15) array and, as a (panels, 1) column,
    the omega each panel belongs to.

    The head [0, z_1 / omega] is integrated over the windows [0, 1], [1, 3],
    [3, 7], ... cut at its end, so that a profile living near 0 is seen even
    when omega is tiny.  Every head runs at least to min(end, 1e8), all of
    those windows in the first round, so that a profile with a second bump
    beyond a gap is not cut off.  Past t = 1e8 it stops once three windows
    in a row are negligible against the nonzero running total, each no
    larger than the one before; the total is then the result.  Where
    z_1 / omega overflows the head has no end and only that rule (or the
    far-tail rule) stops it.  At omega = 0 the head is the whole line: its
    stop rule applies from the first window, and it ends where its next
    window would start at t = 1e8.
    Segments or head windows whose integrand overflows are truncated (with
    a warning) once three consecutive contributions fall below abs_tol.
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

    chunk = 64
    zeros = np.array(bessel_zeros(order, chunk))
    inner = QuadratureSpec(rel_tol=spec.rel_tol, abs_tol=spec.abs_tol,
                           max_panels=200, max_oscillations=spec.max_oscillations)
    # the head ends at z_1 / omega: inf at omega = 0 and where it overflows
    with np.errstate(divide="ignore", over="ignore"):
        lines = [_HalfLine(spec, end, _HEAD_REACH if w else 0.0) for end, w
                 in zip((zeros[0] / omegas).tolist(), omegas.tolist())]
    results = [None] * omegas.size

    # head rounds: the windows of every line still in its head go to one
    # integrand call per round; the first takes every window below the reach
    running = list(range(omegas.size))
    while running:
        windows = [(i, a, b) for i in running for a, b in lines[i].head_windows()]
        owner, lo, hi = zip(*windows)
        parts = integrate_finite(integrand, np.array(lo), np.array(hi), inner,
                                 omegas[list(owner)])
        for i, a, b, part in zip(owner, lo, hi, parts):
            if results[i] is None:  # the rest of a line's windows after its end
                results[i] = lines[i].add_head(a, b, part)
        running = [i for i in running
                   if results[i] is None and lines[i].a < lines[i].end]

    # segment rounds: the next segment of every line still running
    running = [i for i, done in enumerate(results) if done is None]
    w = omegas[running]
    k = 0
    while k < spec.max_oscillations and running:
        k += 1
        if k + 1 > len(zeros):
            zeros = np.array(bessel_zeros(order, len(zeros) + chunk))
        a = zeros[k - 1] / w
        segs = integrate_finite(integrand, a, zeros[k] / w, inner, w)
        still = []
        for i, start, seg in zip(running, a.tolist(), segs):
            done = lines[i].add(k, start, seg)
            if done is None:
                still.append(i)
            else:
                results[i] = done
        if len(still) < len(running):
            running = still
            w = omegas[running]
    for i in running:
        results[i] = lines[i].out_of_budget()
    return results[0] if scalar else results


def integrate_bessel_halfline(g, nu, omega, spec=None):
    """Integral of g(t) * Jt_nu(omega t) over [0, inf); omega as in
    ``split_halfline_at_zeros``.

    At omega = 0 the kernel is the constant Jt_nu(0).  Such a line
    integrates g alone, so its stop rule and tolerance apply to the plain
    moment, and its value and estimate are then scaled by Jt_nu(0).
    """
    order = _as_order(nu)
    at_zero = np.asarray(omega, dtype=float) == 0.0
    moments = at_zero.any()

    def integrand(t, w):
        # flat arrays: Bessel evaluation is slower on 2-d ones
        y = _call_integrand(g, t.ravel())
        if moments:  # a kernel of 1 on the panels of omega = 0
            zero = np.broadcast_to(w == 0.0, t.shape).ravel()
            if not zero.all():
                y = np.where(zero, y, y * bessel_j_tilde(order, (w * t).ravel()))
            return y.reshape(t.shape)
        return (y * bessel_j_tilde(order, (w * t).ravel())).reshape(t.shape)

    results = split_halfline_at_zeros(integrand, order, omega, spec)
    for res, zero in zip(results if at_zero.ndim else [results],
                         at_zero.ravel().tolist()):
        if zero:
            res.value *= jtilde_at_zero(order)
            res.error_estimate *= jtilde_at_zero(order)
    return results


def integrate_halfline_decaying(f, spec=None):
    """Integral over [0, inf) of a non-oscillatory decaying integrand: the
    omega = 0 line of the half-line engine, whose kernel Jt_0(0) is 1.

    The windows [0, 1], [1, 3], [3, 7], ... are added until three
    consecutive ones are negligible against the running total, each no
    larger than the one before, so that a profile living away from 0 is
    reached before the sum stops.  A window counts only once the total is
    nonzero: a profile that lives past t ~ 27 reads exactly 0 on the first
    windows.  An integrand that reads 0 up to t = 1e8 ends there, converged
    if its estimate meets the tolerance.  NaN from the integrand raises
    PoisonedEvaluationError, or, after three windows below abs_tol, ends
    the sum there with a warning.
    """
    return integrate_bessel_halfline(f, 0, 0.0, spec)
