"""Finite and half-line quadrature: examples, honesty battery, stability."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from radialift.bessel import Order
from radialift.errors import UnsupportedOrderError
from radialift.quadrature import (QuadratureResult, QuadratureSpec,
                                  integrate_finite,
                                  integrate_halfline_decaying,
                                  split_halfline_at_zeros)
from radialift.quadrature import _WG, _WGK, _kronrod_panels

SQ2PI = math.sqrt(2.0 / math.pi)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=1e-16)
    with pytest.raises(ValueError):
        QuadratureSpec(max_panels=0)
    with pytest.raises(ValueError):
        integrate_finite(np.sin, 1.0, 1.0)


def test_finite_polynomial():
    res = integrate_finite(lambda s: s, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(0.5, abs=1e-13)
    assert res.evaluations == 15


def test_finite_sine():
    res = integrate_finite(np.sin, 0.0, math.pi)
    assert res.converged
    assert abs(res.value - 2.0) < 1e-12


def test_finite_endpoint_singularity():
    res = integrate_finite(lambda s: s ** -0.5, 0.0, 1.0)
    assert res.converged
    assert abs(res.value - 2.0) < 1e-8


def test_infinite_results_are_not_converged():
    # t^-1.5 and t^-1 are not integrable at 0: the panels reach machine
    # precision there and the value and estimate overflow to inf
    with np.errstate(all="ignore"):
        for power, evals in ((-1.5, 20265), (-1.0, 30525)):
            res = integrate_finite(lambda t: t ** power, 0.0, 1.0)
            assert res.value == math.inf and res.error_estimate == math.inf
            assert res.evaluations == evals
            assert not res.converged
    # an infinite head window: the head's stop rule (omega = 0) and the
    # negligible-terms exit (omega = 1e-3 and 1) see an inf total; the
    # engine keeps numpy's warnings inside
    def blowup(t):
        return np.where(t < 1.0, np.inf, np.exp(-t))
    results = [integrate_halfline_decaying(blowup)] + \
        split_halfline_at_zeros(blowup, 0.5, [0.0, 1e-3, 1.0])
    for res in results:
        assert res.value == math.inf
        assert not res.converged


def test_nan_poisoning():
    # NaN is a value: the first panel's Kronrod sum and estimate are NaN,
    # and a NaN estimate stops refinement at once
    def bad(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0.5, np.nan, s)
    res = integrate_finite(bad, 0.0, 1.0)
    assert math.isnan(res.value) and math.isnan(res.error_estimate)
    assert not res.converged and res.evaluations == 15


def test_panel_budget_reports_nonconvergence():
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_panels=4)
    res = integrate_finite(lambda s: np.abs(np.sin(40 * s)) ** 0.3, 0.0, 3.0, spec)
    assert not res.converged
    assert res.error_estimate > 0


def test_finite_arrays_match_one_interval_at_a_time():
    # s ** -0.5 refines near 0; the other intervals pass on their first panel
    a = np.array([0.0, 1.0, 0.0, 2.0])
    b = np.array([1.0, 2.0, 0.5, 7.0])
    batch = integrate_finite(lambda s: s ** -0.5, a, b)
    assert isinstance(batch, list) and len(batch) == a.size
    for lo, hi, res in zip(a, b, batch):
        single = integrate_finite(lambda s: s ** -0.5, lo, hi)
        assert res.evaluations == single.evaluations
        assert res.converged == single.converged
        assert abs(res.value - single.value) <= 1e-15 * abs(single.value)
        assert abs(res.value - 2.0 * (math.sqrt(hi) - math.sqrt(lo))) < 1e-9


def test_finite_arrays_keys_and_nan():
    def f(s, k):
        # flat nodes, a multiple of 15, and one key per node
        assert s.ndim == 1 and s.size % 15 == 0 and k.shape == s.shape
        return np.where(k > 1.5, np.nan, k * s)

    res = integrate_finite(f, np.zeros(3), np.ones(3), keys=[1.0, 2.0, 0.5])
    assert math.isnan(res[1].value) and math.isnan(res[1].error_estimate)
    assert not res[1].converged and res[1].evaluations == 15
    assert abs(res[0].value - 0.5) < 1e-15 and abs(res[2].value - 0.25) < 1e-15
    for a, b in (([0.0, 1.0], [1.0, 1.0]), ([0.0], [1.0, 2.0]),
                 ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError):
            integrate_finite(np.sin, np.array(a), np.array(b))


def test_finite_arrays_nan_in_refinement_is_a_result():
    # s^-0.5 refines towards 0 and meets the NaN below 1e-3 only in its
    # halves: that interval still returns a result, with its panels counted,
    # and the others are as their lone runs give them
    def f(s):
        return np.where(s < 1e-3, np.nan, s ** -0.5)
    a, b = np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 0.5])
    with np.errstate(all="ignore"):
        batch = integrate_finite(f, a, b)
        lone = [integrate_finite(f, lo, hi) for lo, hi in zip(a, b)]
    assert all(isinstance(res, QuadratureResult) for res in batch)
    for res, single in zip(batch, lone):
        assert res.evaluations == single.evaluations
        assert res.converged == single.converged
    for res in (batch[0], batch[2]):
        assert math.isnan(res.value) and math.isnan(res.error_estimate)
        assert not res.converged and res.evaluations > 15
    assert batch[1].converged and batch[1].value == lone[1].value


def test_finite_estimate_survives_cancellation():
    # the integrand of even_to_squared("sech(20*s)", 3, 9.0), (1 - u^2)^2
    # times the 6th derivative of sech(20 s) at s = 3u, whose integral is
    # about -4.4e-23: the panels cancel from about 1e8, and a running sum of
    # their estimates fell below zero and passed any tolerance
    def f(u):
        # sech^(6) = sech - 182 sech^3 + 840 sech^5 - 720 sech^7
        s = 1.0 / np.cosh(60.0 * u)
        return (1.0 - u ** 2) ** 2 * 20.0 ** 6 * (
            s - 182.0 * s ** 3 + 840.0 * s ** 5 - 720.0 * s ** 7)
    res = integrate_finite(f, 0.0, 1.0)
    assert res.error_estimate > 0 and not res.converged
    assert res.evaluations == 15 * (2 * QuadratureSpec().max_panels - 1)


@settings(max_examples=60, deadline=None)
@given(amp=st.floats(0.0, 8.0), freq=st.floats(1.0, 80.0),
       periods=st.lists(st.integers(1, 10), min_size=1, max_size=3),
       decay=st.sampled_from((0.0, 0.1, 1.0)),
       rel_tol=st.sampled_from((1e-6, 1e-10, 1e-14)),
       max_panels=st.integers(1, 300))
def test_finite_estimate_is_at_least_its_panels_sum(amp, freq, periods, decay,
                                                    rel_tol, max_panels):
    # whole periods of a cosine integrate to about 0, so the panels cancel.
    # The final panels of every interval are rebuilt from the centres of
    # the panels f sees: the first call holds one panel per interval, each
    # later call the two halves of a bisected panel in adjacent rows, and
    # the panel bisected is the one of that interval whose centre lies
    # between theirs
    calls = []

    def f(s, k):
        calls.append((s[7::15].tolist(), k[::15].tolist()))
        return 10.0 ** amp * np.cos(freq * s) * np.exp(-decay * s)

    widths = [2.0 * math.pi * p / freq for p in periods]
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-15,
                          max_panels=max_panels)
    keys = np.arange(len(widths))
    results = integrate_finite(f, np.zeros(len(widths)), np.array(widths),
                               spec, keys=keys)
    leaves = [{0.5 * w: (0.0, w)} for w in widths]
    for centres, owners in calls[1:]:
        for j in range(0, len(centres), 2):
            panels = leaves[owners[j]]
            parent = [c for c in panels if centres[j] < c < centres[j + 1]]
            assert len(parent) == 1
            a, b = panels.pop(parent[0])
            panels[centres[j]] = (a, parent[0])
            panels[centres[j + 1]] = (parent[0], b)
    for i, (res, panels) in enumerate(zip(results, leaves)):
        lo, hi = (np.array(x) for x in zip(*panels.values()))
        _, errors = _kronrod_panels(f, lo, hi, np.full(lo.size, i))
        assert res.error_estimate >= 0
        assert res.error_estimate >= math.fsum(errors) * (1 - 1e-14)


def test_finite_keys_need_one_per_interval():
    # one key for three intervals was broadcast to all of them, and raised
    # IndexError once an interval refined
    for keys in ([2.0], [1.0, 2.0], [[1.0, 2.0, 3.0]], 2.0):
        with pytest.raises(ValueError):
            integrate_finite(lambda s, k: k * s, np.zeros(3), np.ones(3),
                             keys=keys)


def test_finite_keys_with_numbers_a_and_b():
    # the one interval takes one key; it was dropped, so f raised TypeError
    # or integrated with its default key
    res = integrate_finite(lambda s, k: k * s, 0.0, 1.0, keys=[2.0])
    assert abs(res.value - 1.0) < 1e-15
    res = integrate_finite(lambda s, k=2.5: k * s, 0.0, 1.0, keys=[2.0])
    assert abs(res.value - 1.0) < 1e-15
    for keys in ([1.0, 2.0], [], [[2.0]], 2.0):
        with pytest.raises(ValueError):
            integrate_finite(lambda s, k: k * s, 0.0, 1.0, keys=keys)


def test_halfline_laplace_cosine():
    # int_0^inf e^-t sqrt(2/pi) cos(t) dt = sqrt(2/pi) / 2
    res = split_halfline_at_zeros(lambda t: np.exp(-t), Order(-1), 1.0)
    assert res.converged
    assert abs(res.value - SQ2PI / 2) < 1e-10


def test_halfline_brute_force_oracle():
    # g(t) = t e^{-t^2}, nu = 0, omega = 1, against a 1e6-point trapezoid
    # built on scipy's J_0 (independent of the package's Bessel code)
    ts = np.linspace(0.0, 30.0, 1_000_001)
    oracle = trapezoid(ts * np.exp(-ts ** 2) * sp.j0(ts), ts)
    res = split_halfline_at_zeros(lambda t: t * np.exp(-t * t), Order(0), 1.0)
    assert res.converged
    assert abs(res.value - oracle) < 1e-9


def test_halfline_result_stable_under_more_oscillations():
    spec = QuadratureSpec()
    g = lambda t: 1.0 / (1.0 + t * t)
    base = split_halfline_at_zeros(g, Order(1), 2.0, spec)
    assert base.converged
    doubled = split_halfline_at_zeros(
        g, Order(1), 2.0,
        QuadratureSpec(max_oscillations=2 * spec.max_oscillations))
    assert abs(base.value - doubled.value) <= 2 * spec.rel_tol * abs(base.value) + 1e-14


def test_halfline_overflow_truncates_dead_tail():
    # integrand fails after three consecutive negligible contributions:
    # the tail is truncated with a warning instead of aborting
    zeros = np.array(__import__("radialift.bessel", fromlist=["bessel_zeros"])
                     .bessel_zeros(Order(0), 8))
    cliff = zeros[3] + 0.1  # inside the fourth inter-zero segment

    def g(t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < 1.0, np.exp(-t), 1e-300)
        return np.where(t > cliff, np.nan, out)

    with pytest.warns(RuntimeWarning):
        res = split_halfline_at_zeros(g, Order(0), 1.0)
    assert res.converged


def test_halfline_early_failure_ends_the_line_unconverged():
    # NaN past t = 2, in the head's second window [1, z_1]: the line ends
    # with the sum of its first window, unconverged, and an infinite estimate
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 2.0, np.nan, np.ones_like(t))
    res = split_halfline_at_zeros(g, Order(0), 1.0)
    assert not res.converged and res.error_estimate == math.inf
    assert res.value == integrate_finite(sp.j0, 0.0, 1.0).value


def test_halfline_nan_line_counts_its_last_piece():
    # the head windows [0, 1] and [1, z_1] run in one round; the second
    # meets the NaN past t = 2, and its 15 evaluations count too
    res = split_halfline_at_zeros(
        lambda t: np.where(t > 2, np.nan, 1.0 + 0 * t), Order(0), 1.0)
    assert not res.converged and res.evaluations == 30


def test_halfline_divergence_flagged():
    res = split_halfline_at_zeros(lambda t: np.asarray(t, dtype=float) ** 2,
                                  Order(-1), 1.0,
                                  QuadratureSpec(max_oscillations=120))
    assert not res.converged


def test_halfline_omega_array_matches_one_omega_at_a_time():
    g = lambda t: 1.0 / (1.0 + t * t) ** 2
    # omega = 0 is the moment, a head that never ends
    omegas = np.array([0.05, 0.3, 2.0, 0.0, 2.0, 7.5])
    batch = split_halfline_at_zeros(g, Order(1), omegas)
    assert isinstance(batch, list) and len(batch) == omegas.size
    for omega, res in zip(omegas, batch):
        single = split_halfline_at_zeros(g, Order(1), float(omega))
        assert isinstance(single, QuadratureResult)
        assert res.converged == single.converged
        assert res.evaluations == single.evaluations
        assert abs(res.value - single.value) <= 1e-14 * abs(single.value)


def test_halfline_rounds_share_integrand_calls():
    calls = []

    def g(t):
        calls.append(t.shape)
        return np.exp(-t)

    omegas = np.linspace(0.5, 5.0, 10)
    split_halfline_at_zeros(g, Order(-1), omegas)
    batched = len(calls)
    # g gets flat nodes, 15 per panel, and one call holds a panel per omega
    assert all(len(shape) == 1 and shape[0] % 15 == 0 for shape in calls)
    assert max(shape[0] for shape in calls) >= 15 * omegas.size
    calls.clear()
    for omega in omegas:
        split_halfline_at_zeros(g, Order(-1), float(omega))
    assert batched * 5 <= len(calls)


def test_halfline_keeps_numpy_warnings_inside():
    # cosh overflows in the head's far windows, and 1 / inf is 0 there:
    # int_0^inf sech(t) sqrt(2/pi) cos(w t) dt = sqrt(2/pi) (pi/2) sech(pi w/2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in (0.0, 1e-5):
            res = split_halfline_at_zeros(lambda t: 1.0 / np.cosh(t),
                                          Order(-1), w)
            exact = SQ2PI * math.pi / 2 / math.cosh(math.pi * w / 2)
            assert res.converged
            assert abs(res.value - exact) < 1e-12, w


def test_halfline_long_head_starts_from_windows():
    # the head [0, (pi/2) / omega] is 1.6e5 long; one panel over it would
    # miss e^-t entirely: int e^-t sqrt(2/pi) cos(omega t) = sqrt(2/pi)/(1+omega^2)
    for omega in (1e-5, 1e-3, 0.5):
        res = split_halfline_at_zeros(lambda t: np.exp(-t), Order(-1), omega)
        assert res.converged
        assert abs(res.value - SQ2PI / (1.0 + omega * omega)) < 1e-12, omega


def test_halfline_omega_validation():
    for bad in (-1.0, math.inf, math.nan, [1.0, -1.0], [[1.0]]):
        with pytest.raises(ValueError):
            split_halfline_at_zeros(lambda t: np.exp(-t), Order(0), bad)


def test_halfline_nan_in_one_omega_spares_the_batch():
    # omega = 50 converges before t = 2; the lines of 5 and 1 meet the NaN
    # while e^-t is large, and end unconverged with an infinite estimate
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 2.0, np.nan, np.exp(-t))
    omegas = np.array([5.0, 50.0, 1.0])
    batch = split_halfline_at_zeros(g, Order(0), omegas)
    for omega, res in zip(omegas, batch):
        assert res == split_halfline_at_zeros(g, Order(0), float(omega))
    fast, slow = batch[1], (batch[0], batch[2])
    assert fast.converged
    assert abs(fast.value - 1.0 / math.sqrt(1.0 + 50.0 ** 2)) < 1e-12
    for res in slow:
        assert not res.converged and res.error_estimate == math.inf
        assert math.isfinite(res.value)


def test_halfline_head_nan_after_negligible_windows_truncates():
    # a head [0, (pi/2) / omega] of 1.6e5, stepped to its end, meets the NaN
    # past t = 1000 long after e^-t has died away
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 1000.0, np.nan, np.exp(-t))

    omegas = np.array([1e-5, 0.5])
    with pytest.warns(RuntimeWarning, match="far tail"):
        batch = split_halfline_at_zeros(g, Order(-1), omegas)
    for omega, res in zip(omegas, batch):
        assert res.converged
        assert abs(res.value - SQ2PI / (1.0 + omega * omega)) < 1e-12, omega
    # NaN in the first segment after the head: its negligible windows count
    at_head_end = lambda t: np.where(np.asarray(t) > 1571.0, np.nan, np.exp(-t))
    with pytest.warns(RuntimeWarning, match="far tail"):
        res = split_halfline_at_zeros(at_head_end, Order(-1), 1e-3)
    assert res.converged and abs(res.value - SQ2PI / (1.0 + 1e-6)) < 1e-12
    # a profile that is 0 never stops a head, inside it or at its end
    for omega, cut in ((1e-5, 1000.0), (1e-3, 1571.0)):
        dead = lambda t, cut=cut: np.where(np.asarray(t) > cut, np.nan, 0.0 * t)
        with pytest.warns(RuntimeWarning, match="far tail"):
            res = split_halfline_at_zeros(dead, Order(-1), omega)
        assert res.converged and res.value == 0.0, omega
    # NaN before three negligible windows ends the line unconverged
    early = lambda t: np.where(np.asarray(t) > 2.0, np.nan, np.exp(-t))
    res = split_halfline_at_zeros(early, Order(-1), 1e-5)
    assert not res.converged and res.error_estimate == math.inf


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.1, 5.0), cut=st.floats(0.5, 1e4),
       omegas=st.lists(st.just(0.0) | st.floats(1e-3, 20.0),
                       min_size=1, max_size=4),
       twice_nu=st.sampled_from((-1, 0, 1, 2, 5)))
def test_halfline_lines_end_alone(a, cut, omegas, twice_nu):
    # e^(-a t) up to the cut and NaN beyond: whether a line truncates its
    # dead tail, ends unconverged or converges first, the call returns
    # every line's result, each as its lone run gives it
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > cut, np.nan, np.exp(-a * t))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = split_halfline_at_zeros(g, Order(twice_nu), np.array(omegas))
        lone = [split_halfline_at_zeros(g, Order(twice_nu), w) for w in omegas]
    assert len(batch) == len(omegas)
    for res, single in zip(batch, lone):
        assert res == single
        assert math.isfinite(res.error_estimate) or not res.converged


def test_oscillating_moment_ends_unconverged():
    # int_0^inf sin(t)/t = pi/2 converges only conditionally.  Past t = 1e8
    # a head window's 200 panels cannot resolve the oscillation, and the
    # first such window ends the endless head, which would otherwise step
    # on to overflow
    res = integrate_halfline_decaying(lambda t: np.sinc(t / np.pi))
    assert not res.converged
    assert res.error_estimate >= abs(res.value - math.pi / 2)
    assert res.evaluations < 150_000


def test_kronrod_panels_match_a_per_panel_loop():
    # the per-panel loop that the array sums replaced, as the reference
    lo = np.array([0.0, 1.0, 3.0, 2.5])
    hi = np.array([1.0, 3.0, 7.0, 2.5 + 1e-9])
    seen = []

    def f(t):
        seen.append(t)
        return np.exp((1j - 0.3) * t) / (1.0 + t)

    kron, err = _kronrod_panels(f, lo, hi, None)
    y = f(seen[0]).reshape(lo.size, 15)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        h = 0.5 * (b - a)
        k = h * complex(np.add.reduce(_WGK * y[i]))
        g = h * complex(np.add.reduce(_WG * y[i, 1::2]))
        assert kron[i] == k and err[i] == abs(k - g)
    # both ends past ~9e307: the midpoint, and so every node, stays finite
    seen.clear()
    _kronrod_panels(lambda t: seen.append(t) or np.zeros_like(t),
                    np.array([9e307]), np.array([1.7e308]), None)
    assert np.isfinite(seen[0]).all()


def test_halfline_order_is_not_rounded():
    with pytest.raises(UnsupportedOrderError):
        split_halfline_at_zeros(lambda t: np.exp(-t), 0.3, 1.0)


def test_decaying_halfline():
    # e^-(t-20)^2 is below abs_tol on [0, 1], [1, 3] and [3, 7], but growing
    for f, exact in ((lambda t: np.exp(-t), 1.0),
                     (lambda t: np.exp(-(t - 20.0) ** 2), math.sqrt(math.pi))):
        res = integrate_halfline_decaying(f)
        assert res.converged
        assert abs(res.value - exact) < 1e-12


# ---------------------------------------------------------------------------
# honesty battery: 20 integrals with known closed forms

_FINITE_CASES = [
    (lambda s: s, 0.0, 1.0, 0.5),
    (np.sin, 0.0, math.pi, 2.0),
    (lambda s: s ** -0.5, 0.0, 1.0, 2.0),
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (lambda s: 1.0 / (1.0 + s * s), 0.0, 1.0, math.pi / 4),
    (np.cosh, 0.0, 2.0, math.sinh(2.0)),
    (np.log, 1e-308, 1.0, -1.0),
    (lambda s: np.exp(-s * s), 0.0, 10.0, math.sqrt(math.pi) / 2 * math.erf(10.0)),
    (lambda s: np.cos(10.0 * s), 0.0, 2.0 * math.pi, math.sin(20.0 * math.pi) / 10.0),
    (lambda s: 3 * s ** 2 - 2 * s + 1, 0.0, 1.0, 1.0),
    (lambda s: s * np.sin(s), 0.0, math.pi, math.pi),
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
]

_HALF_CASES = [
    # (g, twice_nu, omega, exact)
    (lambda t: np.exp(-t), -1, 1.0, SQ2PI / 2),                      # Laplace cos
    (lambda t: np.exp(-t), 1, 1.0, SQ2PI * math.pi / 4),             # Laplace sinc
    (lambda t: t * np.exp(-t * t), 0, 1.0, math.exp(-0.25) / 2),     # Gaussian x J0
    (lambda t: np.exp(-t), 0, 1.0, 1.0 / math.sqrt(2.0)),            # Laplace J0
    (lambda t: np.full_like(np.asarray(t, float), math.sqrt(math.pi / 2)),
     1, 1.0, math.pi / 2),                                           # Dirichlet
    (lambda t: np.asarray(t, dtype=float), 2, 1.0, 1.0),             # int J_1 = 1
    (lambda t: (2 * math.pi) ** 1.5 * t ** 2 * np.exp(-math.pi * t * t),
     1, 2.0 * math.pi, math.exp(-math.pi)),                          # Gaussian, n=3
    (lambda t: t ** 2 * np.exp(-t), 1, 2.0, SQ2PI / 2 * 4.0 / 25.0),  # damped sine
]


def test_error_estimates_are_honest():
    hits = 0
    total = 0
    for f, a, b, exact in _FINITE_CASES:
        res = integrate_finite(f, a, b)
        true_err = abs(res.value - exact)
        est = max(res.error_estimate, 1e-16 * max(1.0, abs(exact)))
        total += 1
        hits += est >= true_err
        assert est >= true_err / 10.0, (exact, true_err, est)
    for g, twice_nu, omega, exact in _HALF_CASES:
        res = split_halfline_at_zeros(g, Order(twice_nu), omega)
        assert res.converged
        true_err = abs(res.value - exact)
        est = max(res.error_estimate, 1e-16 * max(1.0, abs(exact)))
        total += 1
        hits += est >= true_err
        assert est >= true_err / 10.0, (exact, true_err, est)
    assert total == 20
    assert hits / total >= 0.95, f"only {hits}/{total} estimates covered the error"


def test_battery_values_are_accurate():
    for f, a, b, exact in _FINITE_CASES:
        res = integrate_finite(f, a, b)
        assert abs(res.value - exact) < 1e-7, exact
    for g, twice_nu, omega, exact in _HALF_CASES:
        res = split_halfline_at_zeros(g, Order(twice_nu), omega)
        assert abs(res.value - exact) < 1e-8, exact
