"""Finite and half-line quadrature: examples, honesty battery, stability."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from scipy.integrate import trapezoid

from radialift.bessel import Order
from radialift.errors import PoisonedEvaluationError, UnsupportedOrderError
from radialift.quadrature import (QuadratureResult, QuadratureSpec,
                                  integrate_bessel_halfline, integrate_finite,
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


def test_nan_poisoning():
    def bad(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0.5, np.nan, s)
    with pytest.raises(PoisonedEvaluationError):
        integrate_finite(bad, 0.0, 1.0)


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
        assert s.shape[1] == 15 and k.shape == (s.shape[0], 1)
        return np.where(k > 1.5, np.nan, k * s)

    res = integrate_finite(f, np.zeros(3), np.ones(3), keys=[1.0, 2.0, 0.5])
    assert res[1] is None
    assert abs(res[0].value - 0.5) < 1e-15 and abs(res[2].value - 0.25) < 1e-15
    for a, b in (([0.0, 1.0], [1.0, 1.0]), ([0.0], [1.0, 2.0]),
                 ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError):
            integrate_finite(np.sin, np.array(a), np.array(b))


def test_halfline_laplace_cosine():
    # int_0^inf e^-t sqrt(2/pi) cos(t) dt = sqrt(2/pi) / 2
    res = integrate_bessel_halfline(lambda t: np.exp(-t), Order(-1), 1.0)
    assert res.converged
    assert abs(res.value - SQ2PI / 2) < 1e-10


def test_halfline_brute_force_oracle():
    # g(t) = t e^{-t^2}, nu = 0, omega = 1, against a 1e6-point trapezoid
    # built on scipy's J_0 (independent of the package's Bessel code)
    ts = np.linspace(0.0, 30.0, 1_000_001)
    oracle = trapezoid(ts * np.exp(-ts ** 2) * sp.j0(ts), ts)
    res = integrate_bessel_halfline(lambda t: t * np.exp(-t * t), Order(0), 1.0)
    assert res.converged
    assert abs(res.value - oracle) < 1e-9


def test_halfline_result_stable_under_more_oscillations():
    spec = QuadratureSpec()
    g = lambda t: 1.0 / (1.0 + t * t)
    base = integrate_bessel_halfline(g, Order(1), 2.0, spec)
    assert base.converged
    doubled = integrate_bessel_halfline(
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
        res = integrate_bessel_halfline(g, Order(0), 1.0)
    assert res.converged


def test_halfline_early_failure_poisons():
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 2.0, np.nan, np.ones_like(t))
    with pytest.raises(PoisonedEvaluationError):
        integrate_bessel_halfline(g, Order(0), 1.0)


def test_halfline_divergence_flagged():
    res = integrate_bessel_halfline(lambda t: np.asarray(t, dtype=float) ** 2,
                                    Order(-1), 1.0,
                                    QuadratureSpec(max_oscillations=120))
    assert not res.converged


def test_halfline_omega_array_matches_one_omega_at_a_time():
    g = lambda t: 1.0 / (1.0 + t * t) ** 2
    # omega = 0 is the moment, a head that never ends
    omegas = np.array([0.05, 0.3, 2.0, 0.0, 2.0, 7.5])
    batch = integrate_bessel_halfline(g, Order(1), omegas)
    assert isinstance(batch, list) and len(batch) == omegas.size
    for omega, res in zip(omegas, batch):
        single = integrate_bessel_halfline(g, Order(1), float(omega))
        assert isinstance(single, QuadratureResult)
        assert res.converged == single.converged
        assert res.evaluations == single.evaluations
        assert abs(res.value - single.value) <= 1e-14 * abs(single.value)


def test_halfline_rounds_share_integrand_calls():
    calls = []

    def integrand(t, w):
        calls.append(t.shape)
        return np.exp(-t) * np.cos(w * t)

    omegas = np.linspace(0.5, 5.0, 10)
    split_halfline_at_zeros(integrand, Order(-1), omegas)
    batched = len(calls)
    assert all(shape[1] == 15 for shape in calls)
    assert max(shape[0] for shape in calls) >= omegas.size
    calls.clear()
    for omega in omegas:
        split_halfline_at_zeros(integrand, Order(-1), float(omega))
    assert batched * 5 <= len(calls)


def test_halfline_long_head_starts_from_windows():
    # the head [0, (pi/2) / omega] is 1.6e5 long; one panel over it would
    # miss e^-t entirely: int e^-t sqrt(2/pi) cos(omega t) = sqrt(2/pi)/(1+omega^2)
    for omega in (1e-5, 1e-3, 0.5):
        res = integrate_bessel_halfline(lambda t: np.exp(-t), Order(-1), omega)
        assert res.converged
        assert abs(res.value - SQ2PI / (1.0 + omega * omega)) < 1e-12, omega


def test_halfline_omega_validation():
    for bad in (-1.0, math.inf, math.nan, [1.0, -1.0], [[1.0]]):
        with pytest.raises(ValueError):
            integrate_bessel_halfline(lambda t: np.exp(-t), Order(0), bad)


def test_halfline_nan_in_one_omega_poisons_the_batch():
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 2.0, np.nan, np.exp(-t))
    with pytest.raises(PoisonedEvaluationError):
        integrate_bessel_halfline(g, Order(0), np.array([5.0, 1.0]))


def test_halfline_head_nan_after_negligible_windows_truncates():
    # a head [0, (pi/2) / omega] of 1.6e5, stepped to its end, meets the NaN
    # past t = 1000 long after e^-t has died away
    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 1000.0, np.nan, np.exp(-t))

    omegas = np.array([1e-5, 0.5])
    with pytest.warns(RuntimeWarning, match="far tail"):
        batch = integrate_bessel_halfline(g, Order(-1), omegas)
    for omega, res in zip(omegas, batch):
        assert res.converged
        assert abs(res.value - SQ2PI / (1.0 + omega * omega)) < 1e-12, omega
    # NaN in the first segment after the head: its negligible windows count
    at_head_end = lambda t: np.where(np.asarray(t) > 1571.0, np.nan, np.exp(-t))
    with pytest.warns(RuntimeWarning, match="far tail"):
        res = integrate_bessel_halfline(at_head_end, Order(-1), 1e-3)
    assert res.converged and abs(res.value - SQ2PI / (1.0 + 1e-6)) < 1e-12
    # a profile that is 0 never stops a head, inside it or at its end
    for omega, cut in ((1e-5, 1000.0), (1e-3, 1571.0)):
        dead = lambda t, cut=cut: np.where(np.asarray(t) > cut, np.nan, 0.0 * t)
        with pytest.warns(RuntimeWarning, match="far tail"):
            res = integrate_bessel_halfline(dead, Order(-1), omega)
        assert res.converged and res.value == 0.0, omega
    # NaN before three negligible windows still poisons
    early = lambda t: np.where(np.asarray(t) > 2.0, np.nan, np.exp(-t))
    with pytest.raises(PoisonedEvaluationError):
        integrate_bessel_halfline(early, Order(-1), 1e-5)


def test_kronrod_panels_match_a_per_panel_loop():
    # the per-panel loop that the array sums replaced, as the reference
    lo = np.array([0.0, 1.0, 3.0, 2.5])
    hi = np.array([1.0, 3.0, 7.0, 2.5 + 1e-9])
    f = lambda t: np.exp((1j - 0.3) * t) / (1.0 + t)
    kron, err, _, y = _kronrod_panels(f, lo, hi, None)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        h = 0.5 * (b - a)
        k = h * complex(np.add.reduce(_WGK * y[i]))
        g = h * complex(np.add.reduce(_WG * y[i, 1::2]))
        assert kron[i] == k and err[i] == abs(k - g)
    # both ends past ~9e307: the midpoint, and so every node, stays finite
    _, _, nodes, _ = _kronrod_panels(np.zeros_like, np.array([9e307]),
                                     np.array([1.7e308]), None)
    assert np.isfinite(nodes).all()


def test_halfline_order_is_not_rounded():
    with pytest.raises(UnsupportedOrderError):
        integrate_bessel_halfline(lambda t: np.exp(-t), 0.3, 1.0)
    with pytest.raises(UnsupportedOrderError):
        split_halfline_at_zeros(lambda t, w: np.exp(-t), 0.3, 1.0)


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
        res = integrate_bessel_halfline(g, Order(twice_nu), omega)
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
        res = integrate_bessel_halfline(g, Order(twice_nu), omega)
        assert abs(res.value - exact) < 1e-8, exact
