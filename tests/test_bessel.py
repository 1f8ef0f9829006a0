"""Bessel evaluation accuracy, the derivative identity, decay, and zeros."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from radialift.bessel import (Order, bessel_j, bessel_j_tilde, bessel_zeros,
                              jtilde_at_zero)
from radialift.errors import BesselDomainError, UnsupportedOrderError

mpmath.mp.dps = 30


def test_order_validation():
    assert Order(-1).nu == -0.5
    assert Order(3).is_half_integer
    assert Order.for_dimension(1).twice_nu == -1
    assert Order.for_dimension(4).twice_nu == 2
    with pytest.raises(UnsupportedOrderError):
        Order(-2)
    with pytest.raises(UnsupportedOrderError):
        bessel_j(-1.0, 1.0)


def test_half_integer_closed_forms():
    # J_{-1/2}(pi) = sqrt(2/pi) cos(pi)/sqrt(pi) = -sqrt(2)/pi
    assert bessel_j(Order(-1), math.pi) == pytest.approx(-math.sqrt(2) / math.pi,
                                                         abs=1e-14)
    # J_{1/2}(pi) = 0 since sin(pi) = 0
    assert abs(bessel_j(Order(1), math.pi)) < 1e-12
    xs = np.linspace(0.01, 40.0, 300)
    assert np.max(np.abs(bessel_j_tilde(Order(-1), xs)
                         - math.sqrt(2 / math.pi) * np.cos(xs))) < 1e-13
    jt = bessel_j_tilde(Order(1), xs)
    assert np.max(np.abs(jt - math.sqrt(2 / math.pi) * np.sin(xs) / xs)) < 1e-13
    assert bessel_j_tilde(Order(1), 0.0) == pytest.approx(math.sqrt(2 / math.pi),
                                                          abs=1e-15)


def test_jtilde_at_zero_values():
    assert bessel_j_tilde(Order(0), 0.0) == 1.0
    for twice_nu in (-1, 0, 1, 2, 3, 4, 6):
        order = Order(twice_nu)
        limit = jtilde_at_zero(order)
        assert bessel_j_tilde(order, 1e-8) == pytest.approx(limit, rel=1e-10)


def test_domain_errors():
    with pytest.raises(BesselDomainError):
        bessel_j(Order(0), 0.0)
    with pytest.raises(BesselDomainError):
        bessel_j(Order(0), -1.0)
    with pytest.raises(BesselDomainError):
        bessel_j_tilde(Order(0), -0.5)


def test_accuracy_against_scipy_grid():
    rng = np.random.default_rng(42)
    xs = np.concatenate([rng.uniform(1e-3, 1.0, 50), rng.uniform(1.0, 20.0, 80),
                         rng.uniform(20.0, 200.0, 50), rng.uniform(200.0, 1e4, 40)])
    for twice_nu in range(-1, 121):
        order = Order(twice_nu)
        err = np.max(np.abs(bessel_j(order, xs) - sp.jv(order.nu, xs)))
        assert err < 1e-12, (twice_nu, err)


def _below_order_points(order):
    """x < nu inside the recurrence regime, where J_nu is far below 1e-12
    at high orders, plus the zeros there of the two anchors, where the
    Miller normalization switches anchor."""
    nu = order.nu
    if order.is_half_integer:
        lo = 1.0
        anchor_zeros = np.concatenate([math.pi * (np.arange(1, 40) - 0.5),
                                       math.pi * np.arange(1, 40)])
    else:
        lo = 14.01
        anchor_zeros = np.concatenate([sp.jn_zeros(0, 20), sp.jn_zeros(1, 20)])
    if nu <= lo:
        return np.array([])
    grid = np.linspace(lo, nu, 6, endpoint=False)
    return np.concatenate([grid, anchor_zeros[(anchor_zeros > lo)
                                              & (anchor_zeros < nu)]])


def test_relative_accuracy_below_the_order():
    # J_nu(x) << 1e-12 for x well below nu, so the absolute check above
    # says nothing there
    for twice_nu in range(-1, 121):
        order = Order(twice_nu)
        xs = _below_order_points(order)
        if xs.size == 0:
            continue
        got = bessel_j_tilde(order, xs)
        for x, value in zip(xs.tolist(), got.tolist()):
            ref = float(mpmath.besselj(order.nu, x) * mpmath.mpf(x) ** -order.nu)
            assert abs(value - ref) <= 1e-12 * abs(ref), (twice_nu, x)


def test_accuracy_against_mpmath_spots():
    # independent high-precision reference, including the switch region and 1e4
    rng = np.random.default_rng(7)
    spots = np.concatenate([np.linspace(13.0, 15.0, 9), [1.0, 5.0, 100.0, 1e4],
                            rng.uniform(0.1, 50.0, 12)])
    for twice_nu in (-1, 0, 1, 2, 4, 5):
        order = Order(twice_nu)
        for x in spots:
            ref = float(mpmath.besselj(order.nu, mpmath.mpf(x)))
            assert abs(bessel_j(order, float(x)) - ref) < 1e-12, (twice_nu, x)


def test_derivative_identity():
    # d/dx Jt_nu(x) = -x Jt_{nu+1}(x), including nu = -1/2
    rng = np.random.default_rng(99)
    for twice_nu in (-1, 0, 1, 2, 3, 4):
        order = Order(twice_nu)
        order_up = Order(twice_nu + 2)
        envelope = lambda x: math.sqrt(2 / math.pi) * x ** (-(order_up.nu + 0.5))
        count = 0
        while count < 50:
            x = float(rng.uniform(0.5, 50.0))
            rhs = -x * bessel_j_tilde(order_up, x)
            if abs(rhs) < 0.2 * x * envelope(x):
                continue  # too close to a zero crossing for a relative check
            h = 1e-5 * max(1.0, x)
            fd = (bessel_j_tilde(order, x + h)
                  - bessel_j_tilde(order, x - h)) / (2 * h)
            assert abs(fd - rhs) / abs(rhs) < 1e-6, (twice_nu, x)
            count += 1


def test_decay_bound():
    # |Jt_{n/2}(x)| <= c (1+x)^(-n/2-1/2) with c <= 10, for n = 1..6
    xs = np.linspace(0.0, 1e3, 20001)
    for n in range(1, 7):
        jt = bessel_j_tilde(Order(n), xs)
        c = np.max(np.abs(jt) * (1.0 + xs) ** (n / 2 + 0.5))
        assert c <= 10.0, (n, c)


def test_three_term_recurrence():
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.5, 50.0, 60)
    for twice_nu in (1, 2, 3, 4, 5, 6):
        nu = twice_nu / 2
        j_prev = bessel_j(Order(twice_nu - 2), xs)
        j_mid = bessel_j(Order(twice_nu), xs)
        j_next = bessel_j(Order(twice_nu + 2), xs)
        lhs = j_next
        rhs = (2 * nu / xs) * j_mid - j_prev
        mask = np.abs(lhs) > 1e-8
        rel = np.abs(lhs[mask] - rhs[mask]) / np.abs(lhs[mask])
        assert np.max(rel) < 1e-10, twice_nu


def test_zeros_of_half_integer_orders():
    zs = bessel_zeros(Order(1), 6)
    assert np.allclose(zs, [math.pi * k for k in range(1, 7)], atol=1e-12)
    zs = bessel_zeros(Order(-1), 6)
    assert np.allclose(zs, [math.pi * (k - 0.5) for k in range(1, 7)], atol=1e-12)


def test_first_zero_of_j0():
    z = bessel_zeros(Order(0), 1)[0]
    assert abs(z - 2.404825557695773) < 1e-10


def _reference_zeros(order, count):
    if not order.is_half_integer:
        return sp.jn_zeros(int(order.nu), count)
    if order.twice_nu == -1:  # J_(-1/2)(x) is a multiple of cos(x)
        return math.pi * (np.arange(1, count + 1) - 0.5)
    return np.array([float(mpmath.besseljzero(order.nu, k))
                     for k in range(1, count + 1)])


def test_zero_residuals_and_ordering():
    # 63 and 64 (n = 65, 66) and 118..120 (n = 120..122, up to the ceiling)
    # cover the orders where the first zero lies far out and the series
    # regime meets the recurrence
    for twice_nu in (-1, 0, 1, 2, 3, 5, 7, 9, 63, 64, 118, 119, 120):
        order = Order(twice_nu)
        zs = bessel_zeros(order, 25)
        assert all(b > a for a, b in zip(zs, zs[1:]))
        assert all(z > 0 for z in zs)
        assert max(abs(bessel_j(order, z)) for z in zs) <= 1e-12
        ref = _reference_zeros(order, 25)
        assert np.max(np.abs(np.array(zs) - ref) / ref) < 1e-12, twice_nu


def test_zeros_count_validation():
    with pytest.raises(ValueError):
        bessel_zeros(Order(0), 0)


def test_series_asymptotic_overlap():
    # both branches agree through the switch region
    for twice_nu in (0, 2, 4):
        order = Order(twice_nu)
        for x in np.linspace(13.5, 14.5, 11):
            ref = float(mpmath.besselj(order.nu, mpmath.mpf(float(x))))
            assert abs(bessel_j(order, float(x)) - ref) < 1e-12
