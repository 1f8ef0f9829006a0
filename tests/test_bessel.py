"""Bessel evaluation accuracy, the derivative identity, decay, and zeros."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

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
    # Jt_(-1/2) and Jt_(1/2) are these closed forms on the whole half line,
    # with no series near 0 and no power x^(-nu) beyond 1
    xs = np.concatenate([np.linspace(0.0, 40.0, 4001), [5e-324, 1e-300, 1e300]])
    c = math.sqrt(2 / math.pi)
    assert np.array_equal(bessel_j_tilde(Order(-1), xs), c * np.cos(xs))
    sinc = np.ones_like(xs)
    sinc[xs != 0] = np.sin(xs[xs != 0]) / xs[xs != 0]
    assert np.array_equal(bessel_j_tilde(Order(1), xs), c * sinc)
    assert bessel_j_tilde(Order(1), 0.0) == c


def _reference_series(nu, x):
    """The half-integer series as the term-by-term loop it replaced:
    add a term at a time until the last is below 1e-22 of the sum."""
    xl = np.asarray(x, dtype=np.longdouble)
    x2 = xl * xl
    peak = np.longdouble(jtilde_at_zero(nu))
    term = np.full_like(xl, peak)
    total = term.copy()
    for m in range(1, 120):
        term = term * (-x2 / np.longdouble(4.0 * m * (m + nu)))
        total += term
        if (np.abs(term) <= 1e-22 * (peak + np.abs(total))).all():
            break
    return np.asarray(total, dtype=float)


def _series_seam(nu):
    """x_s, below which the half-integer kernel is its series."""
    return max(1.0, min(nu, 2.0 * math.sqrt(nu + 1.0)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
def test_one_pass_series_matches_the_loop(values, fractions):
    xs = np.array(values + [0.0, np.nextafter(1.0, 0.0)])
    # four roundings of the result, fixed from the dtype beforehand
    bound = 4 * np.finfo(float).eps
    # on [1, x_s): each side rounds once to double (eps/2 of Jt_nu(0) each),
    # and sums at most 40 extended precision terms whose absolute sum is at
    # most 7.6 Jt_nu(0), which adds below 40 * 7.6 * 2^-64 < 0.1 eps
    seam_bound = 2 * np.finfo(float).eps
    for twice_nu in range(3, 120, 2):
        order = Order(twice_nu)
        err = np.abs(bessel_j_tilde(order, xs) - _reference_series(order.nu, xs))
        assert err.max() <= bound * jtilde_at_zero(order), twice_nu
        seam = _series_seam(order.nu)
        upper = 1.0 + (seam - 1.0) * np.array(fractions + [0.0])
        upper = np.append(upper[upper < seam], np.nextafter(seam, 0.0))
        err = np.abs(bessel_j_tilde(order, upper)
                     - _reference_series(order.nu, upper))
        assert err.max() <= seam_bound * jtilde_at_zero(order), twice_nu


def test_fast_path_keeps_nan_and_checks_the_sign():
    # the engine detects a poisoned integrand by the NaN it leaves in place
    for twice_nu in (-1, 1, 3, 0):
        out = bessel_j_tilde(Order(twice_nu), np.array([math.nan, 1.0]))
        assert math.isnan(out[0]) and out[1] == bessel_j_tilde(Order(twice_nu), 1.0)
        with pytest.raises(BesselDomainError):
            bessel_j_tilde(Order(twice_nu), np.array([1.0, -1e-300]))


def test_shapes_follow_the_argument():
    for fn in (bessel_j_tilde, bessel_j):
        for twice_nu in (-1, 0, 1, 3):
            order = Order(twice_nu)
            scalar = fn(order, 2.0)
            assert type(scalar) is float
            zero_d = fn(order, np.array(2.0))
            assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
            assert float(zero_d) == scalar
            assert type(fn(order, np.float64(2.0))) is float
            grid = fn(order, np.full((2, 3), 2.0))
            assert grid.shape == (2, 3) and (grid == scalar).all()
            assert fn(order, [2.0]).tolist() == [scalar]


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


def test_whole_array_regimes_match_the_split():
    # an array that straddles x = 1, x = 14 and x = nu is split per regime;
    # each regime's part, passed alone, takes its whole-array path.  At
    # nu = -1/2 and 1/2 the closed form is the one regime on the whole line
    for twice_nu in range(-1, 121):
        order = Order(twice_nu)
        nu = order.nu
        xs = np.concatenate([np.linspace(0.0, 2.0, 9), np.linspace(13.0, 15.0, 9),
                             np.linspace(max(nu - 1.0, 0.0), nu + 1.0, 9),
                             [14.0, max(nu, 0.0), 40.0, 1e3]])
        if twice_nu in (-1, 1):
            switch = np.ones(xs.shape, dtype=bool)
        elif order.is_half_integer:
            switch = xs < 1.0
        else:
            switch = xs <= 14.0
        expected = np.empty_like(xs)
        for part in (switch, ~switch & (xs >= nu), ~switch & (xs < nu)):
            if part.any():
                expected[part] = bessel_j_tilde(order, xs[part])
        assert np.array_equal(bessel_j_tilde(order, xs), expected), twice_nu
        # J_nu splits the same way.  The climb gives it without the power
        # x^nu, so it meets Jt_nu x^nu to the rounding of the two powers and
        # the products, fixed beforehand at 8 eps
        positive = xs > 0
        j_whole = bessel_j(order, xs[positive])
        j_parts = np.empty_like(j_whole)
        for part in (switch, ~switch & (xs >= nu), ~switch & (xs < nu)):
            part = part[positive]
            if part.any():
                j_parts[part] = bessel_j(order, xs[positive][part])
        assert np.array_equal(j_whole, j_parts), twice_nu
        via_tilde = expected[positive] * xs[positive] ** nu
        assert np.all(np.abs(j_whole - via_tilde)
                      <= 8 * np.finfo(float).eps * np.abs(j_whole)), twice_nu


def test_empty_arrays_stay_empty():
    for twice_nu in range(-1, 121):
        for fn in (bessel_j_tilde, bessel_j):
            out = fn(Order(twice_nu), np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,), twice_nu


def test_half_integer_regime_seams_against_mpmath():
    # the series below x_s, the climb from cos x and sin x above it, and the
    # Miller band between x_s and nu from 2 nu = 17 on: points on both sides
    # of x = 1, x_s and nu, and 60 points in [10, 200].  The envelope is
    # |Jt_nu| below nu, where Jt_nu has no zero, and beyond nu at least the
    # amplitude sqrt(2/pi) x^-(nu+1/2) of the oscillation
    tail = np.linspace(10.0, 200.0, 60)
    for twice_nu in range(3, 120, 2):
        order = Order(twice_nu)
        nu = order.nu
        seams = np.array([1.0, _series_seam(nu), nu])
        near = np.outer(seams, [0.9, 1 - 1e-3, 1 - 1e-9, 1.0, 1 + 1e-9,
                                1 + 1e-3, 1.1]).ravel()
        xs = np.concatenate([near, tail])
        got = bessel_j_tilde(order, xs)
        for x, value in zip(xs.tolist(), got.tolist()):
            ref = float(mpmath.besselj(nu, x) * mpmath.mpf(x) ** -nu)
            envelope = abs(ref)
            if x >= nu:
                envelope = max(envelope, math.sqrt(2 / math.pi) * x ** -(nu + 0.5))
            err = abs(value - ref)
            assert err <= 2e-15 * jtilde_at_zero(order), (twice_nu, x)
            assert err <= 1e-14 * envelope, (twice_nu, x)


def test_large_arguments_stay_finite():
    # J_nu comes from the climb, never from Jt_nu x^nu, which underflows
    # times overflows; the amplitude sqrt(2/pi)/sqrt(x) never forms pi x
    xs = np.array([1e5, 2e5, 1e9, 1e16, 1e50, 1e154, 1e300, 1.7e308])
    amplitude = math.sqrt(2 / math.pi) / np.sqrt(xs)
    for twice_nu in range(-1, 121):
        order = Order(twice_nu)
        j = bessel_j(order, xs)
        assert np.isfinite(j).all() and np.isfinite(bessel_j_tilde(order, xs)).all()
        assert np.abs(j[:2] - sp.jv(order.nu, xs[:2])).max() <= 1e-12, twice_nu
        assert (np.abs(j[2:]) <= 1.01 * amplitude[2:]).all(), twice_nu
    assert bessel_j(Order(41), 1e16) == pytest.approx(
        float(mpmath.besselj(20.5, mpmath.mpf(1e16))), rel=1e-12)
    assert bessel_j(Order(3), 1e300) == pytest.approx(4.5909169523e-151, rel=1e-9)


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
