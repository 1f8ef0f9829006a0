"""Kernel catalog: closed forms, lift closure, multiplier route, wave formulas."""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from radialift.bessel import jtilde_at_zero
from radialift.errors import BranchError, ConvergenceError
from radialift.kernels import (dalembert, even_to_squared, heat_kernel,
                               heat_profile, kernel_of_multiplier, kirchhoff,
                               projection_kernel, projection_profile,
                               resolvent_kernel, resolvent_profile,
                               sech_transform_profile, sqrt_minus_z)
from radialift.lift import ChebyshevEngine, lift_once, lift_once_symbolic
from radialift.quadrature import QuadratureSpec, integrate_halfline_decaying
from radialift.transform import (SampledProfile, profile_from_text,
                                 radial_fourier, sphere_surface)


# ---------------------------------------------------------------------------
# resolvent family

def test_resolvent_displayed_forms():
    assert abs(resolvent_kernel(1, -1.0, 2.0) - math.exp(-2) / 2) < 1e-15
    assert abs(resolvent_kernel(3, -1.0, 1.0) - math.exp(-1) / (4 * math.pi)) < 1e-15
    assert abs(resolvent_kernel(5, -1.0, 1.0)
               - math.exp(-1) / (4 * math.pi ** 2)) < 1e-15


def test_resolvent_branch():
    c = sqrt_minus_z(-2 + 1j)
    assert c.real > 0
    with pytest.raises(BranchError):
        resolvent_kernel(3, 2.0, 1.0)
    with pytest.raises(BranchError):
        sqrt_minus_z(0.0)


def test_resolvent_complex_z():
    z = -2 + 1j
    c = cmath.sqrt(-z)
    for n, closed in ((1, cmath.exp(-c * 1.5) / (2 * c)),
                      (3, cmath.exp(-c * 1.5) / (4 * math.pi * 1.5)),
                      (5, (1 + 1.5 * c) * cmath.exp(-c * 1.5)
                       / (8 * math.pi ** 2 * 1.5 ** 3))):
        assert abs(resolvent_kernel(n, z, 1.5) - closed) < 1e-14


def test_resolvent_imaginary_residue_for_real_z():
    for n in (1, 3, 5, 7, 9):
        value = resolvent_kernel(n, -1.5, 0.9)
        assert abs(complex(value).imag) <= 1e-12


def test_resolvent_ladder_random_points():
    # the n = 1 entry lifted symbolically, step by step, is the oracle of
    # the closed form: absolutely at n = 3 and 5, relatively at n = 7 and 9
    rng = np.random.default_rng(1234)
    zs = (-1.0 + 0j, -2.0 + 1j, -0.5 - 3j)
    worst = worst_rel = 0.0
    for _ in range(20):
        z = zs[rng.integers(0, len(zs))]
        r = float(rng.uniform(0.1, 5.0))
        g3 = lift_once_symbolic(resolvent_profile(1, z))
        worst = max(worst, abs(g3.evaluate(r) - resolvent_kernel(3, z, r)))
        g5 = lift_once_symbolic(g3)
        worst = max(worst, abs(g5.evaluate(r) - resolvent_kernel(5, z, r)))
        g7 = lift_once_symbolic(g5)
        g9 = lift_once_symbolic(g7)
        for n, lifted in ((7, g7), (9, g9)):
            closed = resolvent_kernel(n, z, r)
            worst_rel = max(worst_rel, abs(lifted.evaluate(r) - closed) / abs(closed))
    assert worst <= 1e-12
    assert worst_rel <= 1e-13


def test_resolvent_generated_dimension_against_numeric_lift():
    # the generated 7-dimensional kernel must match a numeric lift of the
    # 5-dimensional closed form evaluated from samples
    grid = np.linspace(0.5, 2.0, 2000)
    g5_vals = np.array([resolvent_kernel(5, -1.0, float(r)).real for r in grid])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prof = SampledProfile(grid, g5_vals)
        engine = ChebyshevEngine(degree=48, interval=(0.6, 1.8))
        res = lift_once(prof, 1.0, engine)
    assert abs(res.value - resolvent_kernel(7, -1.0, 1.0).real) < 1e-8


def test_resolvent_dimension_validation():
    for n in (4, 123):
        with pytest.raises(ValueError, match=rf"odd dimensions 1 <= n <= 121, got n = {n}$"):
            resolvent_kernel(n, -1.0, 1.0)


@pytest.mark.parametrize("n", range(1, 122, 2))
def test_resolvent_kernel_against_bessel_k(n):
    # (2 pi)^(-n/2) (c/r)^(n/2-1) K_(n/2-1)(c r) in mpmath, wherever it is a
    # finite normal float
    checked = 0
    for z in (-1.0, -2 + 1j, -0.5 - 3j, -100 + 0.1j):
        for r in (1e-3, 0.01, 0.5, 1.0, 3.0, 10.0):
            with mpmath.workdps(30):
                c = mpmath.sqrt(-mpmath.mpc(z))
                nu = mpmath.mpf(n) / 2 - 1
                exact = complex((2 * mpmath.pi) ** (-mpmath.mpf(n) / 2)
                                * (c / r) ** nu * mpmath.besselk(nu, c * r))
            if not (cmath.isfinite(exact) and abs(exact) >= sys.float_info.min):
                continue
            error = abs(resolvent_kernel(n, z, r) - exact)
            assert error <= 1e-13 * abs(exact), (z, r)
            checked += 1
    assert checked >= 20


def test_resolvent_at_the_origin():
    # 1 / (2c) at n = 1; from n = 3 on the kernel is singular there
    for z in (-1.0, -2 + 1j):
        assert resolvent_kernel(1, z, 0.0) == 1 / (2 * sqrt_minus_z(z))
    with pytest.raises(ValueError, match="zero base"):
        resolvent_kernel(3, -1.0, 0.0)


# ---------------------------------------------------------------------------
# projection family

def test_projection_displayed_forms():
    assert abs(projection_kernel(1, 1.0, math.pi)) < 1e-15
    assert abs(projection_kernel(3, 1.0, math.pi) - 1 / (2 * math.pi ** 4)) < 1e-15
    # P_3(r) = (sin(r sqrt(E)) - r sqrt(E) cos(r sqrt(E))) / (2 pi^2 r^3)
    for energy, r in ((2.0, 0.7), (5.0, 1.3)):
        root = math.sqrt(energy)
        closed = (math.sin(r * root) - r * root * math.cos(r * root)) \
            / (2 * math.pi ** 2 * r ** 3)
        assert abs(projection_kernel(3, energy, r) - closed) < 1e-14


def test_projection_lift_oracle():
    base = profile_from_text("sin(2*s)/(pi*s)")  # one-dimensional kernel, E=4
    res = lift_once(base, 1.0)
    assert abs(res.value - projection_kernel(3, 4.0, 1.0)) < 1e-10


def test_projection_ladder_random_points():
    # lift the trigonometric n = 1 kernel written out, not the catalog's Jt
    # form, whose lift would be the n = 3 entry itself
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(20):
        energy = float(rng.uniform(0.3, 6.0))
        r = float(rng.uniform(0.1, 5.0))
        lifted = lift_once_symbolic(f"sin({math.sqrt(energy)!r}*s)/(pi*s)")
        worst = max(worst, abs(lifted.evaluate(r).real
                               - projection_kernel(3, energy, r)))
    assert worst <= 1e-12


def test_projection_generated_dimensions():
    # the n=5 kernel agrees with the symbolic lift of the n=3 kernel
    p5 = projection_profile(5, 1.0)
    p3 = projection_profile(3, 1.0)
    for r in (0.5, 1.2):
        step = lift_once_symbolic(p3).evaluate(r).real
        assert abs(p5.evaluate(r).real - step) < 1e-13
    for n in (0, 121):
        with pytest.raises(ValueError, match=rf"dimensions 1 <= n <= 120, got n = {n}$"):
            projection_kernel(n, 1.0, 1.0)
    with pytest.raises(ValueError):
        projection_kernel(3, -1.0, 1.0)
    with pytest.raises(ValueError):
        projection_kernel(3, 1.0, -1e-3)


def _projection_envelope(n, energy, r):
    """(2 pi)^(-n/2) E^(n/2) min(Jt_(n/2)(0), sqrt(2/pi) x^(-(n+1)/2)), with
    x = sqrt(E) r: the kernel's size at 0 and its decay bound beyond."""
    x = math.sqrt(energy) * r
    jt = min(jtilde_at_zero(n / 2), math.sqrt(2 / math.pi) * x ** (-(n + 1) / 2))
    return (energy / (2 * math.pi)) ** (n / 2) * jt


@pytest.mark.parametrize("n", range(1, 121))
def test_projection_kernel_near_the_origin(n):
    # the closed form (2 pi)^(-n/2) E^(n/2) Jt_(n/2)(sqrt(E) r), in mpmath,
    # from near the origin, where a symbolic lift cancels, to far beyond
    for energy in (0.3, 4.0):
        for r in (1e-3, 0.01, 0.5, 1.0, 3.7, 10.0, 100.0):
            with mpmath.workdps(30):
                x = mpmath.sqrt(mpmath.mpf(energy)) * mpmath.mpf(r)
                exact = float((2 * mpmath.pi) ** (-n / 2)
                              * mpmath.mpf(energy) ** (n / 2)
                              * mpmath.besselj(n / 2, x) / x ** (n / 2))
            error = abs(projection_kernel(n, energy, r) - exact)
            assert error <= 1e-13 * _projection_envelope(n, energy, r), (energy, r)


@pytest.mark.parametrize("n", [1, 2, 7, 120])
def test_projection_kernel_at_the_origin(n):
    # E^(n/2) / ((4 pi)^(n/2) Gamma(n/2 + 1)): the volume of the ball of
    # radius sqrt(E) over (2 pi)^n
    for energy in (0.3, 4.0):
        exact = energy ** (n / 2) / ((4 * math.pi) ** (n / 2) * math.gamma(n / 2 + 1))
        assert abs(projection_kernel(n, energy, 0.0) - exact) <= 1e-14 * exact


def test_lifted_n2_projection_matches_the_closed_form():
    # lift E Jt_1(sqrt(E) s) / (2 pi) symbolically k = 1..3 steps.  Each
    # lift's quotient rule cancels terms near 0 (the tree keeps s/s), so k = 3
    # loses up to 1.5e-2 relative at r = 1e-3: the radii start at 1
    for energy in (0.3, 4.0):
        lifted = projection_profile(2, energy)
        for k in (1, 2, 3):
            lifted = lift_once_symbolic(lifted)
            for r in (1.0, 2.5, 3.7, 10.0):
                error = abs(lifted.evaluate(r).real
                            - projection_kernel(2 + 2 * k, energy, r))
                assert error <= 1e-12 * _projection_envelope(2 + 2 * k, energy, r)


# ---------------------------------------------------------------------------
# sech family closure

def test_sech_lift_closure():
    rng = np.random.default_rng(99)
    sech1 = sech_transform_profile(1)
    sech3 = sech_transform_profile(3)
    lifted = lift_once_symbolic(sech1)
    for _ in range(20):
        r = float(rng.uniform(0.1, 5.0))
        assert abs(lifted.evaluate(r).real - sech3.evaluate(r).real) < 1e-10


def test_sech_generated_dimension_against_transform():
    sech5 = sech_transform_profile(5)
    direct = radial_fourier(profile_from_text("sech(pi*s)"), 5, 1.0)
    assert abs(sech5.evaluate(1.0).real - direct) < 1e-7


def test_sech_ceiling():
    with pytest.raises(ValueError, match=r"odd dimensions 1 <= n <= 15, got n = 17$"):
        sech_transform_profile(17)


def test_sech_top_entry_stays_small():
    # one sum over D^l sech(pi s); seven nested symbolic lifts of the n = 1
    # entry build 62,337,612 characters
    assert len(str(sech_transform_profile(15))) < 400_000


def _sech_by_quadrature(n, r):
    # the transform of sech(pi s) by mpmath quadrature of its Hankel form,
    # (2 pi)^(n/2) integral_0^inf sech(pi t) Jt_(n/2-1)(2 pi r t) t^(n-1) dt;
    # radialift's direct transform meets it to 1e-12
    with mpmath.workdps(30):
        nu, w = n / 2 - 1, 2 * mpmath.pi * mpmath.mpf(r)
        integrand = lambda t: (mpmath.sech(mpmath.pi * t)
                               * mpmath.besselj(nu, w * t) / (w * t) ** nu
                               * t ** (n - 1))
        return float((2 * mpmath.pi) ** (n / 2)
                     * mpmath.quad(integrand, mpmath.linspace(0, 40, 21)))


@pytest.mark.parametrize("r", [0.2, 1.0])
def test_sech_top_entry_against_quadrature(r):
    exact = _sech_by_quadrature(15, r)
    value = sech_transform_profile(15).evaluate(r).real
    assert abs(value - exact) <= 5e-12 * abs(exact)


# ---------------------------------------------------------------------------
# sech entries near the origin: the corollary's terms carry s^(l-2k), so at
# small r the sum cancels its leading terms

@pytest.mark.xfail(strict=True, reason="the corollary sum cancels at small "
                   "r: n = 9 reads 23.12 for 80.303 at r = 1e-3, and n = 11 "
                   "is off by 1.9e-4 relative at r = 0.01")
@pytest.mark.parametrize("n, r", [(9, 1e-3), (11, 1e-2)])
def test_sech_transform_profile_near_the_origin(n, r):
    exact = _sech_by_quadrature(n, r)
    value = sech_transform_profile(n).evaluate(r).real
    assert abs(value - exact) <= 1e-9 * abs(exact)


# ---------------------------------------------------------------------------
# spectral multiplier route

def test_multiplier_heat_kernel():
    value = kernel_of_multiplier("exp(-s)", 3, 1.0)
    assert abs(value - heat_kernel(3, 1.0, 1.0)) < 1e-7
    assert abs(heat_kernel(3, 1.0, 1.0) - (4 * math.pi) ** -1.5 * math.exp(-0.25)) \
        < 1e-16


def test_multiplier_resolvent_agreement():
    value = kernel_of_multiplier("1/(s+1)", 3, 1.0)
    assert abs(value - resolvent_kernel(3, -1.0, 1.0)) < 1e-6
    value = kernel_of_multiplier("1/(s+1)", 1, 2.0)
    assert abs(value - resolvent_kernel(1, -1.0, 2.0)) < 1e-6
    value = kernel_of_multiplier("1/(s - (-2 + 1*i))", 3, 1.0)
    assert abs(value - resolvent_kernel(3, -2 + 1j, 1.0)) < 1e-6
    value = kernel_of_multiplier("1/(s - (-2 + 1*i))", 1, 1.0)
    assert abs(value - resolvent_kernel(1, -2 + 1j, 1.0)) < 1e-6


def test_multiplier_gate_warning():
    # a resolvent multiplier is integrable near 0 and its transform
    # converges conditionally: the gate passes it, and nothing warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = kernel_of_multiplier("1/(s+1)", 3, 1.0)
    assert caught == []
    assert abs(value - resolvent_kernel(3, -1.0, 1.0)) < 1e-6


def test_weierstrass_normalization():
    # the heat kernel integrates to one over n-space
    for n in (1, 3):
        t = 0.7
        omega = sphere_surface(n)
        quad = integrate_halfline_decaying(
            lambda s: heat_kernel(n, t, s) * np.asarray(s, dtype=float) ** (n - 1))
        assert abs(omega * float(np.real(quad.value)) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# wave formulas

def test_dalembert_examples():
    const = lambda y: np.ones_like(np.asarray(y, dtype=float))
    assert abs(dalembert(const, 2.0, 0.0) - 2.0) < 1e-13
    odd = lambda y: np.asarray(y, dtype=float)
    assert abs(dalembert(odd, 1.7, 0.0)) < 1e-15
    assert abs(dalembert(const, -2.0, 0.0) + 2.0) < 1e-13  # odd in t


def test_dalembert_gaussian_with_series_oracle():
    gauss = lambda y: np.exp(-np.asarray(y, dtype=float) ** 2)
    value = dalembert(gauss, 1.0, 0.0)
    # oracle: (sqrt(pi)/2) erf(1) via the Maclaurin series of erf
    erf1 = 2.0 / math.sqrt(math.pi) * sum(
        (-1) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(20))
    assert abs(value - math.sqrt(math.pi) / 2 * erf1) < 1e-10


def test_dalembert_raises_when_its_integral_does_not_converge():
    # four panels cannot resolve 120 humps of |sin|^0.3: the integral was
    # returned as 1.29 from a result with converged=False
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-15, max_panels=4)
    with pytest.raises(ConvergenceError, match="t=1.5, x=1.5") as info:
        dalembert(lambda x: np.abs(np.sin(40 * x)) ** 0.3, 1.5, 1.5, spec)
    assert not info.value.result.converged


def test_kirchhoff_radial_identity():
    phi = lambda p: math.exp(-float(np.dot(p, p)))
    for t in (0.4, 0.7, 1.5):
        u = kirchhoff(phi, t, np.zeros(3))
        assert abs(u - t * math.exp(-t * t)) < 1e-9


def test_kirchhoff_constant_datum():
    assert abs(kirchhoff(lambda p: 1.0, 1.4, np.zeros(3)) - 1.4) < 1e-12
    assert kirchhoff(lambda p: 1.0, 0.0, np.zeros(3)) == 0.0


def test_kirchhoff_pde_residual():
    # u(t, x) from the Gaussian datum satisfies the wave equation; fourth
    # order central differences at (t, x) = (0.5, 0) with step 1e-2
    phi = lambda p: math.exp(-float(np.dot(p, p)))
    h = 1e-2
    t0 = 0.5

    def u(t, x):
        return kirchhoff(phi, t, x)

    def second_derivative(f, step):
        return (-f(2 * step) + 16 * f(step) - 30 * f(0.0)
                + 16 * f(-step) - f(-2 * step)) / (12 * step ** 2)

    u_tt = second_derivative(lambda d: u(t0 + d, np.zeros(3)), h)
    lap = 0.0
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        lap += second_derivative(lambda d: u(t0, d * e), h)
    assert abs(u_tt - lap) <= 1e-4


# ---------------------------------------------------------------------------
# even-function composition

def test_even_to_squared_cosine():
    assert abs(even_to_squared("cos(s)", 1, 0.0) - (-0.5)) < 1e-12
    assert abs(even_to_squared("cos(s)", 0, math.pi ** 2) - (-1.0)) < 1e-15


def test_even_to_squared_gaussian():
    for k in (1, 2, 3):
        value = even_to_squared("exp(-s^2)", k, 1.0)
        assert abs(value - (-1) ** k * math.exp(-1)) < 1e-9


def test_even_to_squared_taylor_identity():
    # g^(k)(0)/k! = f^(2k)(0)/(2k)!; frozen references: cos gives (-1)^k,
    # sech gives the Euler numbers 1, -1, 5, -61, ...
    for k in (1, 2, 3):
        value = even_to_squared("cos(s)", k, 0.0)
        assert abs(value / math.factorial(k)
                   - (-1) ** k / math.factorial(2 * k)) < 1e-10
    for k, euler in ((1, -1.0), (2, 5.0), (3, -61.0)):
        value = even_to_squared("sech(s)", k, 0.0)
        assert abs(value / math.factorial(k)
                   - euler / math.factorial(2 * k)) < 1e-10


def test_even_to_squared_raises_when_its_integral_does_not_converge():
    # g^(3)(9) for f = sech(20 s) is about -6.8e-25, and the integrand's
    # panels cancel down to it: the value -5.4e-11 was returned, after 56
    # panels, from an estimate that cancellation had driven below zero.  A
    # budget of 100 panels keeps the symbolic 6th derivative's cost down
    with pytest.raises(ConvergenceError, match="t=9.0") as info:
        even_to_squared("sech(20*s)", 3, 9.0, QuadratureSpec(max_panels=100))
    res = info.value.result
    assert not res.converged and res.error_estimate > 0


def test_even_to_squared_rejects_odd_input():
    with pytest.raises(ValueError):
        even_to_squared("s^3", 1, 1.0)
    with pytest.raises(ValueError):
        even_to_squared("sin(s)", 0, 1.0)


def test_even_to_squared_derivative_bound():
    # |g^(k)(t)| <= k!/(2k)! sup_{0<=u<=sqrt(t)} |f^(2k)(u)|
    from radialift import expr
    for text in ("cos(s)", "exp(-s^2)"):
        f = expr.parse(text)
        for k in (1, 2, 3):
            d = f
            for _ in range(2 * k):
                d = expr.simplify(d.diff())
            for t in (0.5, 1.0, 2.0):
                us = np.linspace(0.0, math.sqrt(t), 400)
                sup = float(np.max(np.abs(d.eval_array(us))))
                bound = math.factorial(k) / math.factorial(2 * k) * sup
                value = abs(even_to_squared(text, k, t))
                assert value <= bound * (1 + 1e-12), (text, k, t)


# ---------------------------------------------------------------------------
# the family functions

def test_family_profiles_validate_their_parameters():
    resolvent_profile(3, -1.0)
    with pytest.raises(BranchError):
        resolvent_profile(3, 1.0)
    with pytest.raises(ValueError):
        resolvent_profile(4, -1.0)
    with pytest.raises(ValueError):
        projection_profile(3, -1.0)
    with pytest.raises(ValueError):
        heat_profile(3, 0.0)
    with pytest.raises(ValueError):
        heat_profile(0, 1.0)
    with pytest.raises(ValueError):
        sech_transform_profile(2)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_heat_profile_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match=rf"heat time t .*, got t = {t}$"):
        heat_profile(3, t)


@pytest.mark.parametrize("energy", [math.nan, math.inf])
def test_projection_profile_rejects_a_non_finite_energy(energy):
    with pytest.raises(ValueError, match=rf"projection energy E .*, got E = {energy}$"):
        projection_profile(3, energy)


@pytest.mark.parametrize("z", [complex(math.nan, 0), complex(-math.inf, 0),
                               complex(-1, math.nan), complex(-1, math.inf)])
def test_resolvent_profile_rejects_a_non_finite_z(z):
    with pytest.raises(ValueError, match="resolvent z must be finite"):
        resolvent_profile(3, z)


def test_heat_profile_is_the_heat_kernel():
    for n in (1, 2, 3, 7):
        for t, r in ((0.25, 0.0), (1.0, 1.0), (0.7, 2.3), (3.0, 0.4)):
            closed = (4 * math.pi * t) ** (-n / 2) * math.exp(-r * r / (4 * t))
            value = heat_profile(n, t).evaluate(r).real
            assert abs(value - closed) <= 1e-15 * closed, (n, t, r)
