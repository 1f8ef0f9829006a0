"""Radial transform, Hankel relation, integrability gate, spherical means."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import trapezoid

from radialift.errors import (ConvergenceError, EvaluationDomainError,
                              IntegrabilityError, UnsupportedOrderError)
from radialift.kernels import kernel_of_multiplier
from radialift.quadrature import QuadratureSpec
from radialift.transform import (AnalyticProfile, CallableProfile,
                                 SampledProfile, hankel, hankel_fourier_relation,
                                 integrability_check, profile_from_text,
                                 radial_fourier, radial_fourier_grid,
                                 radial_fourier_result, sphere_surface,
                                 spherical_mean)

GAUSS = profile_from_text("exp(-pi*s^2)")
SECH = profile_from_text("sech(pi*s)")


def test_sphere_surface_values():
    assert sphere_surface(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_surface(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_surface(1) == pytest.approx(2.0, rel=1e-15)


def test_sphere_surface_recursion_identity():
    for n in range(1, 11):
        lhs = 2 * math.pi * sphere_surface(n)
        rhs = n * sphere_surface(n + 2)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_gaussian_fixed_point():
    for n in (1, 2, 3, 4, 5):
        for r in (0.5, 1.0, 2.0):
            value = radial_fourier(GAUSS, n, r)
            assert abs(value - math.exp(-math.pi * r * r)) < 1e-8, (n, r)


def test_sech_one_dimensional():
    value = radial_fourier(SECH, 1, 1.0)
    assert abs(value - 1.0 / math.cosh(math.pi)) < 1e-8


def test_sech_three_dimensional():
    value = radial_fourier(SECH, 3, 1.0)
    closed = 0.5 / math.cosh(math.pi) * math.tanh(math.pi)
    assert abs(value - closed) < 1e-7


def test_exponential_profile_closed_form():
    # transform of e^-|x| in one dimension: 2 / (1 + 4 pi^2 r^2)
    prof = profile_from_text("exp(-s)")
    for r in (0.5, 1.0, 2.0):
        assert abs(radial_fourier(prof, 1, r)
                   - 2.0 / (1.0 + 4.0 * math.pi ** 2 * r * r)) < 1e-9
    # and in three dimensions: 8 pi / (1 + 4 pi^2 r^2)^2
    for r in (0.5, 1.0):
        assert abs(radial_fourier(prof, 3, r)
                   - 8.0 * math.pi / (1.0 + 4.0 * math.pi ** 2 * r * r) ** 2) < 1e-8


def test_transform_at_zero_is_the_moment():
    assert abs(radial_fourier(GAUSS, 3, 0.0) - 1.0) < 1e-10
    assert abs(radial_fourier(GAUSS, 1, 0.0) - 1.0) < 1e-10


def test_transform_at_zero_estimate_scales_like_the_value():
    spec = QuadratureSpec()
    for n in (4, 20, 65):
        res = radial_fourier_result(GAUSS, n, 0.0)
        assert res.converged
        assert res.error_estimate <= spec.tolerance(res.value), n
        assert abs(res.value - 1.0) <= max(res.error_estimate, 1e-15), n


def _poisson(n, r):
    # transform of exp(-2 pi |x|) in dimension n
    return (math.gamma((n + 1) / 2) * math.pi ** (-(n + 1) / 2)
            * (1.0 + r * r) ** (-(n + 1) / 2))


def test_tiny_radii_match_the_closed_forms():
    # the head segment [0, j_1 / (2 pi r)] is far longer than the profile
    spec = QuadratureSpec()
    poisson = profile_from_text("exp(-2*pi*s)")
    for n in range(1, 6):
        for r in (1e-6, 3.1e-5, 1e-4, 8e-4):
            for profile, exact in ((GAUSS, math.exp(-math.pi * r * r)),
                                   (poisson, _poisson(n, r))):
                res = radial_fourier_result(profile, n, r)
                assert res.converged
                assert abs(res.value - exact) <= 10 * spec.tolerance(exact), (n, r)


def test_radii_far_below_one_match_the_closed_forms():
    # the head windows reach t where t^(n-1) overflows, and at r = 2.2e-311
    # the head's end z_1 / (2 pi r) itself overflows, as at r = 0; the
    # Gaussian and the Poisson kernel stop the head at t ~ 1e8, an algebraic
    # tail near 1e12, and a profile that is 0 everywhere at 1e8
    spec = QuadratureSpec()
    poisson = profile_from_text("exp(-2*pi*s)")
    cases = [(GAUSS, n, r, 1.0) for n, r in ((3, 1e-200), (8, 1e-100),
                                            (1, 2.2e-311))]
    cases += [(poisson, n, r, _poisson(n, r)) for n, r in ((3, 1e-200),
                                                           (8, 1e-100),
                                                           (1, 2.2e-311))]
    # in R^3 the transform of 1/(1+|x|^2)^2 is pi^2 e^(-2 pi |xi|)
    cases += [(profile_from_text("1/(1+s^2)^2"), 3, r, math.pi ** 2)
              for r in (2.2e-311, 0.0)]
    cases.append((profile_from_text("0*s"), 1, 2.2e-311, 0.0))
    for profile, n, r, exact in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = radial_fourier_result(profile, n, r)
        assert [str(w.message) for w in caught] == [], (n, r)
        assert res.converged
        assert abs(res.value - exact) <= 10 * spec.tolerance(exact), (n, r)
        if exact == 0.0:  # 27 windows to t = 1e8, not one by one to 9e307
            assert res.evaluations < 1000


def test_tiny_radii_cost_is_flat():
    # below r ~ 5e-9 every head stops just past t = 1e8, however far its end
    # lies, and so does the moment's: the Gaussian's cost does not grow as
    # r goes to 0
    costs = {r: radial_fourier_result(GAUSS, 3, r).evaluations
             for r in (1e-9, 1e-200, 2.2e-311, 0.0)}
    assert len(set(costs.values())) == 1, costs


def test_small_radii_reach_a_second_bump():
    # the bump at s = 100 lies past three negligible windows of the head;
    # the head runs on to its end (or to t = 1e8) and reaches it, at r = 0 too
    mpmath = pytest.importorskip("mpmath")
    profile = profile_from_text("exp(-pi*s^2) + exp(-(s-100)^2)")
    for n in (1, 3):
        for r in (1e-3, 1e-9, 1e-200, 0.0):
            w = 2 * math.pi * r
            # the bump's transform: 2 int cos(w t) b(t) dt at n = 1 and
            # 4 pi int (sin(w t) / w) b(t) t dt at n = 3, b = e^(-(t - 100)^2)
            if n == 1:
                kernel = lambda t: 2 * mpmath.cos(w * t)
            elif w:
                kernel = lambda t: 4 * mpmath.pi * mpmath.sin(w * t) / w * t
            else:
                kernel = lambda t: 4 * mpmath.pi * t * t
            bump = mpmath.quad(lambda t: mpmath.exp(-(t - 100) ** 2)
                               * kernel(t), [70, 100, 130])
            exact = math.exp(-math.pi * r * r) + float(bump)
            res = radial_fourier_result(profile, n, r)
            assert res.converged, (n, r)
            assert abs(res.value - exact) <= 1e-9 * abs(exact), (n, r)
    # a head that has read only zeros up to t = 1e8 runs on to its end
    # z_1 / w ~ 3.8e9 at r = 1e-10, where the bump at 3e8 lies
    c, sigma, w = 3e8, 5e6, 2 * math.pi * 1e-10
    exact = (2 * math.sqrt(math.pi) * sigma * math.cos(w * c)
             * math.exp(-(w * sigma) ** 2 / 4))
    res = radial_fourier_result(f"exp(-((s-{c:g})/{sigma:g})^2)", 1, 1e-10)
    assert res.converged
    assert abs(res.value - exact) <= 1e-9 * exact


def test_divergent_moment_raises_convergence_error():
    # t^4 f decays like t^-0.5 and t^-1 here, so the transform is singular
    # at r = 0, and a head past 1e8 sees windows that do not shrink: an
    # endless one at r = 0 and 2.2e-311, one that ends at z_1 / omega ~ 4e300
    # at r = 1e-300, past where the profile underflows
    for text in ("(1+s^2)^(-2.25)", "(1+s^2)^(-2.5)"):
        for r in (0.0, 2.2e-311, 1e-300):
            with pytest.raises(ConvergenceError):
                radial_fourier(text, 5, r)
    # a head that ends at ~2e268, far past where t^5 overflows: the watch
    # must end it before the overflow poisons a window
    res = radial_fourier_result("1/(1+s^2)^2", 6, 4.06e-269)
    assert not res.converged


def test_top_dimension_at_small_radii_is_finite():
    # the profiles are 0 where t^121 overflows; the integrand is 0 there
    poisson = profile_from_text("exp(-2*pi*s)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e-3, 1e-2):
            res = radial_fourier_result(GAUSS, 122, r)
            assert math.isfinite(res.value), r
        for r in (0.0, 1e-3, 1e-2):
            res = radial_fourier_result(poisson, 122, r)
            exact = _poisson(122, r)
            assert res.converged, r
            assert abs(res.value - exact) <= 1e-10 * exact, r


def test_moment_of_a_profile_living_away_from_zero():
    # past t ~ 27 the profile reads exactly 0 on the first windows
    mpmath = pytest.importorskip("mpmath")
    for centre in (20, 40, 60):
        exact = float(4 * mpmath.pi * mpmath.quad(
            lambda t: mpmath.exp(-(t - centre) ** 2) * t ** 2,
            [0, centre, mpmath.inf]))
        res = radial_fourier_result(
            profile_from_text(f"exp(-(s-{centre})^2)"), 3, 0.0)
        assert res.converged, centre
        assert abs(res.value - exact) <= 1e-10 * exact, centre
    # a profile that reads 0 on every window
    res = radial_fourier_result(profile_from_text("0*exp(-s)"), 3, 0.0)
    assert res.converged
    assert res.value == 0.0


def test_grid_validation():
    assert radial_fourier_grid(GAUSS, 3, []) == []
    with pytest.raises(TypeError):
        radial_fourier_grid(GAUSS, 3, [[0.5, 1.0]])
    with pytest.raises(ValueError):
        radial_fourier_grid(GAUSS, 3, [0.5, -1.0])
    with pytest.raises(TypeError):
        radial_fourier_result(GAUSS, 3, [0.5, 1.0])


_GRID_PROFILES = ("exp(-pi*s^2)", "exp(-2*pi*s)", "1/(1+s^2)^2", "s^2*exp(-s)")


@settings(max_examples=30, deadline=None)
@given(text=st.sampled_from(_GRID_PROFILES), n=st.integers(1, 8),
       radii=st.lists(st.sampled_from([0.0, 0.25, 1.0]) |
                      st.floats(0.0, 4.0, allow_nan=False), min_size=1,
                      max_size=12))
# a tiny radius once overflowed the panel midpoints far out on the half line
@example(text="exp(-pi*s^2)", n=6, radii=[2.2250738585072014e-308])
@example(text="exp(-pi*s^2)", n=1, radii=[1.1125369292536007e-308])
def test_grid_equals_its_points(text, n, radii):
    points = [radial_fourier_result(profile_from_text(text), n, r)
              for r in radii]
    grid = radial_fourier_grid(profile_from_text(text), n, radii)
    assert [p.converged for p in points] == [g.converged for g in grid]
    for r, p, g in zip(radii, points, grid):
        assert abs(g.value - p.value) <= max(1e-12 * abs(p.value),
                                             p.error_estimate), r
    assert sum(p.evaluations for p in points) == \
        sum(g.evaluations for g in grid)


@pytest.mark.parametrize("text, n, radii, spec", [
    # the r = 0 line is still in its head while the others run segments
    ("1/(1+s^2)", 1, [0.0, 1e-3, 1.0, 2.0], None),
    # the lines at r > 0 end out of budget, unconverged; r = 0 converges
    ("exp(-s)", 3, [0.0, 0.5, 1.0, 2.0], QuadratureSpec(max_oscillations=2)),
])
def test_grid_gives_exactly_its_points(text, n, radii, spec):
    points = [radial_fourier_result(text, n, r, spec) for r in radii]
    grid = radial_fourier_grid(text, n, radii, spec)
    for p, g in zip(points, grid):
        assert (g.value, g.error_estimate, g.evaluations, g.converged) == \
            (p.value, p.error_estimate, p.evaluations, p.converged)
    assert len(grid) == len(points)
    if spec is not None:
        assert [p.converged for p in points] == [True, False, False, False]


def _moment(text, n):
    """The transform at r = 0: the integral of the profile over n-space."""
    if text == "exp(-pi*s^2)":
        return 1.0
    if text == "exp(-2*pi*s)":
        return _poisson(n, 0.0)
    if text == "s^2*exp(-s)":
        return sphere_surface(n) * math.factorial(n + 1)
    assert text == "1/(1+s^2)^2" and n <= 3
    return sphere_surface(n) * math.gamma(n / 2) * math.gamma(2 - n / 2) / 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [1e-154, 2.2250738585072014e-308,
                               1.1125369292536007e-308])
@pytest.mark.parametrize("text, dims", [("exp(-pi*s^2)", range(1, 9)),
                                        ("exp(-2*pi*s)", range(1, 9)),
                                        ("s^2*exp(-s)", range(1, 9)),
                                        ("1/(1+s^2)^2", range(1, 4))])
def test_radii_near_the_float_minimum_match_the_moment(text, dims, r):
    for n in dims:
        res = radial_fourier_result(profile_from_text(text), n, r)
        exact = _moment(text, n)
        assert res.converged, (n, r)
        assert abs(res.value - exact) <= 1e-12 * exact, (n, r)


def test_result_metadata():
    res = radial_fourier_result(GAUSS, 2, 1.0)
    assert res.converged
    assert res.method == "direct"
    assert res.evaluations > 0
    assert res.error_estimate >= 0


def test_hankel_brute_force_oracle():
    # H_{1/2}(e^-t)(1) against a trapezoid built on the closed-form J_{1/2}
    ts = np.linspace(1e-9, 40.0, 1_000_001)
    integrand = np.exp(-ts) * np.sqrt(2.0 / (math.pi * ts)) * np.sin(ts) * ts
    oracle = trapezoid(integrand, ts)
    value = hankel(profile_from_text("exp(-s)"), 0.5, 1.0)
    assert abs(value - oracle) < 1e-8


def test_hankel_order_is_not_rounded():
    prof = profile_from_text("exp(-s)")
    with pytest.raises(UnsupportedOrderError):
        hankel(prof, 0.3, 1.0)
    mpmath = pytest.importorskip("mpmath")
    for nu in (0, 0.5, 1):
        exact = float(mpmath.quad(lambda t: mpmath.exp(-t) * mpmath.besselj(nu, t)
                                  * t, [0, mpmath.inf]))
        assert abs(hankel(prof, nu, 1.0) - exact) < 1e-9, nu
    # higher orders, relative to the closed form of int e^-t J_nu(t) t dt
    # (mpmath's quad is no oracle here: it misses nu = 60 by a factor of 3)
    for nu in (2.5, 10, 30):
        exact = ((math.sqrt(2.0) - 1.0) ** nu * (nu / math.sqrt(2.0) + 0.5)
                 / math.sqrt(2.0))
        assert abs(hankel(prof, nu, 1.0) - exact) <= 1e-12 * exact, nu


def _exp_hankel(a, nu, r):
    # int_0^inf e^(-a t) J_nu(r t) t dt = F(a/r) / r^2, with
    # F(p) = (sqrt(1+p^2) - p)^nu (nu sqrt(1+p^2) + p) / (1+p^2)^(3/2)
    p = a / r
    q = math.sqrt(1.0 + p * p)
    return (q - p) ** nu * (nu * q + p) / (1.0 + p * p) ** 1.5 / r ** 2


def test_hankel_high_order_far_from_r_equal_one():
    # t^61 overflows past t ~ 1.1e5 and r^60 underflows below r ~ 4e-6;
    # (r t)^60 stays in range wherever J_60(r t) does
    for a, r in ((1e-5, 1e-3), (1e-8, 1e-6)):
        exact = _exp_hankel(a, 60, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = hankel(f"exp(-{a:g}*s)", 60, r)
        assert abs(value - exact) <= 1e-12 * exact, (a, r, value, exact)
    # r^60 overflows a Python float at r = 1e6; the value is about 6e-11
    value = hankel("exp(-s)", 60, 1e6)
    assert abs(value - _exp_hankel(1.0, 60, 1e6)) <= 1e-14


def test_hankel_zero_profile():
    assert hankel(profile_from_text("0"), 0.5, 1.3) == 0.0


@pytest.mark.xfail(strict=True, reason="reads 0, converged: every segment "
                   "before the bump lies below abs_tol, so the negligible-"
                   "terms exit fires at k = 4 (ROADMAP item 1)")
def test_profile_far_from_the_origin():
    # exp(-(s-40)^2) in 3 dimensions: (2/r) sqrt(pi) exp(-a^2/4)
    # (40 sin(40 a) + (a/2) cos(40 a)) with a = 2 pi r; mpmath agrees to 1e-14
    r = 0.3
    a = 2 * math.pi * r
    exact = (2 / r * math.sqrt(math.pi) * math.exp(-a * a / 4)
             * (40 * math.sin(40 * a) + a / 2 * math.cos(40 * a)))
    res = radial_fourier_result("exp(-(s-40)^2)", 3, r)
    assert abs(res.value - exact) <= 1e-10 * abs(exact)


def test_hankel_profile_domain_error_propagates():
    # a GK15 node of the first segment lands on the pole at s = 0.5
    with pytest.raises(EvaluationDomainError) as err:
        hankel("1/(s-0.5)", 0, 1.0)
    assert err.value.value == 0.5


def test_panel_budget_reaches_the_halfline_engine():
    # the head and segments refine at most min(max_panels, 200) panels each
    costs = [radial_fourier_result("exp(-2*pi*s)", 3, 1.3,
                                   QuadratureSpec(max_panels=m)).evaluations
             for m in (1, 2000)]
    assert costs[0] < costs[1], costs


def test_out_of_oscillations_raises_convergence_error():
    spec = QuadratureSpec(max_oscillations=2)
    calls = [lambda: radial_fourier("exp(-s)", 3, 1.0, spec),
             lambda: hankel("exp(-s/20)", 0, 1.0, spec),
             lambda: kernel_of_multiplier("1/(s+1)", 3, 1.0, spec)]
    for call in calls:
        with pytest.raises(ConvergenceError) as err:
            call()
        assert err.value.result is not None
        assert not err.value.result.converged


def test_a_moment_that_fails_spares_its_grid():
    # sin(s)/(pi s) is integrable near 0, but its moment converges only
    # conditionally: the r = 0 line ends unconverged, and the points at
    # r > 0 come back exactly as their lone runs give them
    text = "sin(s)/(pi*s)"
    radii = [0.0, 0.05, 0.2, 1.0]
    grid = radial_fourier_grid(text, 1, radii)
    for r, res in zip(radii[1:], grid[1:]):
        assert res == radial_fourier_result(text, 1, r)
        assert res.converged
    moment = grid[0]
    assert not moment.converged
    assert moment.error_estimate >= abs(moment.value - 1.0)
    assert moment.evaluations < 150_000
    with pytest.raises(ConvergenceError) as err:
        radial_fourier(text, 1, 0.0)
    assert err.value.result == moment


def test_hankel_fourier_relation_battery():
    for prof, n, r, tol in [(GAUSS, 2, 1.0, 1e-9), (GAUSS, 3, 0.5, 1e-9),
                            (SECH, 1, 1.0, 1e-8),
                            (profile_from_text("exp(-s^2)"), 1, 1.0, 1e-8)]:
        lhs, rhs = hankel_fourier_relation(prof, n, r)
        assert abs(lhs - rhs) <= tol, (n, r, lhs, rhs)


def test_integrability_examples():
    # the gate probes integral_0^1 |f| t^(n-1) dt: t^-1.5, t^-1 (the NaN of
    # inf * 0 at the overflowing nodes), t^-2.5 and t^-1 diverge
    for text, n in (("s^(-3.5)", 3), ("s^(-3)*exp(-s)", 3), ("s^(-2.5)", 1),
                    ("1/s", 1)):
        report = integrability_check(profile_from_text(text), n)
        assert not report.passed, (text, n)
        assert str(report).startswith("integrability probe failed: near piece")
    # t^0 and t^-0.5 e^-t: 1 and Gamma(1/2) erf(1)
    for text, n, exact in (("s^(-2)", 3, 1.0),
                           ("exp(-s)*s^(-0.5)", 1,
                            math.sqrt(math.pi) * math.erf(1.0))):
        report = integrability_check(profile_from_text(text), n)
        assert report.passed, (text, n)
        assert abs(report.near_value - exact) <= 1e-8 * exact, (text, n)
    with pytest.raises(IntegrabilityError):
        radial_fourier_result("s^(-3)*exp(-s)", 3, 1.0)


def test_gate_rejects_an_infinite_near_piece():
    # |f| t^(n-1) = t^-3 near 0: the near piece overflows to inf, which
    # must fail the gate rather than pass it and poison the transform
    with pytest.raises(IntegrabilityError) as err:
        radial_fourier("s^(-5)", 3, 1.0)
    assert err.value.report.near_value == math.inf
    assert str(err.value).startswith("integrability probe failed: near piece")


def test_gate_verdict_is_independent_of_the_first_radius():
    # the verdict is cached per profile; it must not depend on the radius
    for radii in ((1e-4, 1.0), (1.0, 1e-4)):
        prof = profile_from_text("s^(-3.5)")
        for r in radii:
            with pytest.raises(IntegrabilityError):
                radial_fourier_result(prof, 3, r)


def _within(res, exact, factor):
    """Whether a result lies within ``factor`` tolerances of ``exact``."""
    return abs(res.value - exact) <= factor * QuadratureSpec().tolerance(exact)


def test_cauchy_pair():
    # pi e^(-2 pi r) at n = 1, and that over r at n = 3, where the integrand
    # decays only like 1/t and its integral converges conditionally
    prof = profile_from_text("1/(1+s^2)")
    for r in (0.0, 0.5, 1.0, 2.0):
        res = radial_fourier_result(prof, 1, r)
        assert res.converged, r
        assert _within(res, math.pi * math.exp(-2 * math.pi * r), 10), r
    for r in (0.5, 1.0, 2.0):
        res = radial_fourier_result(prof, 3, r)
        assert res.converged, r
        assert _within(res, math.pi * math.exp(-2 * math.pi * r) / r, 10), r


@pytest.mark.parametrize("a, n", [(2, 3), (1.5, 3), (2.5, 3), (3, 4),
                                  (3.5, 5), (1.5, 2)])
def test_riesz_kernels(a, n):
    # |x|^-a for (n-1)/2 < a < n: pi^(a-n/2) Gamma((n-a)/2)/Gamma(a/2) r^(a-n)
    prof = profile_from_text(f"s^(-{a})")
    for r in (0.5, 1.0, 2.0):
        exact = (math.pi ** (a - n / 2) * math.gamma((n - a) / 2)
                 / math.gamma(a / 2) * r ** (a - n))
        res = radial_fourier_result(prof, n, r)
        assert res.converged, r
        assert abs(res.value - exact) <= 1e-9 * exact, r


@pytest.mark.parametrize("n, r", [
    (n, r) for n in (5, 6, 7) for r in (0.5, 1.0, 2.0) if (n, r) != (7, 2.0)
] + [pytest.param(7, 2.0, marks=pytest.mark.xfail(
    strict=True, reason="converged=True at 20.8 tol: the error estimate "
    "misses cancellation (ROADMAP item 1)"))])
def test_bessel_potential_in_higher_dimensions(n, r):
    # 2 pi^2 r^(2-n/2) K_(n/2-2)(2 pi r); at n = 7 the integrand decays
    # only like 1/t and its integral converges conditionally
    mpmath = pytest.importorskip("mpmath")
    exact = float(2 * mpmath.pi ** 2 * mpmath.mpf(r) ** (2 - n / 2)
                  * mpmath.besselk(n / 2 - 2, 2 * mpmath.pi * r))
    res = radial_fourier_result("1/(1+s^2)^2", n, r)
    assert res.converged
    assert _within(res, exact, 10)


def test_tails_that_do_not_decay_do_not_converge():
    # growing tails reach the segment divergence watch long before exp(s)
    # overflows
    for text in ("exp(s)", "exp(0.1*s)", "exp(0.01*s)", "s^3"):
        prof = profile_from_text(text)
        for n in (1, 3):
            for res in radial_fourier_grid(prof, n, [0.5, 1.0, 2.0]):
                assert not res.converged, (text, n)
    # a bounded oscillation: at n = 1 the segments of cos^2(2 pi t) are equal
    for n in (1, 3):
        assert not radial_fourier_result("cos(2*pi*s)", n, 1.0).converged, n
    # divergent moments
    for text in ("1", "1/(1+s^2)"):
        assert not radial_fourier_result(text, 3, 0.0).converged, text


def test_import_leaves_scipy_unloaded():
    code = ("import sys, radialift; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], timeout=120)
    assert proc.returncode == 0


def test_sampled_profile_validation_and_zero_extension():
    grid = np.linspace(0.05, 6.0, 400)
    prof = SampledProfile(grid, np.exp(-math.pi * grid ** 2))
    with pytest.warns(RuntimeWarning):
        vals = prof.values(np.array([1.0, 7.5]))
    assert vals[1] == 0.0
    assert abs(prof(1.0) - math.exp(-math.pi)) < 1e-9
    with pytest.raises(ValueError):
        SampledProfile(grid[:5], np.ones(5))
    with pytest.raises(ValueError):
        SampledProfile(grid[::-1], np.exp(-grid))


def test_sampled_profile_transform():
    grid = np.linspace(0.02, 6.0, 500)
    prof = SampledProfile(grid, np.exp(-math.pi * grid ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = radial_fourier(prof, 3, 1.0)
    assert abs(value - math.exp(-math.pi)) < 1e-6


def test_self_inversion():
    cases = [(GAUSS, 1), (GAUSS, 3), (SECH, 1), (SECH, 3),
             (profile_from_text("exp(-s^2)*(1-s^2)"), 1),
             (profile_from_text("exp(-s^2)*(1-s^2)"), 3)]
    for prof, n in cases:
        span = 9.0 if prof is SECH else 6.0
        grid = np.linspace(0.01, span, 360)
        inner = np.array([radial_fourier(prof, n, float(r)) for r in grid])
        once = SampledProfile(grid, inner)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for r in (0.25, 0.5, 1.0, 2.0):
                twice = radial_fourier(once, n, r)
                assert abs(twice - prof(r)) < 1e-6, (n, r)


def test_plancherel():
    from radialift.quadrature import integrate_halfline_decaying
    for prof in (GAUSS, SECH):
        for n in (1, 2, 3):
            omega = sphere_surface(n)
            nodes, weights = np.polynomial.legendre.leggauss(48)
            upper = 9.0
            rs = 0.5 * upper * (nodes + 1.0)
            ws = 0.5 * upper * weights
            transformed = np.array([radial_fourier(prof, n, float(r)) for r in rs])
            lhs = omega * float(np.sum(ws * np.abs(transformed) ** 2
                                       * rs ** (n - 1)))
            rhs_quad = integrate_halfline_decaying(
                lambda t: np.abs(prof.values(t)) ** 2 * t ** (n - 1))
            rhs = omega * float(np.real(rhs_quad.value))
            assert abs(lhs - rhs) <= 1e-5 * abs(rhs), (str(prof), n)


def test_spherical_mean_examples():
    assert spherical_mean(lambda p: p[0] ** 2, 3, 2.0) == pytest.approx(4.0 / 3.0,
                                                                        abs=1e-12)
    assert abs(spherical_mean(lambda p: p[0], 2, 1.7)) < 1e-14
    radial = lambda p: math.exp(-float(np.dot(p, p)))
    for n in (1, 2, 3):
        assert spherical_mean(radial, n, 1.3) == pytest.approx(math.exp(-1.69),
                                                               abs=1e-12)


def test_spherical_mean_degree_12_exactness():
    def dfact(k):
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out
    F = lambda p: p[0] ** 6 * p[1] ** 4 * p[2] ** 2
    exact = 2.0 ** 12 * dfact(5) * dfact(3) * dfact(1) / dfact(13)
    assert abs(spherical_mean(F, 3, 2.0) - exact) < 1e-10 * max(1.0, exact)
    G = lambda p: p[0] ** 12
    exact2 = 1.5 ** 12 * dfact(11) / dfact(12)
    assert abs(spherical_mean(G, 2, 1.5) - exact2) < 1e-10 * exact2


def test_spherical_mean_one_dimensional_even_part():
    F = lambda p: p[0] ** 3 + 2.0
    assert spherical_mean(F, 1, 1.4) == pytest.approx(2.0, abs=1e-14)


def test_spherical_mean_dimension_limit():
    with pytest.raises(ValueError):
        spherical_mean(lambda p: 1.0, 4, 1.0)


def test_callable_profile_roundtrip():
    prof = CallableProfile(lambda t: np.exp(-t))
    assert abs(radial_fourier(prof, 1, 1.0)
               - 2.0 / (1.0 + 4.0 * math.pi ** 2)) < 1e-9


def test_analytic_profile_complex_detection():
    prof = AnalyticProfile("exp(-s)")
    assert not prof.is_complex
    prof = AnalyticProfile("exp(-(1 + 2*i)*s)")
    assert prof.is_complex
    value = radial_fourier(prof, 1, 0.5)
    assert isinstance(value, complex)


def test_real_constants_keep_an_imaginary_value():
    # sqrt(s-2) is imaginary on [0, 2); at n = 3 the transform is
    # (2/r) int_0^inf f(t) sin(2 pi r t) t dt, here against mpmath
    import mpmath
    with mpmath.workdps(30):
        exact = complex(2 * mpmath.quad(
            lambda t: mpmath.sqrt(t - 2) * mpmath.exp(-t)
            * mpmath.sin(2 * mpmath.pi * t) * t,
            [0] + [2 + k / 2 for k in range(120)] + [mpmath.inf]))
    assert abs(exact - (0.02416476315698 + 0.00787794952977j)) < 1e-13
    res = radial_fourier_result("sqrt(s-2)*exp(-s)", 3, 1.0)
    assert res.converged and isinstance(res.value, complex)
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)
    # an imaginary part of exactly 0 still comes back real
    assert isinstance(radial_fourier_result("sqrt(s+2)*exp(-s)", 3, 1.0).value,
                      float)
    # and so does a single profile value
    assert profile_from_text("sqrt(s-2)")(1.0) == 1j
    assert type(profile_from_text("sqrt(s-2)")(3.0)) is float
