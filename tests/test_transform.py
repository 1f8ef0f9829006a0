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
    # the head's end z_1 / (2 pi r) itself overflows; the Gaussian and the
    # Poisson kernel stop the head at t ~ 1e8, an algebraic tail near 1e12
    spec = QuadratureSpec()
    poisson = profile_from_text("exp(-2*pi*s)")
    cases = [(GAUSS, n, r, 1.0) for n, r in ((3, 1e-200), (8, 1e-100),
                                            (1, 2.2e-311))]
    cases += [(poisson, n, r, _poisson(n, r)) for n, r in ((3, 1e-200),
                                                           (8, 1e-100),
                                                           (1, 2.2e-311))]
    # in R^3 the transform of 1/(1+|x|^2)^2 is pi^2 e^(-2 pi |xi|)
    cases.append((profile_from_text("1/(1+s^2)^2"), 3, 2.2e-311, math.pi ** 2))
    for profile, n, r, exact in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = radial_fourier_result(profile, n, r)
        assert [str(w.message) for w in caught] == [], (n, r)
        assert res.converged
        assert abs(res.value - exact) <= 10 * spec.tolerance(exact), (n, r)


def test_tiny_radii_cost_is_flat():
    # below r ~ 5e-9 every head stops just past t = 1e8, however far its end
    # lies: the Gaussian's cost does not grow as r goes to 0
    costs = {r: radial_fourier_result(GAUSS, 3, r).evaluations
             for r in (1e-9, 1e-200, 2.2e-311)}
    assert len(set(costs.values())) == 1, costs


def test_small_radii_reach_a_second_bump():
    # the bump at s = 100 lies past three negligible windows of the head;
    # the head runs on to its end (or to t = 1e8) and reaches it
    mpmath = pytest.importorskip("mpmath")
    profile = profile_from_text("exp(-pi*s^2) + exp(-(s-100)^2)")
    for n in (1, 3):
        for r in (1e-3, 1e-9, 1e-200):
            w = 2 * math.pi * r
            # the bump's transform: 2 int cos(w t) b(t) dt at n = 1 and
            # 4 pi int (sin(w t) / w) b(t) t dt at n = 3, b = e^(-(t - 100)^2)
            if n == 1:
                kernel = lambda t: 2 * mpmath.cos(w * t)
            else:
                kernel = lambda t: 4 * mpmath.pi * mpmath.sin(w * t) / w * t
            bump = mpmath.quad(lambda t: mpmath.exp(-(t - 100) ** 2)
                               * kernel(t), [70, 100, 130])
            exact = math.exp(-math.pi * r * r) + float(bump)
            res = radial_fourier_result(profile, n, r)
            assert res.converged, (n, r)
            assert abs(res.value - exact) <= 1e-9 * abs(exact), (n, r)


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


def _outcome(compute):
    """The results of ``compute()``, or the type of an expected error; any
    other error fails the test."""
    try:
        return compute()
    except IntegrabilityError as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(text=st.sampled_from(_GRID_PROFILES), n=st.integers(1, 8),
       radii=st.lists(st.sampled_from([0.0, 0.25, 1.0]) |
                      st.floats(0.0, 4.0, allow_nan=False), min_size=1,
                      max_size=12))
# a tiny radius once overflowed the panel midpoints far out on the half line
@example(text="exp(-pi*s^2)", n=6, radii=[2.2250738585072014e-308])
@example(text="exp(-pi*s^2)", n=1, radii=[1.1125369292536007e-308])
def test_grid_equals_its_points(text, n, radii):
    points = _outcome(lambda: [radial_fourier_result(profile_from_text(text),
                                                     n, r) for r in radii])
    grid = _outcome(lambda: radial_fourier_grid(profile_from_text(text), n,
                                                radii))
    if isinstance(points, type):  # the gate's refusal
        assert grid is points
        assert text == "1/(1+s^2)^2" and n >= 4
        return
    assert [p.converged for p in points] == [g.converged for g in grid]
    for r, p, g in zip(radii, points, grid):
        assert abs(g.value - p.value) <= max(1e-12 * abs(p.value),
                                             p.error_estimate), r
    assert sum(p.evaluations for p in points) == \
        sum(g.evaluations for g in grid)


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


def test_hankel_zero_profile():
    assert hankel(profile_from_text("0"), 0.5, 1.3) == 0.0


def test_hankel_profile_domain_error_propagates():
    # a GK15 node of the first segment lands on the pole at s = 0.5
    with pytest.raises(EvaluationDomainError) as err:
        hankel("1/(s-0.5)", 0, 1.0)
    assert err.value.value == 0.5


def test_out_of_oscillations_raises_convergence_error():
    spec = QuadratureSpec(max_oscillations=2)
    calls = [lambda: radial_fourier("exp(-s)", 3, 1.0, spec),
             lambda: hankel("exp(-s/20)", 0, 1.0, spec),
             lambda: kernel_of_multiplier("1/(s+1)", 3, 1.0, spec)]
    for call in calls:
        with warnings.catch_warnings():
            # the multiplier fails the advisory gate and is forced
            warnings.filterwarnings("ignore", "forcing transform")
            with pytest.raises(ConvergenceError) as err:
                call()
        assert err.value.result is not None
        assert not err.value.result.converged


def test_hankel_fourier_relation_battery():
    for prof, n, r, tol in [(GAUSS, 2, 1.0, 1e-9), (GAUSS, 3, 0.5, 1e-9),
                            (SECH, 1, 1.0, 1e-8),
                            (profile_from_text("exp(-s^2)"), 1, 1.0, 1e-8)]:
        lhs, rhs = hankel_fourier_relation(prof, n, r)
        assert abs(lhs - rhs) <= tol, (n, r, lhs, rhs)


def test_integrability_examples():
    assert integrability_check(profile_from_text("exp(-s)"), 3).passed
    report = integrability_check(profile_from_text("1"), 3)
    assert not report.passed
    assert report.failed_piece == "tail"
    assert integrability_check(profile_from_text("(1+s)^-3"), 1).passed
    report = integrability_check(profile_from_text("(1+s)^-3"), 5)
    assert not report.passed


def test_gate_blocks_and_force_overrides():
    prof = profile_from_text("1")
    with pytest.raises(IntegrabilityError) as err:
        radial_fourier(prof, 3, 1.0)
    assert "tail" in str(err.value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = radial_fourier_result(profile_from_text("1/(1+s)"), 3, 1.0,
                                    force=True)
    assert res.evaluations > 0  # ran despite the failed gate


def test_gate_verdict_is_independent_of_the_first_radius():
    # the near piece of the probe depends on r; the cached verdict must not
    for radii in ((1e-4, 1.0), (1.0, 1e-4)):
        prof = profile_from_text("1/(1+s^2)")
        for r in radii:
            with pytest.raises(IntegrabilityError):
                radial_fourier_result(prof, 3, r)


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
