"""Dimension lift: operator values, coefficient tables, derivative engines."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from radialift.errors import EngineError, ParityError
from radialift.lift import (AnalyticEngine, CentralFDEngine, ChebyshevEngine,
                            _fornberg_weights, corollary_coefficients,
                            default_engine, iterate_operator_symbolic,
                            lift_once, lift_once_symbolic, lift_prediff,
                            lift_to_dimension)
from radialift.transform import (CallableProfile, SampledProfile,
                                 profile_from_text, radial_fourier)

SECH = profile_from_text("sech(pi*s)")
GAUSS = profile_from_text("exp(-pi*s^2)")
ABS_EXP_1D = profile_from_text("2/(1+4*pi^2*s^2)")  # transform of exp(-|x|)


def sech_lift_closed(r):
    return 0.5 / r / math.cosh(math.pi * r) * math.tanh(math.pi * r)


# ---------------------------------------------------------------------------
# coefficient tables

def test_coefficient_spot_values():
    assert [c for _, c in corollary_coefficients(1)] == [Fraction(-1)]
    assert [c for _, c in corollary_coefficients(2)] == [Fraction(-1), Fraction(1)]
    assert [c for _, c in corollary_coefficients(3)] == [Fraction(-3), Fraction(3),
                                                         Fraction(-1)]


def test_coefficients_match_symbolic_iteration():
    for k in range(1, 11):
        assert corollary_coefficients(k).entries \
            == iterate_operator_symbolic(k).entries


def test_top_coefficient_alternates():
    for k in range(1, 11):
        assert iterate_operator_symbolic(k).coefficient(k) == Fraction((-1) ** k)


def test_coefficients_stay_exact_at_large_k():
    table = corollary_coefficients(30)
    # (2k - 2)! / 2^(k-1) / (k-1)! for l=1 overflows doubles; must stay exact
    c1 = table.coefficient(1)
    assert c1.denominator == 1
    assert c1 == -Fraction(math.factorial(58),
                           2 ** 29 * math.factorial(29) * 1)
    assert iterate_operator_symbolic(12).entries == corollary_coefficients(12).entries


def test_coefficient_validation():
    with pytest.raises(ValueError):
        corollary_coefficients(0)
    with pytest.raises(ValueError):
        iterate_operator_symbolic(0)


# ---------------------------------------------------------------------------
# single lift

def test_lift_sech_closed_form():
    res = lift_once(SECH, 1.0)
    assert abs(res.value - sech_lift_closed(1.0)) < 1e-14
    assert res.error_estimate == 0.0


def test_lift_gaussian_fixed_point():
    for r in (0.3, 1.0, 2.5):
        assert abs(lift_once(GAUSS, r).value - math.exp(-math.pi * r * r)) < 1e-13


def test_lift_resolvent_step():
    base = profile_from_text("exp(-s)/2")  # one-dimensional kernel at z = -1
    assert abs(lift_once(base, 2.0).value - math.exp(-2) / (8 * math.pi)) < 1e-15


def test_lift_rejects_origin():
    # the origin is a removable singularity; only r < 0 is out of range
    with pytest.raises(ValueError):
        lift_once(GAUSS, -0.5)
    with pytest.raises(ValueError):
        lift_to_dimension(GAUSS, 2, 4, -0.5)


def test_lift_linearity():
    a, b = 2.3, -1.7
    combined = profile_from_text(f"{a}*exp(-pi*s^2) + ({b})*sech(pi*s)")
    lhs = lift_once(combined, 0.8).value
    rhs = a * lift_once(GAUSS, 0.8).value + b * lift_once(SECH, 0.8).value
    assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# lift at the origin

def test_lift_at_zero_gaussian():
    assert abs(lift_once(GAUSS, 0.0).value - 1.0) < 1e-14


def test_lift_at_zero_sech():
    assert abs(lift_once(SECH, 0.0).value - math.pi / 2) < 1e-13


def test_lift_at_zero_projection_profile():
    # sin(t)/(pi t) lifts to 1/(6 pi^2) at the origin, matching the r -> 0
    # limit of the three-dimensional projection kernel at E = 1
    p1 = profile_from_text("sin(s)/(pi*s)")
    limit = 1.0 / (6.0 * math.pi ** 2)
    assert abs(lift_once(p1, 0.0).value - limit) < 1e-10
    # its limit at 0 stops at D^2; D^4 would lose its digits to cancellation
    with pytest.raises(EngineError):
        lift_to_dimension(p1, 1, 5, 0.0)
    # oracle: series of (sin t - t cos t)/(2 pi^2 t^3) at t -> 0 is 1/(6 pi^2)
    t = 1e-3
    p3 = (math.sin(t) - t * math.cos(t)) / (2 * math.pi ** 2 * t ** 3)
    assert abs(p3 - limit) < 1e-8


def test_lift_at_zero_limit_reports_its_error():
    # the Richardson limit of D^2 at 0 is not exact: its bound, the gap of
    # its last two levels, covers the distance to 1/(6 pi^2)
    res = lift_once(profile_from_text("sin(s)/(pi*s)"), 0.0)
    error = abs(res.value - 1.0 / (6.0 * math.pi ** 2))
    assert error <= res.error_estimate < 1e-9


def test_lift_at_zero_numeric_engine():
    prof = CallableProfile(lambda t: np.exp(-math.pi * t ** 2))
    res = lift_once(prof, 0.0, CentralFDEngine(step=0.02))
    assert abs(res.value - 1.0) < 1e-8
    res = lift_to_dimension(prof, 2, 6, 0.0, CentralFDEngine(step=0.02))
    assert abs(res.value - 1.0) < 1e-6


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lift_at_zero_is_the_taylor_term(k):
    # k steps at the origin: k! D^(2k)F(0) / ((2k)! (-pi)^k).  From n = 1,
    # exp(-|x|)'s transform lifts to Gamma((n+1)/2) 2^n pi^((n-1)/2) at 0.
    n = 1 + 2 * k
    abs_exp = math.gamma((n + 1) / 2) * 2 ** n * math.pi ** ((n - 1) / 2)
    for profile, base, exact in ((GAUSS, 2, 1.0), (ABS_EXP_1D, 1, abs_exp)):
        value = lift_to_dimension(profile, base, base + 2 * k, 0.0).value
        assert abs(value - exact) <= 1e-13 * exact
        if k == 1:
            assert abs(lift_once(profile, 0.0).value - exact) <= 1e-13 * exact


# ---------------------------------------------------------------------------
# pre-differentiated route

def test_prediff_matches_direct_transform():
    prof = profile_from_text("exp(-s^2)")
    lhs = lift_prediff(prof, 1, 1.0)
    rhs = radial_fourier(prof, 3, 1.0)
    assert abs(lhs - rhs) < 1e-7


def test_prediff_gaussian_fixed_point():
    for r in (0.5, 1.0):
        assert abs(lift_prediff(GAUSS, 2, r) - math.exp(-math.pi * r * r)) < 1e-7


def test_prediff_sech():
    assert abs(lift_prediff(SECH, 1, 1.0) - sech_lift_closed(1.0)) < 1e-6


def test_prediff_rejects_sampled_profiles():
    grid = np.linspace(0.1, 5.0, 64)
    prof = SampledProfile(grid, np.exp(-grid))
    with pytest.raises(EngineError):
        lift_prediff(prof, 1, 1.0)


# ---------------------------------------------------------------------------
# multi-step lift

def test_lift_to_dimension_examples():
    assert abs(lift_to_dimension(SECH, 1, 3, 1.0).value
               - sech_lift_closed(1.0)) < 1e-14
    for base in (1, 2):
        res = lift_to_dimension(GAUSS, base, base + 4, 1.0)
        assert abs(res.value - math.exp(-math.pi)) < 1e-9
    base = profile_from_text("exp(-s)/2")
    res = lift_to_dimension(base, 1, 5, 1.0)
    assert abs(res.value - 2 * math.exp(-1) / (8 * math.pi ** 2)) < 1e-15


def test_lift_to_dimension_is_identity_at_zero_steps():
    assert abs(lift_to_dimension(SECH, 1, 1, 0.7).value - SECH(0.7)) < 1e-15


def test_lift_to_dimension_matches_lift_once():
    for r in (0.4, 1.1, 2.2):
        a = lift_to_dimension(SECH, 1, 3, r).value
        b = lift_once(SECH, r).value
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_lift_parity_errors():
    with pytest.raises(ParityError):
        lift_to_dimension(SECH, 1, 4, 1.0)
    with pytest.raises(ParityError):
        lift_to_dimension(SECH, 3, 5, 1.0)
    with pytest.raises(ParityError):
        lift_to_dimension(SECH, 1, -1, 1.0)


# ---------------------------------------------------------------------------
# engines

def test_default_engine_selection():
    assert isinstance(default_engine(GAUSS), AnalyticEngine)
    grid = np.linspace(0.1, 3.0, 64)
    assert isinstance(default_engine(SampledProfile(grid, np.exp(-grid))),
                      ChebyshevEngine)
    assert isinstance(default_engine(CallableProfile(lambda t: t)),
                      CentralFDEngine)


def test_fd_engine_against_analytic():
    numeric = CallableProfile(lambda t: 1.0 / np.cosh(math.pi * t))
    res = lift_once(numeric, 1.0, CentralFDEngine(step=0.01))
    assert abs(res.value - sech_lift_closed(1.0)) < 1e-7
    assert res.error_estimate > 0


def test_chebyshev_engine_against_analytic():
    numeric = CallableProfile(lambda t: 1.0 / np.cosh(math.pi * t))
    engine = ChebyshevEngine(degree=60, interval=(0.5, 2.0))
    res = lift_once(numeric, 1.0, engine)
    assert abs(res.value - sech_lift_closed(1.0)) < 1e-10
    with pytest.raises(EngineError):
        lift_once(numeric, 3.0, engine)
    with pytest.raises(EngineError):
        lift_once(numeric, 0.0, engine)


def test_sampled_profile_lift_with_error_bound():
    grid = np.linspace(0.4, 2.4, 900)
    prof = SampledProfile(grid, 1.0 / np.cosh(math.pi * grid))
    res = lift_once(prof, 1.0)
    assert abs(res.value - sech_lift_closed(1.0)) < 1e-6
    assert res.error_estimate > 0


def test_higher_order_fd_derivatives():
    prof = CallableProfile(lambda t: np.exp(-math.pi * t ** 2))
    res = lift_to_dimension(prof, 1, 5, 1.0,
                            CentralFDEngine(step=0.02))
    assert abs(res.value - math.exp(-math.pi)) < 1e-5
    with pytest.raises(EngineError):
        lift_to_dimension(prof, 1, 13, 1.0, CentralFDEngine())


class _Reads:
    """exp(-pi t^2) for scalar t alone, recording every radius it reads."""

    def __init__(self):
        self.radii = []

    def __call__(self, t):
        if np.ndim(t):
            raise TypeError("scalar radii only")
        self.radii.append(float(t))
        return math.exp(-math.pi * t * t)


@pytest.mark.parametrize("r, k, nodes", [(1.0, 1, 9), (0.0, 1, 8), (0.0, 2, 9)])
def test_fd_engine_reads_each_node_once(r, k, nodes):
    # the stencils at h, h/2 and h/4 share nodes; at r = 0 the even
    # extension folds each node to |t|, so no negative radius is read
    reads = _Reads()
    res = lift_to_dimension(CallableProfile(reads), 1, 1 + 2 * k, r,
                            CentralFDEngine())
    assert len(reads.radii) == len(set(reads.radii)) == nodes
    assert min(reads.radii) >= 0.0
    assert abs(res.value - math.exp(-math.pi * r * r)) < 1e-5


def test_fd_engine_matches_node_by_node_stencils():
    # each stencil read node by node, with the engine's weights and
    # Richardson steps: sharing the reads changes no bit
    prof = CallableProfile(_Reads())
    for t in (0.0, 0.3, 1.0):
        values, bounds = CentralFDEngine(step=0.01).derivatives(prof, t, 4)
        assert values[0] == prof.value(t)
        for m in range(1, 5):
            table = []
            for h in (0.01, 0.005, 0.0025):
                nodes = t + np.arange(-(m // 2 + 2), m // 2 + 3, dtype=float) * h
                weights = _fornberg_weights(t, nodes, m)[:, m]
                table.append(float(np.dot(
                    weights, [prof.value(abs(node)) for node in nodes])))
            for level, gain in ((1, 4.0), (2, 16.0)):
                for j in range(2, level - 1, -1):
                    table[j] += (table[j] - table[j - 1]) / (gain - 1.0)
            assert (values[m], bounds[m]) == (table[2], abs(table[2] - table[1]))


def test_fd_engine_calls_a_grid_capable_profile_once():
    shapes = []
    prof = CallableProfile(
        lambda t: shapes.append(np.shape(t)) or np.exp(-math.pi * t ** 2))
    res = lift_once(prof, 1.0, CentralFDEngine())
    assert shapes == [(9,)]
    assert abs(res.value - math.exp(-math.pi)) < 1e-8


def test_recursion_consistency_battery():
    """lift_once of a computed transform equals the direct higher transform."""
    profiles = [("exp(-pi*s^2)", GAUSS), ("exp(-s)", profile_from_text("exp(-s)")),
                ("exp(-s^2)*(2-s^2)", profile_from_text("exp(-s^2)*(2-s^2)"))]
    engine = CentralFDEngine(step=0.01)
    for name, prof in profiles:
        for n in (1, 2, 3):
            transform_profile = CallableProfile(
                lambda rho, p=prof, nn=n: radial_fourier(p, nn, rho))
            for r in (0.5, 1.0):
                lifted = lift_once(transform_profile, r, engine).value
                direct = radial_fourier(prof, n + 2, r)
                assert abs(lifted - direct) < 1e-6, (name, n, r)


def test_recursion_consistency_chebyshev_on_samples():
    engine_grid = np.linspace(0.1, 3.0, 120)
    values = np.array([radial_fourier(GAUSS, 1, float(r)) for r in engine_grid])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prof = SampledProfile(engine_grid, values)
        for r in (0.5, 1.0, 2.0):
            lifted = lift_once(prof, r).value
            assert abs(lifted - math.exp(-math.pi * r * r)) < 1e-4


def test_lift_once_symbolic_expression():
    lifted = lift_once_symbolic("sech(pi*s)")
    for r in (0.3, 1.0, 2.0):
        assert abs(lifted.evaluate(r).real - sech_lift_closed(r)) < 1e-14
