"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from radialift.bessel import Order, bessel_j_tilde
from radialift.cli import main as cli_main
from radialift.kernels import (even_to_squared, kirchhoff, projection_kernel,
                               projection_profile, resolvent_kernel,
                               resolvent_profile)
from radialift.lift import (CentralFDEngine, corollary_coefficients,
                            iterate_operator_symbolic, lift_once,
                            lift_once_symbolic, lift_prediff)
from radialift.quadrature import integrate_halfline_decaying
from radialift.transform import (CallableProfile, profile_from_text,
                                 radial_fourier, sphere_surface)

SECH = profile_from_text("sech(pi*s)")
GAUSS = profile_from_text("exp(-pi*s^2)")
EXP = profile_from_text("exp(-s)")


def report(number, label, worst, tol, extra=""):
    ok = worst <= tol
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {label} "
          f"(worst {worst:.3e} vs tol {tol:.0e}{extra})")
    assert ok, f"criterion {number}: {label}: {worst:.3e} > {tol:.0e}"


def sech_lift_closed(r):
    return 0.5 / r / math.cosh(math.pi * r) * math.tanh(math.pi * r)


def test_criterion_01_sech_lift_analytic():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for r in rng.uniform(0.05, 5.0, 50):
        value = lift_once(SECH, float(r)).value
        worst = max(worst, abs(value - sech_lift_closed(float(r))))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, "analytic sech lift vs closed form", worst, 1e-12,
           f", {elapsed:.2f}s")


def test_criterion_02_sech_direct_transform():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        value = radial_fourier(SECH, 3, r)
        worst = max(worst, abs(value - sech_lift_closed(r)))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(2, "direct 3-d sech transform vs closed form", worst, 1e-7,
           f", {elapsed:.2f}s")


def test_criterion_03_resolvent_ladder():
    rng = np.random.default_rng(33)
    zs = (-1.0 + 0j, -2.0 + 1j, -0.5 - 3j)
    worst = 0.0
    for _ in range(20):
        z = zs[rng.integers(0, len(zs))]
        r = float(rng.uniform(0.1, 5.0))
        lifted3 = lift_once_symbolic(resolvent_profile(1, z))
        worst = max(worst, abs(lifted3.evaluate(r) - resolvent_kernel(3, z, r)))
        lifted5 = lift_once_symbolic(lifted3)
        worst = max(worst, abs(lifted5.evaluate(r) - resolvent_kernel(5, z, r)))
    report(3, "symbolic resolvent lifts reproduce displays", worst, 1e-12)


def test_criterion_04_projection_ladder():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(20):
        energy = float(rng.uniform(0.3, 6.0))
        r = float(rng.uniform(0.1, 5.0))
        lifted = lift_once_symbolic(projection_profile(1, energy))
        worst = max(worst, abs(lifted.evaluate(r).real
                               - projection_kernel(3, energy, r)))
    report(4, "projection lift reproduces the 3-d display", worst, 1e-12)


def test_criterion_05_coefficients():
    exact = all(corollary_coefficients(k).entries
                == iterate_operator_symbolic(k).entries for k in range(1, 11))
    spots = (str(corollary_coefficients(1)) == "-1"
             and str(corollary_coefficients(2)) == "-1, 1"
             and str(corollary_coefficients(3)) == "-3, 3, -1")
    worst = 0.0 if (exact and spots) else 1.0
    report(5, "coefficient tables exact for k=1..10 plus spot values",
           worst, 0.5)


@pytest.fixture(scope="module")
def recursion_battery():
    """Shared by criteria 6 and 7: lift of a computed transform vs direct."""
    engine = CentralFDEngine(step=0.01)
    out = {}
    for name, prof in (("gaussian", GAUSS), ("exponential", EXP)):
        for n in (1, 2, 3):
            transform_profile = CallableProfile(
                lambda rho, p=prof, nn=n: radial_fourier(p, nn, rho))
            for r in (0.25, 0.5, 1.0, 2.0):
                lifted = lift_once(transform_profile, r, engine).value
                direct = radial_fourier(prof, n + 2, r)
                out[(name, n, r)] = (lifted, direct)
    return out


def test_criterion_06_recursion_consistency(recursion_battery):
    start = time.perf_counter()
    worst = max(abs(lifted - direct)
                for lifted, direct in recursion_battery.values())
    elapsed = time.perf_counter() - start
    report(6, "lift of computed transform equals direct higher transform",
           worst, 1e-6, f", battery of {len(recursion_battery)}")
    assert time.perf_counter() - start < 120.0


def test_criterion_07_prediff_agreement(recursion_battery):
    profiles = {"gaussian": GAUSS, "exponential": EXP}
    worst = 0.0
    for (name, n, r), (lifted, _) in recursion_battery.items():
        prediff = lift_prediff(profiles[name], n, r)
        worst = max(worst, abs(prediff - lifted))
    report(7, "pre-differentiated route agrees with lift-after-transform",
           worst, 1e-6)


def test_criterion_08_gaussian_fixed_point():
    worst = 0.0
    for n in range(1, 7):
        for r in (0.5, 1.0, 2.0):
            value = radial_fourier(GAUSS, n, r)
            worst = max(worst, abs(value - math.exp(-math.pi * r * r)))
    report(8, "Gaussian is the transform fixed point for n=1..6", worst, 1e-8)


def test_criterion_09_bessel_derivative_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for twice_nu in (-1, 0, 1, 2, 3, 4):
        order = Order(twice_nu)
        order_up = Order(twice_nu + 2)
        envelope = lambda x: math.sqrt(2 / math.pi) * x ** (-(order_up.nu + 0.5))
        count = 0
        while count < 50:
            x = float(rng.uniform(0.5, 50.0))
            rhs = -x * bessel_j_tilde(order_up, x)
            if abs(rhs) < 0.2 * x * envelope(x):
                continue
            h = 1e-5 * max(1.0, x)
            fd = (bessel_j_tilde(order, x + h)
                  - bessel_j_tilde(order, x - h)) / (2 * h)
            worst = max(worst, abs(fd - rhs) / abs(rhs))
            count += 1
    report(9, "normalized-kernel derivative identity across orders", worst, 1e-6)


def test_criterion_10_plancherel():
    worst = 0.0
    nodes, weights = np.polynomial.legendre.leggauss(48)
    upper = 9.0
    rs = 0.5 * upper * (nodes + 1.0)
    ws = 0.5 * upper * weights
    for prof in (GAUSS, SECH):
        for n in (1, 2, 3):
            omega = sphere_surface(n)
            transformed = np.array([radial_fourier(prof, n, float(r))
                                    for r in rs])
            lhs = omega * float(np.sum(ws * np.abs(transformed) ** 2
                                       * rs ** (n - 1)))
            quad = integrate_halfline_decaying(
                lambda t: np.abs(prof.values(t)) ** 2 * t ** (n - 1))
            rhs = omega * float(np.real(quad.value))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    report(10, "Plancherel identity for Gaussian and sech, n=1..3",
           worst, 1e-5)


def test_criterion_11_kirchhoff():
    phi = lambda p: math.exp(-float(np.dot(p, p)))
    worst = 0.0
    for t in (0.4, 0.7, 1.5):
        u = kirchhoff(phi, t, np.zeros(3))
        worst = max(worst, abs(u - t * math.exp(-t * t)))
    report(11, "Kirchhoff radial identity u(t,0) = t phi(t)", worst, 1e-9)

    h, t0 = 1e-2, 0.5

    def second(f):
        return (-f(2 * h) + 16 * f(h) - 30 * f(0.0)
                + 16 * f(-h) - f(-2 * h)) / (12 * h * h)

    u_tt = second(lambda d: kirchhoff(phi, t0 + d, np.zeros(3)))
    lap = 0.0
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        lap += second(lambda d: kirchhoff(phi, t0, d * e))
    report(11, "Kirchhoff wave-equation residual |u_tt - lap u|",
           abs(u_tt - lap), 1e-4)


def test_criterion_12_even_composition():
    worst = 0.0
    for k in (1, 2, 3):
        value = even_to_squared("exp(-s^2)", k, 1.0)
        worst = max(worst, abs(value - (-1) ** k * math.exp(-1)))
    report(12, "squared-argument derivatives of the Gaussian", worst, 1e-9)

    worst = 0.0
    for k in (1, 2, 3):
        value = even_to_squared("cos(s)", k, 0.0)
        worst = max(worst, abs(value / math.factorial(k)
                               - (-1) ** k / math.factorial(2 * k)))
    for k, euler in ((1, -1.0), (2, 5.0), (3, -61.0)):
        value = even_to_squared("sech(s)", k, 0.0)
        worst = max(worst, abs(value / math.factorial(k)
                               - euler / math.factorial(2 * k)))
    report(12, "Taylor identity at the origin for cos and sech", worst, 1e-10)


def test_criterion_13_cli_commands(capsys):
    import csv
    import io

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, argv
        return out

    def value(out):
        row = next(csv.DictReader(io.StringIO(out)))
        return float(row["value_re"])

    cases = [
        (("transform", "--profile", "sech(3.14159265358979*s)", "--dim", "1",
          "--grid", "1:1:1"), 1.0 / math.cosh(math.pi), 1e-7),
        (("lift", "--profile", "sech(pi*s)", "--from", "1", "--to", "3",
          "--grid", "1:1:1"), sech_lift_closed(1.0), 1e-12),
        (("kernel", "--resolvent", "-1", "--dim", "5", "--grid", "1:1:1"),
         math.exp(-1) / (4 * math.pi ** 2), 1e-12),
    ]
    worst = 0.0
    for argv, expected, tol in cases:
        first = run(*argv)
        second = run(*argv)
        assert first == second, f"nondeterministic output for {argv}"
        worst = max(worst, abs(value(first) - expected) / tol)
    report(13, "paper-anchored CLI commands, deterministic", worst, 1.0,
           " (normalized to each tolerance)")
