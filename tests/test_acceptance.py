"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  ``test_check`` runs every row of ``radialift.checks.CHECKS``, the
table that ``radialift verify`` runs too; those rows pin their own bounds
there.  Every other tolerance is pinned here; nothing is deferred to
calibration.
"""

import math
import time

import numpy as np
import pytest

from radialift.checks import CHECKS, recursion_battery
from radialift.cli import main as cli_main
from radialift.kernels import even_to_squared, kirchhoff
from radialift.lift import lift_once, lift_prediff
from radialift.quadrature import integrate_halfline_decaying
from radialift.transform import profile_from_text, radial_fourier, sphere_surface

SECH = profile_from_text("sech(pi*s)")
GAUSS = profile_from_text("exp(-pi*s^2)")


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


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.id)
def test_check(check):
    passed, line = check.run()
    print(line)
    assert passed, line


def test_criterion_07_prediff_agreement():
    worst = 0.0
    for (text, n, r), (lifted, _) in recursion_battery().items():
        prediff = lift_prediff(profile_from_text(text), n, r)
        worst = max(worst, abs(prediff - lifted))
    report(7, "pre-differentiated route agrees with lift-after-transform",
           worst, 1e-6)


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
