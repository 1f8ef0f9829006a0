"""The benchmark's own checks: its closed forms, and short runs of every workload.

    python3 -m pytest bench/test_bench.py -q

The closed forms in oracles.py are checked against mpmath alone, never
against radialift: direct transforms by quadrature of the Hankel form with
``mpmath.quadosc``, the lift closed forms by the recursion
F_(n+2) = -(1/(2 pi r)) dF_n/dr with ``mpmath.diff``.  The short runs take
a few seconds each and assert that the only failures are the named faults.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402

mpmath.mp.dps = 30


def hankel_transform(f, n, r):
    """(2 pi)^(n/2) int_0^inf f(t) Jt_(n/2-1)(2 pi r t) t^(n-1) dt in mpmath."""
    nu = mpmath.mpf(n) / 2 - 1
    if r == 0:
        moment = mpmath.quad(lambda t: f(t) * t ** (n - 1), [0, mpmath.inf])
        return ((2 * mpmath.pi) ** (mpmath.mpf(n) / 2) * moment
                / (2 ** nu * mpmath.gamma(nu + 1)))
    w = 2 * mpmath.pi * r
    integral = mpmath.quadosc(
        lambda t: f(t) * t ** (mpmath.mpf(n) / 2) * mpmath.besselj(nu, w * t),
        [0, mpmath.inf], omega=w)
    return 2 * mpmath.pi * r ** (-nu) * integral


def gaussian(t):
    return mpmath.exp(-mpmath.pi * t * t)


def exp_2pi(t):
    return mpmath.exp(-2 * mpmath.pi * t)


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * abs(b)


@pytest.mark.parametrize("n, r", [(1, 0.7), (2, 1.3), (3, 0.0), (4, 0.4),
                                  (5, 2.1), (15, 0.5)])
def test_gaussian_is_its_own_transform(n, r):
    assert close(oracles.gaussian(n, r), hankel_transform(gaussian, n, r))


@pytest.mark.parametrize("n, r", [(1, 0.5), (2, 1.7), (3, 0.0), (4, 2.2),
                                  (5, 0.05), (15, 1.0)])
def test_poisson_kernel(n, r):
    assert close(oracles.poisson(n, r), hankel_transform(exp_2pi, n, r))


@pytest.mark.parametrize("n, rho", [(1, 0.3), (1, 2.0), (3, 0.8)])
def test_abs_exp_transform(n, rho):
    # exp(-|x|) is radial in every dimension; its transform is abs_exp
    assert close(oracles.abs_exp(n, rho),
                 hankel_transform(lambda t: mpmath.exp(-t), n, rho))


def mp_abs_exp(n, rho):
    h = mpmath.mpf(n + 1) / 2
    return (mpmath.gamma(h) * 2 ** n * mpmath.pi ** (mpmath.mpf(n - 1) / 2)
            * (1 + 4 * mpmath.pi ** 2 * rho * rho) ** (-h))


def mp_poisson(n, r):
    h = mpmath.mpf(n + 1) / 2
    return mpmath.gamma(h) * mpmath.pi ** (-h) * (1 + r * r) ** (-h)


def lifted(closed_form, n, rho):
    """-(1/(2 pi rho)) d/drho of closed_form(n, .) at rho, by mpmath.diff."""
    rho = mpmath.mpf(rho)
    return -mpmath.diff(lambda x: closed_form(n, x), rho) / (2 * mpmath.pi * rho)


@pytest.mark.parametrize("rho", [0.1, 1.3, 5.0])
def test_lift_closed_forms_follow_the_recursion(rho):
    for n in range(1, 15, 2):  # n = 1 -> 3 -> ... -> 15
        assert close(mp_abs_exp(n + 2, rho), lifted(mp_abs_exp, n, rho))
        assert close(oracles.abs_exp(n + 2, rho), mp_abs_exp(n + 2, rho))
    for n in (1, 2):  # the numeric rungs of lift-ladder
        assert close(mp_poisson(n + 2, rho), lifted(mp_poisson, n, rho))
        assert close(oracles.poisson(n + 2, rho), mp_poisson(n + 2, rho))
    gauss = lambda n, x: mpmath.exp(-mpmath.pi * x * x)
    for n in range(2, 16, 2):
        assert close(oracles.gaussian(n + 2, rho), lifted(gauss, n, rho))


def test_abs_exp_base_is_the_lifted_profile():
    for rho in (0.1, 1.0, 5.0):
        assert close(oracles.abs_exp(1, rho),
                     2 / (1 + 4 * mpmath.pi ** 2 * rho ** 2), rel=1e-14)


# ---------------------------------------------------------------------------
# short runs

def round_shape(workload):
    """(ops, failed ops) in one round of the workload."""
    if workload == "grid-direct":
        per_profile = (len(run.GRID_DIMS) * (run.GRID_SEEDED_RADII + 1)
                       + len(run.GRID_HIGH_RADII))
        return len(run.GRID_PROFILES) * per_profile, len(run.GRID_FAULTS)
    if workload == "lift-ladder":
        return (run.LIFT_SEEDED + len(run.LIFT_FAULT_RHOS),
                len(run.LIFT_FAULT_RHOS))
    return 1, 0


def short_run(workload, trace, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_fails_only_on_named_faults(workload, trace):
    proc = short_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert "UNEXPECTED" not in proc.stderr
    ops, failed = round_shape(workload)
    assert result["attempted"] >= ops and result["attempted"] % ops == 0
    assert result["failed"] * ops == result["attempted"] * failed
    names = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        assert "tracing overhead" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark itself
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = short_run("grid-direct", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
