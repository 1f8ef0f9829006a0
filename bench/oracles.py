"""Closed forms the benchmark checks radialift against.

Computed with ``math`` alone, apart from the package and without mpmath, so
that timed processes measure radialift and nothing else.  ``test_bench.py``
checks every formula here against mpmath quadrature and differentiation.
"""

import math

ABS_TOL = 1e-14  # radialift's default QuadratureSpec tolerances
REL_TOL = 1e-10
SLACK = 10.0  # a point passes within SLACK times the requested tolerance


def gaussian(n, r):
    """Transform of exp(-pi s^2) in any dimension n: the same Gaussian."""
    return math.exp(-math.pi * r * r)


def poisson(n, r):
    """Transform of exp(-2 pi s) in dimension n: the Poisson kernel.

    Gamma((n+1)/2) pi^(-(n+1)/2) (1 + r^2)^(-(n+1)/2).
    """
    h = 0.5 * (n + 1)
    return math.gamma(h) * math.pi ** (-h) * (1.0 + r * r) ** (-h)


def abs_exp(n, rho):
    """Transform of exp(-|x|) in odd dimension n; at n = 1, 2/(1+4 pi^2 rho^2).

    Gamma((n+1)/2) 2^n pi^((n-1)/2) (1 + 4 pi^2 rho^2)^(-(n+1)/2).
    """
    h = 0.5 * (n + 1)
    return (math.gamma(h) * 2.0 ** n * math.pi ** (0.5 * (n - 1))
            * (1.0 + 4.0 * math.pi ** 2 * rho * rho) ** (-h))


def err_ratio(value, oracle):
    """|value - oracle| over the requested tolerance at the default spec."""
    return abs(value - oracle) / max(ABS_TOL, REL_TOL * abs(oracle))


def transform_ok(value, oracle):
    """Rule for a direct transform point (grid-direct, cold-start)."""
    return err_ratio(value, oracle) <= SLACK


def rung_ok(value, error_estimate, oracle):
    """Rule for a lift rung: within 10 x its own estimate or 1e-10 relative."""
    return abs(value - oracle) <= max(SLACK * error_estimate,
                                      REL_TOL * abs(oracle))
