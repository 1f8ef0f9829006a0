"""The verification battery: one table of checks of the paper's results.

``radialift verify`` and ``tests/test_acceptance.py`` both run the rows of
``CHECKS``.  A row names its suite, its check and its bound; its ``measure``
returns the worst deviation over its battery and a text that says what the
battery was.  Every battery draws its points from a fixed seed, so a run is
deterministic.  A row passes when its worst deviation is at most its bound;
NaN fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bessel, kernels, lift as _lift, transform as _transform

__all__ = ["Check", "CHECKS", "SUITES", "recursion_battery"]


@dataclass(frozen=True)
class Check:
    """One row of the battery: ``measure()`` gives (worst, detail)."""

    suite: str
    name: str
    bound: float
    measure: Callable[[], tuple[float, str]]

    @property
    def id(self):
        return f"{self.suite}.{self.name}"

    def run(self):
        """(passed, report line), the line ``PASS|FAIL suite.name: ...``."""
        worst, detail = self.measure()
        ok = bool(worst <= self.bound)
        return ok, (f"{'PASS' if ok else 'FAIL'} {self.id}: worst {worst:.3g}, "
                    f"bound {self.bound:.3g} ({detail})")


def _worst(devs):
    # np.max keeps a NaN, which the builtin max drops unless it comes first
    return float(np.max(devs))


def _derivative_identity(seed, per_order, keep, floor):
    """d/dx Jt_nu(x) = -x Jt_(nu+1)(x) by central differences, relative to
    max(|rhs|, floor).  A point x where |rhs| is below keep times its
    envelope x sqrt(2/pi) x^-(nu+3/2) lies near a zero and is drawn again."""
    rng = np.random.default_rng(seed)
    devs = []
    for twice_nu in (-1, 0, 1, 2, 3, 4):
        order, up = bessel.Order(twice_nu), bessel.Order(twice_nu + 2)
        count = 0
        while count < per_order:
            x = float(rng.uniform(0.5, 50.0))
            rhs = -x * bessel.bessel_j_tilde(up, x)
            if abs(rhs) < keep * x * math.sqrt(2 / math.pi) * x ** -(up.nu + 0.5):
                continue
            h = 1e-5 * max(1.0, x)
            fd = (bessel.bessel_j_tilde(order, x + h)
                  - bessel.bessel_j_tilde(order, x - h)) / (2 * h)
            devs.append(abs(fd - rhs) / max(abs(rhs), floor))
            count += 1
    return _worst(devs), (f"2 nu = -1..4, {per_order} x in [0.5, 50] each, "
                          f"seed {seed}, |rhs| >= {keep:g} envelope, "
                          f"over max(|rhs|, {floor:g})")


def _decay_bound():
    devs = []
    s = np.linspace(0.0, 1e3, 4001)
    for twice_nu in range(1, 7):
        jt = bessel.bessel_j_tilde(bessel.Order(twice_nu), s)
        devs.append(np.max(np.abs(jt) * (1.0 + s) ** (twice_nu / 2 + 0.5)))
    return _worst(devs), "sup |Jt_nu(s)| (1+s)^(nu+1/2), 2 nu = 1..6, s in [0, 1e3]"


def _three_term():
    """The paper's step n -> n + 2 on the kernel in three-term form,
    x^2 Jt_(nu+1) = 2 nu Jt_nu - Jt_(nu-1), relative to the largest of the
    three terms, at points around every regime seam of the three orders:
    x = 1, 14, nu and x_s.  The orders can take different regimes at one x,
    so this checks the regimes against each other."""
    devs = []
    for twice_nu in range(1, 119):
        orders = [bessel.Order(twice_nu + d) for d in (-2, 0, 2)]
        seams = {1.0, 14.0}
        seams |= {o.nu for o in orders if o.nu > 0}
        seams |= {bessel._series_seam(o.nu) for o in orders
                  if o.is_half_integer and o.twice_nu >= 3}
        xs = np.outer(sorted(seams), (0.95, 1 - 1e-9, 1.0, 1 + 1e-9, 1.05)).ravel()
        lo, mid, hi = (bessel.bessel_j_tilde(o, xs) for o in orders)
        terms = np.array([xs * xs * hi, twice_nu * mid, lo])
        devs.append(np.max(np.abs(terms[0] - terms[1] + terms[2])
                           / np.abs(terms).max(axis=0)))
    return _worst(devs), ("2 nu = 1..118, x at 0.95, 1 - 1e-9, 1, 1 + 1e-9 "
                          "and 1.05 times each seam 1, 14, nu and x_s of "
                          "the three orders")


def _zero_residuals():
    order = bessel.Order(0)
    devs = [abs(bessel.bessel_j(order, z)) for z in bessel.bessel_zeros(order, 20)]
    return _worst(devs), "|J_0| at its first 20 zeros"


@functools.cache
def recursion_battery():
    """{(profile text, n, r): (lifted, direct)}: the one-step lift, by
    central differences of step 0.01, of the computed n-dimensional
    transform, read as one grid per lift, and the direct (n+2)-dimensional
    one.  An unconverged point raises ConvergenceError, as in
    ``radial_fourier``."""
    engine = _lift.CentralFDEngine(step=0.01)
    out = {}
    for text in ("exp(-pi*s^2)", "exp(-s)"):
        profile = _transform.profile_from_text(text)
        for n in (1, 2, 3):
            inner = _transform.CallableProfile(
                lambda radii, p=profile, nn=n: [
                    _transform._checked_value(res, "transform", f"r={r}") for r, res
                    in zip(radii, _transform.radial_fourier_grid(p, nn, radii))])
            for r in (0.25, 0.5, 1.0, 2.0):
                out[(text, n, r)] = (_lift.lift_once(inner, r, engine).value,
                                     _transform.radial_fourier(profile, n + 2, r))
    return out


def _recursion():
    battery = recursion_battery()
    devs = [abs(lifted - direct) for lifted, direct in battery.values()]
    return _worst(devs), (f"{len(battery)} points: exp(-pi*s^2) and exp(-s), "
                          "n = 1..3, r in {0.25, 0.5, 1, 2}")


def _coeffs_oracle():
    bad = sum(_lift.corollary_coefficients(k).entries
              != _lift.iterate_operator_symbolic(k).entries for k in range(1, 11))
    return float(bad), "k = 1..10 against symbolic iteration, k that differ"


def _coeffs_spots():
    bad = sum(str(_lift.corollary_coefficients(k)) != text
              for k, text in ((1, "-1"), (2, "-1, 1"), (3, "-3, 3, -1")))
    return float(bad), "k = 1, 2, 3, tables that differ"


def _resolvent_ladder():
    rng = np.random.default_rng(33)
    zs = (-1.0 + 0j, -2.0 + 1j, -0.5 - 3j)
    devs = []
    for _ in range(20):
        z = zs[rng.integers(0, len(zs))]
        r = float(rng.uniform(0.1, 5.0))
        lifted3 = _lift.lift_once_symbolic(kernels.resolvent_profile(1, z))
        lifted5 = _lift.lift_once_symbolic(lifted3)
        devs += [abs(lifted3.evaluate(r) - kernels.resolvent_kernel(3, z, r)),
                 abs(lifted5.evaluate(r) - kernels.resolvent_kernel(5, z, r))]
    return _worst(devs), ("n = 1 lifted to 3 and 5, 20 draws of z in "
                          "{-1, -2+i, -0.5-3i} and r in [0.1, 5], seed 33")


def _projection_ladder():
    rng = np.random.default_rng(44)
    devs = []
    for _ in range(20):
        energy = float(rng.uniform(0.3, 6.0))
        r = float(rng.uniform(0.1, 5.0))
        # the trigonometric n = 1 kernel, written out: the catalog's own
        # n = 1 entry is the Jt form, whose lift is the n = 3 entry itself
        lifted = _lift.lift_once_symbolic(
            f"sin({math.sqrt(energy)!r}*s)/(pi*s)")
        devs.append(abs(lifted.evaluate(r).real
                        - kernels.projection_kernel(3, energy, r)))
    return _worst(devs), ("sin(sqrt(E)*s)/(pi*s) lifted to n = 3, 20 draws "
                          "of E in [0.3, 6] and r in [0.1, 5], seed 44")


def _gaussian_fixed_point():
    gauss = _transform.profile_from_text("exp(-pi*s^2)")
    devs = [abs(_transform.radial_fourier(gauss, n, r) - math.exp(-math.pi * r * r))
            for n in range(1, 7) for r in (0.5, 1.0, 2.0)]
    return _worst(devs), "exp(-pi*s^2), n = 1..6, r in {0.5, 1, 2}"


def _hankel_relation():
    gauss = _transform.profile_from_text("exp(-pi*s^2)")
    lhs, rhs = _transform.hankel_fourier_relation(gauss, 2, 1.0)
    return abs(lhs - rhs), "exp(-pi*s^2), n = 2, r = 1"


CHECKS = (
    Check("bessel", "derivative-identity", 1e-6,
          functools.partial(_derivative_identity, 99, 50, 0.2, 0.0)),
    Check("bessel", "derivative-identity-near-zeros", 1e-6,
          functools.partial(_derivative_identity, 20130419, 12, 0.0, 1e-3)),
    Check("bessel", "decay-bound", 10.0, _decay_bound),
    Check("bessel", "zero-residuals", 1e-12, _zero_residuals),
    Check("bessel", "three-term", 1e-12, _three_term),
    Check("recursion", "lift-vs-direct", 1e-6, _recursion),
    Check("coeffs", "oracle-equality", 0.0, _coeffs_oracle),
    Check("coeffs", "spot-values", 0.0, _coeffs_spots),
    Check("kernels", "resolvent-ladder", 1e-12, _resolvent_ladder),
    Check("kernels", "projection-ladder", 1e-12, _projection_ladder),
    Check("transform", "gaussian-fixed-point", 1e-8, _gaussian_fixed_point),
    Check("transform", "hankel-relation", 1e-9, _hankel_relation),
)

SUITES = tuple(dict.fromkeys(check.suite for check in CHECKS))
