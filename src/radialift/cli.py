"""Command-line front end: transforms, lifts, kernels, coefficient tables,
and the verification battery.

Results go to stdout as CSV (default) or JSON, diagnostics to stderr.
Exit codes: 0 full success, 1 hard error, 2 partial convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import bessel, kernels, lift as _lift, transform as _transform
from .errors import (ConvergenceError, EngineError, PoisonedEvaluationError,
                     ZeroFindingError)
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2


@dataclass
class OutputRecord:
    r: float
    value_re: float
    value_im: float
    error_estimate: float
    method: str


def parse_grid(text):
    """Grid syntax min:max:count[:spacing]; count=1 means the single point min."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid must be min:max:count[:spacing], got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    count = int(parts[2])
    spacing = parts[3] if len(parts) == 4 else "linear"
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count == 1:
        return np.array([lo])
    if hi < lo:
        raise ValueError("grid max must be >= min")
    if spacing == "linear":
        return np.linspace(lo, hi, count)
    if spacing == "log":
        if lo <= 0:
            raise ValueError("log spacing needs min > 0")
        return np.geomspace(lo, hi, count)
    raise ValueError(f"spacing must be linear or log, got {spacing!r}")


def _spec_from_args(args):
    return QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                          max_oscillations=args.max_oscillations)


def _emit(records, fmt, out_path):
    if fmt == "json":
        text = json.dumps([asdict(rec) for rec in records], indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r", "value_re", "value_im", "error_estimate", "method"])
        for rec in records:
            writer.writerow([repr(rec.r), repr(rec.value_re), repr(rec.value_im),
                             repr(rec.error_estimate), rec.method])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_complex(text):
    text = text.strip().replace("i", "j")
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_transform(args):
    profile = _transform.profile_from_text(args.profile)
    grid = parse_grid(args.grid).tolist()
    spec = _spec_from_args(args)
    results = _transform.radial_fourier_grid(profile, args.dim, grid, spec)
    records = []
    for r, res in zip(grid, results):
        value = complex(res.value)
        records.append(OutputRecord(r, value.real, value.imag,
                                    res.error_estimate, res.method))
        if not res.converged:
            print(f"warning: r={r!r} not converged "
                  f"(estimate {res.error_estimate:.3g})", file=sys.stderr)
    _emit(records, args.format, args.out)
    return EXIT_OK if all(res.converged for res in results) else EXIT_PARTIAL


def cmd_lift(args):
    profile = _transform.profile_from_text(args.profile)
    # a CLI profile is an expression, so the lift is exact
    method = "lift-analytic" if args.to_dim - args.from_dim == 2 else "corollary"
    records = []
    for rho in parse_grid(args.grid).tolist():
        res = _lift.lift_to_dimension(profile, args.from_dim, args.to_dim, rho)
        value = complex(res.value)
        records.append(OutputRecord(rho, value.real, value.imag,
                                    res.error_estimate, method))
    _emit(records, args.format, args.out)
    return EXIT_OK


def cmd_kernel(args):
    chosen = [name for name in ("resolvent", "projection", "heat")
              if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --resolvent, --projection, --heat")
    family = chosen[0]
    spec = kernels.KernelSpec(
        family, args.dim,
        z=_parse_complex(args.resolvent) if family == "resolvent" else None,
        energy=float(args.projection) if family == "projection" else None,
        t=float(args.heat) if family == "heat" else None)
    profile = kernels.kernel_profile(spec)
    records = []
    for r in parse_grid(args.grid).tolist():
        value = profile.evaluate(r)
        records.append(OutputRecord(r, value.real, value.imag, 0.0, "catalog"))
    _emit(records, args.format, args.out)
    return EXIT_OK


def cmd_coeffs(args):
    table = _lift.corollary_coefficients(args.k)
    oracle = _lift.iterate_operator_symbolic(args.k)
    if table.entries != oracle.entries:
        print("closed form and symbolic iteration disagree", file=sys.stderr)
        return EXIT_ERROR
    print(str(table))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification battery

def _check(name, ok, detail, stream):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
    return bool(ok)


def _suite_bessel(seed, stream):
    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for twice_nu in (-1, 0, 1, 2, 3, 4):
        order = bessel.Order(twice_nu)
        for x in rng.uniform(0.5, 50.0, 12):
            h = 1e-5 * max(1.0, x)
            fd = (bessel.bessel_j_tilde(order, x + h)
                  - bessel.bessel_j_tilde(order, x - h)) / (2 * h)
            rhs = -x * bessel.bessel_j_tilde(bessel.Order(twice_nu + 2), x)
            worst = max(worst, abs(fd - rhs) / max(abs(rhs), 1e-3))
    ok &= _check("bessel.derivative-identity", worst < 1e-6,
                 f"max rel dev {worst:.2e}", stream)
    cmax = 0.0
    s = np.linspace(0.0, 1e3, 4001)
    for n in range(1, 7):
        jt = bessel.bessel_j_tilde(bessel.Order(n), s)
        cmax = max(cmax, float(np.max(np.abs(jt) * (1.0 + s) ** (n / 2 + 0.5))))
    ok &= _check("bessel.decay-bound", cmax <= 10.0, f"c = {cmax:.3f}", stream)
    res = max(abs(bessel.bessel_j(bessel.Order(0), z))
              for z in bessel.bessel_zeros(bessel.Order(0), 20))
    ok &= _check("bessel.zero-residuals", res <= 1e-12, f"max {res:.2e}", stream)
    return ok


def _suite_recursion(seed, stream):
    ok = True
    for text, n in (("exp(-pi*s^2)", 1), ("exp(-s)", 1), ("exp(-pi*s^2)", 2)):
        profile = _transform.profile_from_text(text)
        worst = 0.0
        for r in (0.5, 1.0):
            inner = _transform.CallableProfile(
                lambda rho, p=profile, nn=n: _transform.radial_fourier(p, nn, rho))
            lifted = _lift.lift_once(inner, r, _lift.CentralFDEngine(0.01)).value
            direct = _transform.radial_fourier(profile, n + 2, r)
            worst = max(worst, abs(lifted - direct))
        ok &= _check(f"recursion.{text}@n={n}", worst < 1e-6,
                     f"max dev {worst:.2e}", stream)
    return ok


def _suite_coeffs(seed, stream):
    ok = True
    agree = all(_lift.corollary_coefficients(k).entries
                == _lift.iterate_operator_symbolic(k).entries
                for k in range(1, 11))
    ok &= _check("coeffs.oracle-equality", agree, "k = 1..10 exact", stream)
    spots = (str(_lift.corollary_coefficients(1)) == "-1"
             and str(_lift.corollary_coefficients(2)) == "-1, 1"
             and str(_lift.corollary_coefficients(3)) == "-3, 3, -1")
    ok &= _check("coeffs.spot-values", spots, "k = 1, 2, 3", stream)
    return ok


def _suite_kernels(seed, stream):
    rng = np.random.default_rng(seed)
    ok = True
    zs = (-1.0 + 0j, -2.0 + 1j, -0.5 - 3j)
    worst = 0.0
    for _ in range(20):
        z = zs[rng.integers(0, len(zs))]
        r = float(rng.uniform(0.1, 5.0))
        lifted3 = _lift.lift_once_symbolic(kernels.resolvent_profile(1, z))
        worst = max(worst, abs(lifted3.evaluate(r)
                               - kernels.resolvent_kernel(3, z, r)))
        lifted5 = _lift.lift_once_symbolic(lifted3)
        worst = max(worst, abs(lifted5.evaluate(r)
                               - kernels.resolvent_kernel(5, z, r)))
    ok &= _check("kernels.resolvent-ladder", worst < 1e-12,
                 f"max dev {worst:.2e}", stream)
    worst = 0.0
    for _ in range(20):
        energy = float(rng.uniform(0.3, 6.0))
        r = float(rng.uniform(0.1, 5.0))
        lifted = _lift.lift_once_symbolic(kernels.projection_profile(1, energy))
        worst = max(worst, abs(lifted.evaluate(r).real
                               - kernels.projection_kernel(3, energy, r)))
    ok &= _check("kernels.projection-ladder", worst < 1e-12,
                 f"max dev {worst:.2e}", stream)
    return ok


def _suite_transform(seed, stream):
    ok = True
    worst = 0.0
    gauss = _transform.profile_from_text("exp(-pi*s^2)")
    for n in (1, 2, 3):
        for r in (0.5, 1.0):
            worst = max(worst, abs(_transform.radial_fourier(gauss, n, r)
                                   - math.exp(-math.pi * r * r)))
    ok &= _check("transform.gaussian-fixed-point", worst < 1e-8,
                 f"max dev {worst:.2e}", stream)
    lhs, rhs = _transform.hankel_fourier_relation(gauss, 2, 1.0)
    ok &= _check("transform.hankel-relation", abs(lhs - rhs) < 1e-9,
                 f"dev {abs(lhs - rhs):.2e}", stream)
    return ok


_SUITES = {
    "bessel": _suite_bessel,
    "recursion": _suite_recursion,
    "coeffs": _suite_coeffs,
    "kernels": _suite_kernels,
    "transform": _suite_transform,
}


def cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        ok &= _SUITES[name](args.seed, sys.stdout)
    print("verification " + ("passed" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# argument wiring

def build_parser():
    parser = argparse.ArgumentParser(
        prog="radialift",
        description="Radial Fourier transforms, dimension lifts, and kernel "
                    "catalogs for functions of the Laplacian.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--grid", required=True,
                       help="min:max:count[:spacing], spacing linear|log")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write results to FILE instead of stdout")
        p.add_argument("--rel-tol", type=float, default=1e-10)
        p.add_argument("--abs-tol", type=float, default=1e-14)
        p.add_argument("--max-oscillations", type=int, default=500)

    p = sub.add_parser("transform", help="direct radial Fourier transform")
    p.add_argument("--profile", required=True, help="profile formula in s")
    p.add_argument("--dim", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("lift", help="dimension lift of a base transform")
    p.add_argument("--profile", required=True,
                   help="base transform profile formula in s")
    p.add_argument("--from", dest="from_dim", type=int, required=True,
                   choices=(1, 2))
    p.add_argument("--to", dest="to_dim", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("kernel", help="cataloged kernels of functions of -Delta")
    p.add_argument("--resolvent", metavar="Z",
                   help="resolvent kernel at complex z (e.g. -1 or -2+1i)")
    p.add_argument("--projection", metavar="E",
                   help="spectral projection kernel onto [0, E]")
    p.add_argument("--heat", metavar="T", help="heat kernel at time t")
    p.add_argument("--dim", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("coeffs", help="exact multi-step lift coefficients")
    p.add_argument("k", type=int)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    p.add_argument("--seed", type=int, default=20130419,
                   help="seed for the randomized checks (fixed for determinism)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, ConvergenceError, EngineError,
            PoisonedEvaluationError, ZeroFindingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: the profile is nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
