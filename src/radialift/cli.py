"""Command-line front end: transforms, lifts, kernels, coefficient tables,
and ``verify``, which runs the rows of the battery in ``checks.py``.

Each subcommand imports the modules that only it runs (``lift``,
``kernels``, ``checks``), and only ``--format json`` imports ``json``, so a
cold ``transform`` loads the direct route alone.  Results go to stdout as CSV
(default) or JSON, diagnostics to stderr.
Exit codes: 0 full success, 1 hard error, 2 partial convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import transform as _transform
from .errors import ConvergenceError, EngineError, ZeroFindingError
from .quadrature import QuadratureSpec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2

# ``checks.SUITES``, spelled out so that parsing the arguments does not load
# the battery
SUITES = ("bessel", "recursion", "coeffs", "kernels", "transform")


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid bounds must be finite")
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


def _json_number(x):
    # RFC 8259 has no Infinity or NaN: such a float is written as the CSV
    # writes it, "inf", "-inf" or "nan"
    return x if not isinstance(x, float) or math.isfinite(x) else repr(x)


def _emit(records, fmt, out_path):
    if fmt == "json":
        import json  # only this format needs it
        rows = [{key: _json_number(x) for key, x in asdict(rec).items()}
                for rec in records]
        text = json.dumps(rows, indent=2, allow_nan=False) + "\n"
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
    text = text.strip()
    # only a trailing i is the imaginary unit: "inf" keeps its i
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands

def cmd_transform(args):
    profile = _transform.profile_from_text(args.profile)
    grid = parse_grid(args.grid).tolist()
    spec = QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol,
                          max_oscillations=args.max_oscillations)
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
    from .lift import lift_to_dimension

    profile = _transform.profile_from_text(args.profile)
    # a CLI profile is an expression, so the lift is exact
    method = "lift-analytic" if args.to_dim - args.from_dim == 2 else "corollary"
    records = []
    for rho in parse_grid(args.grid).tolist():
        res = lift_to_dimension(profile, args.from_dim, args.to_dim, rho)
        value = complex(res.value)
        records.append(OutputRecord(rho, value.real, value.imag,
                                    res.error_estimate, method))
    _emit(records, args.format, args.out)
    return EXIT_OK


def cmd_kernel(args):
    from .kernels import heat_profile, projection_profile, resolvent_profile

    # argparse lets exactly one family through
    if args.resolvent is not None:
        profile = resolvent_profile(args.dim, _parse_complex(args.resolvent))
    elif args.projection is not None:
        profile = projection_profile(args.dim, float(args.projection))
    else:
        profile = heat_profile(args.dim, float(args.heat))
    records = []
    for r in parse_grid(args.grid).tolist():
        value = profile.evaluate(r)
        records.append(OutputRecord(r, value.real, value.imag, 0.0, "catalog"))
    _emit(records, args.format, args.out)
    return EXIT_OK


def cmd_coeffs(args):
    from .lift import corollary_coefficients

    # the coeffs.oracle-equality row of ``verify`` checks the closed form
    print(str(corollary_coefficients(args.k)))
    return EXIT_OK


def cmd_verify(args):
    from .checks import CHECKS

    ok = True
    for check in CHECKS:
        if args.suite in ("all", check.suite):
            passed, line = check.run()
            print(line)
            ok &= passed
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

    p = sub.add_parser("transform", help="direct radial Fourier transform")
    p.add_argument("--profile", required=True, help="profile formula in s")
    p.add_argument("--dim", type=int, required=True)
    add_common(p)
    p.add_argument("--rel-tol", type=float, default=QuadratureSpec.rel_tol)
    p.add_argument("--abs-tol", type=float, default=QuadratureSpec.abs_tol)
    p.add_argument("--max-oscillations", type=int,
                   default=QuadratureSpec.max_oscillations)
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
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--resolvent", metavar="Z",
                        help="resolvent kernel at complex z (e.g. -1 or -2+1i)")
    family.add_argument("--projection", metavar="E",
                        help="spectral projection kernel onto [0, E]")
    family.add_argument("--heat", metavar="T", help="heat kernel at time t")
    p.add_argument("--dim", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("coeffs", help="exact multi-step lift coefficients")
    p.add_argument("k", type=int)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
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
            ZeroFindingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        print("error: the profile is nested too deeply", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
