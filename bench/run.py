#!/usr/bin/env python3
"""Benchmark for radialift: a warm grid, a lift ladder and a cold start.

Run from the root of a checkout:

    python3 bench/run.py --workload grid-direct --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md for why each was chosen):

  grid-direct  one op = one radial_fourier_result(f, n, r) call, in process
  lift-ladder  one op = one ladder of dimension lifts at one rho, in process
  cold-start   one op = one fresh `python -m radialift transform ...` process

BENCHMARK.json lists grid-direct and cold-start; lift-ladder is run by hand
(bench/README.md says why), and traced runs reuse one lift round as a probe.

Load is a closed loop: one caller, the next op starts when the last ended.
Every run attempts whole rounds of ops, so the share of failed ops does not
depend on the seed or on the run length.  Every output is checked against a
closed form from bench/oracles.py.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones.
With --trace 1 the run times half its ops untraced and half with every
layer's public functions wrapped (bench/tracing.py), and reports per-layer
metrics from those spans plus the tracing overhead; the spans are written to
bench/out/.
"""

import argparse
import csv
import functools
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracles
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 1
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # interpreter pairs behind cli.import_ms
CHILD_TIMEOUT_S = 60

# grid-direct: two profiles with closed-form transforms in every dimension
GRID_PROFILES = (("exp(-pi*s^2)", oracles.gaussian),
                 ("exp(-2*pi*s)", oracles.poisson))
GRID_DIMS = (1, 2, 3, 4, 5)
GRID_SEEDED_RADII = 11  # per profile and dimension, plus r = 0
# seeded radii start at 0.01: below r ~ 8e-4 the direct route returns 0
# with converged=True, which a seeded draw would hit only on some seeds
GRID_R_RANGE = (0.01, 3.0)
GRID_HIGH_DIM = 15
# fixed radii at n = 15: the direct route reports converged=True at r = 2.5
# with a relative error of 1e-2 (Gaussian) and 7e-4 (exp(-2 pi s))
GRID_HIGH_RADII = (0.0, 0.5, 2.5)
GRID_FAULTS = {(text, GRID_HIGH_DIM, 2.5) for text, _ in GRID_PROFILES}

# lift-ladder: analytic lifts of two base transforms, numeric lifts of a third
LIFT_ODD = "2/(1+4*pi^2*s^2)"  # 1-d transform of exp(-|x|)
LIFT_EVEN = "exp(-pi*s^2)"  # its own transform in dimension 2
LIFT_NUMERIC = "exp(-2*pi*s)"  # transformed in n = 1, 2, then lifted once
LIFT_SEEDED = 4  # seeded ladders per round, rho drawn in LIFT_RHO_RANGE
LIFT_RHO_RANGE = (0.5, 2.2)
# fixed ladders, one per fault: OverflowError in the n = 15 rung above
# rho ~ 2.55, and the k-step sum cancelling at small rho with estimate 0
LIFT_FAULT_RHOS = (5.0, 0.1)
LIFT_FAULT_RUNGS = {(5.0, "odd", 15),
                    (0.1, "even", 12), (0.1, "even", 14), (0.1, "even", 16)}

# cold-start: one CLI process over 16 radii
COLD_DIM = 4
COLD_RADII = [3.0 * i / 15 for i in range(16)]
COLD_ARGS = ["transform", "--profile", "exp(-2*pi*s)", "--dim", str(COLD_DIM),
             "--grid", "0:3:16"]

WORKLOADS = ("grid-direct", "lift-ladder", "cold-start")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "bessel.jtilde_calls_per_point": "count",
    "bessel.jtilde_ns_per_arg": "ns",
    "bessel.zeros_cold_ms": "ms",
    "quadrature.evals_per_point": "count",
    "quadrature.panels_per_point": "count",
    "quadrature.panel_us": "us",
    "quadrature.halfline_self_ms": "ms",
    "transform.gate_ms": "ms",
    "transform.point_self_ms": "ms",
    "transform.max_err_ratio": "ratio",
    "transform.converged_but_wrong": "count",
    "expr.eval_ns_per_arg": "ns",
    "expr.diff_ms_per_ladder": "ms",
    "expr.evaluate_ms_per_ladder": "ms",
    **{f"lift.k{k}_ms": "ms" for k in range(1, 8)},
    "lift.numeric_ms": "ms",
    "lift.transforms_per_numeric": "count",
    "lift.failed_rungs": "count",
    "lift.max_rel_err": "ratio",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_pct": "%",
}


class Op:
    """One timed operation and what its check found.

    ``known_fault`` marks a failure that one of the named faults explains;
    ``checks`` holds (err_ratio, converged) per transform point and
    ``rungs`` (family, n, ok, rel_err) per lift rung, for the traced run.
    """

    def __init__(self, label, ms, ok, known_fault=False, checks=(), rungs=(),
                 detail=""):
        self.label, self.ms, self.ok = label, ms, ok
        self.known_fault = known_fault
        self.checks, self.rungs, self.detail = list(checks), list(rungs), detail


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _run_child(cmd):
    """Run a child to completion in the checkout; returns (seconds, proc)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # run() has killed and reaped the child
        proc = subprocess.CompletedProcess(cmd, -9, exc.stdout or "",
                                           f"timeout after {exc.timeout}s")
    return time.perf_counter() - start, proc


def _import_radialift():
    sys.path.insert(0, str(SRC))
    import radialift
    if not Path(radialift.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"radialift imported from {radialift.__file__}, "
                           f"not from {SRC}")
    return radialift


# ---------------------------------------------------------------------------
# grid-direct

def _grid_point(rl, text, profile, n, r, oracle):
    start = time.perf_counter()
    try:
        res = rl.radial_fourier_result(profile, n, r)
    except Exception as exc:  # a raised exception fails the op
        ms = (time.perf_counter() - start) * 1e3
        return Op(f"{text} n={n}", ms, False, (text, n, r) in GRID_FAULTS,
                  detail=f"r={r}: {type(exc).__name__}: {exc}")
    ms = (time.perf_counter() - start) * 1e3
    ratio = oracles.err_ratio(res.value, oracle(n, r))
    ok = ratio <= oracles.SLACK
    return Op(f"{text} n={n}", ms, ok, not ok and (text, n, r) in GRID_FAULTS,
              checks=[(ratio, res.converged)],
              detail=f"r={r}: error {ratio:.3g} x tolerance, "
                     f"converged={res.converged}")


def grid_round(rl, rng):
    ops = []
    for text, oracle in GRID_PROFILES:
        profile = rl.profile_from_text(text)  # fresh, so the gate runs again
        for n in GRID_DIMS:
            radii = [0.0] + [rng.uniform(*GRID_R_RANGE)
                             for _ in range(GRID_SEEDED_RADII)]
            ops += [_grid_point(rl, text, profile, n, r, oracle) for r in radii]
        ops += [_grid_point(rl, text, profile, GRID_HIGH_DIM, r, oracle)
                for r in GRID_HIGH_RADII]
    return ops


# ---------------------------------------------------------------------------
# lift-ladder

def _rung(family, n, oracle, compute):
    try:
        res = compute()
    except Exception as exc:  # a raised exception fails the rung
        return (family, n, False, None), f"{family} n={n}: {type(exc).__name__}"
    value = complex(res.value)
    rel = abs(value - oracle) / abs(oracle)
    ok = oracles.rung_ok(value, res.error_estimate, oracle)
    return (family, n, ok, rel), "" if ok else f"{family} n={n}: rel {rel:.2g}"


def _transform_at(rl, profile, n, r):
    return rl.radial_fourier(profile, n, r)


def ladder(rl, rho):
    """Every rung of one ladder at rho; the op fails if any rung fails."""
    start = time.perf_counter()
    odd = rl.profile_from_text(LIFT_ODD)
    even = rl.profile_from_text(LIFT_EVEN)
    base = rl.profile_from_text(LIFT_NUMERIC)
    results = []
    for n in range(3, 17, 2):
        results.append(_rung("odd", n, oracles.abs_exp(n, rho),
                             lambda n=n: rl.lift_to_dimension(odd, 1, n, rho)))
    for n in range(4, 18, 2):
        results.append(_rung("even", n, oracles.gaussian(n, rho),
                             lambda n=n: rl.lift_to_dimension(even, 2, n, rho)))
    for n in (1, 2):
        inner = rl.CallableProfile(functools.partial(_transform_at, rl, base, n))
        results.append(_rung("numeric", n + 2, oracles.poisson(n + 2, rho),
                             lambda inner=inner: rl.lift_once(
                                 inner, rho, rl.CentralFDEngine())))
    ms = (time.perf_counter() - start) * 1e3
    rungs = [r for r, _ in results]
    failed = {(rho, family, n) for family, n, ok, _ in rungs if not ok}
    return Op(f"ladder rho={rho}", ms, not failed,
              bool(failed) and failed <= LIFT_FAULT_RUNGS, rungs=rungs,
              detail="; ".join(d for _, d in results if d))


def lift_round(rl, rng):
    rhos = [rng.uniform(*LIFT_RHO_RANGE) for _ in range(LIFT_SEEDED)]
    return [ladder(rl, rho) for rho in rhos + list(LIFT_FAULT_RHOS)]


# ---------------------------------------------------------------------------
# cold-start

def _cold_command(spans_path=None):
    if spans_path is None:
        return [sys.executable, "-m", "radialift"] + COLD_ARGS
    return [sys.executable, str(BENCH / "launch.py"), str(spans_path)] + COLD_ARGS


def cold_op(spans_path=None):
    seconds, proc = _run_child(_cold_command(spans_path))
    ms = seconds * 1e3
    if proc.returncode != 0:
        return Op("cold", ms, False,
                  detail=f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    if len(rows) != len(COLD_RADII):
        return Op("cold", ms, False, detail=f"{len(rows)} rows")
    checks = []
    for row, r in zip(rows, COLD_RADII):
        if abs(float(row["r"]) - r) > 1e-12:
            return Op("cold", ms, False, detail=f"radius {row['r']} != {r}")
        value = complex(float(row["value_re"]), float(row["value_im"]))
        checks.append((oracles.err_ratio(value, oracles.poisson(COLD_DIM, r)),
                       True))  # exit 0: every point converged
    ok = all(ratio <= oracles.SLACK for ratio, _ in checks)
    return Op("cold", ms, ok, checks=checks,
              detail="" if ok else "a point is off the Poisson kernel")


# ---------------------------------------------------------------------------
# set-up

def setup(workload, tracer=None):
    """Import and warm-up before timing; returns (seconds, radialift)."""
    start = time.perf_counter()
    rl = _import_radialift()
    dims = (GRID_DIMS + (GRID_HIGH_DIM,) if workload == "grid-direct"
            else (1, 2))
    for n in dims:  # fill the zero cache for every order the ops use
        order = rl.Order.for_dimension(n)
        if tracer is None:
            rl.bessel_zeros(order, 64)
        else:
            with tracer.span("bessel.bessel_zeros", order=order.nu):
                rl.bessel_zeros(order, 64)
    return time.perf_counter() - start, rl


def setup_samples(workload, count):
    """`count` set-up times, each in a fresh interpreter.

    For cold-start a set-up is one discarded CLI process; otherwise it is
    import plus warm-up, timed inside a child running --setup-only.
    """
    samples = []
    for _ in range(count):
        if workload == "cold-start":
            seconds, proc = _run_child(_cold_command())
        else:
            _, proc = _run_child([sys.executable, str(BENCH / "run.py"),
                                  "--workload", workload, "--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-300:]}")
        if workload != "cold-start":
            seconds = json.loads(proc.stdout.splitlines()[-1])["setup_s"]
        samples.append(seconds)
    return samples


# ---------------------------------------------------------------------------
# timing loop

def measure(round_fn, seconds):
    """Whole rounds until `seconds` have passed: (ops, rounds, wall seconds)."""
    ops, rounds = [], 0
    start = time.perf_counter()
    while True:
        ops += round_fn()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return ops, rounds, time.perf_counter() - start


def _peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cold-start" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _report_failures(ops):
    counts = defaultdict(int)
    for op in ops:
        if not op.ok:
            kind = "named fault" if op.known_fault else "UNEXPECTED"
            counts[(kind, op.label, op.detail)] += 1
    for (kind, label, detail), count in sorted(counts.items()):
        print(f"failed x{count} [{kind}] {label}: {detail}", file=sys.stderr)


def _result(ops, metrics):
    return {"correct": all(op.ok or op.known_fault for op in ops),
            "attempted": len(ops),
            "failed": sum(not op.ok for op in ops),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_untraced(workload, seed, seconds):
    rng = random.Random(seed)
    if workload == "cold-start":
        samples = setup_samples(workload, SETUP_SAMPLES)
        round_fn = lambda: [cold_op()]
    else:
        samples = setup_samples(workload, SETUP_SAMPLES - 1)
        parent_setup, rl = setup(workload)  # the run's own set-up counts too
        samples.append(parent_setup)
        fn = grid_round if workload == "grid-direct" else lift_round
        round_fn = lambda: fn(rl, rng)
    ops, rounds, wall = measure(round_fn, seconds)
    _report_failures(ops)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": len(ops) / wall,
        "op_ms_p50": statistics.median(op.ms for op in ops),
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    print(f"{workload}: {len(ops)} ops in {rounds} rounds, {wall:.2f} s; "
          f"set-ups {', '.join(f'{s:.3f}' for s in samples)} s",
          file=sys.stderr)
    return _result(ops, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


# ---------------------------------------------------------------------------
# traced run

class Spans:
    """Spans of one or more processes, indexed by name and parent."""

    def __init__(self):
        self.by_name = defaultdict(list)
        self.child_ns = defaultdict(int)

    def add(self, proc, spans):
        for sid, name, start, end, parent, attrs in spans:
            self.by_name[name].append((proc, sid, start, end, parent, attrs))
            self.child_ns[(proc, parent)] += end - start

    def get(self, name):
        return self.by_name.get(name, [])

    def self_ns(self, span):
        return span[3] - span[2] - self.child_ns[(span[0], span[1])]

    def ids(self, name):
        return {(s[0], s[1]) for s in self.get(name)}


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(spans, ops, rounds, span_oracle=None):
    """Per-layer metrics from one set of spans; None where there is no data.

    span_oracle, when given, checks every transform point in the spans
    (all points of lift-ladder and cold-start share one closed form).
    """
    dur = lambda s: s[3] - s[2]
    points = [s for s in spans.get("transform.radial_fourier_result") if s[5]]
    jt = spans.get("bessel.bessel_j_tilde")
    halfline = spans.ids("quadrature.split_halfline_at_zeros")
    panels = [s for s in spans.get("quadrature.integrate_finite")
              if (s[0], s[4]) in halfline]
    first_zeros = {}
    for s in sorted(spans.get("bessel.bessel_zeros"), key=lambda s: s[2]):
        first_zeros.setdefault((s[0], s[5]["order"]), s)
    evals = spans.get("expr.Expression.eval_array")
    lifts = spans.get("lift.lift_to_dimension")
    numeric = spans.get("lift.lift_once")
    numeric_ids = spans.ids("lift.lift_once")
    ladders = sum(bool(op.rungs) for op in ops)
    rungs = [r for op in ops for r in op.rungs]

    checks = [c for op in ops for c in op.checks]
    if span_oracle is not None:
        checks = [(oracles.err_ratio(s[5]["value"], span_oracle(s[5]["n"],
                                                                 s[5]["r"])),
                   s[5]["converged"]) for s in points]
    passing = [ratio for ratio, _ in checks if ratio <= oracles.SLACK]
    wrong = sum(conv and ratio > oracles.SLACK for ratio, conv in checks)

    m = {
        "bessel.jtilde_calls_per_point": _ratio(len(jt), len(points)),
        "bessel.jtilde_ns_per_arg": _ratio(sum(map(dur, jt)),
                                           sum(s[5]["args"] for s in jt)),
        "bessel.zeros_cold_ms": _mean(dur(s) / 1e6 for s in first_zeros.values()),
        "quadrature.evals_per_point": _mean(s[5]["evaluations"] for s in points),
        "quadrature.panels_per_point": _ratio(len(panels), len(points)),
        "quadrature.panel_us": _mean(dur(s) / 1e3 for s in panels),
        "quadrature.halfline_self_ms": _mean(
            spans.self_ns(s) / 1e6
            for s in spans.get("quadrature.split_halfline_at_zeros")),
        "transform.gate_ms": _mean(
            dur(s) / 1e6 for s in spans.get("transform.integrability_check")),
        "transform.point_self_ms": _mean(spans.self_ns(s) / 1e6 for s in points),
        "transform.max_err_ratio": max(passing) if passing else None,
        "transform.converged_but_wrong": _ratio(wrong, rounds) if checks else None,
        "expr.eval_ns_per_arg": _ratio(sum(map(dur, evals)),
                                       sum(s[5]["args"] for s in evals)),
        "expr.diff_ms_per_ladder": _ratio(
            sum(map(dur, spans.get("expr.Expression.diff")
                    + spans.get("expr.simplify"))) / 1e6, ladders),
        "expr.evaluate_ms_per_ladder": _ratio(
            sum(map(dur, spans.get("expr.Expression.evaluate"))) / 1e6, ladders),
        "lift.numeric_ms": _mean(dur(s) / 1e6 for s in numeric),
        "lift.transforms_per_numeric": _ratio(
            sum((s[0], s[4]) in numeric_ids for s in points), len(numeric)),
        "lift.failed_rungs": _ratio(sum(not r[2] for r in rungs), rounds)
        if rungs else None,
        "lift.max_rel_err": max((r[3] for r in rungs if r[2]), default=None),
        "cli.main_ms": _median(dur(s) / 1e6 for s in spans.get("cli.main")),
    }
    for k in range(1, 8):
        # a mean: the two families differ up to 10x in cost at one k
        m[f"lift.k{k}_ms"] = _mean(dur(s) / 1e6 for s in lifts
                                   if s[5]["k"] == k)
    return m


def import_ms():
    """Median `import radialift` process minus median bare process, in ms."""
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for cmd, out in (([sys.executable, "-c", "pass"], bare),
                         ([sys.executable, "-c", "import radialift"], full)):
            seconds, proc = _run_child(cmd)
            if proc.returncode != 0:
                raise RuntimeError(f"{cmd}: {proc.stderr.strip()[-300:]}")
            out.append(seconds)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


class ColdChildren:
    """Runs traced cold-start ops and collects each child's spans."""

    def __init__(self, seed):
        self.seed, self.count, self.spans = seed, 0, []

    def op(self):
        self.count += 1
        path = OUT / f"spans-cold-{self.seed}-{os.getpid()}-{self.count}.json"
        op = cold_op(path)
        if path.exists():
            spans, missing = tracing.load(path)
            path.unlink()
            self.spans.append((spans, missing))
        return op


def run_traced(workload, seed, seconds):
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    rng = random.Random(seed)
    children = ColdChildren(seed)
    if workload == "cold-start":
        # the parent imports radialift only for the lift probe; zero-finding
        # spans come from the children
        _, rl = setup(workload)
        untraced_fn = lambda: [cold_op()]
        traced_fn = lambda: [children.op()]
    else:
        _, rl = setup(workload, tracer)
        fn = grid_round if workload == "grid-direct" else lift_round
        untraced_fn = traced_fn = lambda: fn(rl, rng)

    ops_u, _, wall_u = measure(untraced_fn, seconds / 2)
    tracer.install()
    try:
        ops_t, rounds_t, wall_t = measure(traced_fn, seconds / 2)
        loop_mark = len(tracer.spans)
        loop_children = len(children.spans)
        # layers the workload's own loop never reaches: one fixed probe each
        probe_ops = []
        if workload != "lift-ladder":
            probe_ops = lift_round(rl, random.Random(seed))
        if workload != "cold-start":
            children.op()
    finally:
        tracer.uninstall()

    loop, probe = Spans(), Spans()
    loop.add(0, tracer.spans[:loop_mark])
    probe.add(0, tracer.spans[loop_mark:])
    for i, (spans, _) in enumerate(children.spans, start=1):
        (loop if i <= loop_children else probe).add(i, spans)

    # outside grid-direct every traced transform point is of exp(-2 pi s)
    span_oracle = None if workload == "grid-direct" else oracles.poisson
    metrics = layer_metrics(loop, ops_t, rounds_t, span_oracle)
    for name, value in layer_metrics(probe, probe_ops, 1,
                                     oracles.poisson).items():
        if metrics.get(name) is None:
            metrics[name] = value
    metrics["cli.import_ms"] = import_ms()
    untraced_rate, traced_rate = len(ops_u) / wall_u, len(ops_t) / wall_t
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) \
        / untraced_rate
    print(f"tracing overhead on {workload}: {untraced_rate:.4g} ops/s "
          f"untraced, {traced_rate:.4g} ops/s traced "
          f"({metrics['trace.overhead_pct']:.1f}% fewer)", file=sys.stderr)

    missing = list(tracer.missing)
    for _, child_missing in children.spans:
        missing += [m for m in child_missing if m not in missing]
    for name in missing:
        print(f"missing: radialift has no {name}; not traced", file=sys.stderr)
    for name in PER_LAYER_UNITS:
        if metrics.get(name) is None:
            print(f"missing metric: {name}", file=sys.stderr)

    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["process", "id", "name", "start_ns", "end_ns",
                              "parent", "attrs"],
                   "spans": [[0, *s] for s in tracer.spans]
                   + [[i, *s] for i, (spans, _) in
                      enumerate(children.spans, start=1) for s in spans]},
                  fh)
    print(f"spans written to {trace_path.relative_to(ROOT)}", file=sys.stderr)

    ops = ops_u + ops_t
    _report_failures(ops)
    if probe_ops:
        print("lift probe (not counted):", file=sys.stderr)
        _report_failures(probe_ops)
    return _result(ops, {name: (metrics[name], unit)
                         for name, unit in PER_LAYER_UNITS.items()
                         if metrics.get(name) is not None})


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="draws the radii and rho values "
                             f"(default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit")
    args = parser.parse_args(argv)

    if not (SRC / "radialift" / "__init__.py").is_file():
        print(f"error: no radialift sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        seconds, _ = setup(args.workload)
        print(json.dumps({"setup_s": seconds}))
        return 0
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
