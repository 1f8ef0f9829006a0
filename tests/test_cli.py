"""Command-line interface: values, formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from radialift import cli, quadrature
from radialift.checks import CHECKS, SUITES
from radialift.cli import (EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, main, parse_grid)
from radialift.errors import ZeroFindingError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return [{"r": float(row["r"]), "value_re": float(row["value_re"]),
             "value_im": float(row["value_im"]),
             "error_estimate": float(row["error_estimate"]),
             "method": row["method"]} for row in rows]


def test_grid_parsing():
    assert np.allclose(parse_grid("0.5:2:4:linear"), [0.5, 1.0, 1.5, 2.0])
    assert np.allclose(parse_grid("1:1:1"), [1.0])
    assert np.allclose(parse_grid("1:100:3:log"), [1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        parse_grid("1:2")
    with pytest.raises(ValueError):
        parse_grid("1:2:3:weird")


def test_transform_gaussian_grid(capsys):
    code, out, _ = run_cli(capsys, "transform", "--profile",
                           "exp(-3.14159265358979*s^2)", "--dim", "3",
                           "--grid", "0.5:2:4:linear")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [row["r"] for row in rows] == [0.5, 1.0, 1.5, 2.0]
    for row in rows:
        assert abs(row["value_re"] - math.exp(-math.pi * row["r"] ** 2)) < 1e-7
        assert row["method"] == "direct"


def test_transform_sech_value(capsys):
    code, out, _ = run_cli(capsys, "transform", "--profile",
                           "sech(3.14159265358979*s)", "--dim", "1",
                           "--grid", "1:1:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert abs(row["value_re"] - 1.0 / math.cosh(math.pi)) < 1e-7
    assert f"{row['value_re']:.6f}" == "0.086267"


def test_transform_syntax_error(capsys):
    code, out, err = run_cli(capsys, "transform", "--profile", "sech(",
                             "--dim", "1", "--grid", "1:1:1")
    assert code == EXIT_ERROR
    assert "offset 5" in err


def test_transform_gate_failure_exits_hard(capsys):
    # |f| t^(n-1) = t^-3 is not integrable near 0
    code, out, err = run_cli(capsys, "transform", "--profile", "s^(-5)",
                             "--dim", "3", "--grid", "0:1:3")
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: integrability probe failed: near piece")


def test_transform_divergent_tail_names_each_point(capsys):
    # 1 passes the gate; the engine finds every tail divergent
    code, out, err = run_cli(capsys, "transform", "--profile", "1",
                             "--dim", "3", "--grid", "0:1:3")
    assert code == EXIT_PARTIAL
    assert [row["r"] for row in read_csv(out)] == [0.0, 0.5, 1.0]
    lines = err.splitlines()
    assert len(lines) == 3
    for line, r in zip(lines, ("0.0", "0.5", "1.0")):
        assert line.startswith(f"warning: r={r} not converged (estimate ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("arg", [
    "--rel-tol=nan", "--abs-tol=nan", "--rel-tol=inf", "--abs-tol=inf",
    "--grid=0:inf:3", "--grid=inf:inf:1", "--grid=nan:1:3"])
def test_transform_rejects_non_finite_numbers(capsys, arg):
    # one error line: no numpy warning, no traceback, no internal name
    argv = ["transform", "--profile", "exp(-pi*s^2)", "--dim", "3", arg]
    if arg.startswith("--grid"):
        message = "grid bounds must be finite"
    else:
        argv.append("--grid=2:2:1")
        message = "tolerances must be positive and finite"
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


def test_transform_force_is_gone(capsys):
    code, _, err = run_cli(capsys, "transform", "--profile", "exp(-s)",
                           "--dim", "3", "--grid", "1:1:1", "--force")
    assert code == EXIT_ERROR
    assert "--force" in err


def test_transform_partial_convergence_exit(capsys):
    # an oscillation budget far too small for the integrand forces a
    # converged=False record and the partial exit code
    code, out, _ = run_cli(capsys, "transform", "--profile", "exp(-pi*s^2)",
                           "--dim", "1", "--grid", "1:1:1",
                           "--max-oscillations", "2")
    assert code == EXIT_PARTIAL
    assert read_csv(out)[0]["error_estimate"] > 0


def test_transform_names_the_points_that_did_not_converge(capsys):
    code, out, err = run_cli(capsys, "transform", "--profile", "exp(-s)",
                             "--dim", "3", "--grid", "0.5:1:3",
                             "--max-oscillations", "2")
    assert code == EXIT_PARTIAL
    assert [row["r"] for row in read_csv(out)] == [0.5, 0.75, 1.0]
    lines = err.splitlines()
    assert len(lines) == 3
    for line, r in zip(lines, ("0.5", "0.75", "1.0")):
        assert line.startswith(f"warning: r={r} not converged (estimate ")


def test_transform_converged_grid_keeps_stderr_empty(capsys):
    code, out, err = run_cli(capsys, "transform", "--profile", "exp(-2*pi*s)",
                             "--dim", "4", "--grid", "0:3:16")
    assert code == EXIT_OK
    assert len(read_csv(out)) == 16
    assert err == ""


def test_transform_up_to_the_order_ceiling(capsys):
    # n = 65 once failed in zero finding and n = 122 asked for an order past
    # the ceiling; accuracy at such n is not asserted here
    for dim in ("65", "122"):
        code, out, err = run_cli(capsys, "transform", "--profile",
                                 "exp(-pi*s^2)", "--dim", dim,
                                 "--grid", "0.5:1:2")
        assert code in (EXIT_OK, EXIT_PARTIAL), err
        assert len(read_csv(out)) == 2


def test_transform_zero_finding_error_exits_hard(capsys, monkeypatch):
    def failing_zeros(order, count):
        raise ZeroFindingError(1, "could not bracket a sign change")

    monkeypatch.setattr(quadrature, "bessel_zeros", failing_zeros)
    code, _, err = run_cli(capsys, "transform", "--profile", "exp(-pi*s^2)",
                           "--dim", "65", "--grid", "1:1:1")
    assert code == EXIT_ERROR
    assert err.startswith("error: zero #1")


def test_lift_overflow_exits_hard(capsys):
    code, _, err = run_cli(capsys, "lift", "--profile", "2/(1+4*pi^2*s^2)",
                           "--from", "1", "--to", "15", "--grid", "5:5:1")
    assert code == EXIT_ERROR
    assert err.startswith("error: ")


def test_lift_sech(capsys):
    code, out, _ = run_cli(capsys, "lift", "--profile", "sech(pi*s)",
                           "--from", "1", "--to", "3", "--grid", "1:1:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    closed = 0.5 / math.cosh(math.pi) * math.tanh(math.pi)
    assert abs(row["value_re"] - closed) < 1e-12
    assert row["method"] == "lift-analytic"


def test_lift_grid_from_the_origin(capsys):
    code, out, _ = run_cli(capsys, "lift", "--profile", "sech(pi*s)",
                           "--from", "1", "--to", "3", "--grid", "0:1:3")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert [row["r"] for row in rows] == [0.0, 0.5, 1.0]
    assert abs(rows[0]["value_re"] - math.pi / 2) < 1e-12


def test_lift_parity_error(capsys):
    code, _, err = run_cli(capsys, "lift", "--profile", "sech(pi*s)",
                           "--from", "1", "--to", "4", "--grid", "1:1:1")
    assert code == EXIT_ERROR
    assert "even" in err


def test_lift_gaussian_corollary(capsys):
    code, out, _ = run_cli(capsys, "lift", "--profile", "exp(-pi*s^2)",
                           "--from", "2", "--to", "6", "--grid", "1:1:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert abs(row["value_re"] - math.exp(-math.pi)) < 1e-9
    assert row["method"] == "corollary"


def test_kernel_resolvent_g5(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--resolvent", "-1", "--dim", "5",
                           "--grid", "1:1:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert abs(row["value_re"] - math.exp(-1) / (4 * math.pi ** 2)) < 1e-12
    assert row["method"] == "catalog"


def test_kernel_projection_p3(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--projection", "1", "--dim", "3",
                           "--grid", "3.14159:3.14159:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert abs(row["value_re"] - 1.0 / (2 * math.pi ** 4)) < 1e-7


def test_kernel_branch_error(capsys):
    code, _, err = run_cli(capsys, "kernel", "--resolvent", "2", "--dim", "3",
                           "--grid", "1:1:1")
    assert code == EXIT_ERROR
    assert "nonnegative real axis" in err


def test_kernel_complex_z(capsys):
    # the --flag=value form keeps argparse from reading -2+1i as an option
    code, out, _ = run_cli(capsys, "kernel", "--resolvent=-2+1i", "--dim", "3",
                           "--grid", "1:1:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert row["value_im"] != 0.0


def test_kernel_heat(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--heat", "1", "--dim", "3",
                           "--grid", "1:1:1")
    assert code == EXIT_OK
    row = read_csv(out)[0]
    assert abs(row["value_re"] - (4 * math.pi) ** -1.5 * math.exp(-0.25)) < 1e-15


@pytest.mark.parametrize("families", [(), ("--heat", "1", "--projection", "1")])
def test_kernel_needs_exactly_one_family(capsys, families):
    code, _, err = run_cli(capsys, "kernel", *families, "--dim", "3",
                           "--grid", "1:1:1")
    assert code == EXIT_ERROR
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


def test_coeffs_values(capsys):
    for k, expect in ((1, "-1"), (2, "-1, 1"), (3, "-3, 3, -1")):
        code, out, _ = run_cli(capsys, "coeffs", str(k))
        assert code == EXIT_OK
        assert out.strip() == expect


def test_csv_roundtrip_exact(capsys):
    code, out, _ = run_cli(capsys, "transform", "--profile", "exp(-pi*s^2)",
                           "--dim", "2", "--grid", "0.5:1.5:3")
    rows = read_csv(out)
    # repr-formatted floats parse back bit-identically
    buf = io.StringIO(out)
    raw = list(csv.DictReader(buf))
    for row, parsed in zip(raw, rows):
        assert float(row["value_re"]) == parsed["value_re"]
        assert repr(parsed["value_re"]) == row["value_re"]


def test_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "transform", "--profile", "exp(-pi*s^2)",
                           "--dim", "2", "--grid", "0.5:1.5:3",
                           "--format", "json")
    assert code == EXIT_OK
    records = json.loads(out)
    assert len(records) == 3
    assert set(records[0]) == {"r", "value_re", "value_im", "error_estimate",
                               "method"}
    again = json.loads(json.dumps(records))
    assert again == records


def test_json_is_strict_and_writes_non_finite_numbers_as_the_csv(capsys):
    # exp(0.1 s) grows: its r = 0 moment has an infinite estimate
    args = ("transform", "--profile", "exp(0.1*s)", "--dim", "1",
            "--grid", "0:1:2")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == EXIT_PARTIAL

    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")

    records = json.loads(out, parse_constant=reject)
    assert records[0]["error_estimate"] == "inf"
    _, text, _ = run_cli(capsys, *args)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert row == {key: x if isinstance(x, str) else repr(x)
                       for key, x in record.items()}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "transform", "--profile", "exp(-pi*s^2)",
                           "--dim", "1", "--grid", "1:1:1",
                           "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    rows = read_csv(target.read_text())
    assert abs(rows[0]["value_re"] - math.exp(-math.pi)) < 1e-8


def test_out_file_in_a_missing_directory_exits_hard(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "transform", "--profile", "exp(-pi*s^2)",
                             "--dim", "1", "--grid", "1:1:1",
                             "--out", str(target))
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(target) in err


def test_deeply_nested_profiles_exit_hard(capsys):
    # 600 nested parentheses, and a 1,500-term sum: both recurse past
    # Python's limit, in the parser or in evaluation
    for profile in ("(" * 600 + "s" + ")" * 600, "+".join(["exp(-s)"] * 1500)):
        code, out, err = run_cli(capsys, "transform", "--profile", profile,
                                 "--dim", "3", "--grid", "0:1:3")
        assert code == EXIT_ERROR
        assert out == ""
        assert err == "error: the profile is nested too deeply\n"


def test_deterministic_output(capsys):
    args = ("transform", "--profile", "sech(3.14159265358979*s)", "--dim", "3",
            "--grid", "0.5:2:4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("verify", "coeffs")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == EXIT_OK
    *lines, footer = out.splitlines()
    # one PASS line per row of the table, in its order: none drops silently
    assert [line.split(":")[0] for line in lines] == [
        f"PASS {check.id}" for check in CHECKS]
    for suite in ("bessel", "recursion", "coeffs", "kernels", "transform"):
        assert f"PASS {suite}." in out, suite
    assert footer == "verification passed"
    # every row runs at a fixed seed, so there is no --seed
    code, out, err = run_cli(capsys, "verify", "all", "--seed", "1")
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("usage: radialift")
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_verify_choices_are_the_battery_suites(capsys):
    assert cli.SUITES == SUITES
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == EXIT_OK
    assert "{bessel,recursion,coeffs,kernels,transform,all}" in out
    code, out, err = run_cli(capsys, "verify", "nosuch")
    assert code == EXIT_ERROR
    assert out == ""
    assert err.count("invalid choice") == 1
    assert "Traceback" not in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radialift", "coeffs", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-3, 3, -1"
