"""End-to-end tests for the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes and streams
are observable; a few go through ``python -m`` to cover the process entry.
"""

from __future__ import annotations

import gc
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from basicq import (
    build_hamiltonian,
    build_lattice,
    jackson_derivative,
    q_cos,
    q_exp,
    q_integral_finite,
    q_integral_halfline,
    stationary_states,
)
from basicq import cli, exprparse, l2q, qschrodinger
from basicq.cli import main
from basicq.errors import BasicQError, ConvergenceError, EvaluationError, ParseError
from basicq.qnum import QParam


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval --------------------------------------------------------------------

def test_eval_csv_golden_at_zero(capsys):
    code, out, err = run(capsys, "eval", "--fn", "Sq", "--points", "0")
    assert code == 0
    assert out == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n"


def test_eval_values_match_library(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "Eq", "--points", "0.5", "1.5", "--q", "0.8")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    for x, line in zip((0.5, 1.5), rows):
        cells = line.split(",")
        ref = q_exp(x, 0.8)
        assert float(cells[0]) == x
        assert float(cells[1]) == pytest.approx(ref.value.real, rel=1e-15)
        assert float(cells[2]) == pytest.approx(ref.value.imag, abs=1e-15)
        assert int(cells[3]) == ref.terms_used


def test_eval_json_structure(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "Cq", "--points", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["columns"] == ["x", "re", "im", "terms_used"]
    (row,) = doc["rows"]
    assert row[1] == pytest.approx(q_cos(1.0, 0.9).value.real, rel=1e-15)


def test_eval_range_inclusive_endpoints(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "Sq", "--range", "0:2:0.1")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 21
    assert float(rows[0].split(",")[0]) == 0.0
    assert float(rows[-1].split(",")[0]) == pytest.approx(2.0, abs=1e-12)


def test_eval_range_descending(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "Sq", "--range", "2:0:-0.5")
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[2:]]
    assert xs == pytest.approx([2.0, 1.5, 1.0, 0.5, 0.0], abs=1e-12)


def test_eval_at_tiny_q_where_sinh_overflows_before_the_basic_number(capsys):
    # E_q(1) = 2 in 5 terms; the last term divides by [4], about 1e300
    code, out, err = run(capsys, "eval", "--fn", "Eq", "--q", "1e-100", "--points", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "1,2,0,5"


@pytest.mark.parametrize("spec", ["0:1:1e-300", "0:1e6:1", "-1e308:1e308:1", "1:0:-1e-300"])
def test_eval_range_of_more_than_a_million_points_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "eval", "--fn", "Eq", "--range=" + spec)
    assert code == 2
    assert out == ""
    assert "holds more than 1000000 points" in err


def test_range_point_limit_is_inclusive():
    from basicq.cli import _parse_range

    assert len(_parse_range("0:999999:1")) == 10**6
    with pytest.raises(ValueError) as exc:
        _parse_range("0:1000000:1")
    assert str(exc.value) == "'0:1000000:1' holds more than 1000000 points"


def test_eval_points_and_range_conflict(capsys):
    code, _, err = run(capsys, "eval", "--fn", "Sq", "--points", "1",
                       "--range", "0:1:0.5")
    assert code == 2
    assert err.splitlines()[-1] == (
        "basicq eval: error: argument --range: not allowed with argument --points")


def test_eval_requires_some_points(capsys):
    code, _, err = run(capsys, "eval", "--fn", "Sq")
    assert code == 2
    assert "required" in err


def test_eval_rejects_unknown_function(capsys):
    code, _, err = run(capsys, "eval", "--fn", "Tq", "--points", "1")
    assert code == 2


def test_eval_negative_zero_canonicalized(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "Sq", "--points", "-0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0,0,0,1"


def test_eval_output_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "eval", "--fn", "Sq", "--points", "0",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n"


@pytest.mark.parametrize("command", [["eval", "--fn", "Eq"], ["qderiv", "--expr", "x"]])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_points_are_usage_failure(capsys, command, value):
    code, out, err = run(capsys, *command, "--points", "1", value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"basicq {command[0]}: error: argument --points: expected a finite number, got {value}")


# argparse reads a token starting with '-' as a number only in the forms -2
# and -.5; every other spelling float() reads is a number too.
@pytest.mark.parametrize("exponent, decimal", [
    (["eval", "--fn", "Eq", "--points", "-1e-3"], ["eval", "--fn", "Eq", "--points", "-0.001"]),
    (["qderiv", "--expr", "x^2", "--points", "-1e-3"],
     ["qderiv", "--expr", "x^2", "--points", "-0.001"]),
    (["eval", "--fn", "Eq", "--points", "0.5", "-2.5e1"],
     ["eval", "--fn", "Eq", "--points", "0.5", "-25"]),
    (["eval", "--fn", "Sq", "--points", "-1.5", "-1E-3", "2"],
     ["eval", "--fn", "Sq", "--points", "-1.5", "-0.001", "2"]),
])
def test_negative_number_in_exponent_form_reads_as_its_decimal_spelling(
        capsys, exponent, decimal):
    got = run(capsys, *exponent)
    assert got[0] == 0, got[2]
    assert got == run(capsys, *decimal)


# -- qderiv ------------------------------------------------------------------

def test_qderiv_matches_library(capsys):
    code, out, _ = run(capsys, "qderiv", "--expr", "x^3", "--points", "0.5", "2",
                       "--q", "0.9")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    f = lambda x: x ** 3
    for x, line in zip((0.5, 2.0), rows):
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(jackson_derivative(f, x, 0.9), rel=1e-14)
        assert float(cells[2]) == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, err", [
    (["--expr", "x", "--points", "1", "1e308", "--q", "0.5"],
     "derivative at x = 1e+308 is not finite: (inf+nanj)"),
    (["--expr", "1/x", "--points", "1e-310", "--q", "0.9"],
     "derivative at x = 1e-310 is not finite: (nan+nanj)"),
], ids=["overflow", "nan"])
def test_qderiv_non_finite_derivative_is_computation_failure(capsys, tmp_path, argv, err,
                                                            fmt):
    for output in ([], ["--output", str(tmp_path / "table")]):
        code, out, got = run(capsys, "qderiv", *argv, "--format", fmt, *output)
        assert (code, out, got) == (1, "", f"basicq: error: jackson_derivative: {err}\n")
    assert not any(tmp_path.iterdir())


def test_qderiv_bad_expression_is_usage_failure(capsys):
    code, _, err = run(capsys, "qderiv", "--expr", "x^^2", "--points", "1")
    assert code == 2
    assert err != ""


def test_expression_points_share_one_qparam(capsys, monkeypatch):
    # q is coerced once per expression, and the q leaf still yields it as
    # given, not its canonical 1/q
    calls = []
    original = exprparse.evaluate

    def recording(ast, x, q):
        value = original(ast, x, q)
        calls.append((x, q, value))
        return value

    monkeypatch.setattr(exprparse, "evaluate", recording)
    code, _, err = run(capsys, "qint", "--expr", "q*x", "--upper", "1", "--q", "1.25")
    assert code == 0, err
    qp = calls[0][1]
    assert isinstance(qp, QParam) and qp.q == 1.25
    assert all(q is qp and value == 1.25 * x for x, q, value in calls)


# -- qint --------------------------------------------------------------------

def test_qint_default_unit_interval(capsys):
    code, out, _ = run(capsys, "qint", "--expr", "x^2")
    assert code == 0
    val = float(out.strip().splitlines()[-1].split(",")[0])
    assert val == pytest.approx(q_integral_finite(lambda x: x * x, 1.0, 0.9), rel=1e-14)


def test_qint_explicit_upper(capsys):
    code, out, _ = run(capsys, "qint", "--expr", "x^3", "--upper", "2", "--q", "0.8")
    assert code == 0
    val = float(out.strip().splitlines()[-1].split(",")[0])
    assert val == pytest.approx(q_integral_finite(lambda x: x ** 3, 2.0, 0.8), rel=1e-14)


def test_qint_halfline(capsys):
    code, out, _ = run(capsys, "qint", "--expr", "gauss(x)")
    # default is the unit interval; halfline must be asked for
    assert code == 0
    code, out, _ = run(capsys, "qint", "--expr", "gauss(x)", "--halfline")
    assert code == 0
    val = float(out.strip().splitlines()[-1].split(",")[0])
    want = q_integral_halfline(lambda x: math.exp(-x * x), 0.9)
    assert val == pytest.approx(want, rel=1e-13)


def test_qint_mode_conflict(capsys):
    code, _, err = run(capsys, "qint", "--expr", "x", "--halfline", "--fullline")
    assert code == 2
    assert err.splitlines()[-1] == (
        "basicq qint: error: argument --fullline: not allowed with argument --halfline")


def test_qint_negative_upper_in_exponent_form_reaches_the_library(capsys):
    code, out, err = run(capsys, "qint", "--expr", "x", "--upper", "-1e-3")
    assert (code, out) == (2, "")
    assert err == ("basicq: invalid configuration: q_integral_finite requires "
                   "upper limit a > 0, got -0.001\n")


def test_qint_divergent_integrand_is_computation_failure(capsys):
    # the outer tail of the deformed exponential grows without bound
    code, _, err = run(capsys, "qint", "--expr", "Eq(x)", "--halfline", "--q", "0.5")
    assert code == 1
    assert err != ""


def test_qint_overflowing_sum_is_computation_failure(capsys):
    code, out, err = run(capsys, "qint", "--expr", "x", "--upper", "1e308")
    assert code == 1
    assert out == ""
    assert "overflows" in err


def test_qint_where_a_lattice_point_underflows_to_a_pole_names_the_point(capsys):
    # q^7 = 1e-420 underflows to 0, where x^-0.99 divides by zero; the terms
    # from there on are not negligible, so the sum is refused, not cut
    code, out, err = run(capsys, "qint", "--expr", "x^-0.99", "--q", "1e-60")
    assert (code, out) == (1, "")
    assert err == ("basicq: error: q_integral_finite: lattice point 3 underflows to 0, "
                   "where the integrand fails: division by zero (at offset 1)\n")


def test_qint_overflowing_result_is_computation_failure(capsys):
    # the sum is finite; the prefactor times it is not
    code, out, err = run(capsys, "qint", "--expr", "x", "--upper", "1e307")
    assert code == 1
    assert out == ""
    assert err == "basicq: error: q_integral_finite: result overflows after a finite sum\n"


def test_abs_of_a_nan_leaves_the_overflow_to_the_node_that_overflows(capsys, tmp_path):
    # CPython's complex abs of a NaN leaves errno as it was, so an overflow
    # just before would read as one in abs (offset 0); exp is at offset 15.
    text = "abs(1e999*0) - exp(1000) + x"
    for argv, offset in ((["qint", "--expr", text], 15), (["solve", "--potential", text], 15),
                         (["qint", "--expr", "x*exp(1000)"], 2),
                         (["solve", "--potential", text], 15), (["qint", "--expr", text], 15)):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err == f"basicq: error: overflow (at offset {offset})\n"
    # a finite argument whose modulus overflows still fails at abs
    code, _, err = run(capsys, "qint", "--expr", "x + abs(1.5e308 + 1.5e308*sqrt(-1))")
    assert (code, err) == (1, "basicq: error: overflow (at offset 4)\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_qint_non_finite_upper_is_usage_failure(capsys, value):
    code, out, err = run(capsys, "qint", "--expr", "x", "--upper", value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"basicq qint: error: argument --upper: expected a finite number, got {value}")


# -- verify ------------------------------------------------------------------

def test_verify_default_exits_zero(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1].startswith("identity,")
    assert len(lines) == 20  # header x2 + 18 identity rows
    for line in lines[2:]:
        assert line.endswith("PASS")


def test_verify_without_q_sweeps_the_default_and_says_so(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert json.loads(out)["q_values"] == [0.5, 0.8, 0.9, 0.95, 0.99]
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0
    assert "(default: sweep 0.5, 0.8, 0.9, 0.95, 0.99)" in " ".join(out.split())


def test_verify_single_q_json(capsys):
    code, out, _ = run(capsys, "verify", "--q", "0.9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["q_values"] == [0.9]
    assert doc["all_pass"] is True
    statuses = {r["status"] for r in doc["results"]}
    assert statuses == {"PASS"}


# -- solve -------------------------------------------------------------------

# A mirror potential is solved as two parity blocks, the shifted well whole;
# k = n_odd (76 on the default lattice) writes every column of both blocks.
@pytest.mark.parametrize("potential,k", [("x^2", 3), ("gauss((x-0.2)/0.4)", 3),
                                         ("x^2", 76)])
def test_solve_writes_spectrum_and_eigenfunctions(capsys, tmp_path, potential, k):
    code, out, _ = run(capsys, "solve", "--potential", potential, "--k", str(k),
                       "--output", str(tmp_path))
    assert code == 0
    listed = out.strip().splitlines()
    assert listed[0] == str(tmp_path / "spectrum.json")
    assert len(listed) == 1 + k

    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["q"] == 0.9
    assert doc["lattice"] == {"m_min": -15, "m_max": 60, "a": 1.0}
    assert doc["meta"]["potential_text"] == potential
    assert doc["meta"]["hbar"] == 1.0
    assert doc["meta"]["mass"] == 1.0

    lat = build_lattice(0.9, -15, 60, 1.0)
    ast, qp = exprparse.parse(potential), QParam(0.9)
    H = build_hamiltonian(lambda x: exprparse.evaluate(ast, x, qp), 1.0, 1.0, lat)
    spec = stationary_states(H, k)
    assert doc["eigenvalues"] == spec.eigenvalues.tolist()

    for n in range(k):
        text = (tmp_path / f"eigfunc_{n:03d}.csv").read_text()
        assert text.startswith("# schema_version=1\n")
        assert len(text.strip().splitlines()) == 2 + lat.size
        assert text == l2q.to_csv(l2q._from_odd(lat, spec.vectors[:, n]))
    assert not (tmp_path / f"eigfunc_{k:03d}.csv").exists()


@pytest.mark.parametrize("potential", ["x^2", "gauss((x-0.2)/0.4)"])
def test_solve_writes_one_eigenfunction_at_a_time(capsys, tmp_path, potential):
    # Past the solve, solve holds the spectrum's blocks and one eigenfunction
    # at a time: its column embedded on the lattice and its file's text.  The
    # slack, 8 times one file's size (0.16 MB), covers that text, one row
    # block's values as floats, the lattice's cached row templates and the
    # command's own lattice and bands (about 5 files' worth here).  An
    # (n_odd, k) vectors array alone would add 0.32 MB (16 files), and a
    # tuple of every row's cells as Python numbers about as much.
    argv = ["solve", "--potential", potential, "--q", "0.97", "--lattice=-40:160:1",
            "--output", str(tmp_path)]
    lat = build_lattice(0.97, -40, 160)
    ast, qp = exprparse.parse(potential), QParam(0.97)
    H = build_hamiltonian(lambda x: exprparse.evaluate(ast, x, qp), 1.0, 1.0, lat)
    n = H.n_odd
    assert n == 200

    def traced_peak(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del result
        return peak

    stationary_states(H, n)  # warm: first-call allocations are not the solve's
    solver = traced_peak(lambda: stationary_states(H, n))
    assert main(argv + ["--k", "1"]) == 0  # warm the command's path
    peak = traced_peak(lambda: main(argv + ["--k", str(n)]))
    capsys.readouterr()
    csv_size = (tmp_path / "eigfunc_000.csv").stat().st_size
    assert peak <= solver + 8 * csv_size


def test_solve_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        code, _, _ = run(capsys, "solve", "--potential", "x^2", "--k", "2",
                         "--output", str(d))
        assert code == 0
    for name in ("spectrum.json", "eigfunc_000.csv", "eigfunc_001.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_writing_a_file_holds_its_text_about_once(tmp_path):
    # A text stream encodes what one write hands it in one piece, so a whole
    # file's text handed over at once is alive twice, as str and as bytes
    # (about 2 times its size at the peak).  Written in slices, the peak
    # holds the text and one slice of each.
    from basicq.cli import _write_out

    lat = build_lattice(0.999, -750, 4299)
    f = l2q.sample(lambda x: math.sin(x) / 3 + 1j * math.cos(x) / 7, lat)
    path = tmp_path / "f.csv"
    l2q.to_csv(f)  # the lattice's row templates are cached, not the write's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = l2q.to_csv(f)
        tracemalloc.reset_peak()
        _write_out(text, str(path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(text) > 800_000
    assert path.read_text() == text
    assert peak < 1.2 * len(text)


def test_solve_respects_lattice_flag(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--potential", "x^2", "--k", "1",
                     "--lattice=-5:30:1.0", "--q", "0.8",
                     "--output", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["lattice"] == {"m_min": -5, "m_max": 30, "a": 1.0}
    assert doc["q"] == 0.8


def test_solve_low_eigenvalues_where_the_matrix_norm_is_large(capsys, tmp_path):
    # eps * ||T|| is 1.2e4 here; the reference is a 50-digit Sturm-count
    # bisection over the solver's own block bands
    code, _, err = run(capsys, "solve", "--potential", "x^2", "--q", "0.9",
                       "--lattice=-30:200:1", "--k", "3", "--output", str(tmp_path))
    assert code == 0, err
    got = json.loads((tmp_path / "spectrum.json").read_text())["eigenvalues"]
    ref = [0.7041620381132054, 2.108526167598889, 3.5009062684326806]
    assert got == pytest.approx(ref, rel=1e-6)


def test_lattice_space_and_equals_forms_agree(capsys, tmp_path):
    outputs = []
    for form in (["--lattice", "-5:30:1.0"], ["--lattice=-5:30:1.0"]):
        d = tmp_path / str(len(outputs))
        code, out, err = run(capsys, "solve", "--potential", "x^2", "--k", "2",
                             "--q", "0.8", *form, "--output", str(d))
        assert code == 0, err
        files = {name: (d / name).read_bytes()
                 for name in ("spectrum.json", "eigfunc_000.csv", "eigfunc_001.csv")}
        outputs.append((out.replace(str(d), ""), files))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, option, value", [
    (("eval", "--fn", "Cq"), "--range", "-10:10:0.5"),
    (("qint", "--upper", "1"), "--expr", "-x"),
])
def test_dash_value_space_and_equals_forms_agree(capsys, argv, option, value):
    spaced = run(capsys, *argv, option, value)
    joined = run(capsys, *argv, f"{option}={value}")
    assert spaced[0] == 0, spaced[2]
    assert spaced == joined
    assert run(capsys, *argv, option)[0] == 2  # a missing value is still a usage error


def test_solve_non_finite_hamiltonian_is_configuration_failure(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--potential", "x^2", "--q", "0.5",
                         "--lattice=-15:600:1", "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("basicq: invalid configuration: Hamiltonian bands are not finite")
    assert "m_max = 600" in err


@pytest.mark.parametrize("potential", ["1", "x^2"])
def test_lattice_past_float_range_is_configuration_failure(tmp_path, potential, child_env):
    # q^-1100 overflows; before any numpy warning reaches stderr
    proc = subprocess.run(
        [sys.executable, "-m", "basicq", "solve", "--potential", potential, "--q", "0.5",
         "--lattice=-1100:10:1", "--k", "1", "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "basicq: invalid configuration: lattice window m in [-1100, 10] leaves float "
        "range at q = 0.5: a point |x| or its weight is 0 or infinite\n")
    assert not (tmp_path / "out").exists()


def test_lattice_underflowing_to_zero_is_configuration_failure(capsys, tmp_path):
    code, out, err = run(capsys, "solve", "--potential", "x^2", "--q", "0.5",
                         "--lattice=-15:1100:1", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("basicq: invalid configuration: lattice window m in [-15, 1100]")


def test_solve_bad_lattice_string(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--potential", "x^2",
                       "--lattice", "abc", "--output", str(tmp_path))
    assert code == 2
    assert err != ""


def test_solve_complex_potential_rejected(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--potential", "Sq(x)+sqrt(0-1)*x",
                       "--output", str(tmp_path))
    assert code == 2
    assert err != ""


# -- evolve ------------------------------------------------------------------

def test_evolve_writes_snapshots_and_norms(capsys, tmp_path):
    code, out, _ = run(capsys, "evolve", "--potential", "x^2",
                       "--psi0", "gauss(x)", "--t", "1.0", "--steps", "20",
                       "--snap-every", "5", "--output", str(tmp_path))
    assert code == 0
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == [f"snapshot_{i:04d}.csv" for i in range(5)]
    norms = (tmp_path / "norms.csv").read_text().strip().splitlines()
    assert norms[1] == "t,norm"
    rows = [line.split(",") for line in norms[2:]]
    assert len(rows) == 5
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(1.0, rel=1e-12)
    for _, nv in rows:
        assert float(nv) == pytest.approx(1.0, abs=1e-12)


def test_evolve_norm_holds_to_rounding_over_many_snapshots(capsys, tmp_path):
    # every snapshot comes from the one t=0 expansion, so no rounding
    # accumulates from one snapshot to the next
    code, _, err = run(capsys, "evolve", "--potential", "x^2",
                       "--psi0", "gauss((x - 0.5)/0.4)", "--t", "20", "--steps", "400",
                       "--snap-every", "1", "--output", str(tmp_path))
    assert code == 0, err
    rows = (tmp_path / "norms.csv").read_text().strip().splitlines()[2:]
    assert len(rows) == 401
    assert max(abs(float(row.split(",")[1]) - 1.0) for row in rows) < 1e-14


def test_evolve_default_grid_final_snapshot_only(capsys, tmp_path):
    code, _, _ = run(capsys, "evolve", "--potential", "x^2",
                     "--psi0", "gauss(x)", "--output", str(tmp_path))
    assert code == 0
    snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.csv"))
    assert snaps == ["snapshot_0000.csv", "snapshot_0001.csv"]


def test_evolve_initial_state_need_not_be_defined_at_origin(capsys, tmp_path):
    # 0 is not a lattice point, so x/abs(x) is sampled only where defined
    code, _, err = run(capsys, "evolve", "--potential", "0",
                       "--psi0", "x/abs(x)*gauss(x)", "--t", "1",
                       "--output", str(tmp_path))
    assert code == 0, err
    rows = (tmp_path / "norms.csv").read_text().strip().splitlines()[2:]
    assert len(rows) == 2
    for row in rows:
        assert abs(float(row.split(",")[1]) - 1.0) <= 1e-12


def test_evolve_zero_initial_state_is_computation_failure(capsys, tmp_path):
    code, _, err = run(capsys, "evolve", "--potential", "x^2",
                       "--psi0", "0", "--output", str(tmp_path))
    assert code == 1
    assert "norm" in err


def _forward_eigensolve(monkeypatch, check):
    original = qschrodinger.eigh_tridiagonal

    def forwarder(*args, **kwargs):
        check()
        return original(*args, **kwargs)

    monkeypatch.setattr(qschrodinger, "eigh_tridiagonal", forwarder)


def test_evolve_writes_nothing_before_the_eigensolve(capsys, tmp_path, monkeypatch):
    out = tmp_path / "out"

    def output_is_absent():
        assert not out.exists()

    _forward_eigensolve(monkeypatch, output_is_absent)
    code, _, err = run(capsys, "evolve", "--potential", "x^2", "--psi0", "gauss(x)",
                       "--snap-every", "50", "--output", str(out))
    assert code == 0, err
    assert len(list(out.glob("snapshot_*.csv"))) == 3


def test_evolve_whose_eigensolve_fails_leaves_no_snapshot(capsys, tmp_path, monkeypatch):
    def fail():
        raise np.linalg.LinAlgError("no convergence")

    _forward_eigensolve(monkeypatch, fail)
    code, out, err = run(capsys, "evolve", "--potential", "x^2", "--psi0", "gauss(x)",
                         "--output", str(tmp_path))
    assert code == 1
    assert out == "" and "eigensolver failed" in err
    assert not any(tmp_path.iterdir())


def test_evolve_whose_phase_overflows_is_refused_and_leaves_nothing(capsys, tmp_path,
                                                                   recwarn):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "evolve", "--potential", "x^2", "--psi0", "gauss(x)",
                            "--t", "1e308", "--steps", "1", "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err == ("basicq: invalid configuration: phase E t / hbar is not finite "
                   "at |t| = 1e+308, hbar = 1.0\n")
    assert not recwarn.list
    assert not out.exists()


@pytest.mark.parametrize("argv, code, err", [
    (["qderiv", "--expr", "x", "--points", "5e-324", "--q", "0.9"], 1,
     "basicq: error: jackson_derivative: derivative at x = 5e-324 is not finite: "
     "the step (q - 1/q) x underflows to 0"),
    (["qderiv", "--expr", "x", "--points", "1e-320", "--q", "1.0000000001"], 1,
     "basicq: error: jackson_derivative: derivative at x = 1e-320 is not finite: "
     "the step (q - 1/q) x underflows to 0"),
    (["solve", "--potential", "x^2", "--k", "1", "--q", "1e-200", "--lattice=0:1:1"], 2,
     "basicq: invalid configuration: Hamiltonian stencil factor (q - 1/q)^2 overflows "
     "at q = 1e-200 (innermost |x| = 1e-200)"),
    (["evolve", "--potential", "x^2", "--psi0", "0"], 1,
     "basicq: error: initial state has q-norm 0.0, cannot normalize"),
], ids=["zero-step", "zero-step-near-1", "stencil-overflow", "zero-norm"])
def test_refusal_is_one_line_and_writes_nothing(capsys, monkeypatch, tmp_path, argv, code, err):
    # The first three ended in a ZeroDivisionError or OverflowError traceback.
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv, "--output", "out") == (code, "", err + "\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("exc, code, line", [
    (ParseError("bad token", 3), 2, "basicq: parse error: bad token (at offset 3)"),
    (EvaluationError("overflow", 3), 1, "basicq: error: overflow (at offset 3)"),
    (ConvergenceError("no convergence"), 1, "basicq: error: no convergence"),
    (BasicQError("refused"), 1, "basicq: error: refused"),
    (ValueError("bad q"), 2, "basicq: invalid configuration: bad q"),
    (OSError("disk full"), 1, "basicq: i/o error: disk full"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_refusal_class_prints_its_line_and_exit_code(capsys, monkeypatch, exc, code, line):
    def refuse(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_eval", refuse)
    assert run(capsys, "eval", "--fn", "Eq", "--points", "1") == (code, "", line + "\n")


def test_evolve_bad_grid(capsys, tmp_path):
    for grid, reason in ((("--t", "-1"), "--t: t must be finite and positive, got -1.0"),
                         (("--steps", "0"), "--steps: expected an integer >= 1, got 0")):
        code, _, err = run(capsys, "evolve", "--potential", "x^2",
                           "--psi0", "gauss(x)", *grid, "--output", str(tmp_path))
        assert code == 2
        assert err.splitlines()[-1] == f"basicq evolve: error: argument {reason}"


@pytest.mark.parametrize("potential, psi0", [("0", "0"), ("1/0", "gauss(x)")])
def test_evolve_checks_the_grid_before_the_expressions(capsys, tmp_path, potential, psi0):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "evolve", "--potential", potential, "--psi0", psi0,
                            "--steps", "0", "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1] == (
        "basicq evolve: error: argument --steps: expected an integer >= 1, got 0")
    assert not out.exists()
    # t/steps underflowing to 0 is refused before the expressions are read too
    code, stdout, err = run(capsys, "evolve", "--potential", potential, "--psi0", psi0,
                            "--t", "5e-324", "--steps", "2", "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err == ("basicq: invalid configuration: time step t/steps underflows to 0: "
                   "t=5e-324 steps=2\n")
    assert not out.exists()


@pytest.mark.parametrize("potential, psi0", [("x^2", "gauss(x)"), ("1/0", "x^")])
@pytest.mark.parametrize("grid, reason", [
    (("--steps", "1" + "0" * 400), "steps is past float range"),
    # 10^6 + 2 snapshots with the one at t = 0: one float each is built only
    # past the check, so a missing check would still fail fast at the parse
    (("--steps", "1000001", "--snap-every", "1"),
     "steps=1000001 snap_every=1 asks for more than 1000000 snapshots"),
    (("--steps", "1000000000", "--snap-every", "1000"),
     "steps=1000000000 snap_every=1000 asks for more than 1000000 snapshots"),
])
def test_evolve_bounds_the_time_grid_before_the_expressions(capsys, tmp_path, potential,
                                                            psi0, grid, reason):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "evolve", "--potential", potential, "--psi0", psi0,
                            *grid, "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"basicq: invalid configuration: {reason}\n"
    assert not out.exists()


def test_evolve_may_ask_for_a_million_snapshots(capsys, tmp_path):
    # the cap counts the snapshot at t = 0: 999999 steps and it pass the grid
    # checks, up to the potential, which does not parse here
    code, _, err = run(capsys, "evolve", "--potential", "x^", "--psi0", "0",
                       "--steps", "999999", "--snap-every", "1", "--output", str(tmp_path))
    assert code == 2
    assert err.startswith("basicq: parse error: ")


def test_evolve_names_the_point_of_a_non_finite_initial_state(capsys, tmp_path):
    x0 = float(l2q.default_lattice().x[0])
    code, out, err = run(capsys, "evolve", "--potential", "x^2",
                         "--psi0", "1e300*x*1e300", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"basicq: invalid configuration: non-finite sample at x = {x0!r}\n"


def test_an_initial_state_refuses_its_first_bad_point_as_a_potential_does(capsys, tmp_path):
    # x*1e307*100 is -inf at the first point; exp(100/x) overflows near
    # +0.0017, a later point, which neither reading reaches
    text = "x*1e307*100 + exp(100/x)"
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "evolve", "--potential", "x^2", "--psi0", text,
                            "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err == ("basicq: invalid configuration: non-finite sample at "
                   "x = -4.856935749618859\n")
    assert not out.exists()
    code, stdout, err = run(capsys, "solve", "--potential", text, "--output", str(out))
    assert (code, stdout) == (2, "")
    assert err == ("basicq: invalid configuration: non-finite potential value at "
                   "x = -4.856935749618859\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["solve", "--potential", "x^2", "--k", "1"],
    ["evolve", "--potential", "x^2", "--psi0", "gauss(x)"],
])
def test_format_is_rejected_where_output_is_always_csv(capsys, tmp_path, command):
    code, _, err = run(capsys, *command, "--format", "json", "--output", str(tmp_path))
    assert code == 2
    assert "--format" in err
    assert not any(tmp_path.iterdir())


# -- configuration resolution ------------------------------------------------

_BASE_ARGV = {
    "eval": ["eval", "--fn", "Sq", "--points", "0"],
    "qderiv": ["qderiv", "--expr", "x", "--points", "1"],
    "qint": ["qint", "--expr", "x"],
    "verify": ["verify", "--q", "0.9"],
    "solve": ["solve", "--potential", "x^2", "--k", "1"],
    "evolve": ["evolve", "--potential", "x^2", "--psi0", "gauss(x)"],
}


@pytest.mark.parametrize("command, shared", [
    ("eval", {"--q", "--tol", "--format"}),
    ("qderiv", {"--q", "--format"}),
    ("qint", {"--q", "--tol", "--format"}),
    ("verify", {"--q", "--format"}),
    ("solve", {"--q", "--hbar", "--mass", "--lattice"}),
    ("evolve", {"--q", "--hbar", "--mass", "--lattice"}),
])
def test_help_lists_only_the_shared_options_a_command_reads(capsys, command, shared):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    listed = set(re.findall(r"^  (--[a-z-]+)", out, re.MULTILINE))
    all_shared = {"--q", "--tol", "--hbar", "--mass", "--lattice", "--format"}
    assert listed & all_shared == shared
    assert "--output" in listed


@pytest.mark.parametrize("command, flag, value", [
    *[(c, "--tol", "1e-10") for c in ("qderiv", "verify", "solve", "evolve")],
    *[(c, f, v) for c in ("eval", "qderiv", "qint", "verify")
      for f, v in (("--hbar", "2"), ("--mass", "2"), ("--lattice", "-5:30:1"))],
    ("evolve", "--dt", "0.3"),
    ("verify", "--force-tolerance", "1e-30"),
])
def test_option_a_command_does_not_read_is_rejected(capsys, tmp_path, command, flag, value):
    code, _, err = run(capsys, *_BASE_ARGV[command], flag, value,
                       "--output", str(tmp_path / "out"))
    assert code == 2
    assert "unrecognized arguments" in err
    assert not any(tmp_path.iterdir())


# A bad shared value is argparse's usage error, naming the flag and the
# converter's reason.
@pytest.mark.parametrize("command, flag, value, reason", [
    ("eval", "--q", "-1", "q must be finite and positive, got -1.0"),
    ("eval", "--tol", "0", "tol must be finite and positive, got 0.0"),
    ("solve", "--hbar", "inf", "hbar must be finite and positive, got inf"),
    ("evolve", "--mass", "nan", "mass must be finite and positive, got nan"),
    ("solve", "--lattice", "5:1:1", "lattice needs m_min < m_max, got 5:1"),
    ("qint", "--format", "xml", "format must be csv or json"),
])
def test_bad_shared_value_is_usage_error_naming_its_flag(
        capsys, tmp_path, command, flag, value, reason):
    code, out, err = run(capsys, *_BASE_ARGV[command], flag, value,
                         "--output", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"basicq {command}: error: argument {flag}: {reason}"
    assert not any(tmp_path.iterdir())


# Every command-specific misuse is argparse's usage error too: the one-of and
# exclusion groups, and each option's converter naming the flag.
_EVOLVE = ["evolve", "--potential", "x^2", "--psi0", "gauss(x)"]


@pytest.mark.parametrize("argv, error", [
    (["eval", "--fn", "Eq"], "one of the arguments --points --range is required"),
    (["eval", "--fn", "Eq", "--points", "1", "--range", "0:1:1"],
     "argument --range: not allowed with argument --points"),
    (["eval", "--fn", "Eq", "--range", "0:1:1", "--points", "1"],
     "argument --points: not allowed with argument --range"),
    (["eval", "--fn", "Eq", "--points", "0", "-inf"],
     "argument --points: expected a finite number, got -inf"),
    (["eval", "--fn", "Eq", "--range", "0:1"],
     "argument --range: expected start:stop:step, got '0:1'"),
    (["eval", "--fn", "Eq", "--range", "0:a:1"],
     "argument --range: could not convert string to float: 'a'"),
    (["eval", "--fn", "Eq", "--range", "0:1:0"],
     "argument --range: needs finite bounds and a nonzero step, got '0:1:0'"),
    (["eval", "--fn", "Eq", "--range", "0:nan:1"],
     "argument --range: needs finite bounds and a nonzero step, got '0:nan:1'"),
    (["eval", "--fn", "Eq", "--range", "1:0:1"],
     "argument --range: step walks away from stop in '1:0:1'"),
    (["eval", "--fn", "Eq", "--range", "0:1e6:1"],
     "argument --range: '0:1e6:1' holds more than 1000000 points"),
    (["qderiv", "--expr", "x", "--points", "nan"],
     "argument --points: expected a finite number, got nan"),
    (["qint", "--expr", "x", "--upper", "-inf"],
     "argument --upper: expected a finite number, got -inf"),
    (["qint", "--expr", "x", "--upper", "2", "--halfline"],
     "argument --halfline: not allowed with argument --upper"),
    (["qint", "--expr", "x", "--fullline", "--upper", "2"],
     "argument --upper: not allowed with argument --fullline"),
    (["qint", "--expr", "x", "--halfline", "--fullline"],
     "argument --fullline: not allowed with argument --halfline"),
    (_EVOLVE + ["--steps", "0"], "argument --steps: expected an integer >= 1, got 0"),
    (_EVOLVE + ["--steps", "2.5"],
     "argument --steps: invalid literal for int() with base 10: '2.5'"),
    (_EVOLVE + ["--snap-every", "-1"], "argument --snap-every: expected an integer >= 1, got -1"),
    (_EVOLVE + ["--t", "0"], "argument --t: t must be finite and positive, got 0.0"),
    (_EVOLVE + ["--t", "-1e-3"], "argument --t: t must be finite and positive, got -0.001"),
    (_EVOLVE + ["--t", "inf"], "argument --t: t must be finite and positive, got inf"),
])
def test_command_misuse_is_usage_error_naming_its_flag(capsys, tmp_path, argv, error):
    code, out, err = run(capsys, *argv, "--output", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"basicq {argv[0]}: error: {error}"
    assert not any(tmp_path.iterdir())


def test_basicq_environment_variables_are_not_read(capsys, monkeypatch, tmp_path):
    def solve_files(name):
        code, _, err = run(capsys, *_BASE_ARGV["solve"], "--output", str(tmp_path / name))
        assert code == 0, err
        return {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}

    plain = solve_files("plain")
    for name in ("Q", "TOL", "HBAR", "MASS", "LATTICE", "FORMAT"):
        monkeypatch.setenv("BASICQ_" + name, "banana")
    code, out, _ = run(capsys, *_BASE_ARGV["eval"])
    assert code == 0
    assert out == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n"
    assert solve_files("env") == plain


def test_no_subcommand_is_usage_failure(capsys):
    code, out, err = run(capsys, )
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "basicq: error: the following arguments are required: command"


# -- process entry -------------------------------------------------------------

@pytest.mark.parametrize("argv, code", [
    (["eval", "--fn", "Sq", "--points", "0"], 0),
    (["eval", "--fn", "Sq", "--points", "0", "--q", "-1"], 2),
    (["qint", "--expr", "Eq(x)", "--halfline", "--q", "0.5"], 1),
], ids=["success", "usage-failure", "computation-failure"])
def test_module_entry_point(capsys, child_env, argv, code):
    # python -m basicq prints, writes to stderr and exits as main(argv) does
    proc = subprocess.run([sys.executable, "-m", "basicq", *argv],
                          capture_output=True, text=True, env=child_env)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code


def test_process_entry_freezes_the_import_time_heap(child_env):
    # import basicq freezes nothing; cli.run() does, before the command runs
    script = (
        "import atexit, gc, sys\n"
        "from basicq import cli\n"
        "print('after import', gc.get_freeze_count(), file=sys.stderr)\n"
        "atexit.register(lambda: print('at exit', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['basicq', 'eval', '--fn', 'Sq', '--points', '0']\n"
        "cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert proc.stdout == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n"
    assert proc.stderr == "after import 0\nat exit True\n"


def test_identity_suite_is_imported_only_when_verify_runs(child_env, tmp_path):
    # import basicq and the solve and evolve commands leave basicq.verify
    # unloaded; the verify command and basicq.run_verify load it.  scipy.linalg
    # comes with the package.
    script = (
        "import sys\n"
        "def loaded(): return 'basicq.verify' in sys.modules\n"
        "import basicq\n"
        "from basicq import cli\n"
        "print('import', loaded(), 'scipy.linalg' in sys.modules, file=sys.stderr)\n"
        "cli.main(['solve', '--potential', 'x^2', '--k', '2', '--output', 'out'])\n"
        "cli.main(['evolve', '--potential', 'x^2', '--psi0', 'gauss(x)', '--output', 'out'])\n"
        "print('solve evolve', loaded(), file=sys.stderr)\n"
        "if sys.argv[1] == 'cli':\n"
        "    cli.main(['verify', '--q', '0.9'])\n"
        "else:\n"
        "    basicq.run_verify\n"
        "print(sys.argv[1], loaded(), file=sys.stderr)\n")
    for how in ("cli", "attribute"):
        proc = subprocess.run([sys.executable, "-c", script, how], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "import False True", "solve evolve False", f"{how} True"]


def test_main_leaves_the_collector_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    for argv in (["eval", "--fn", "Sq", "--points", "0"], ["eval", "--q", "-1"],
                 ["qint", "--expr", "Eq(x)", "--halfline", "--q", "0.5"]):
        run(capsys, *argv)
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == {
        "basicq": "basicq.cli:run"}
