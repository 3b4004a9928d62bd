"""End-to-end tests for the command-line interface.

Commands run in-process through ``main(argv)`` so exit codes and streams
are observable; one test goes through ``python -m`` to cover the module
entry point.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tracemalloc

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
from basicq import exprparse, l2q, qschrodinger
from basicq.cli import main
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


@pytest.mark.parametrize("spec", ["0:1:1e-300", "0:1e6:1", "-1e308:1e308:1", "1:0:-1e-300"])
def test_eval_range_of_more_than_a_million_points_is_a_usage_error(capsys, spec):
    code, out, err = run(capsys, "eval", "--fn", "Eq", "--range=" + spec)
    assert code == 2
    assert out == ""
    assert "holds more than 1000000 points" in err


def test_range_point_limit_is_inclusive():
    from basicq.cli import UsageError, _parse_range

    assert len(_parse_range("0:999999:1")) == 10**6
    with pytest.raises(UsageError):
        _parse_range("0:1000000:1")


def test_eval_points_and_range_conflict(capsys):
    code, _, err = run(capsys, "eval", "--fn", "Sq", "--points", "1",
                       "--range", "0:1:0.5")
    assert code == 2
    assert "mutually exclusive" in err


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
    assert err == f"basicq: usage error: bad --points value {value}: not finite\n"


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
    assert "mutually exclusive" in err


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


def test_qint_overflowing_result_is_computation_failure(capsys):
    # the sum is finite; the prefactor times it is not
    code, out, err = run(capsys, "qint", "--expr", "x", "--upper", "1e307")
    assert code == 1
    assert out == ""
    assert err == "basicq: error: q_integral_finite: result overflows after a finite sum\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_qint_non_finite_upper_is_usage_failure(capsys, value):
    code, out, err = run(capsys, "qint", "--expr", "x", "--upper", value)
    assert code == 2
    assert out == ""
    assert err == f"basicq: usage error: bad --upper value {value}: not finite\n"


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


def test_verify_single_q_json(capsys):
    code, out, _ = run(capsys, "verify", "--q", "0.9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["q_values"] == [0.9]
    assert doc["all_pass"] is True
    statuses = {r["status"] for r in doc["results"]}
    assert statuses == {"PASS"}


def test_verify_forced_tolerance_fails(capsys):
    code, out, err = run(capsys, "verify", "--force-tolerance", "1e-30")
    assert code == 1
    assert "FAIL" in out
    assert "verify failed" in err  # failure summary lands on stderr


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
    # Past the solve, solve holds the spectrum, one (n_odd, k) vectors array
    # and one eigfunc file's text at a time.  The slack, 16 times one file's
    # size (0.33 MB), covers that text, its row strings, the lattice's cached
    # row prefixes and the command's own lattice and bands; a list of every
    # eigenfunction on the full lattice, complex, would add 4 times the
    # vectors array (1.3 MB here against 0.32 MB).
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
    assert peak <= solver + 8 * n * n + 16 * csv_size


def test_solve_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        code, _, _ = run(capsys, "solve", "--potential", "x^2", "--k", "2",
                         "--output", str(d))
        assert code == 0
    for name in ("spectrum.json", "eigfunc_000.csv", "eigfunc_001.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_respects_lattice_flag(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--potential", "x^2", "--k", "1",
                     "--lattice=-5:30:1.0", "--q", "0.8",
                     "--output", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["lattice"] == {"m_min": -5, "m_max": 30, "a": 1.0}
    assert doc["q"] == 0.8


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

    def output_is_empty():
        assert not any(out.iterdir())

    _forward_eigensolve(monkeypatch, output_is_empty)
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


def test_evolve_bad_grid(capsys, tmp_path):
    for grid in (("--t", "-1"), ("--steps", "0")):
        code, _, err = run(capsys, "evolve", "--potential", "x^2",
                           "--psi0", "gauss(x)", *grid, "--output", str(tmp_path))
        assert code == 2
        assert err.startswith("basicq: usage error:")


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
])
def test_option_a_command_does_not_read_is_rejected(capsys, tmp_path, command, flag, value):
    code, _, err = run(capsys, *_BASE_ARGV[command], flag, value,
                       "--output", str(tmp_path / "out"))
    assert code == 2
    assert "unrecognized arguments" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("variable, value, argv", [
    ("BASICQ_FORMAT", "xml", ("solve", "--potential", "x^2", "--k", "1")),
    ("BASICQ_TOL", "banana", ("verify", "--q", "0.9")),
    ("BASICQ_HBAR", "-1", ("qint", "--expr", "x")),
])
def test_env_of_an_option_a_command_does_not_read_is_ignored(
        capsys, monkeypatch, tmp_path, variable, value, argv):
    def outputs(name):
        root = tmp_path / name
        root.mkdir()
        code, _, err = run(capsys, *argv, "--output", str(root / "out"))
        assert code == 0, err
        return {str(f.relative_to(root)): f.read_bytes()
                for f in sorted(root.rglob("*")) if f.is_file()}

    plain = outputs("plain")
    monkeypatch.setenv(variable, value)
    assert outputs("env") == plain


def test_env_of_an_unread_option_keeps_golden_output(capsys, monkeypatch):
    monkeypatch.setenv("BASICQ_LATTICE", "abc")
    code, out, _ = run(capsys, "eval", "--fn", "Sq", "--points", "0")
    assert code == 0
    assert out == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n"


def test_env_override_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("BASICQ_Q", "0.5")
    _, out_env, _ = run(capsys, "eval", "--fn", "Eq", "--points", "1")
    val_env = float(out_env.strip().splitlines()[-1].split(",")[1])
    assert val_env == pytest.approx(q_exp(1.0, 0.5).value.real, rel=1e-14)
    # explicit flag wins over the environment
    _, out_flag, _ = run(capsys, "eval", "--fn", "Eq", "--points", "1", "--q", "0.9")
    val_flag = float(out_flag.strip().splitlines()[-1].split(",")[1])
    assert val_flag == pytest.approx(q_exp(1.0, 0.9).value.real, rel=1e-14)


def test_env_bad_value_is_usage_failure(capsys, monkeypatch):
    monkeypatch.setenv("BASICQ_Q", "banana")
    code, _, err = run(capsys, "eval", "--fn", "Eq", "--points", "1")
    assert code == 2
    assert err != ""


def test_env_lattice_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("BASICQ_LATTICE", "-3:20:1.0")
    code, _, _ = run(capsys, "solve", "--potential", "x^2", "--k", "1",
                     "--output", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "spectrum.json").read_text())
    assert doc["lattice"] == {"m_min": -3, "m_max": 20, "a": 1.0}


def test_no_subcommand_is_usage_failure(capsys):
    code, _, err = run(capsys, )
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "basicq", "eval", "--fn", "Sq", "--points", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n"
