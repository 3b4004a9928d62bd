"""Tests for the identity-suite runner."""

from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np
import pytest

from basicq import ConvergenceError, cli, qcalculus, qfunctions, qnum, run_verify, verify
from basicq.verify import DEFAULT_SWEEP, IdentityResult, VerifyReport


def test_default_sweep_all_pass():
    report = run_verify()
    assert isinstance(report, VerifyReport)
    assert report.q_values == DEFAULT_SWEEP
    assert report.all_pass
    assert not report.failures
    for r in report.results:
        assert r.status == "PASS"
        assert r.max_residual <= r.tolerance


def test_report_covers_the_advertised_identities():
    names = {r.name for r in run_verify(q_values=(0.9,)).results}
    for expected in (
        "leibniz-1", "leibniz-2", "chain-scaling",
        "fundamental-deriv-of-int", "fundamental-int-of-deriv",
        "by-parts-shifted-q", "by-parts-shifted-qinv",
        "q-pythagoras", "trig-deriv-sin", "trig-deriv-cos",
        "wave-equation", "exp-eigenrelation", "dual-integral",
        "factorial-bridge", "dual-representation", "fock-algebra",
        "momentum-hermiticity-even", "momentum-hermiticity-odd",
    ):
        assert expected in names


def test_single_q_runs_everything():
    report = run_verify(q_values=(0.9,))
    assert all(r.status == "PASS" for r in report.results)


@pytest.mark.parametrize("q", [0.001, 0.01, 0.1, 0.3, 2.0, 1000.0])
def test_every_identity_passes_off_the_default_sweep(q):
    # tiny q and q > 1 too, where the lattice rows sample a window of two exponents
    results = run_verify(q_values=(q,)).results
    assert len(results) == 18
    assert all(r.status == "PASS" for r in results)


def test_classical_only_skips_deformation_bound_identities():
    report = run_verify(q_values=(1.0,))
    by_name = {r.name: r for r in report.results}
    assert by_name["leibniz-1"].status == "SKIP"
    assert by_name["factorial-bridge"].status == "SKIP"
    assert math.isnan(by_name["leibniz-1"].max_residual)
    assert by_name["q-pythagoras"].status == "PASS"
    assert by_name["wave-equation"].status == "PASS"
    assert by_name["fock-algebra"].status == "PASS"
    # a SKIP is not a failure
    assert report.all_pass


def test_rejects_bad_q_values():
    with pytest.raises(ValueError):
        run_verify(q_values=(0.9, -1.0))
    with pytest.raises(ValueError):
        run_verify(q_values=(math.nan,))
    with pytest.raises(ValueError):
        run_verify(q_values=())


def test_results_are_frozen_records():
    r = run_verify(q_values=(0.9,)).results[0]
    assert isinstance(r, IdentityResult)
    with pytest.raises(Exception):
        r.status = "FAIL"


def test_runtime_budget():
    import time
    t0 = time.monotonic()
    run_verify()
    assert time.monotonic() - t0 < 60.0


def test_nan_residual_fails_its_row(monkeypatch, capsys):
    row = ("nan-row", "yields a NaN", 1e-10, False, lambda qp: iter([0.0, math.nan, 1e-20]))
    monkeypatch.setattr(verify, "_IDENTITIES", (row,))
    report = run_verify(q_values=(0.9,))
    (result,) = report.results
    assert result.status == "FAIL"
    assert math.isnan(result.max_residual)
    assert not report.all_pass
    assert cli.main(["verify", "--q", "0.9"]) == 1
    assert "verify failed: nan-row" in capsys.readouterr().err


def test_verify_makes_few_basic_number_calls(monkeypatch):
    # the per-point sums made 542k calls; the array rows read cached tables,
    # and basic_factorial reads qnum's table (1,685 calls; 5,785 when it
    # called basic_number for every factor)
    calls = []
    original = qnum.basic_number

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name == "basicq" or name.startswith("basicq."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    qnum._bracket_table.cache_clear()
    qfunctions._denominators.cache_clear()
    qfunctions._log_gains.cache_clear()
    run_verify()
    assert 0 < len(calls) < 2_000


def test_verify_makes_no_public_series_calls(monkeypatch):
    # bench/tracing.py adds each public E/S/C call's terms_used to an int
    # counter; the array rows must reach the series another way
    calls = []
    for fn in (qfunctions.q_exp, qfunctions.q_sin, qfunctions.q_cos):
        def counting(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "basicq" or name.startswith("basicq."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
    assert run_verify().all_pass
    assert calls == []


def test_corpus_power_past_float_range_names_the_point():
    assert verify._pypow(np.array([[2.0], [-3.0]]), 3).tolist() == [[8.0], [-27.0]]
    with pytest.raises(OverflowError) as err:
        verify._pypow(np.array([1.0, 3e199, 4e199]), 3)
    assert str(err.value) == "x^3 at x = 3e+199 leaves float range"


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError, ConvergenceError])
def test_raising_row_fails_without_aborting_the_sweep(monkeypatch, capsys, error):
    def residuals(qp):
        yield 0.0
        raise error("cannot evaluate")

    rows = (("raising-row", "raises", 1e-10, False, residuals),
            ("quiet-row", "passes", 1e-10, False, lambda qp: iter([1e-20])))
    monkeypatch.setattr(verify, "_IDENTITIES", rows)
    report = run_verify(q_values=(0.9,))
    raising, quiet = report.results
    assert raising.status == "FAIL" and math.isnan(raising.max_residual)
    assert quiet.status == "PASS"
    assert cli.main(["verify", "--q", "0.9"]) == 1
    assert "verify failed: raising-row\n" in capsys.readouterr().err


def test_failed_rows_keep_their_reasons(monkeypatch, capsys):
    def raising(qp):
        yield 0.0
        raise ConvergenceError("q_integral_finite: no convergence after 1000000 terms")

    rows = (("raising-row", "raises", 1e-10, False, raising),
            ("nan-row", "yields a NaN", 1e-10, False, lambda qp: iter([math.nan])),
            ("large-row", "above tolerance", 1e-10, False, lambda qp: iter([2.5e-9])),
            ("quiet-row", "passes", 1e-10, False, lambda qp: iter([1e-20])))
    monkeypatch.setattr(verify, "_IDENTITIES", rows)
    assert [r.reason for r in run_verify(q_values=(0.9,)).results] == [
        "ConvergenceError: q_integral_finite: no convergence after 1000000 terms",
        "a residual is NaN", "residual 2.500000e-09 > tolerance 1e-10", ""]
    assert cli.main(["verify", "--q", "0.9"]) == 1
    assert capsys.readouterr().err == (
        "basicq: verify failed: raising-row, nan-row, large-row\n"
        "  raising-row: ConvergenceError: q_integral_finite: no convergence after "
        "1000000 terms\n"
        "  nan-row: a residual is NaN\n"
        "  large-row: residual 2.500000e-09 > tolerance 1e-10\n")


@pytest.mark.parametrize("q, points", [(0.9999999, 159731292), (1.0000000001, 159731285582)])
def test_momentum_rows_refuse_a_window_past_the_cap_before_building_it(monkeypatch, capsys,
                                                                        q, points):
    # default_window holds about 16 / (1 - q) points: 1.19 GiB of m alone at
    # q 0.9999999, which ended in numpy's _ArrayMemoryError or the OS killing
    # the process.
    def build(*args):
        raise AssertionError("a window past the cap was built")

    monkeypatch.setattr(verify.l2q, "build_lattice", build)
    monkeypatch.setattr(verify, "_IDENTITIES", verify._IDENTITIES[-2:])
    report = run_verify(q_values=(q,))
    assert [r.status for r in report.results] == ["FAIL", "FAIL"]
    m_min, m_max = verify.l2q.default_window(q)
    canonical = qnum.as_qparam(q).canonical
    assert {r.reason for r in report.results} == {
        f"ValueError: the lattice window m in [{m_min}, {m_max}] at q = {canonical!r} "
        f"holds {points} points, past the cap of 20000"}
    assert cli.main(["verify", "--q", repr(q)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "basicq: verify failed: momentum-hermiticity-even, momentum-hermiticity-odd"
    assert len(err) == 3 and "past the cap" in err[2]


def test_window_cap_sits_above_every_window_run():
    # verify --q 0.999 builds 15,964 points; the largest explicit window in
    # the tests and demos, m in [-1609, 6905] at q 0.999, 17,030.
    m_min, m_max = verify.l2q.default_window(0.999)
    assert 2 * (m_max - m_min + 1) == 15964
    assert 2 * (6905 + 1609 + 1) == 17030 < verify.l2q.MAX_WINDOW_POINTS


@pytest.mark.parametrize("q", [0.4, 0.3, 0.1, 0.01, 1e-3, 3.0, 5.0, 100.0])
def test_small_q_passes_every_row(q):
    # [40]! overflows on both factorial routes there; the bridge compares
    # only the representable ones
    report = run_verify(q_values=(q,))
    assert report.all_pass, report.failures


def test_unrepresentable_q_fails_its_rows_and_exits_1(capsys):
    assert cli.main(["verify", "--q", "1e-60"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    # The report itself: a failed row's unknown residual is an empty CSV
    # cell and a JSON null, and stderr names the failed rows in order, then
    # each with its reason on an indented line.  q-pythagoras fails on its
    # residual (its contract covers q 0.5-0.99 only), the other 7 on an error.
    rows = list(csv.DictReader(captured.out.splitlines()[1:]))
    failed = [r["identity"] for r in rows if r["status"] == "FAIL"]
    assert failed == ["leibniz-1", "leibniz-2", "chain-scaling", "fundamental-int-of-deriv",
                      "by-parts-shifted-q", "by-parts-shifted-qinv", "q-pythagoras",
                      "fock-algebra"]
    erred = [name for name in failed if name != "q-pythagoras"]
    assert {r["max_residual"] for r in rows if r["identity"] in erred} == {""}
    first, *reasons = captured.err.splitlines()
    assert first == f"basicq: verify failed: {', '.join(failed)}"
    assert [line.split(": ")[0] for line in reasons] == [f"  {name}" for name in failed]
    for name, line in zip(failed, reasons):
        if name in erred:
            assert len(line.split(": ")) >= 3  # name: error class: message
        else:
            assert line.startswith("  q-pythagoras: residual ")
    assert cli.main(["verify", "--q", "1e-60", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is False
    assert [r["identity"] for r in doc["results"] if r["status"] == "FAIL"] == failed
    assert {r["max_residual"] for r in doc["results"] if r["identity"] in erred} == {None}


# -- the array rows against the per-point generators they replaced -----------
#
# These are the scalar generators of the rows that became array expressions,
# kept as the reference: each array row must yield the same floats, bit for
# bit, in the same order.

def _scalar_corpus(qp):
    return [
        ("x^2", lambda x: x * x),
        ("x^3", lambda x: x**3),
        ("poly8", lambda x: 1 + x + 0.5 * x**4 + 0.125 * x**8),
        ("Eq(0.5x)", lambda x: qfunctions.q_exp(0.5 * x, qp).value),
        ("gauss", lambda x: math.exp(-min(x * x, 700.0))),
    ]


def _rel(res, ref):
    return res / (1.0 + abs(ref))


def _scalar_leibniz(qp, variant):
    fns = _scalar_corpus(qp)
    for _, f in fns[:4]:
        for _, g in fns[1:4]:
            for x in (0.3, 0.7, 1.0, 2.0, 5.0):
                lhs = qcalculus.jackson_derivative(lambda t: f(t) * g(t), x, qp)
                res = qcalculus.q_leibniz_residual(f, g, x, qp, variant)
                yield _rel(res, abs(lhs))


def _scalar_chain(qp):
    for _, f in _scalar_corpus(qp)[:3]:
        for a in (2.0, -1.0, 0.5):
            for x in (0.5, 1.0, 2.5):
                ref = qcalculus.jackson_derivative(f, x, qp) / a
                res = qcalculus.chain_scaling_residual(f, a, x, qp)
                yield _rel(res, abs(ref))


def _scalar_ft_derivative_of_integral(qp):
    for _, f in _scalar_corpus(qp):
        for x in (0.5, 1.0, 2.0, 4.0):
            dF = qcalculus.jackson_derivative(
                lambda t: qcalculus.q_integral_finite(f, t, qp), x, qp)
            yield _rel(abs(dF - f(x)), f(x))


def _scalar_ft_integral_of_derivative(qp):
    for _, f in _scalar_corpus(qp):
        for a in (1.0, 3.0, 5.0):
            val = qcalculus.q_integral_finite(
                lambda t: qcalculus.jackson_derivative(f, t, qp), a, qp)
            ref = f(a) - f(0.0)
            yield _rel(abs(val - ref), abs(ref))


def _scalar_ibp(qp, variant):
    eq = lambda x: qfunctions.q_exp(x, qp).value
    pairs = ((lambda x: x, lambda x: x * x), (lambda x: x * x, lambda x: x**3),
             (lambda x: 1.0, lambda x: x), (eq, eq))
    for f, g in pairs:
        for a in (1.0, 2.0):
            res = qcalculus.integration_by_parts_residual(f, g, a, qp, variant)
            yield _rel(res, abs(f(a) * g(a)))


def _scalar_dual_integral(qp):
    for a in (0.8, 1.5):
        for x in (1.0, 2.0):
            val = qcalculus.q_integral_finite(
                lambda y: qfunctions.q_exp(a * y, qp).value, x, qp)
            ref = (qfunctions.q_exp(a * x, qp).value - 1.0) / a
            yield _rel(abs(val - ref), abs(ref))


def _scalar_pythagoras(qp):
    for x in (-5.0, -2.5, -1.0, 0.25, 1.0, 2.5, 5.0):
        yield qfunctions.q_pythagoras_residual(x, qp)


def _scalar_trig_derivative(qp, which):
    for a in (1.0, 2.0):
        for x in (0.3, 0.7, 1.5):
            yield qfunctions.trig_derivative_residual(x, a, qp, which)


def _scalar_wave(qp):
    for u in ("sin", "cos", "exp"):
        for a in (1.0, 1.2):
            for x in (0.5, 1.0):
                yield qfunctions.wave_equation_residual(u, a, x, qp)


def _scalar_exp_eigen(qp):
    for a in (1.5, 0.7):
        f = lambda t: qfunctions.q_exp(a * t, qp).value
        for x in (0.5, 1.0, 2.0, -1.0):
            lhs = qcalculus.jackson_derivative(f, x, qp)
            ref = a * f(x)
            yield _rel(abs(lhs - ref), abs(ref))


def _scalar_dual_representation(qp):
    for fn in (qfunctions.q_exp, qfunctions.q_sin, qfunctions.q_cos):
        for z in (0.5, 2.0, 1.0 + 0.5j, -1.2, 3.0j):
            ref = fn(z, qp).value
            alt = fn(z, qp, representation="shifted").value
            yield abs(ref - alt) / (1.0 + abs(ref))


SCALAR_ROWS = {
    "leibniz-1": lambda qp: _scalar_leibniz(qp, 1),
    "leibniz-2": lambda qp: _scalar_leibniz(qp, 2),
    "chain-scaling": _scalar_chain,
    "fundamental-deriv-of-int": _scalar_ft_derivative_of_integral,
    "fundamental-int-of-deriv": _scalar_ft_integral_of_derivative,
    "by-parts-shifted-q": lambda qp: _scalar_ibp(qp, "shifted-q"),
    "by-parts-shifted-qinv": lambda qp: _scalar_ibp(qp, "shifted-qinv"),
    "dual-integral": _scalar_dual_integral,
    "q-pythagoras": _scalar_pythagoras,
    "trig-deriv-sin": lambda qp: _scalar_trig_derivative(qp, "sin"),
    "trig-deriv-cos": lambda qp: _scalar_trig_derivative(qp, "cos"),
    "wave-equation": _scalar_wave,
    "exp-eigenrelation": _scalar_exp_eigen,
    "dual-representation": _scalar_dual_representation,
}


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 1.3, 1.0])
def test_array_rows_match_the_scalar_generators_bit_for_bit(q):
    qp = qnum.as_qparam(q)
    rows = {name: (deform, residuals) for name, _, _, deform, residuals in verify._IDENTITIES}
    compared = 0
    for name, scalar in SCALAR_ROWS.items():
        needs_deformation, residuals = rows[name]
        if needs_deformation and qp.classical:
            continue
        compared += 1
        want = np.array(list(scalar(qp)), dtype=float)
        got = np.concatenate([np.ravel(r) for r in residuals(qp)]).astype(float)
        assert got.shape == want.shape, name
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (name, q)
    assert compared == (5 if qp.classical else 14)
