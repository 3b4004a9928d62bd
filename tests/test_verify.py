"""Tests for the identity-suite runner."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from basicq import cli, qcalculus, qfunctions, qnum, run_verify, verify
from basicq.verify import DEFAULT_SWEEP, IdentityResult, VerifyReport, lattice_for_q


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


def test_tolerance_override_forces_failures():
    report = run_verify(q_values=(0.9,), tol_override=1e-30)
    assert not report.all_pass
    assert len(report.failures) > 5
    for r in report.results:
        if r.status != "SKIP":
            assert r.tolerance == 1e-30


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


def test_lattice_for_q_scales_exponent_window():
    for q in (0.5, 0.9, 0.99):
        lat = lattice_for_q(q)
        assert lat.x.max() >= 4.0
        assert min(abs(lat.x[lat.x > 0])) <= 2e-3
    # finer deformation needs a wider exponent range for the same decades
    assert lattice_for_q(0.99).m_max > lattice_for_q(0.9).m_max


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
    # the per-point sums made 542k calls; the array rows read cached tables
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
    qfunctions._bracket_table.cache_clear()
    qfunctions._log_denominators.cache_clear()
    run_verify()
    assert 0 < len(calls) < 20_000


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


SCALAR_ROWS = {
    "leibniz-1": lambda qp: _scalar_leibniz(qp, 1),
    "leibniz-2": lambda qp: _scalar_leibniz(qp, 2),
    "chain-scaling": _scalar_chain,
    "fundamental-deriv-of-int": _scalar_ft_derivative_of_integral,
    "fundamental-int-of-deriv": _scalar_ft_integral_of_derivative,
    "by-parts-shifted-q": lambda qp: _scalar_ibp(qp, "shifted-q"),
    "by-parts-shifted-qinv": lambda qp: _scalar_ibp(qp, "shifted-qinv"),
    "dual-integral": _scalar_dual_integral,
}


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 1.3])
def test_array_rows_match_the_scalar_generators_bit_for_bit(q):
    qp = qnum.as_qparam(q)
    rows = {name: residuals for name, _, _, _, residuals in verify._IDENTITIES}
    for name, scalar in SCALAR_ROWS.items():
        want = np.array(list(scalar(qp)), dtype=float)
        got = np.concatenate([np.ravel(r) for r in rows[name](qp)]).astype(float)
        assert got.shape == want.shape, name
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (name, q)
