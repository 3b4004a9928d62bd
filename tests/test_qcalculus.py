"""Tests for the two-sided derivative, deformed integrals, and their identities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from basicq import (
    ConvergenceError,
    basic_number,
    jackson_derivative,
    q_integral_finite,
    q_integral_fullline,
    q_integral_halfline,
)
from basicq.qcalculus import (
    PowerSeries,
    chain_scaling_residual,
    integration_by_parts_residual,
    jackson_derivative_series,
    q_leibniz_residual,
)

QS = [0.5, 0.8, 0.9, 0.95, 0.99]


# -- derivative --------------------------------------------------------------

@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_derivative_monomial_rule(q, k):
    # D x^k = [k] x^(k-1), exactly the deformed power rule
    for x in (0.3, 1.0, -2.0):
        want = basic_number(k, q) * x ** (k - 1)
        got = jackson_derivative(lambda t: t ** k, x, q)
        assert got == pytest.approx(want, rel=1e-13)


def test_derivative_reference_value():
    # D x^3 at x = 2, q = 0.9 equals 4 [3] (50-digit reference)
    got = jackson_derivative(lambda t: t ** 3, 2.0, 0.9)
    assert got == pytest.approx(12.178271604938272, rel=1e-14)


def test_derivative_linear_function_is_exact():
    for q in QS:
        assert jackson_derivative(lambda t: 3.0 * t + 1.0, 0.7, q) == pytest.approx(3.0, rel=1e-14)


def test_derivative_constant_is_zero():
    assert jackson_derivative(lambda t: 4.2, 1.3, 0.8) == 0.0


def test_derivative_rejects_origin():
    with pytest.raises(ValueError):
        jackson_derivative(lambda t: t, 0.0, 0.9)


def test_derivative_classical_branch_central_difference():
    # q = 1 dispatches to a finite difference: smooth corpus to ~1e-10
    for f, fp, x in [
        (math.sin, math.cos, 0.7),
        (math.exp, math.exp, 1.2),
        (lambda t: t ** 4, lambda t: 4 * t ** 3, 2.0),
    ]:
        got = jackson_derivative(f, x, 1.0)
        assert got == pytest.approx(fp(x), rel=1e-9)


def test_derivative_complex_valued_function():
    q = 0.9
    got = jackson_derivative(lambda t: (1 + 2j) * t * t, 1.5, q)
    assert got == pytest.approx((1 + 2j) * basic_number(2, q) * 1.5, rel=1e-13)


# -- termwise series derivative ----------------------------------------------

def test_series_derivative_shifts_and_weights():
    q = 0.8
    s = PowerSeries([1.0, 2.0, 3.0, 4.0])  # 1 + 2x + 3x^2 + 4x^3
    d = jackson_derivative_series(s, q)
    want = [2.0 * basic_number(1, q), 3.0 * basic_number(2, q), 4.0 * basic_number(3, q)]
    assert np.allclose(d.coefficients, want, rtol=1e-15)
    assert d.degree == 2


def test_series_derivative_of_constant_is_zero_series():
    d = jackson_derivative_series(PowerSeries([7.0]), 0.9)
    assert d.degree == 0
    assert d.coefficients[0] == 0


def test_series_derivative_matches_pointwise():
    q = 0.85
    s = PowerSeries([0.5, -1.0, 0.0, 2.0, 1.5])
    d = jackson_derivative_series(s, q)
    for x in (0.4, 1.1, -0.9):
        assert d(x) == pytest.approx(jackson_derivative(s, x, q), rel=1e-12)


def test_power_series_rejects_matrix_coefficients():
    with pytest.raises(ValueError):
        PowerSeries(np.ones((2, 2)))


# -- product and chain rules -------------------------------------------------

@pytest.mark.parametrize("variant", [1, 2])
@pytest.mark.parametrize("q", QS)
def test_leibniz_residual_small(q, variant):
    f = lambda t: t ** 3
    g = lambda t: 1.0 + t * t
    for x in (0.5, 1.0, 2.5):
        assert q_leibniz_residual(f, g, x, q, variant=variant) < 1e-12


def test_leibniz_rejects_unknown_variant():
    with pytest.raises(ValueError):
        q_leibniz_residual(lambda t: t, lambda t: t, 1.0, 0.9, variant=3)


@pytest.mark.parametrize("q", QS)
def test_chain_scaling_exact(q):
    f = lambda t: t ** 4 - 2.0 * t
    for a in (0.5, 2.0, -3.0):
        assert chain_scaling_residual(f, a, 1.3, q) < 1e-13


def test_chain_scaling_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        chain_scaling_residual(lambda t: t, 0.0, 1.0, 0.9)
    with pytest.raises(ValueError):
        chain_scaling_residual(lambda t: t, 1.0, 0.0, 0.9)


# -- integrals ---------------------------------------------------------------

def test_finite_integral_reference_values():
    # int_0^1 x^2 = 1/[3] and int_0^2 x^3 = 16/[4] at q = 0.9
    assert q_integral_finite(lambda x: x * x, 1.0, 0.9) == pytest.approx(
        0.32845383398888934, rel=1e-13)
    assert q_integral_finite(lambda x: x ** 3, 2.0, 0.9) == pytest.approx(
        3.891189478309054, rel=1e-13)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_finite_integral_power_rule(q, k):
    for a in (0.5, 1.0, 3.0):
        want = a ** (k + 1) / basic_number(k + 1, q)
        got = q_integral_finite(lambda x: x ** k, a, q)
        assert got == pytest.approx(want, rel=1e-12)


def test_finite_integral_returns_real_for_real_integrand():
    v = q_integral_finite(lambda x: x * x, 1.0, 0.9)
    assert isinstance(v, float)


def test_finite_integral_complex_integrand():
    q = 0.9
    v = q_integral_finite(lambda x: 1j * x, 1.0, q)
    assert isinstance(v, complex)
    assert v == pytest.approx(1j / basic_number(2, q), rel=1e-12)


def test_finite_integral_rejects_bad_limits_and_classical_q():
    with pytest.raises(ValueError):
        q_integral_finite(lambda x: x, 0.0, 0.9)
    with pytest.raises(ValueError):
        q_integral_finite(lambda x: x, -1.0, 0.9)
    with pytest.raises(ValueError):
        q_integral_finite(lambda x: x, 1.0, 1.0)


def test_finite_integral_additivity_under_scaling():
    # int_0^a = int_0^(qa) + (the single lattice shell between them)
    q, a = 0.8, 1.0
    f = lambda x: x ** 3
    whole = q_integral_finite(f, a, q)
    inner = q_integral_finite(f, q * q * a, q)
    shell = a * (1 / q - q) * q * f(q * a)
    assert whole == pytest.approx(inner + shell, rel=1e-12)


def test_halfline_gaussian_reference():
    # 50-digit bilateral lattice sum; differs from sqrt(pi)/2 in the third
    # decimal at q = 0.9, which is the expected deformation signature
    got = q_integral_halfline(lambda x: math.exp(-x * x), 0.9)
    assert got == pytest.approx(0.8878674792265441, rel=1e-12)
    assert abs(got - math.sqrt(math.pi) / 2) > 1e-4


def test_fullline_even_integrand_doubles_halfline():
    q = 0.9
    f = lambda x: math.exp(-x * x)
    assert q_integral_fullline(f, q) == pytest.approx(
        2.0 * q_integral_halfline(f, q), rel=1e-13)


def test_fullline_odd_integrand_cancels():
    q = 0.9
    f = lambda x: x * math.exp(-x * x)
    full = q_integral_fullline(f, q)
    assert abs(full) < 1e-15 * q_integral_halfline(lambda x: abs(f(x)), q)


def test_halfline_diverges_without_decay():
    # constant integrand: outer tail terms do not shrink
    with pytest.raises(ConvergenceError):
        q_integral_halfline(lambda x: 1.0, 0.5, max_terms=3000)


def test_truncation_flags_nonfinite_terms():
    with pytest.raises(ConvergenceError):
        q_integral_finite(lambda x: math.inf if x > 0.8 else 1.0, 1.0, 0.9, max_terms=500)


def test_max_terms_cap_raises():
    with pytest.raises(ConvergenceError):
        # tol = 0 can never satisfy the negligible-term rule
        q_integral_finite(lambda x: x, 1.0, 0.9, tol=0.0, max_terms=50)


# -- fundamental theorem and integration by parts ----------------------------

@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_fundamental_theorem_derivative_of_integral(q):
    f = lambda t: t * t + 0.5
    for x in (0.4, 1.0, 2.0):
        F = lambda u: q_integral_finite(f, u, q)
        assert jackson_derivative(F, x, q) == pytest.approx(f(x), rel=1e-10)


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_fundamental_theorem_integral_of_derivative(q):
    f = lambda t: t ** 3 - 2.0 * t
    for a in (0.5, 1.5):
        got = q_integral_finite(lambda x: jackson_derivative(f, x, q), a, q)
        assert got == pytest.approx(f(a) - f(0.0), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("variant", ["shifted-q", "shifted-qinv"])
@pytest.mark.parametrize("q", [0.5, 0.9])
def test_integration_by_parts(q, variant):
    f = lambda t: t * t
    g = lambda t: t ** 3 + t
    assert integration_by_parts_residual(f, g, 1.2, q, variant=variant) < 1e-10


def test_integration_by_parts_rejects_unknown_variant():
    with pytest.raises(ValueError):
        integration_by_parts_residual(lambda t: t, lambda t: t, 1.0, 0.9, variant="left")
