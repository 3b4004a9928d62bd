"""Tests for the two-sided derivative, deformed integrals, and their identities."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from basicq import (
    ConvergenceError,
    _summation,
    basic_number,
    jackson_derivative,
    q_exp,
    q_integral_finite,
    q_integral_fullline,
    q_integral_halfline,
    qcalculus,
    qfunctions,
    run_verify,
)
from basicq.errors import ParseError, first_nonfinite
from basicq.exprparse import BoundExpression, parse
from basicq.qcalculus import (
    SplitComplex,
    _lattice_sum,
    chain_scaling_residual,
    integration_by_parts_residual,
    jackson_derivative_series,
    q_leibniz_residual,
)
from test_fuzz_cli import _expr

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


@pytest.mark.parametrize("f, x, q, named", [
    (lambda t: t, 1e308, 0.5, "x = 1e+308 is not finite: (inf+0j)"),
    (lambda t: 1.0 / t, 1e-310, 0.9, "x = 1e-310 is not finite: (nan+0j)"),
    (lambda t: t, np.array([1.0, 1e308, -1e308]), 0.5, "x = 1e+308 is not finite: (inf+0j)"),
    (lambda t: SplitComplex(t * t, t), np.array([2.0, 1e200]), 0.9,
     "x = 1e+200 is not finite: (nan+"),
    (lambda t: t * t, 1e200, 1.0, "x = 1e+200 is not finite: (nan+0j)"),
], ids=["overflow", "nan", "ndarray", "split-complex", "classical"])
def test_derivative_refuses_a_value_that_is_not_finite(f, x, q, named):
    # the first point whose value is not finite is named, with that value
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as err:
        jackson_derivative(f, x, q)
    assert str(err.value).startswith(f"jackson_derivative: derivative at {named}")


@pytest.mark.parametrize("x, q, named", [
    (np.array([1.0, 1e308]), 0.5, "x = 1e+308"),
    (np.array([1.0, 1.7976931348623157e308]), 1.0, "x = 1.7976931348623157e+308"),
], ids=["deformed", "classical"])
def test_derivative_of_an_array_refuses_without_a_numpy_warning(x, q, named):
    # The stencil's own overflow (x / q, x + h) is refused as the scalar
    # call refuses it, with no numpy warning first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            jackson_derivative(lambda t: t, x, q)
    assert str(err.value).startswith(f"jackson_derivative: derivative at {named} ")


def test_derivative_of_an_array_keeps_the_warnings_of_f():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="overflow encountered in exp"):
            jackson_derivative(lambda t: np.exp(t), np.array([1.0, 800.0]), 0.9)


@pytest.mark.parametrize("x, q, named", [
    (5e-324, 0.9, "x = 5e-324"),
    (-1e-320, 1.0000000001, "x = -1e-320"),
    (np.array([1.0, 1e-320, 5e-324]), 0.9, "x = 5e-324"),
    (np.array([[2.0, 1e-320], [5e-324, 1.0]]), 1.0000000001, "x = 1e-320"),
], ids=["scalar", "scalar-near-1", "ndarray", "2-d"])
def test_derivative_refuses_a_step_that_underflows_to_zero(x, q, named):
    # (q - 1/q) x is 0 at a subnormal x: the scalar call divided by it
    # (ZeroDivisionError); now both refuse the first such point in flat
    # order, before f is read.
    read = []
    with pytest.raises(ConvergenceError) as err:
        jackson_derivative(lambda t: read.append(t) or t, x, q)
    assert str(err.value) == (f"jackson_derivative: derivative at {named} is not finite: "
                              "the step (q - 1/q) x underflows to 0")
    assert read == []


def test_first_nonfinite_names_the_first_element_in_flat_order():
    assert first_nonfinite(1.0) is None and first_nonfinite(-math.inf) == 0
    assert first_nonfinite(complex(1.0, math.nan)) == 0
    assert first_nonfinite(np.array([[1.0, 2.0], [math.nan, math.inf]])) == 2
    assert first_nonfinite(np.zeros(0)) is None
    split = SplitComplex(np.array([1.0, 2.0, 3.0]), np.array([0.0, math.inf, math.nan]))
    assert first_nonfinite(split) == 1
    assert first_nonfinite(SplitComplex(np.array([1.0, math.nan]), 0.0)) == 1
    assert first_nonfinite(SplitComplex(np.array([1.0, 2.0]), 0.0)) is None


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
    d = jackson_derivative_series([1, 2, 3, 4], q)  # 1 + 2x + 3x^2 + 4x^3
    want = [2.0 * basic_number(1, q), 3.0 * basic_number(2, q), 4.0 * basic_number(3, q)]
    assert isinstance(d, np.ndarray) and d.dtype == complex and d.shape == (3,)
    assert np.allclose(d, want, rtol=1e-15)


def test_series_derivative_of_constant_is_zero_series():
    d = jackson_derivative_series([7.0], 0.9)
    assert d.shape == (1,)
    assert d[0] == 0


def test_series_derivative_matches_pointwise():
    q = 0.85
    c = np.array([0.5, -1.0, 0.0, 2.0, 1.5], dtype=complex)
    d = jackson_derivative_series(c, q)
    for x in (0.4, 1.1, -0.9):
        want = jackson_derivative(lambda t: polyval(t, c), x, q)
        assert polyval(x, d) == pytest.approx(want, rel=1e-12)


def test_power_series_rejects_matrix_coefficients():
    with pytest.raises(ValueError):
        jackson_derivative_series(np.ones((2, 2)), 0.9)


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
    for q in (0.9, 1.0):  # the ValueError comes before 1/t is taken at 0
        with pytest.raises(ValueError, match="x = 0"):
            chain_scaling_residual(lambda t: 1.0 / t, 1.0, 0.0, q)


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
        q_integral_halfline(lambda x: 1.0, 0.5)


def test_truncation_flags_nonfinite_terms():
    with pytest.raises(ConvergenceError):
        q_integral_finite(lambda x: math.inf if x > 0.8 else 1.0, 1.0, 0.9)


def test_overflowing_sum_of_finite_terms_raises():
    # every term q^{4n+2} a^2 is finite; their sum is not
    with pytest.raises(ConvergenceError, match="sum of 6 finite terms overflows"):
        q_integral_finite(lambda x: x, 1e308, 0.9)


def test_max_terms_cap_raises(monkeypatch):
    monkeypatch.setattr(_summation, "MAX_TERMS", 50)
    with pytest.raises(ConvergenceError, match="no convergence after 50 terms"):
        # tol = 0 can never satisfy the negligible-term rule
        q_integral_finite(lambda x: x, 1.0, 0.9, tol=0.0)


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


# -- arrays of upper limits: bit for bit the scalar integral --------------------

def _bits(value):
    v = complex(value)
    return (np.float64(v.real).view(np.int64), np.float64(v.imag).view(np.int64))


def _pypow(x, n):
    return np.array([v ** n for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _pygauss(x):
    return np.array([math.exp(-v * v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


UPPERS = np.array([0.1, 0.5, 1.0, 2.0, 3.7, 5.0])


def _integrands(q):
    """(name, scalar integrand, array integrand computing the same floats)."""
    return [
        ("poly", lambda x: 1 + x + 0.5 * x ** 4, lambda x: 1 + x + 0.5 * _pypow(x, 4)),
        ("Eq", lambda x: q_exp(0.5 * x, q).value, lambda x: q_exp(0.5 * x, q).value),
        ("Eq(ix)", lambda x: q_exp(1j * x, q).value, lambda x: q_exp(1j * x, q).value),
        ("gauss", lambda x: math.exp(-x * x), _pygauss),
        ("const", lambda x: 1.0, lambda x: 1.0),
    ]


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 1.3])
def test_array_of_upper_limits_matches_scalar_bit_for_bit(q):
    for name, scalar, array in _integrands(q):
        got = q_integral_finite(array, UPPERS, q)
        assert got.dtype == complex and got.shape == UPPERS.shape
        for a, value in zip(UPPERS, got):
            assert _bits(value) == _bits(q_integral_finite(scalar, a, q)), (name, q, a)


def test_array_of_upper_limits_in_small_blocks_matches_scalar(monkeypatch):
    # blocks of a few lattice terms carry the sums and streaks between blocks
    monkeypatch.setattr(_summation, "_BLOCK_VALUES", 13)
    for name, scalar, array in _integrands(0.9):
        got = q_integral_finite(array, UPPERS, 0.9)
        for a, value in zip(UPPERS, got):
            assert _bits(value) == _bits(q_integral_finite(scalar, a, 0.9)), (name, a)


@pytest.mark.parametrize("sgn", [1, -1])
def test_block_lattice_sum_matches_scalar_on_both_tails(sgn):
    # the half-line tails share the lattice sum; sgn -1 walks outward
    qc = 0.9
    scalar = _lattice_sum(lambda x: x * math.exp(-x * x), qc, 1.0, sgn, 1e-14, "t")
    block = _lattice_sum(lambda x: x * _pygauss(x), qc, np.array([1.0, 1.5]), sgn,
                         1e-14, "t")
    assert _bits(complex(block.re[0], block.im[0])) == _bits(scalar)


def test_array_of_upper_limits_raises_like_the_scalar_call(monkeypatch):
    with pytest.raises(ValueError, match="a > 0"):
        q_integral_finite(lambda x: x, np.array([1.0, 0.0]), 0.9)
    with pytest.raises(ConvergenceError, match="non-finite term at index 0"):
        q_integral_finite(lambda x: x, np.array([1.0, np.nan]), 0.9)
    monkeypatch.setattr(_summation, "MAX_TERMS", 50)
    with pytest.raises(ConvergenceError, match="no convergence after 50 terms") as want:
        q_integral_finite(lambda x: x, 2.0, 0.9, tol=0.0)
    # at 1e-320 the terms underflow to 0 and converge: 2.0 is named
    with pytest.raises(ConvergenceError) as got:
        q_integral_finite(lambda x: x, np.array([1e-320, 2.0, 1.0]), 0.9, tol=0.0)
    assert str(got.value) == str(want.value)


def test_array_series_at_the_term_cap_raises_the_scalar_message(monkeypatch):
    # real arguments take the kernel's real branch, complex ones both parts;
    # E_q(0) converges in 4 terms, so z is named
    monkeypatch.setattr(_summation, "MAX_TERMS", 5)
    for z in (10.0, 10.0 + 1.0j):
        with pytest.raises(ConvergenceError, match="no convergence after 5 terms") as want:
            q_exp(z, 0.9)
        with pytest.raises(ConvergenceError) as got:
            q_exp(np.array([0.0, z, 20.0]), 0.9)
        assert str(got.value) == str(want.value)


def _loop_error(f, uppers, q):
    """The error a loop of scalar calls over ``uppers`` raises first."""
    for a in uppers:
        try:
            q_integral_finite(f, a, q)
        except ConvergenceError as exc:
            return str(exc)
    raise AssertionError("no element fails")


@pytest.mark.parametrize("uppers", [[1.0, 0.3], [0.3, 1.0]])
def test_array_of_upper_limits_raises_the_first_failing_elements_error(uppers):
    # 1.0 meets the infinite values at index 3, 0.3 at index 0: the array
    # names the element a loop meets first, not the earliest index
    f = lambda x: np.where(x < 0.5, np.inf, 1.0)
    want = _loop_error(f, uppers, 0.9)
    assert want.endswith(f"index {3 if uppers[0] == 1.0 else 0} (divergent tail?)")
    with pytest.raises(ConvergenceError) as got:
        q_integral_finite(f, np.array(uppers), 0.9)
    assert str(got.value) == want


def test_integrand_overflowing_past_every_stop_gives_the_loops_values():
    # every element stops above x = 1e-12, the first block reaches below it
    def f(x):
        if np.min(x) < 1e-12:
            raise OverflowError("below 1e-12")
        return x

    uppers = np.array([0.5, 1.0])
    got = q_integral_finite(f, uppers, 0.9)
    for a, value in zip(uppers.tolist(), got):
        assert _bits(value) == _bits(q_integral_finite(f, a, 0.9))
    assert got.real.tolist() == pytest.approx((uppers ** 2 / basic_number(2, 0.9)).tolist())


def test_nonfinite_values_past_every_stop_give_the_scalar_bits(monkeypatch):
    # the first block's running sums are NaN although every element
    # converges before x = 1e-13: the block is summed again element by element
    f = lambda x: np.where(x < 1e-13, np.nan, x * x)
    calls = []
    blocks = qcalculus._sum_blocks
    monkeypatch.setattr(qcalculus, "_sum_blocks", lambda *args, **kw: blocks(
        *args[:-1], lambda row: calls.append(row) or args[-1](row), **kw))
    got = q_integral_finite(f, UPPERS, 0.9)
    assert calls == list(range(UPPERS.size))
    for a, value in zip(UPPERS.tolist(), got):
        assert _bits(value) == _bits(q_integral_finite(f, a, 0.9))


@pytest.mark.parametrize("q", [1e-200, 1e200])
def test_array_of_upper_limits_at_tiny_q_matches_scalar(q):
    # q^2 underflows to 0, so the first block is sized from 2 log q; where
    # an integrand refuses at this q, the array refuses as the loop does
    for name, scalar, array in _integrands(q):
        try:
            want = [_bits(q_integral_finite(scalar, a, q)) for a in UPPERS]
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                q_integral_finite(array, UPPERS, q)
            assert str(got.value) == str(exc), name
        else:
            assert [_bits(v) for v in q_integral_finite(array, UPPERS, q)] == want, name


def test_integrand_failing_at_a_point_that_underflows_to_0_names_its_index():
    # at q 1e-60 the lattice point q^7 a underflows to 0, where D f is undefined;
    # the array sum reaches the same refusal through the scalar sum
    q = 1e-60
    f = lambda x: jackson_derivative(lambda t: t * t, x, q)
    want = ("q_integral_finite: lattice point 3 underflows to 0, "
            "where the integrand fails: jackson_derivative is undefined at x = 0")
    for a in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(ConvergenceError) as exc:
            q_integral_finite(f, a, q)
        assert str(exc.value) == want
    # a regular integrand's terms are 0 there and end the sum
    assert q_integral_finite(lambda x: x * x, 1.0, q) == pytest.approx(
        1.0 / basic_number(3, q), rel=1e-15)


def _assert_array_is_the_loop(f, uppers, q):
    """The array call gives the loop's bits, or raises the loop's first error."""
    try:
        want = [_bits(q_integral_finite(f, a, q)) for a in np.ravel(uppers).tolist()]
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            q_integral_finite(f, uppers, q)
        assert str(got.value) == str(exc)
    else:
        assert [_bits(v) for v in q_integral_finite(f, uppers, q)] == want


def test_complex_values_in_every_block_keep_their_imaginary_parts():
    # sqrt(1 - x) is real on the lattice below x = 1, complex above it:
    # many blocks hold real values only, and the sums keep both parts
    uppers = np.linspace(1.5, 3.0, 400)
    got = q_integral_finite(lambda x: np.sqrt(1.0 - x + 0j), uppers, 0.9)
    assert got[0] == 0.6706911611012525 + 0.23919705517734835j
    _assert_array_is_the_loop(lambda x: np.sqrt(1.0 - x + 0j), uppers, 0.9)
    f = BoundExpression(parse("(sqrt(q)-x)^pow(q,q*x)"), 0.99)
    assert complex(q_integral_finite(f, np.array([2.0]), 0.99)[0]) == (
        -0.011440318925082876 + 0.026206721369243534j)
    _assert_array_is_the_loop(f, np.array([2.0]), 0.99)


def test_integrand_errors_hand_the_block_to_the_scalar_sum():
    # gauss(x*1e14) is 0 on the first lattice points, where the scalar sum
    # stops; the first block reaches x < 1e-11, where pow(x,-30) overflows
    f = BoundExpression(parse("pow(x,-30)*gauss(x*1e14)"), 0.9)
    assert q_integral_finite(f, 1.0, 0.9) == 0.0
    _assert_array_is_the_loop(f, np.array([1.0, 2.0]), 0.9)
    # the loop meets a non-finite term before x underflows to 0, where the
    # block's division by zero fails
    f = BoundExpression(parse("q/x"), 0.9)
    with pytest.raises(ConvergenceError) as got:
        q_integral_finite(f, np.array([0.3, 1.0]), 0.9)
    assert str(got.value) == (
        "q_integral_finite: non-finite term at index 3363 (divergent tail?)")
    _assert_array_is_the_loop(f, np.array([0.3, 1.0]), 0.9)


def test_a_result_overflow_before_a_failing_sum_raises_first():
    # the sum at 3.0 is finite and its result overflows; the one at 5.0
    # meets an infinite first term, which a loop over the limits never reaches
    f = BoundExpression(parse("x*1e308"), 0.5)
    with pytest.raises(ConvergenceError) as got:
        q_integral_finite(f, np.array([3.0, 5.0]), 0.5)
    assert str(got.value) == "q_integral_finite: result overflows after a finite sum"
    _assert_array_is_the_loop(f, np.array([3.0, 5.0]), 0.5)
    _assert_array_is_the_loop(f, np.array([0.1, 5.0]), 0.5)
    _assert_array_is_the_loop(f, np.array([0.1, 0.2]), 0.5)


def test_a_result_overflow_before_the_term_cap_raises_first():
    # near q 1 the prefactor a (1/q - q) is 2 at a = 1e6, whose few nonzero
    # terms sum to about 1.5e308; at a = 1 every term is 1, and the block
    # sum refuses that limit at MAX_TERMS, where a loop has already stopped
    def f(x):
        return np.where(x > 1e5, np.where(x > 999990.0, 3e307, 0.0), 1.0 / x)

    q = 1.0 - 1e-6
    with pytest.raises(ConvergenceError) as got:
        q_integral_finite(lambda x: f(np.asarray(x)).item(), 1e6, q)
    assert str(got.value) == "q_integral_finite: result overflows after a finite sum"
    with pytest.raises(ConvergenceError) as got:
        q_integral_finite(f, np.array([1e6, 1.0]), q)
    assert str(got.value) == "q_integral_finite: result overflows after a finite sum"


def test_seeded_expression_integrands_sum_as_the_loop():
    # integrands of the CLI fuzz's grammar; q 0.99 stays out, where a
    # divergent one runs tens of thousands of terms per limit
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        text, q = _expr(rng), rng.choice((0.5, 0.9))
        uppers = np.array([10 ** rng.uniform(-2, 0.7) for _ in range(rng.choice((1, 3)))])
        try:
            f = BoundExpression(parse(text), q)
        except ParseError:  # such as "--x"
            continue
        _assert_array_is_the_loop(f, uppers, q)
        checked += 1


def test_verify_sums_no_element_alone(monkeypatch):
    # every array sum of the default sweep clears its blocks in the kernel
    sums, calls = [], []
    blocks = qcalculus._sum_blocks

    def spy(*args, **kw):
        sums.append(args[-2])
        return blocks(*args[:-1], lambda row: calls.append(row) or args[-1](row), **kw)

    monkeypatch.setattr(qcalculus, "_sum_blocks", spy)
    monkeypatch.setattr(qfunctions, "_sum_blocks", spy)
    assert run_verify().all_pass
    assert {"q_integral_finite", "q_exp", "q_sin", "q_cos"} <= set(sums)
    assert calls == []


def test_split_complex_arithmetic_is_cpythons():
    rng = np.random.default_rng(7)
    parts = rng.standard_normal((4, 2000)) * 10.0 ** rng.integers(-8, 8, (4, 2000))
    # a complex divisor takes either of the quotient's branches, and a
    # signed zero part in either operand keeps its sign as in CPython
    parts[1, :100] = -0.0
    parts[3, 100:200] = -0.0
    a, b = SplitComplex(parts[0], parts[1]), SplitComplex(parts[2], parts[3])
    d = parts[2]
    got = {"mul": a * b, "rmul": d * a, "div": a / d, "add": a + b, "rsub": d - a,
           "cdiv": a / b, "rcdiv": 1.5j / b}
    for k in range(parts.shape[1]):
        x, y = complex(parts[0, k], parts[1, k]), complex(parts[2, k], parts[3, k])
        want = {"mul": x * y, "rmul": d[k] * x, "div": x / d[k], "add": x + y, "rsub": d[k] - x,
                "cdiv": x / y, "rcdiv": 1.5j / y}
        for op, w in want.items():
            assert _bits(complex(got[op].re[k], got[op].im[k])) == _bits(w), op
        assert abs(a)[k] == abs(x)


def test_split_complex_divided_by_a_real_zero_raises_as_cpython():
    with pytest.raises(ZeroDivisionError) as want:
        complex(1.0, 2.0) / 0.0
    with pytest.raises(ZeroDivisionError) as got:
        SplitComplex(np.array([1.0, 1.0]), np.array([2.0, 0.0])) / np.array([1.0, 0.0])
    assert str(got.value) == str(want.value) == "complex division by zero"


def test_overflowing_result_raises():
    # the sum is finite; the prefactor a (1/q - q) times it is not
    with pytest.raises(ConvergenceError, match="result overflows"):
        q_integral_finite(lambda x: x, 1e307, 0.9)
    with pytest.raises(ConvergenceError, match="result overflows"):
        q_integral_finite(lambda x: x, np.array([1.0, 1e307]), 0.9)
    with pytest.raises(ConvergenceError, match="q_integral_halfline: result overflows"):
        q_integral_halfline(lambda x: 1e308 * math.exp(-x * x / 4.0), 0.5)
    # each half-line is finite, their sum is not
    f = lambda x: 1.7e308 * math.exp(-x * x)
    assert math.isfinite(q_integral_halfline(f, 0.5))
    with pytest.raises(ConvergenceError, match="q_integral_fullline: result overflows"):
        q_integral_fullline(f, 0.5)
