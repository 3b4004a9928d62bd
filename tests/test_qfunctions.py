"""Tests for the deformed exponential and trigonometric series."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from basicq import (
    ConvergenceError,
    QSpecialValue,
    basic_factorial,
    jackson_derivative,
    q_cos,
    q_exp,
    q_sin,
    qcalculus,
    qfunctions,
)
from basicq.qnum import as_qparam
from basicq.qfunctions import (
    q_pythagoras_residual,
    trig_derivative_residual,
    wave_equation_residual,
)

# 50-digit series references.
EXP_REF = {
    (1.0, 0.9): 2.7092417694157151,
    (-0.5, 0.9): 0.60615675255012349,
    (1.0, 0.5): 2.4837057883305725,
    (2.0, 0.99): 7.387978474904364,
}


@pytest.mark.parametrize("key,ref", sorted(EXP_REF.items()))
def test_exp_reference_values(key, ref):
    z, q = key
    assert q_exp(z, q).value == pytest.approx(ref, rel=1e-14)


def test_exp_complex_reference_value():
    v = q_exp(0.3 + 0.7j, 0.9).value
    assert v == pytest.approx(1.0347563776833864 + 0.86966300851488611j, rel=1e-14)


def test_trig_reference_values():
    assert q_sin(1.0, 0.9).value == pytest.approx(0.84412847556832712, rel=1e-14)
    assert q_cos(1.0, 0.9).value == pytest.approx(0.54131028033755721, rel=1e-14)
    assert q_sin(2.0, 0.5).value == pytest.approx(1.4012311758901796, rel=1e-14)
    assert q_cos(2.0, 0.5).value == pytest.approx(-0.48577078557500217, rel=1e-14)
    assert q_sin(0.5j, 0.9).value == pytest.approx(0.52065373030129289j, rel=1e-14)


def test_values_at_origin():
    for q in (0.5, 0.9, 1.0):
        assert q_exp(0.0, q).value == 1.0 + 0.0j
        assert q_sin(0.0, q).value == 0.0 + 0.0j
        assert q_cos(0.0, q).value == 1.0 + 0.0j


def test_classical_branch_reduces_to_cmath():
    for z in (0.3, 1.5, -2.0, 1.0 + 1.0j):
        assert q_exp(z, 1.0).value == pytest.approx(cmath.exp(z), rel=1e-13)
        assert q_sin(z, 1.0).value == pytest.approx(cmath.sin(z), rel=1e-13)
        assert q_cos(z, 1.0).value == pytest.approx(cmath.cos(z), rel=1e-13)


def test_euler_decomposition():
    # E(iz) = C(z) + i S(z) termwise, so numerically to rounding
    for q in (0.5, 0.9):
        for z in (0.4, 1.0, 2.3):
            lhs = q_exp(1j * z, q).value
            rhs = q_cos(z, q).value + 1j * q_sin(z, q).value
            assert lhs == pytest.approx(rhs, rel=1e-13)


def test_exp_series_matches_explicit_partial_sum():
    q, z = 0.9, 0.8
    explicit = sum(z ** k / basic_factorial(k, q) for k in range(40))
    assert q_exp(z, q).value == pytest.approx(explicit, rel=1e-14)


def test_metadata_fields():
    v = q_exp(1.0, 0.9)
    assert isinstance(v, QSpecialValue)
    assert v.terms_used > 3


def test_entire_at_large_argument():
    # superexponential factorial growth keeps the series summable far out
    v = q_exp(25.0, 0.9)
    assert math.isfinite(abs(v.value))
    w = q_exp(60j, 0.5)
    assert math.isfinite(abs(w.value))


@pytest.mark.parametrize("q", [0.5, 0.8, 0.9, 0.95, 0.99])
def test_dual_representation_exp(q):
    for z in (0.5, 2.0, -1.2, 1 + 0.5j, 3j):
        a = q_exp(z, q).value
        b = q_exp(z, q, representation="shifted").value
        assert abs(a - b) / (1 + abs(a)) < 1e-12


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_dual_representation_trig(q):
    for z in (0.5, 2.0, -1.2, 0.7j):
        for fn in (q_sin, q_cos):
            a = fn(z, q).value
            b = fn(z, q, representation="shifted").value
            assert abs(a - b) / (1 + abs(a)) < 1e-12


def test_shifted_representation_rejects_classical():
    with pytest.raises(ValueError):
        q_exp(1.0, 1.0, representation="shifted")
    with pytest.raises(ValueError):
        q_exp(1.0, 0.9, representation="euler")


# -- identities --------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 0.8, 0.9, 0.95, 0.99, 1.0])
def test_pythagoras_residual(q):
    for x in (0.3, 1.0, 2.0, 4.5):
        assert q_pythagoras_residual(x, q) < 1e-11


@pytest.mark.parametrize("which", ["sin", "cos"])
@pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
def test_trig_derivative_residual(q, which):
    # stated contract 1e-10; the classical rows carry finite-difference noise
    for a, x in [(1.0, 0.7), (2.0, 1.3), (0.5, 3.0)]:
        assert trig_derivative_residual(x, a, q, which=which) < 1e-10


def test_trig_derivative_rejects_unknown_component():
    with pytest.raises(ValueError):
        trig_derivative_residual(1.0, 1.0, 0.9, which="tan")


@pytest.mark.parametrize("x", [0.0, np.array([0.5, 0.0])])
def test_trig_derivative_rejects_origin(x):
    with pytest.raises(ValueError, match="x = 0"):
        trig_derivative_residual(x, 1.0, 0.9)


@pytest.mark.parametrize("u", ["sin", "cos", "exp"])
@pytest.mark.parametrize("q", [0.5, 0.9, 1.0])
def test_wave_equation_residual(q, u):
    # stated contract 1e-9 (classical rows are difference-stencil limited)
    for a, x in [(0.5, 1.0), (1.0, 2.0), (2.0, 0.6)]:
        assert wave_equation_residual(u, a, x, q) < 1e-9


def test_wave_equation_rejects_unknown_mode():
    with pytest.raises(ValueError):
        wave_equation_residual("tanh", 1.0, 1.0, 0.9)


def test_exp_eigenrelation_under_derivative():
    # D E(a x) = a E(a x)
    for q in (0.5, 0.9):
        for a, x in [(1.0, 0.8), (2.5, 1.1), (-0.7, 2.0)]:
            lhs = jackson_derivative(lambda t: q_exp(a * t, q).value, x, q)
            rhs = a * q_exp(a * x, q).value
            assert lhs == pytest.approx(rhs, rel=1e-11)


def test_tight_tolerance_still_converges():
    v = q_exp(1.0, 0.9, tol=1e-16)
    assert v.value == pytest.approx(EXP_REF[(1.0, 0.9)], rel=1e-14)


def test_overflow_diagnosed_as_convergence_failure():
    # terms of exp(1e8) leave double range long before they shrink
    with pytest.raises(ConvergenceError):
        q_exp(1e8, 1.0)


# -- array arguments: bit for bit the scalar call ------------------------------

def _bits(value):
    """The float64 bit patterns of a complex value's parts, -0.0 kept apart from 0.0."""
    v = complex(value)
    return (np.float64(v.real).view(np.int64), np.float64(v.imag).view(np.int64))


# A real array takes the kernel's real path, an array with any imaginary
# part the complex one.
REAL_Z = np.concatenate([np.linspace(-40.0, 40.0, 161), [0.0, -0.0, 1e-300, -1e-300]])
ARRAY_Z = {
    "real": REAL_Z,
    "complex": np.concatenate([
        REAL_Z,
        [20j, -20j, complex(0.0, -0.0), complex(-0.0, -0.0)],
        (np.linspace(-6.0, 6.0, 7)[:, None] + 1j * np.linspace(-6.0, 6.0, 7)[None, :]).ravel(),
    ]),
}


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 1.3, 1.0])
@pytest.mark.parametrize("fn", [q_exp, q_sin, q_cos])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_array_argument_matches_scalar_bit_for_bit(kind, fn, q):
    zs = ARRAY_Z[kind]
    got = fn(zs, q)
    assert got.value.shape == zs.shape and got.terms_used.shape == zs.shape
    for z, value, terms in zip(zs, got.value, got.terms_used):
        want = fn(complex(z), q)
        assert _bits(value) == _bits(want.value), (fn.__name__, q, z)
        assert terms == want.terms_used, (fn.__name__, q, z)


# A shifted array is summed element by element; these add the shapes and
# sizes a per-element loop has to rebuild: 0-d, empty and 2-D.
SHIFTED_Z = {
    **ARRAY_Z,
    "0-d": np.array(-0.0),
    "0-d-complex": np.array(1.5 - 2j),
    "empty": np.empty(0),
    "2-D-empty": np.empty((3, 0)),
    "2-D": ARRAY_Z["complex"].reshape(2, -1),
}


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 1.3])
@pytest.mark.parametrize("fn", [q_exp, q_sin, q_cos])
@pytest.mark.parametrize("kind", list(SHIFTED_Z))
def test_shifted_array_matches_scalar_bit_for_bit(kind, fn, q):
    zs = SHIFTED_Z[kind]
    got = fn(zs, q, representation="shifted")
    assert got.value.shape == got.terms_used.shape == zs.shape
    assert (got.value.dtype, got.terms_used.dtype) == (np.complex128, np.int64)
    for index in np.ndindex(zs.shape):
        want = fn(complex(zs[index]), q, representation="shifted")
        assert _bits(got.value[index]) == _bits(want.value), (fn.__name__, q, zs[index])
        assert got.terms_used[index] == want.terms_used, (fn.__name__, q, zs[index])


@pytest.mark.parametrize("q", [0.5, 0.99])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_array_argument_in_small_blocks_matches_scalar(monkeypatch, kind, q):
    # blocks of one to a few terms carry the sums and streaks between blocks
    monkeypatch.setattr(qcalculus, "_BLOCK_VALUES", 97)
    zs = ARRAY_Z[kind]
    for fn in (q_exp, q_sin, q_cos):
        got = fn(zs, q)
        for z, value, terms in zip(zs, got.value, got.terms_used):
            want = fn(complex(z), q)
            assert (_bits(value), terms) == (_bits(want.value), want.terms_used)


def test_array_argument_keeps_shape():
    z = np.array([[0.5, 1.0j], [2.0, -1.0]])
    for rep in ("physics", "shifted"):
        got = q_cos(z, 0.9, representation=rep)
        assert got.value.shape == got.terms_used.shape == (2, 2)
        for index in np.ndindex(z.shape):
            want = q_cos(z[index], 0.9, representation=rep)
            assert _bits(got.value[index]) == _bits(want.value)
            assert got.terms_used[index] == want.terms_used
    with pytest.raises(ValueError, match="requires q != 1"):
        q_exp(z, 1.0, representation="shifted")


def test_array_argument_raises_like_the_scalar_call():
    # terms of E_q(1e200) overflow at index 2 in both paths
    with pytest.raises(ConvergenceError, match="non-finite term at index 2"):
        q_exp(1e200, 0.9)
    with pytest.raises(ConvergenceError, match="non-finite term at index 2"):
        q_exp(np.array([1.0, 1e200]), 0.9)


@pytest.mark.parametrize("representation", ["physics", "shifted"])
def test_array_with_a_failing_element_raises_its_scalar_error(representation):
    z = np.array([1.0, 1e300])
    with pytest.raises(ConvergenceError) as want:
        q_exp(z[1], 0.9, representation=representation)
    with pytest.raises(ConvergenceError) as got:
        q_exp(z, 0.9, representation=representation)
    assert str(got.value) == str(want.value)


def test_shifted_array_raises_the_first_failing_elements_error():
    # E_q(1e100) overflows at term 4, E_q(1e300) at term 2: the loop meets
    # 1e100 first.
    with pytest.raises(ConvergenceError, match="non-finite term at index 4"):
        q_exp(np.array([1.0, 1e100, 1e300]), 0.9, representation="shifted")


def test_values_sums_each_distinct_array_once(monkeypatch):
    x = np.array([0.3, -1.0, 2.5])
    want = q_exp(0.5 * x, 0.9).value
    calls = []
    series = qfunctions._series

    def counted(kind, z, qp, tol, representation):
        calls.append(kind)
        return series(kind, z, qp, tol, representation)

    monkeypatch.setattr(qfunctions, "_series", counted)
    f = qfunctions._values("exp", as_qparam(0.9), 0.5)
    first, second = f(x), f(x.copy())
    assert calls == ["exp"]
    assert second is first
    assert not (first.re.flags.writeable or first.im.flags.writeable)
    assert np.array_equal(np.asarray(second).view(np.int64), want.view(np.int64))
    f(x.astype(np.float32))  # another dtype is another argument array
    f(x[:2])
    assert calls == ["exp"] * 3
