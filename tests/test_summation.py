"""The truncation rule of :mod:`basicq._summation`, read alike by both kernels."""

from __future__ import annotations

import numpy as np
import pytest

from basicq import _summation, q_cos, q_exp, q_integral_finite, q_sin
from basicq.exprparse import BoundExpression, parse

_Z = np.linspace(-5.0, 5.0, 9)
STREAK_Z = {
    "real": _Z,
    "imaginary": 1j * _Z,
    "complex": (_Z[:, None] + 0.5j * _Z[None, ::3]).ravel(),
}
STREAK_INTEGRANDS = ("1/(1+x^2)", "x^3 - x", "gauss(x)*sqrt(-1)")
UPPERS = np.array([0.1, 0.5, 1.0, 2.0, 3.7, 5.0])


def _bits(value):
    v = complex(value)
    return (np.float64(v.real).view(np.int64), np.float64(v.imag).view(np.int64))


@pytest.mark.parametrize("streak", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("block_values", [None, 13])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_array_sums_stop_by_the_scalar_streak(monkeypatch, streak, block_values, q):
    # the block kernel's run test and its carried streak read _STREAK, as the
    # scalar sum does; blocks of a few terms carry the streak between blocks
    monkeypatch.setattr(_summation, "_STREAK", streak)
    if block_values:
        monkeypatch.setattr(_summation, "_BLOCK_VALUES", block_values)
    for fn in (q_exp, q_sin, q_cos):
        for kind, zs in STREAK_Z.items():
            got = fn(zs, q)
            for z, value, terms in zip(zs, got.value, got.terms_used):
                want = fn(complex(z), q)
                assert (_bits(value), terms) == (_bits(want.value), want.terms_used), (
                    fn.__name__, kind, z)
    for text in STREAK_INTEGRANDS:
        f = BoundExpression(parse(text), q)
        got = q_integral_finite(f, UPPERS, q)
        for a, value in zip(UPPERS, got):
            assert _bits(value) == _bits(q_integral_finite(f, a, q)), (text, a)
