"""Tests for basic numbers, deformed factorials, and shifted factorials."""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np
import pytest

from basicq import (
    CLASSICAL_EPS,
    QParam,
    as_qparam,
    basic_factorial,
    basic_factorial_via_shifted,
    basic_number,
    build_hamiltonian,
    build_ladder,
    build_lattice,
    fock_state,
    jackson_derivative,
    q_cos,
    q_exp,
    q_integral_finite,
    q_integral_fullline,
    q_integral_halfline,
    q_shifted_factorial,
    q_sin,
    stationary_states,
)
from basicq.l2q import DEFAULT_SWEEP, default_window

# High-precision references (50-digit arithmetic, rounded to double).
BASIC_NUMBER_REF = {
    (3, 0.9): 3.0445679012345679,
    (0.5, 0.9): 0.49930699897395463,
    (-2, 0.9): -2.0111111111111111,
    (7, 0.9): 7.6379432271522141,
    (3, 0.5): 5.25,
    (10, 0.5): 682.666015625,
}

FACTORIAL_REF = {
    (2, 0.9): 2.0111111111111111,
    (3, 0.9): 6.1229643347050754,
    (5, 0.9): 131.54403189556248,
    (8, 0.9): 57609.148219776978,
    (2, 0.5): 2.5,
    (3, 0.5): 13.125,
    (5, 0.5): 2972.0947265625,
    (8, 0.5): 1846203636.8132313,
}


@pytest.mark.parametrize("key,ref", sorted(BASIC_NUMBER_REF.items()))
def test_basic_number_reference_values(key, ref):
    x, q = key
    assert basic_number(x, q) == pytest.approx(ref, rel=1e-15)


@pytest.mark.parametrize("key,ref", sorted(FACTORIAL_REF.items()))
def test_basic_factorial_reference_values(key, ref):
    n, q = key
    assert basic_factorial(n, q) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("x", [0.25, 1.0, 2.0, 5.5, -3.0])
def test_basic_number_q_inversion_symmetry(q, x):
    # the symmetric deformation cannot tell q from 1/q
    assert basic_number(x, q) == pytest.approx(basic_number(x, 1.0 / q), rel=1e-15)


@pytest.mark.parametrize("x", [-4.0, -0.7, 0.0, 0.3, 1.0, 6.0])
def test_basic_number_classical_branch_is_identity(x):
    assert basic_number(x, 1.0) == x
    assert basic_number(x, 1.0 + 0.5 * CLASSICAL_EPS) == x


def test_basic_number_is_odd_in_x():
    for x in (0.5, 1.0, 3.7):
        assert basic_number(-x, 0.8) == pytest.approx(-basic_number(x, 0.8), rel=1e-15)


def test_basic_number_continuity_toward_classical():
    # [x] -> x smoothly as the deformation switches off
    x = 2.5
    prev_gap = abs(basic_number(x, 0.9) - x)
    for q in (0.99, 0.999, 0.9999):
        gap = abs(basic_number(x, q) - x)
        assert gap < prev_gap
        prev_gap = gap
    assert prev_gap < 1e-7


@pytest.mark.parametrize("x, q", [(2, 1e-200), (4, 1e-100), (309, 0.1)])
def test_basic_number_where_sinh_overflows_first(x, q):
    # sinh(x ln q) overflows although [x] is representable; [x + 1] is not
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        want = (qm ** x - qm ** -x) / (qm - 1 / qm)
        for sign in (1, -1):
            assert abs(basic_number(sign * x, q) - sign * want) < 1e-16 * abs(want)
    with pytest.raises(OverflowError):
        basic_number(x + 1, q)


@pytest.mark.parametrize("x, q, shown", [(3, 1e-200, "1e-200"), (-3.0, 1e200, "1e+200"),
                                         (310, 0.1, "0.1")])
def test_basic_number_past_float_range_names_x_and_q(x, q, shown):
    # an OverflowError still, so every caller that catches one keeps working
    with pytest.raises(OverflowError) as err:
        basic_number(x, q)
    assert str(err.value) == f"basic_number: [{float(x)!r}] at q = {shown} leaves float range"


def test_factorial_base_cases():
    assert basic_factorial(0, 0.9) == 1.0
    assert basic_factorial(1, 0.9) == 1.0
    assert basic_factorial(0, 1.0) == 1.0


def test_factorial_recurrence():
    q = 0.85
    for n in range(1, 12):
        assert basic_factorial(n, q) == pytest.approx(
            basic_factorial(n - 1, q) * basic_number(n, q), rel=1e-15)


def test_factorial_classical_matches_math_factorial():
    for n in range(10):
        assert basic_factorial(n, 1.0) == pytest.approx(math.factorial(n), rel=1e-13)


def _factorial_by_basic_numbers(n, q):
    # the left-to-right product of basic_number calls: the reference the
    # table-backed basic_factorial must match bit for bit
    out = 1.0
    for k in range(1, n + 1):
        out *= basic_number(k, q)
        if out == math.inf:
            break
    return out


@pytest.mark.parametrize("q", [0.3, 0.9, 0.999, 1.0, 1.25, 1e-100, 1e-160, 1e-200, 1e-300])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 40, 255, 256, 300])
def test_factorial_is_the_basic_number_product_bit_for_bit(n, q):
    # below q ~ 7.5e-155 [3] overflows with the product still finite, so the
    # per-call product raises; every [j] >= 1, so the factorial is inf there
    try:
        want = _factorial_by_basic_numbers(n, q)
    except OverflowError:
        want = math.inf
    assert basic_factorial(n, q) == want


def test_factorial_rejects_bad_n():
    with pytest.raises(ValueError):
        basic_factorial(-1, 0.9)
    with pytest.raises(ValueError):
        basic_factorial(2.5, 0.9)
    with pytest.raises(ValueError):
        basic_factorial(True, 0.9)


def test_q_shifted_factorial_reference_values():
    assert q_shifted_factorial(0.3, 0.81, 5) == pytest.approx(0.31154612748153514, rel=1e-15)
    assert q_shifted_factorial(0.81, 0.81, 4) == pytest.approx(0.01743688060838605, rel=1e-14)


def test_q_shifted_factorial_empty_product():
    assert q_shifted_factorial(0.3, 0.81, 0) == 1.0


@pytest.mark.parametrize("q", [0.5, 0.8, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 27, 40])
def test_factorial_shifted_route_agrees(n, q):
    # independent arithmetic path through the base-q^2 shifted factorial
    direct = basic_factorial(n, q)
    bridged = basic_factorial_via_shifted(n, q)
    assert bridged == pytest.approx(direct, rel=1e-12)


def test_factorial_shifted_route_rejects_classical():
    with pytest.raises(ValueError):
        basic_factorial_via_shifted(3, 1.0)


def test_factorial_shifted_route_rejects_negative_n():
    with pytest.raises(ValueError) as exc:
        basic_factorial_via_shifted(-1, 0.9)
    assert str(exc.value) == "basic_factorial_via_shifted requires n >= 0, got -1"


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_basic_number_rejects_nonfinite_x(x):
    with pytest.raises(ValueError) as exc:
        basic_number(x, 0.9)
    assert str(exc.value) == f"basic_number requires finite x, got {x!r}"


def test_large_order_growth_overflows_to_inf():
    # Around n ~ 44 at q = 0.3 the factorial leaves double range.  The
    # product route reports inf rather than raising; callers needing such
    # orders accumulate log [k] instead, which stays comfortably finite.
    q = 0.3
    n = 60
    log_fact = sum(math.log(basic_number(k, q)) for k in range(1, n + 1))
    assert log_fact > 700  # past the double-precision exponent range
    assert math.isinf(basic_factorial(n, q))
    assert math.isfinite(log_fact)


class TestQParam:
    def test_canonical_picks_lower_branch(self):
        assert as_qparam(0.9).canonical == 0.9
        assert as_qparam(1.0 / 0.9).canonical == pytest.approx(0.9, rel=1e-15)

    def test_classical_detection(self):
        assert as_qparam(1.0).classical
        assert as_qparam(1.0 + 0.5 * CLASSICAL_EPS).classical
        assert not as_qparam(0.999999).classical

    def test_idempotent(self):
        qp = as_qparam(0.7)
        assert as_qparam(qp) is qp

    def test_rejects_nonpositive_and_nonfinite(self):
        for bad in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                as_qparam(bad)

    def test_frozen(self):
        qp = as_qparam(0.7)
        with pytest.raises(Exception):
            qp.q = 0.8

    def test_direct_construction_matches_helper(self):
        assert QParam(0.8).canonical == as_qparam(0.8).canonical

    def test_reciprocal_gives_back_every_short_decimal(self):
        # 1/(1/d) misses 1,629 of these; the canonical q is d itself
        for k in range(1, 10_000):
            d = k / 10_000
            assert QParam(1.0 / d).canonical == d, d

    def test_repr_equality_and_hash_are_those_of_q(self):
        qp = QParam(1.0 / 0.9)
        assert repr(qp) == "QParam(q=1.1111111111111112)"
        assert qp == QParam(1.1111111111111112) != QParam(0.9)
        assert hash(qp) == hash(QParam(1.1111111111111112))


def _results(q):
    """Every kind of result at ``q``, as bytes."""
    x = np.array([0.3, 0.7, 1.5])
    lat = build_lattice(q, *default_window(q))
    H = build_hamiltonian(lambda t: t * t, 1.0, 1.0, lat)
    values = [
        basic_number(7.3, q), basic_factorial(20, q),
        jackson_derivative(math.sin, 0.7, q), jackson_derivative(np.sin, x, q),
        q_integral_finite(lambda t: t * t, 1.0, q),
        q_integral_halfline(lambda t: 1.0 / (1.0 + t * t), q),
        q_integral_fullline(lambda t: math.exp(-t * t), q),
        *(fn(z, q).value for fn in (q_exp, q_sin, q_cos) for z in (-5.0, -15.0, 3j)),
        lat.x, lat.w, H.lo, H.di, H.up, H.sym_e, stationary_states(H, 4).eigenvalues,
    ]
    return [np.asarray(v).tobytes() for v in values]


@pytest.mark.parametrize("q", [*DEFAULT_SWEEP, 0.999])
def test_q_and_its_reciprocal_give_the_same_bits(q):
    assert _results(1.0 / q) == _results(q)


@pytest.mark.parametrize("q", [0.4, 0.1, 1e-3, 1e-20, 100.0])
def test_both_factorial_routes_overflow_to_inf(q):
    # 1/[n]! underflows to 0 on the shifted route, and at q = 1e-20 a single
    # [k] past k = 15 overflows, yet past float range both routes give inf
    assert basic_factorial(60, q) == math.inf
    assert basic_factorial_via_shifted(60, q) == math.inf


def _lattice(m_min, m_max):
    lat = build_lattice(0.9, m_min, m_max)
    return json.dumps({"m_min": lat.m_min, "m_max": lat.m_max}), lat.x.tolist()


def _ladder(dim):
    t = build_ladder(dim, 0.9)
    return type(t.dim), t.a.tolist()


def _lowest(k):
    H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, build_lattice(0.9, -15, 60))
    return stationary_states(H, k).eigenvalues.tolist()


# Every integer argument of the library: its value, a call taking it, and
# the refusal of a value that is not an integer.
_INTEGER_ARGUMENTS = {
    "basic_factorial": (5, lambda n: basic_factorial(n, 0.9),
                        "basic_factorial requires an integer n, got {!r}"),
    "q_shifted_factorial": (5, lambda n: q_shifted_factorial(0.5, 0.9, n),
                            "q_shifted_factorial requires an integer n, got {!r}"),
    "basic_factorial_via_shifted": (5, lambda n: basic_factorial_via_shifted(n, 0.9),
                                    "basic_factorial_via_shifted requires an integer n, got {!r}"),
    "build_ladder": (4, _ladder, "dim must be an integer >= 2, got {!r}"),
    "fock_state": (2, lambda n: fock_state(n, build_ladder(4, 0.9)).tolist(),
                   "n must be a non-negative integer, got {!r}"),
    "build_lattice m_min": (-15, lambda m: _lattice(m, 60), "m_min must be an integer, got {!r}"),
    "build_lattice m_max": (60, lambda m: _lattice(-15, m), "m_max must be an integer, got {!r}"),
    "stationary_states": (2, _lowest, "k must be a non-negative integer, got {!r}"),
}


@pytest.mark.parametrize("int_type", [np.int64, np.int32])
@pytest.mark.parametrize("site", list(_INTEGER_ARGUMENTS))
def test_integer_arguments_take_numpy_integers_and_refuse_bools_and_floats(site, int_type):
    value, call, refusal = _INTEGER_ARGUMENTS[site]
    assert call(int_type(value)) == call(value)
    for bad in (True, float(value)):
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == refusal.format(bad)
