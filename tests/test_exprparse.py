"""Tests for the potential/test-function expression language."""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
import pytest

from basicq import (EvaluationError, ParseError, build_lattice, evaluate, parse, q_cos,
                    q_exp, q_sin)
from basicq.exprparse import KNOWN_FUNCTIONS, _NoArrayForm
from basicq.qcalculus import SplitComplex
from basicq.qnum import QParam


def val(text, x=0.0, q=0.9):
    return evaluate(parse(text), x, q)


# -- literals and leaves -----------------------------------------------------

@pytest.mark.parametrize("text,want", [
    ("0", 0.0),
    ("42", 42.0),
    ("3.5", 3.5),
    (".5", 0.5),
    ("2.", 2.0),
    ("1e3", 1000.0),
    ("2.5e-2", 0.025),
    ("1E+2", 100.0),
])
def test_number_literals(text, want):
    assert val(text) == want


def test_variable_and_parameter_leaves():
    assert val("x", x=2.5) == 2.5
    assert val("q", q=0.8) == pytest.approx(0.8)
    # q is handed through as given, not canonicalized
    assert val("q", q=1.25) == pytest.approx(1.25)


# -- arithmetic --------------------------------------------------------------

def test_precedence_and_associativity():
    assert val("2+3*4") == 14.0
    assert val("(2+3)*4") == 20.0
    assert val("2-3-4") == -5.0  # left-assoc subtraction
    assert val("24/4/2") == 3.0  # left-assoc division
    assert val("2^3^2") == 512.0  # right-assoc power
    assert val("2*3^2") == 18.0


def test_unary_minus_binds_before_power():
    # unary minus binds looser than '^': -x^2 is -(x^2), as the README says
    assert val("-x^2", x=3.0) == -9.0
    assert val("-(x^2)", x=3.0) == -9.0
    assert val("0-x^2", x=3.0) == -9.0
    assert val("(-x)^2", x=3.0) == 9.0
    assert val("2^-x", x=1.0) == 0.5


def test_sqrt_of_negative_is_on_upper_side_of_cut():
    # negation must not leave a -0.0 imaginary part for cmath.sqrt to see
    assert repr(val("sqrt(-1)")) == "1j"  # exactly 0.0 + 1.0j, no -0.0 part
    assert val("sqrt(-4)") == 2j


def test_whitespace_insignificant():
    assert val("  2 +  3*x ", x=2.0) == val("2+3*x", x=2.0) == 8.0


def test_complex_arithmetic_flows_through():
    got = val("x^2+1", x=1j)
    assert got == pytest.approx(0.0 + 0.0j)


# -- functions ---------------------------------------------------------------

def test_classical_functions_match_cmath():
    for text, ref in [
        ("exp(x)", cmath.exp(1.3)),
        ("sin(x)", cmath.sin(1.3)),
        ("cos(x)", cmath.cos(1.3)),
        ("sqrt(x)", cmath.sqrt(1.3)),
        ("abs(0-x)", abs(1.3)),
        ("gauss(x)", cmath.exp(-1.3 * 1.3)),
    ]:
        assert val(text, x=1.3) == pytest.approx(ref, rel=1e-14)


def test_deformed_functions_use_ambient_q():
    q = 0.85
    assert val("Eq(x)", x=1.1, q=q) == pytest.approx(q_exp(1.1, q).value, rel=1e-14)
    assert val("Sq(x)", x=1.1, q=q) == pytest.approx(q_sin(1.1, q).value, rel=1e-14)
    assert val("Cq(x)", x=1.1, q=q) == pytest.approx(q_cos(1.1, q).value, rel=1e-14)


def test_two_argument_pow():
    assert val("pow(2, 10)") == 1024.0
    assert val("pow(x, 0.5)", x=9.0) == pytest.approx(3.0)


def test_known_functions_registry():
    assert KNOWN_FUNCTIONS["pow"] == 2
    assert all(arity == 1 for name, arity in KNOWN_FUNCTIONS.items() if name != "pow")


def test_case_sensitive_names():
    with pytest.raises(ParseError):
        parse("EQ(x)")
    with pytest.raises(ParseError):
        parse("Exp(x)")


# -- parse errors ------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "", "  ", "2+", "*3", "(2+3", "2+3)", "2**3", "sin()", "sin(1,2)",
    "pow(1)", "unknown(3)", "2 3", "y+1", "1..2",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_carries_offset():
    try:
        parse("1+ @")
    except ParseError as e:
        assert e.offset == 3
    else:
        pytest.fail("expected ParseError")


def test_scanner_edge_characters():
    # '²' is a digit but no decimal digit: a malformed number; the Arabic-Indic
    # '١' is a decimal digit, so a number; a tab or a newline separates tokens
    with pytest.raises(ParseError) as e:
        parse("x ²")
    assert str(e.value) == "malformed number starting with '²' (at offset 2)"
    assert e.value.offset == 2
    assert val("١+x", x=2.0) == val("1+x", x=2.0) == 3.0
    assert val("2\t*\nx\n", x=3.0) == 6.0
    with pytest.raises(ParseError, match="unexpected trailing input 'x'"):
        parse("2\tx")
    with pytest.raises(ParseError, match="unexpected character 'é'"):
        parse("é")
    with pytest.raises(ParseError, match=r"malformed number starting with '\.'"):
        parse("x+.")


# -- evaluation errors -------------------------------------------------------

def test_division_by_zero():
    with pytest.raises(EvaluationError):
        val("1/x", x=0.0)


def test_zero_to_negative_power():
    with pytest.raises(EvaluationError):
        val("x^(0-1)", x=0.0)


def test_evaluation_error_offset_points_at_operator():
    expr = parse("2 + 1/x")
    try:
        evaluate(expr, 0.0, 0.9)
    except EvaluationError as e:
        assert e.offset == 5
    else:
        pytest.fail("expected EvaluationError")


# Every failure's exact message and offset, at q = 0.9; the message ends with
# the offset, so a node that reports the wrong position fails here.
_FAILURES = [
    ("1/x", 0.0, EvaluationError, "division by zero", 1),
    ("2 + 1/x", 0.0, EvaluationError, "division by zero", 5),
    ("x^(0-1)", 0.0, EvaluationError, "division by zero", 1),
    ("pow(0, 0-1)", 0.0, EvaluationError, "division by zero", 0),
    ("exp(1000*x)", 1.0, EvaluationError, "overflow", 0),
    ("10^400", 0.0, EvaluationError, "overflow", 2),
    ("2*exp(x)^400", 3.0, EvaluationError, "overflow", 8),
    ("sin(1e300*1e300)", 0.0, EvaluationError, "math domain error", 0),
    ("Eq(1e300*x)", 1.0, EvaluationError,
     "q_exp: non-finite term at index 2 (divergent tail?)", 0),
    ("2 + Sq(1e300*x)", 1.0, EvaluationError,
     "q_sin: non-finite term at index 1 (divergent tail?)", 4),
    ("x^^2", 0.0, ParseError,
     "expected primary (number, x, q, function call, or '(')", 2),
    ("sin x", 0.0, ParseError, "expected '(' after function 'sin'", 4),
    ("1..2", 0.0, ParseError, "unexpected trailing input '.2'", 2),
    (".e5", 0.0, ParseError, "malformed number starting with '.'", 0),
    ("x @ 2", 0.0, ParseError, "unexpected character '@'", 2),
    ("(x", 0.0, ParseError, "expected ')'", 2),
    ("pow(x)", 0.0, ParseError, "pow expects 2 arguments, got 1", 0),
    ("foo(x)", 0.0, ParseError,
     "unknown identifier 'foo'; known functions: Cq, Eq, Sq, abs, cos, exp, "
     "gauss, pow, sin, sqrt; variables: x, q", 0),
    ("", 0.0, ParseError, "empty expression", 0),
]


@pytest.mark.parametrize("text,x,kind,message,offset", _FAILURES,
                         ids=[repr(t) for t, *_ in _FAILURES])
def test_failure_message_and_offset(text, x, kind, message, offset):
    with pytest.raises(kind) as info:
        val(text, x=x)
    assert str(info.value) == f"{message} (at offset {offset})"
    assert info.value.offset == offset


# -- precedence ---------------------------------------------------------------

# Each text against the same expression written in Python, with q = 0.9.
_PRECEDENCE = [
    ("1+2*3", lambda x, q: 7.0),
    ("(1+2)*3", lambda x, q: 9.0),
    ("2^3^2", lambda x, q: 512.0),
    ("-x^2", lambda x, q: -(x**2)),
    ("-(x^2)", lambda x, q: -(x**2)),
    ("x*q/2", lambda x, q: x * q / 2),
    ("sin(x)*cos(2*x)", lambda x, q: math.sin(x) * math.cos(2 * x)),
    ("pow(x, 2)+Eq(q*x)", lambda x, q: x**2 + q_exp(q * x, q).value),
    ("2-3-4", lambda x, q: -5.0),
    ("gauss(x/2)", lambda x, q: math.exp(-(x / 2) ** 2)),
    ("-(x+1)", lambda x, q: -(x + 1)),
    ("1/(x+2)^2", lambda x, q: 1 / (x + 2) ** 2),
    ("-x^2 + sin(3*x)", lambda x, q: -(x**2) + math.sin(3 * x)),
]


@pytest.mark.parametrize("text,python", _PRECEDENCE, ids=[t for t, _ in _PRECEDENCE])
def test_parse_matches_python_expression(text, python):
    e = parse(text)
    for x in (0.7, 2.0):
        assert evaluate(e, x, 0.9) == pytest.approx(python(x, 0.9), rel=1e-15)


# -- array evaluation ----------------------------------------------------------

# The default lattice and the benchmark's n_odd-750 and 3750 lattices, each
# built once.
_LATTICE_KEYS = [(0.9, -15, 60), (0.99, -150, 600), (0.999, -750, 2999)]
_lattice = functools.cache(lambda key: build_lattice(*key))

# Expressions evaluated over the array in one pass: every node with an array
# form, alone and composed, with complex values, signed zeros, a non-finite
# constant leaf that the operation absorbs, and constant subexpressions that
# have no array form of their own.
_ARRAY_FORM = [
    "x", "q", "2.5", "x + 1", "q - x", "2*x", "x*q/2", "x/0.4", "1/x", "-x", "-x^2",
    "(0-x)*0", "x^0", "x^-0", "x^2", "x^3", "x^-3", "x^99", "x^-99", "x^(1+1)", "2^3*x",
    "exp(x)", "exp(-x)*x", "abs(x - 1)", "gauss(x)", "gauss((x - 0.3)/0.4)",
    "-2.5*gauss(x/0.7)", "x^4 - 1.3*x^2", "-x^2 + x^4/3.1", "x/abs(x)*gauss(x)",
    "(1 + x)/(2 - x)", "x^2/(1 + x^4)", "1e200*x^2",
    "exp(sqrt(-1)*x)", "x/(sqrt(-1) + x)", "(sqrt(-1)*x + 1)^3", "abs(sqrt(-1)*x + 1)",
    "(x + sqrt(-1))^-2", "x^2 + Eq(0.5) - pow(2, 0.5)", "x/1e999",
]
# Expressions that some node evaluates point by point.
_POINT_FORM = [
    "x^2.5", "x^100", "x^-100", "2^x", "x^x", "sqrt(x)", "sin(x)", "cos(q*x)",
    "pow(x, 2)", "Eq(x/5)", "Sq(x/5)", "Cq(x/5)", "exp(704 - abs(x)/1e3)", "1e999*x",
    "x*1e300*1e300",
]
# Expressions whose point-by-point evaluation fails somewhere on each lattice.
# The last five fail in a subexpression that does not depend on x.
_FAILING = ["1/(x-x)", "2 + (x-x)^-1", "exp(400*x)", "10^400*x", "Eq(1e300*x)",
            "sqrt(x) + 1/(x - x)", "x + 1/0", "x*exp(1000)", "gauss(x) + Eq(1e300)",
            "x + pow(0, -1)", "abs(1e999*0) - exp(1000) + x"]


def _per_point(e, x, q):
    return np.array([evaluate(e, xi, q) for xi in x], dtype=complex)


# The shapes of the benchmark's potentials and initial states, and one case
# of each way out of the array form: all that the 7500-point lattice takes.
_ON_LARGEST = {"x^2", "-x^2", "x^4 - 1.3*x^2", "-2.5*gauss(x/0.7)", "-x^2 + x^4/3.1",
               "gauss((x - 0.3)/0.4)", "x/abs(x)*gauss(x)", "abs(x - 1)", "x^-99",
               "x^2.5", "2^x", "sqrt(x)", "exp(704 - abs(x)/1e3)", "1e999*x",
               "x*1e300*1e300", "1/(x-x)", "10^400*x", "sqrt(x) + 1/(x - x)"}


def _on_lattices(texts):
    """``(text, lattice key)`` pairs: each text on the default lattice; on
    the 1502-point one too unless it calls an Eq/Sq/Cq series (a series per
    point); on the 7500-point one if it is in ``_ON_LARGEST``."""
    default, n750, n3750 = _LATTICE_KEYS
    return [pytest.param(text, key, id=f"{text}-{key[0]}") for text in texts
            for key in (default, n750, n3750)
            if key == default or key == n750 and "q(" not in text or text in _ON_LARGEST]


@pytest.mark.parametrize("text, key", _on_lattices(_ARRAY_FORM + _POINT_FORM))
def test_array_evaluation_is_the_point_values_bit_for_bit(text, key):
    lat = _lattice(key)
    e, q = parse(text), key[0]
    got = evaluate(e, lat.x, q)
    assert got.dtype == complex and got.shape == lat.x.shape
    assert np.array_equal(got.view(np.uint64), _per_point(e, lat.x, q).view(np.uint64))


@pytest.mark.parametrize("text", _ARRAY_FORM)
def test_array_form_takes_one_pass(text):
    # the nodes evaluate it over the array; one without an array form would raise
    x = _lattice(_LATTICE_KEYS[2]).x
    with np.errstate(all="ignore"):
        parse(text)(SplitComplex(x), QParam(0.999))


@pytest.mark.parametrize("text", _POINT_FORM)
def test_point_form_falls_back(text):
    x = _lattice(_LATTICE_KEYS[2]).x
    with np.errstate(all="ignore"), pytest.raises(_NoArrayForm):
        parse(text)(SplitComplex(x), QParam(0.999))


@pytest.mark.parametrize("text, key", _on_lattices(_FAILING))
def test_array_evaluation_fails_as_the_point_loop(text, key):
    lat = _lattice(key)
    e, q = parse(text), key[0]
    with pytest.raises(EvaluationError) as point:
        _per_point(e, lat.x, q)
    with pytest.raises(EvaluationError) as array:
        evaluate(e, lat.x, q)
    assert str(array.value) == str(point.value)
    assert array.value.offset == point.value.offset
