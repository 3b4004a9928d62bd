"""Small expression language for potentials and test functions.

Grammar (whitespace insignificant, identifiers case-sensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' power | power
    power   := primary ('^' factor)?        -- '^' right-associative
    primary := number | 'x' | 'q' | ident '(' expr (',' expr)* ')' | '(' expr ')'

Note: unary minus binds looser than ``^``, so ``-x^2`` parses as
``-(x^2)``; an exponent may itself be negated, so ``2^-x`` is ``2^(-x)``.

Known functions: exp, sin, cos, sqrt, abs, gauss (= exp(-t^2)), the
deformed family Eq, Sq, Cq (evaluated with the ambient deformation
parameter), and two-argument pow.  Errors carry a 0-based character
offset into the source text.

Array evaluation.  Each compiled node is one function ``node(x, qp)`` of a
point (a ``complex``) or of all the points at once (a
:class:`~basicq._summation.SplitComplex`), so each element is bit for bit
the value at that point.  A subexpression that does not depend on ``x`` is evaluated once,
as at a point.  Unary minus is ``0.0 - v`` over the array too, an integral
power ``|n| < 100`` is CPython's repeated squaring, and ``exp``/``gauss`` use
complex128 ``np.exp``, which matches ``cmath.exp`` up to real parts of 700.
Anything else has no array form: a non-integral, large or array-valued
exponent, sqrt, sin, cos, pow and Eq/Sq/Cq.  Such a node, a non-finite value
at any operator or function, or a failure makes :func:`evaluate` evaluate
point by point instead, so values and errors are those of the point loop.
"""

from __future__ import annotations

import cmath
import re
from typing import Callable

import numpy as np

from ._summation import SplitComplex
from .errors import ConvergenceError, EvaluationError, ParseError, first_nonfinite
from .qnum import as_qparam
from .qfunctions import q_cos, q_exp, q_sin

__all__ = ["KNOWN_FUNCTIONS", "BoundExpression", "parse", "evaluate"]


class _NoArrayForm(Exception):
    """An array step that would not give the point-by-point values."""


def _exp(z):
    """``cmath.exp`` over a SplitComplex, as complex128 ``np.exp``."""
    if np.any(z.re > 700.0):  # np.exp scales from 708.4 on, cmath.exp does not
        raise _NoArrayForm
    return SplitComplex(np.exp(np.asarray(z)))


def _power(a, b):
    """``a ** b`` over a SplitComplex ``a`` for a constant integral exponent
    ``|n| < 100``, by CPython's repeated squaring; for ``n <= 0`` its
    reciprocal of the power ``-n``."""
    if not (type(b) is complex and b.imag == 0.0 and b.real.is_integer()
            and abs(b.real) < 100):
        raise _NoArrayForm
    n = int(b.real)
    r, p, bit = complex(1.0, 0.0), a, 1
    while abs(n) >= bit:
        if abs(n) & bit:
            r = r * p
        bit <<= 1
        p = p * p
    return r if n > 0 else complex(1.0, 0.0) / _finite(r)


# name -> (arity, implementation of (qp, *args) at a point, the same over an
# array of points or None where there is no bit-exact array form); every
# value is complex.
_FUNCTIONS = {
    "exp": (1, lambda qp, z: cmath.exp(z), lambda qp, z: _exp(z)),
    "sin": (1, lambda qp, z: cmath.sin(z), None),
    "cos": (1, lambda qp, z: cmath.cos(z), None),
    "sqrt": (1, lambda qp, z: cmath.sqrt(z), None),
    # CPython's complex abs() of a NaN reports a stale C errno ERANGE as an overflow
    "abs": (1, lambda qp, z: complex(abs(z) if cmath.isinf(z) or not cmath.isnan(z) else cmath.nan),
            lambda qp, z: SplitComplex(abs(z), 0.0)),
    "gauss": (1, lambda qp, z: cmath.exp(-z * z), lambda qp, z: _exp(-z * z)),
    "Eq": (1, lambda qp, z: q_exp(z, qp).value, None),
    "Sq": (1, lambda qp, z: q_sin(z, qp).value, None),
    "Cq": (1, lambda qp, z: q_cos(z, qp).value, None),
    "pow": (2, lambda qp, z, p: z ** p, None),
}

KNOWN_FUNCTIONS = {name: arity for name, (arity, _, _) in _FUNCTIONS.items()}

# operator -> the two implementations, in the same form as above.
_ADD, _SUB = (lambda qp, a, b: a + b), (lambda qp, a, b: a - b)
_MUL, _DIV = (lambda qp, a, b: a * b), (lambda qp, a, b: a / b)
_OPERATORS = {"+": (_ADD, _ADD), "-": (_SUB, _SUB), "*": (_MUL, _MUL), "/": (_DIV, _DIV),
              "^": (lambda qp, a, b: a ** b, lambda qp, a, b: _power(a, b))}

# One token after optional whitespace: a number, an identifier, an operator
# or punctuation, or any other character, which is refused.
_TOKEN = re.compile(r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S))")


class _Tokens:
    """Token stream: (kind, text, offset) triples over the source."""

    def __init__(self, text: str):
        self.items = []
        for mo in _TOKEN.finditer(text):
            kind = mo.lastgroup
            tok, i = mo.group(kind), mo.start(kind)
            if kind == "bad":
                what = ("malformed number starting with" if tok.isdigit() or tok == "."
                        else "unexpected character")
                raise ParseError(f"{what} {tok!r}", i)
            self.items.append((tok if kind == "op" else kind, tok, i))
        self.items.append(("end", "", len(text)))
        self.pos = 0

    def peek(self):
        return self.items[self.pos]

    def next(self):
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return self.next()


def parse(text: str) -> Callable:
    """Parse ``text`` into a compiled expression for :func:`evaluate`.

    Each grammar node is compiled as it is parsed, so evaluating the result
    walks no tree; :func:`evaluate` calls it at one point or over a whole
    array of points.  Raises :class:`~basicq.errors.ParseError` with a
    character offset on any syntax problem; never returns
    partially-consumed input.

    Examples
    --------
    >>> evaluate(parse("x^2 - q"), 3, 0.5)
    (8.5+0j)
    """
    if not text or text.isspace():
        raise ParseError("empty expression", 0)
    toks = _Tokens(text)
    node = _parse_expr(toks)
    tail = toks.peek()
    if tail[0] != "end":
        raise ParseError(f"unexpected trailing input {tail[1]!r}", tail[2])
    return node


def _finite(v):
    """``v``, where every element is finite; else no array form."""
    if first_nonfinite(v) is not None:
        raise _NoArrayForm
    return v


def _apply(fns, offset: int, operands) -> Callable:
    """Node applying ``fns`` (point and array implementation) to its
    operands' values, in order.

    At a point, or where every operand value is a complex (it does not
    depend on ``x``), the point implementation runs: arithmetic failures
    (division by zero, 0 to a negative power, overflow) and an Eq/Sq/Cq
    series that does not converge raise
    :class:`~basicq.errors.EvaluationError` at ``offset``; failures inside an
    operand keep that operand's offset.  Otherwise the array implementation
    runs.  Over an array, a non-finite value or a node without an array
    implementation has no array form.
    """
    fn, array_fn = fns

    def node(x, qp):
        args = [f(x, qp) for f in operands]
        if type(x) is complex or all(type(a) is complex for a in args):
            try:
                v = fn(qp, *args)
            except ZeroDivisionError:
                raise EvaluationError("division by zero", offset) from None
            except OverflowError:
                raise EvaluationError("overflow", offset) from None
            except (ValueError, ConvergenceError) as exc:
                raise EvaluationError(str(exc), offset) from None
            return v if type(x) is complex else _finite(v)
        if array_fn is None:
            raise _NoArrayForm
        return _finite(array_fn(qp, *args))

    return node


def _parse_expr(toks: _Tokens) -> Callable:
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op, _, off = toks.next()
        node = _apply(_OPERATORS[op], off, (node, _parse_term(toks)))
    return node


def _parse_term(toks: _Tokens) -> Callable:
    node = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op, _, off = toks.next()
        node = _apply(_OPERATORS[op], off, (node, _parse_factor(toks)))
    return node


def _parse_factor(toks: _Tokens) -> Callable:
    if toks.peek()[0] == "-":
        toks.next()
        operand = _parse_power(toks)
        # 0 - v, not -v: negating a real v would give it a -0.0 imaginary
        # part, which puts sqrt(-1) on the -i side of the cut.
        return lambda x, qp: 0.0 - operand(x, qp)
    return _parse_power(toks)


def _parse_power(toks: _Tokens) -> Callable:
    node = _parse_primary(toks)
    if toks.peek()[0] == "^":
        _, _, off = toks.next()
        node = _apply(_OPERATORS["^"], off, (node, _parse_factor(toks)))
    return node


def _parse_primary(toks: _Tokens) -> Callable:
    kind, text, off = toks.peek()
    if kind == "number":
        toks.next()
        value = complex(float(text))
        return lambda x, qp: value
    if kind == "(":
        toks.next()
        node = _parse_expr(toks)
        toks.expect(")", "')'")
        return node
    if kind == "ident":
        toks.next()
        if text == "x":
            return lambda x, qp: x
        if text == "q":
            return lambda x, qp: complex(qp.q)
        if text not in KNOWN_FUNCTIONS:
            known = ", ".join(sorted(KNOWN_FUNCTIONS))
            raise ParseError(
                f"unknown identifier {text!r}; known functions: {known}; "
                "variables: x, q", off)
        toks.expect("(", f"'(' after function {text!r}")
        args = [_parse_expr(toks)]
        while toks.peek()[0] == ",":
            toks.next()
            args.append(_parse_expr(toks))
        toks.expect(")", "')'")
        arity = KNOWN_FUNCTIONS[text]
        if len(args) != arity:
            raise ParseError(
                f"{text} expects {arity} argument{'s' if arity != 1 else ''}, "
                f"got {len(args)}", off)
        return _apply(_FUNCTIONS[text][1:], off, tuple(args))
    raise ParseError("expected primary (number, x, q, function call, or '(')", off)


def evaluate(e: Callable, x, q):
    """Evaluate the compiled expression ``e`` at point ``x`` with deformation ``q``.

    ``x`` may be an ndarray of points: the result is then a complex array
    of its shape, bit for bit the value at each point, taken in one pass
    over the array where every node has an array form (see the module
    docstring) and point by point otherwise.

    The ``q`` leaf yields the parameter as given (not canonicalized); the
    deformed functions Eq/Sq/Cq use the same series code as qfunctions.
    Arithmetic failures and Eq/Sq/Cq series that do not converge raise
    :class:`~basicq.errors.EvaluationError` at the offset of the operator or
    call that failed, at the first point, in array order, that fails.
    """
    qp = as_qparam(q)
    if not isinstance(x, np.ndarray):
        return e(complex(x), qp)
    try:
        with np.errstate(all="ignore"):
            v = e(_finite(SplitComplex(x)), qp)
    except (_NoArrayForm, EvaluationError, ArithmeticError, ValueError):
        return np.array([e(complex(xi), qp) for xi in x.ravel().tolist()],
                        dtype=complex).reshape(x.shape)
    out = np.empty(x.shape, dtype=complex)
    out.real, out.imag = (v.re, v.im) if type(v) is SplitComplex else (v.real, v.imag)
    return out


class BoundExpression:
    """A compiled expression at a fixed deformation parameter: a function of
    ``x`` that takes a point or an array of points, as :func:`evaluate`.

    :func:`~basicq.l2q.sample` and
    :func:`~basicq.qschrodinger.build_hamiltonian` pass it all their points
    in one call, where any other function is called point by point.
    """

    __slots__ = ("expr", "qp")

    def __init__(self, expr: Callable, q):
        self.expr, self.qp = expr, as_qparam(q)

    def __call__(self, x):
        return evaluate(self.expr, x, self.qp)
