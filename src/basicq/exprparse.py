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
"""

from __future__ import annotations

import cmath
import re
from typing import Callable

from .errors import ConvergenceError, EvaluationError, ParseError
from .qnum import QParam, as_qparam
from .qfunctions import q_cos, q_exp, q_sin

__all__ = ["KNOWN_FUNCTIONS", "parse", "evaluate"]

# A compiled (sub)expression: its complex value at a point x and parameter qp.
_Compiled = Callable[[complex, QParam], complex]

# name -> (arity, implementation of (qp, *args)); every value is complex.
_FUNCTIONS = {
    "exp": (1, lambda qp, z: cmath.exp(z)),
    "sin": (1, lambda qp, z: cmath.sin(z)),
    "cos": (1, lambda qp, z: cmath.cos(z)),
    "sqrt": (1, lambda qp, z: cmath.sqrt(z)),
    "abs": (1, lambda qp, z: complex(abs(z))),
    "gauss": (1, lambda qp, z: cmath.exp(-z * z)),
    "Eq": (1, lambda qp, z: q_exp(z, qp).value),
    "Sq": (1, lambda qp, z: q_sin(z, qp).value),
    "Cq": (1, lambda qp, z: q_cos(z, qp).value),
    "pow": (2, lambda qp, z, p: z ** p),
}

KNOWN_FUNCTIONS = {name: arity for name, (arity, _) in _FUNCTIONS.items()}

# operator -> implementation of (qp, a, b), the same form as above.
_OPERATORS = {"+": lambda qp, a, b: a + b, "-": lambda qp, a, b: a - b,
              "*": lambda qp, a, b: a * b, "/": lambda qp, a, b: a / b,
              "^": lambda qp, a, b: a ** b}

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokens:
    """Token stream: (kind, text, offset) triples over the source."""

    def __init__(self, text: str):
        self.text = text
        self.items = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                mo = _NUMBER.match(text, i)
                if mo is None:
                    raise ParseError(f"malformed number starting with {ch!r}", i)
                self.items.append(("number", mo.group(), i))
                i = mo.end()
                continue
            mo = _IDENT.match(text, i)
            if mo is not None:
                self.items.append(("ident", mo.group(), i))
                i = mo.end()
                continue
            if ch in "+-*/^(),":
                self.items.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.items.append(("end", "", n))
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


def parse(text: str) -> _Compiled:
    """Parse ``text`` into a compiled expression ``(x, qp) -> complex``.

    Each grammar node becomes a closure as it is parsed, so evaluating the
    result walks no tree; :func:`evaluate` calls it at one point.  Raises
    :class:`~basicq.errors.ParseError` with a character offset on any
    syntax problem; never returns partially-consumed input.

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


def _apply(fn, offset: int, operands) -> _Compiled:
    """Node applying ``fn`` to its operands' values, in order.

    Arithmetic failures (division by zero, 0 to a negative power, overflow)
    and an Eq/Sq/Cq series that does not converge raise
    :class:`~basicq.errors.EvaluationError` at ``offset``; failures inside an
    operand keep that operand's offset.
    """
    def node(x, qp):
        args = [f(x, qp) for f in operands]
        try:
            return fn(qp, *args)
        except ZeroDivisionError:
            raise EvaluationError("division by zero", offset) from None
        except OverflowError:
            raise EvaluationError("overflow", offset) from None
        except (ValueError, ConvergenceError) as exc:
            raise EvaluationError(str(exc), offset) from None
    return node


def _parse_expr(toks: _Tokens) -> _Compiled:
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op, _, off = toks.next()
        node = _apply(_OPERATORS[op], off, (node, _parse_term(toks)))
    return node


def _parse_term(toks: _Tokens) -> _Compiled:
    node = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op, _, off = toks.next()
        node = _apply(_OPERATORS[op], off, (node, _parse_factor(toks)))
    return node


def _parse_factor(toks: _Tokens) -> _Compiled:
    if toks.peek()[0] == "-":
        toks.next()
        operand = _parse_power(toks)
        # 0 - v, not -v: negating a real v would give it a -0.0 imaginary
        # part, which puts sqrt(-1) on the -i side of the cut.
        return lambda x, qp: 0.0 - operand(x, qp)
    return _parse_power(toks)


def _parse_power(toks: _Tokens) -> _Compiled:
    node = _parse_primary(toks)
    if toks.peek()[0] == "^":
        _, _, off = toks.next()
        node = _apply(_OPERATORS["^"], off, (node, _parse_factor(toks)))
    return node


def _parse_primary(toks: _Tokens) -> _Compiled:
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
        return _apply(_FUNCTIONS[text][1], off, tuple(args))
    raise ParseError("expected primary (number, x, q, function call, or '(')", off)


def evaluate(e: _Compiled, x, q) -> complex:
    """Evaluate the compiled expression ``e`` at point ``x`` with deformation ``q``.

    The ``q`` leaf yields the parameter as given (not canonicalized); the
    deformed functions Eq/Sq/Cq use the same series code as qfunctions.
    Arithmetic failures and Eq/Sq/Cq series that do not converge raise
    :class:`~basicq.errors.EvaluationError` at the offset of the operator or
    call that failed.
    """
    qp = as_qparam(q)
    return e(complex(x), qp)
