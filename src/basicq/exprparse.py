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
from dataclasses import dataclass, field

from .errors import EvaluationError, ParseError
from .qnum import as_qparam
from .qfunctions import q_cos, q_exp, q_sin

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Param",
    "Unary",
    "Binary",
    "Call",
    "KNOWN_FUNCTIONS",
    "parse",
    "evaluate",
    "pretty",
]

KNOWN_FUNCTIONS = {
    "exp": 1,
    "sin": 1,
    "cos": 1,
    "sqrt": 1,
    "abs": 1,
    "gauss": 1,
    "Eq": 1,
    "Sq": 1,
    "Cq": 1,
    "pow": 2,
}


@dataclass(frozen=True)
class Expression:
    """Base AST node; ``offset`` is the 0-based source position."""

    offset: int = field(compare=False)


@dataclass(frozen=True)
class Num(Expression):
    value: float = 0.0


@dataclass(frozen=True)
class Var(Expression):
    """The free variable x."""


@dataclass(frozen=True)
class Param(Expression):
    """The ambient deformation parameter q."""


@dataclass(frozen=True)
class Unary(Expression):
    operand: Expression = None


@dataclass(frozen=True)
class Binary(Expression):
    op: str = ""
    left: Expression = None
    right: Expression = None


@dataclass(frozen=True)
class Call(Expression):
    name: str = ""
    args: tuple = ()


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


def parse(text: str) -> Expression:
    """Parse ``text`` into an AST.

    Raises :class:`~basicq.errors.ParseError` with a character offset on any
    syntax problem; never returns partially-consumed input.

    Examples
    --------
    >>> parse("x^2")
    Binary(offset=1, op='^', left=Var(offset=0), right=Num(offset=2, value=2.0))
    """
    if not text or text.isspace():
        raise ParseError("empty expression", 0)
    toks = _Tokens(text)
    node = _parse_expr(toks)
    tail = toks.peek()
    if tail[0] != "end":
        raise ParseError(f"unexpected trailing input {tail[1]!r}", tail[2])
    return node


def _parse_expr(toks: _Tokens) -> Expression:
    node = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op, _, off = toks.next()
        node = Binary(off, op, node, _parse_term(toks))
    return node


def _parse_term(toks: _Tokens) -> Expression:
    node = _parse_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op, _, off = toks.next()
        node = Binary(off, op, node, _parse_factor(toks))
    return node


def _parse_factor(toks: _Tokens) -> Expression:
    if toks.peek()[0] == "-":
        _, _, off = toks.next()
        return Unary(off, _parse_power(toks))
    return _parse_power(toks)


def _parse_power(toks: _Tokens) -> Expression:
    node = _parse_primary(toks)
    if toks.peek()[0] == "^":
        _, _, off = toks.next()
        node = Binary(off, "^", node, _parse_factor(toks))
    return node


def _parse_primary(toks: _Tokens) -> Expression:
    kind, text, off = toks.peek()
    if kind == "number":
        toks.next()
        return Num(off, float(text))
    if kind == "(":
        toks.next()
        node = _parse_expr(toks)
        toks.expect(")", "')'")
        return node
    if kind == "ident":
        toks.next()
        if text == "x":
            return Var(off)
        if text == "q":
            return Param(off)
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
        return Call(off, text, tuple(args))
    raise ParseError("expected primary (number, x, q, function call, or '(')", off)


def evaluate(e: Expression, x, q) -> complex:
    """Evaluate the AST at point ``x`` with deformation ``q``.

    The ``q`` leaf yields the parameter as given (not canonicalized); the
    deformed functions Eq/Sq/Cq use the same series code as qfunctions.
    Arithmetic failures (division by zero, 0 to a negative power, overflow)
    raise :class:`~basicq.errors.EvaluationError` at the node's offset.
    """
    qp = as_qparam(q)
    xv = complex(x)

    def ev(node) -> complex:
        if isinstance(node, Num):
            return complex(node.value)
        if isinstance(node, Var):
            return xv
        if isinstance(node, Param):
            return complex(qp.q)
        if isinstance(node, Unary):
            # 0 - v, not -v: negating a real v would give it a -0.0
            # imaginary part, which puts sqrt(-1) on the -i side of the cut.
            return 0.0 - ev(node.operand)
        if isinstance(node, Binary):
            lhs = ev(node.left)
            rhs = ev(node.right)
            try:
                if node.op == "+":
                    return lhs + rhs
                if node.op == "-":
                    return lhs - rhs
                if node.op == "*":
                    return lhs * rhs
                if node.op == "/":
                    return lhs / rhs
                return lhs ** rhs
            except ZeroDivisionError:
                raise EvaluationError("division by zero", node.offset) from None
            except OverflowError:
                raise EvaluationError("overflow", node.offset) from None
        if isinstance(node, Call):
            args = [ev(a) for a in node.args]
            try:
                if node.name == "exp":
                    return cmath.exp(args[0])
                if node.name == "sin":
                    return cmath.sin(args[0])
                if node.name == "cos":
                    return cmath.cos(args[0])
                if node.name == "sqrt":
                    return cmath.sqrt(args[0])
                if node.name == "abs":
                    return complex(abs(args[0]))
                if node.name == "gauss":
                    return cmath.exp(-args[0] * args[0])
                if node.name == "Eq":
                    return q_exp(args[0], qp).value
                if node.name == "Sq":
                    return q_sin(args[0], qp).value
                if node.name == "Cq":
                    return q_cos(args[0], qp).value
                if node.name == "pow":
                    return args[0] ** args[1]
            except ZeroDivisionError:
                raise EvaluationError("division by zero", node.offset) from None
            except OverflowError:
                raise EvaluationError("overflow", node.offset) from None
            except ValueError as exc:
                raise EvaluationError(str(exc), node.offset) from None
        raise EvaluationError(f"unknown node {type(node).__name__}", getattr(node, "offset", 0))

    return ev(e)


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# Precedence levels for printing: containers below their children reparse
# without parentheses.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def pretty(e: Expression) -> str:
    """Canonical text form; ``parse(pretty(e))`` equals ``e`` (offsets aside).

    Parenthesization is conservative (a reparse always rebuilds the same
    tree) rather than minimal.  Canonical means parser-producible: a Num
    node holds a nonnegative literal, negation being a Unary node.
    """

    def render(node, parent_prec: int, right_side: bool) -> str:
        if isinstance(node, Num):
            return _fmt_number(node.value)
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Param):
            return "q"
        if isinstance(node, Call):
            inner = ", ".join(render(a, 0, False) for a in node.args)
            return f"{node.name}({inner})"
        if isinstance(node, Unary):
            if isinstance(node.operand, (Num, Var, Param, Call)):
                s = "-" + render(node.operand, 99, False)
            else:
                s = "-(" + render(node.operand, 0, False) + ")"
            # A bare unary sits at factor level; protect it in tighter slots.
            return "(" + s + ")" if parent_prec > 2 else s
        if isinstance(node, Binary):
            prec = _PREC[node.op]
            if node.op == "^":
                # Base must reduce to a primary; exponent associates rightward.
                left = render(node.left, prec + 1, False)
                right = render(node.right, prec, True)
            else:
                left = render(node.left, prec, False)
                right = render(node.right, prec + 1, True)
            s = f"{left}{node.op}{right}"
            need = prec < parent_prec or (prec == parent_prec and right_side)
            return "(" + s + ")" if need else s
        raise ValueError(f"cannot render {type(node).__name__}")

    return render(e, 0, False)
