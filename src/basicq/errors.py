"""Exception types shared across the package.

Domain errors (bad arguments, values outside a function's contract) raise the
standard :class:`ValueError`; the classes here cover failures that arise while
a computation is running.
"""

import numpy as np


class BasicQError(Exception):
    """Base class for basicq-specific runtime errors."""


class ConvergenceError(BasicQError):
    """A truncated series or q-integral failed to converge.

    Raised when the term cap is exhausted or a term becomes non-finite
    (overflow of a divergent tail).  The message carries the diagnostic
    (terms summed, last term magnitude).
    """


class ExpressionError(BasicQError):
    """Base class for expression-language failures; carries a 0-based offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ParseError(ExpressionError):
    """Syntax error while parsing an expression string."""


class EvaluationError(ExpressionError):
    """Runtime failure while evaluating a parsed expression (e.g. 1/0)."""


def first_nonfinite(v):
    """Flat index of the first element of ``v`` that is not finite, or None:
    ``v`` is a number (element 0), an array, or the broadcasting parts
    ``v.re`` and ``v.im`` of a :class:`~basicq._summation.SplitComplex`."""
    ok = np.isfinite(v.re) & np.isfinite(v.im) if hasattr(v, "re") else np.isfinite(v)
    return None if ok.all() else int(np.argmin(ok))
