"""Symmetric basic numbers, basic factorials, and q-shifted factorials.

The deformation is parameterized by a real ``q > 0`` and built on the
symmetric basic number

    [x] = (q^x - q^-x) / (q - q^-1),

which is invariant under ``q -> 1/q`` and reduces to ``x`` as ``q -> 1``.
All quantities in this package evaluate at the canonical representative
``min(q, 1/q)`` in ``(0, 1]``, so callers may pass either member of a
``(q, 1/q)`` pair and get identical values (see :class:`QParam` for the
reciprocal of a decimal).

The basic factorial ``[n]! = [n][n-1]...[1]`` admits a second computational
route through q-shifted factorials (Pochhammer products),

    1/[n]! = (1 - q^2)^n q^{n(n-1)/2} / (q^2; q^2)_n,

exposed as :func:`basic_factorial_via_shifted` and used as an independent
cross-check of the direct product.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

__all__ = [
    "CLASSICAL_EPS",
    "QParam",
    "as_qparam",
    "basic_number",
    "basic_factorial",
    "q_shifted_factorial",
    "basic_factorial_via_shifted",
]

# |q - 1| below this means the classical (undeformed) branch.
CLASSICAL_EPS = 1e-12


@dataclass(frozen=True)
class QParam:
    """Validated deformation parameter.

    Parameters
    ----------
    q : float
        Raw deformation parameter; must be finite and positive.

    Attributes
    ----------
    q : float
        The value as given; the repr, equality and hash are those of ``q``.
    canonical : float
        ``min(q, 1/q)``, the representative in ``(0, 1]`` every computation
        uses.  For ``q > 1`` it is the float ``p`` next to ``1.0 / q`` with
        ``1.0 / p == q`` and the shortest repr, so ``QParam(1.0 / 0.9)``
        computes at 0.9, not at ``1 / (1 / 0.9) = 0.8999999999999999``.
        Results at ``q`` and at ``1.0 / q`` are therefore equal bit for bit
        for every decimal ``q < 1`` of up to 6 digits.
    classical : bool
        True when ``|q - 1| < 1e-12``; functions then dispatch to their
        undeformed limits.
    """

    q: float
    canonical: float = field(init=False, repr=False, compare=False)
    classical: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = float(self.q)
        if not math.isfinite(q) or q <= 0.0:
            raise ValueError(f"deformation parameter must be finite and > 0, got {self.q!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "canonical", q if q <= 1.0 else _reciprocal(q))
        object.__setattr__(self, "classical", abs(q - 1.0) < CLASSICAL_EPS)


@functools.lru_cache(maxsize=256)
def _reciprocal(q: float) -> float:
    """The float ``p`` within 4 ulps of ``1.0 / q`` with ``1.0 / p == q`` and
    the shortest repr (the nearest to ``1.0 / q`` among equals), else
    ``1.0 / q``: for ``q = 1.0 / d`` it gives back a short decimal ``d``."""
    p = lo = hi = 1.0 / q
    near = [p]
    for _ in range(4):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        near += (lo, hi)
    back = [r for r in near if 1.0 / r == q]
    return min(back, key=lambda r: len(repr(r))) if back else p


def as_qparam(q) -> QParam:
    """Coerce a float (or QParam) to a QParam."""
    return q if isinstance(q, QParam) else QParam(float(q))


def as_int(value, message: str, minimum: int | None = None) -> int:
    """``value`` as a Python int, where ``operator.index`` takes it (a numpy
    integer too), it is not a bool and it is at least ``minimum`` if one is
    given; otherwise raises ``ValueError(message.format(value))``.
    """
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or n >= minimum:
                return n
    raise ValueError(message.format(value))


def basic_number(x: float, q) -> float:
    """Symmetric basic number ``[x] = (q^x - q^-x)/(q - q^-1)``.

    Parameters
    ----------
    x : float
        Argument; any finite real (not restricted to integers).
    q : float or QParam
        Deformation parameter.

    Returns
    -------
    float
        ``[x]``; equals ``x`` on the classical branch.  Odd in ``x`` and
        invariant under ``q -> 1/q``.

    Examples
    --------
    >>> basic_number(2, 0.9)        # q + 1/q
    2.011111111111111
    >>> basic_number(3, 1.0)
    3.0
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"basic_number requires finite x, got {x!r}")
    qp = as_qparam(q)
    if qp.classical:
        return x
    qc = qp.canonical
    t = math.log(qc)
    try:
        # (q^x - q^-x)/(q - q^-1) == sinh(x ln q)/sinh(ln q); stable for large |x|.
        return math.sinh(x * t) / math.sinh(t)
    except OverflowError:
        # sinh(x ln q) can overflow before [x] does (once sinh(ln q) > 1): the
        # same quotient divided through by q^-1; q**(1 - |x|) raises where
        # [x] leaves float range.
        ax = abs(x)
        try:
            return math.copysign(qc ** (1.0 - ax) * (1.0 - qc ** (2.0 * ax)) / (1.0 - qc * qc), x)
        except OverflowError:
            raise OverflowError(
                f"basic_number: [{x!r}] at q = {qp.q!r} leaves float range") from None


# [k] for k below this is read from the per-q table, past it from basic_number.
_TABLE_SIZE = 256


@functools.lru_cache(maxsize=16)
def _bracket_table(qp, size):
    """``([0], [1], ...)`` from :func:`basic_number` for ``k < size``, ``inf``
    from the first ``[k]`` past float range on; cached per QParam."""
    out = []
    for k in range(size):
        try:
            out.append(basic_number(k, qp))
        except OverflowError:
            out += [math.inf] * (size - k)
            break
    return tuple(out)


def _bracket(k: int, qp: QParam) -> float:
    """``[k]`` at an integer ``k >= 0`` as sums and factorials read it: inf past float range."""
    if k < _TABLE_SIZE:
        return _bracket_table(qp, _TABLE_SIZE)[k]
    try:
        return basic_number(k, qp)
    except OverflowError:
        return math.inf


def basic_factorial(n: int, q) -> float:
    """Basic factorial ``[n]! = [n][n-1]...[1]`` with ``[0]! = 1``.

    Accumulated left-to-right so that ``[n+1]! == [n+1] * [n]!`` holds
    exactly as computed.  Values past float range are ``inf``: the product
    overflows to it, or, at tiny ``q`` (below about 7.5e-155), a factor
    ``[k]`` past float range reads ``inf``, as in every series sum, while
    :func:`basic_number` itself raises there.

    Parameters
    ----------
    n : int
        Nonnegative integer.
    q : float or QParam
        Deformation parameter.
    """
    n = as_int(n, "basic_factorial requires an integer n, got {!r}")
    if n < 0:
        raise ValueError(f"basic_factorial requires n >= 0, got {n}")
    qp = as_qparam(q)
    b = _bracket_table(qp, _TABLE_SIZE)
    out = 1.0
    for k in range(1, n + 1):
        out *= b[k] if k < _TABLE_SIZE else _bracket(k, qp)
        if out == math.inf:
            break
    return out


def q_shifted_factorial(a: float, q, n: int) -> float:
    """q-shifted factorial ``(a; q)_n = prod_{k=0}^{n-1} (1 - a q^k)``.

    Parameters
    ----------
    a : float
        First argument of the Pochhammer symbol.
    q : float or QParam
        Base; evaluated at the canonical representative in ``(0, 1]``.
    n : int
        Number of factors.

    Raises
    ------
    ValueError
        If ``n`` is not a non-negative integer.
    """
    a = float(a)
    qc = as_qparam(q).canonical
    n = as_int(n, "q_shifted_factorial requires an integer n, got {!r}")
    if n < 0:
        raise ValueError(f"q_shifted_factorial requires n >= 0, got {n}")
    out = 1.0
    for k in range(n):
        out *= 1.0 - a * qc**k
    return out


def basic_factorial_via_shifted(n: int, q) -> float:
    """Basic factorial through the shifted-factorial (Pochhammer) route.

    Computes ``[n]! = (q^2; q^2)_n / ((1 - q^2)^n q^{n(n-1)/2})`` by an
    iterative term-ratio update, an arithmetic path independent of
    :func:`basic_factorial`; the two must agree to relative ``1e-12``
    wherever values are representable.  Values past float range are ``inf``.

    Raises
    ------
    ValueError
        On the classical branch (the route needs a base strictly inside
        ``(0, 1)``) or for negative ``n``.
    """
    n = as_int(n, "basic_factorial_via_shifted requires an integer n, got {!r}")
    if n < 0:
        raise ValueError(f"basic_factorial_via_shifted requires n >= 0, got {n}")
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("basic_factorial_via_shifted requires q != 1 (canonical base < 1)")
    qc = qp.canonical
    q2 = qc * qc
    # inv = 1/[k]! built via ratio (1 - q^2) q^{k-1} / (1 - q^{2k}); return 1/inv.
    inv = 1.0
    for k in range(1, n + 1):
        inv *= (1.0 - q2) * qc ** (k - 1) / (1.0 - q2**k)
    return 1.0 / inv if inv else math.inf
