"""Jackson derivative and Jackson q-integrals for the symmetric deformation.

The two-sided Jackson derivative

    (D f)(x) = (f(q x) - f(q^-1 x)) / ((q - q^-1) x),      x != 0,

obeys ``D x^n = [n] x^{n-1}`` and reduces to ``d/dx`` as ``q -> 1``.  Its
inverses are the Jackson q-integrals over the geometric lattice
``x_n = q^{2n+1}``:

    int_0^a f d_q x   = a (q^-1 - q) sum_{n>=0}   q^{2n+1} f(q^{2n+1} a)
    int_0^inf f d_q x =   (q^-1 - q) sum_{n in Z} q^{2n+1} f(q^{2n+1})

and the full-line integral is the sum of the two mirrored half-lines.

Function arguments (``f``, ``g``) are plain callables ``f(x) -> complex``
defined on the relevant lattice points and, where a boundary term needs it,
at 0.  Decay fast enough for the improper sums to converge is the caller's
responsibility; non-convergence raises :class:`~basicq.errors.ConvergenceError`.

Truncation rule shared by every series in the package (these q-integrals and
the E/S/C series of :mod:`basicq.qfunctions`, all summed by one kernel): stop
once 3 consecutive terms fall below ``tol`` times the running partial sum
(default ``tol = 1e-14``), with a hard cap of 10^6 terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .qnum import as_qparam, basic_number

__all__ = [
    "DEFAULT_TOL",
    "MAX_TERMS",
    "PowerSeries",
    "jackson_derivative",
    "jackson_derivative_series",
    "q_leibniz_residual",
    "chain_scaling_residual",
    "q_integral_finite",
    "q_integral_halfline",
    "q_integral_fullline",
    "integration_by_parts_residual",
]

DEFAULT_TOL = 1e-14
MAX_TERMS = 1_000_000
# Consecutive negligible terms required before a series is declared converged.
_STREAK = 3


def jackson_derivative(f, x, q):
    """Two-sided Jackson derivative of ``f`` at ``x != 0``.

    On the classical branch dispatches to a central finite difference with
    step ``h = cbrt(eps) * max(|x|, 1)`` (eps = double machine epsilon).

    Raises
    ------
    ValueError
        If ``x == 0``; the derivative at the origin is defined termwise on
        power series, see :func:`jackson_derivative_series`.
    """
    if x == 0:
        raise ValueError(
            "jackson_derivative is undefined at x = 0; "
            "use jackson_derivative_series for a termwise derivative at the origin"
        )
    qp = as_qparam(q)
    if qp.classical:
        h = 6.055454452393343e-06 * max(abs(x), 1.0)  # cbrt(2^-52) * max(|x|,1)
        return (f(x + h) - f(x - h)) / (2.0 * h)
    qc = qp.canonical
    return (f(qc * x) - f(x / qc)) / ((qc - 1.0 / qc) * x)


@dataclass
class PowerSeries:
    """Finite power series ``sum_k c_k x^k`` with complex coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 1:
            raise ValueError("PowerSeries coefficients must be one-dimensional")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        # Horner evaluation.
        acc = 0.0 + 0.0j
        for c in self.coefficients[::-1]:
            acc = acc * x + c
        return acc


def jackson_derivative_series(series: PowerSeries, q) -> PowerSeries:
    """Termwise Jackson derivative of a power series: ``c_k -> [k] c_k`` at ``k-1``.

    Well-defined at the origin (constant term drops out), and consistent with
    :func:`jackson_derivative` wherever both apply.
    """
    qp = as_qparam(q)
    c = series.coefficients
    if len(c) <= 1:
        return PowerSeries(np.zeros(1, dtype=complex))
    out = np.array([basic_number(k, qp) * c[k] for k in range(1, len(c))], dtype=complex)
    return PowerSeries(out)


def q_leibniz_residual(f, g, x, q, variant: int = 1) -> float:
    """Residual of the deformed product rule at ``x != 0``.

    variant 1:  D(fg)(x) = Df(x) g(x/q) + f(qx) Dg(x)
    variant 2:  D(fg)(x) = Df(x) g(qx)  + f(x/q) Dg(x)

    Returns ``|lhs - rhs|``; both variants hold identically, so the residual
    is pure roundoff (contract: below ``1e-10 * scale`` of the terms).
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant!r}")
    qp = as_qparam(q)
    qc = qp.canonical

    def prod(t):
        return f(t) * g(t)

    lhs = jackson_derivative(prod, x, qp)
    df = jackson_derivative(f, x, qp)
    dg = jackson_derivative(g, x, qp)
    if variant == 1:
        rhs = df * g(x / qc) + f(qc * x) * dg
    else:
        rhs = df * g(qc * x) + f(x / qc) * dg
    return abs(lhs - rhs)


def chain_scaling_residual(f, a, x, q) -> float:
    """Residual of the scaling chain rule ``D_{ax} f(x) = (1/a) D_x f(x)``.

    ``D_{ax}`` is the Jackson derivative taken with respect to the scaled
    variable ``u = a x``; on dilatation-related points the identity is exact,
    so the residual is roundoff (contract: below ``1e-12 * scale``).
    """
    if a == 0:
        raise ValueError("chain_scaling_residual requires a != 0")
    if x == 0:
        raise ValueError("chain_scaling_residual requires x != 0")
    qp = as_qparam(q)
    qc = qp.canonical
    if qp.classical:
        return 0.0
    # Derivative of u -> f(u/a) evaluated at u = a x.
    scaled = (f(qc * x) - f(x / qc)) / ((qc - 1.0 / qc) * (a * x))
    direct = jackson_derivative(f, x, qp) / a
    return abs(scaled - direct)


def _real_if_real(v):
    # Sums go through complex; hand a float back when nothing imaginary
    # ever entered.
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


def _sum_series(first, step, tol, max_terms, what):
    """Sum ``t_0 + t_1 + ...`` under the 3-consecutive-terms rule.

    ``first()`` returns ``t_0`` and ``step(n, t_n)`` returns ``t_{n+1}``, both
    as complex: the q-integrals compute each term afresh and ignore ``t_n``,
    the E/S/C series multiply it by their term ratio.  Returns
    ``(sum, terms_used)``, counting the trailing negligible terms.  A term
    that overflows or is not finite raises ConvergenceError, and so does a
    series that has not converged after ``max_terms`` terms.
    """
    total = 0.0 + 0.0j
    streak = 0
    n = 0
    try:
        t = first()
        for n in range(max_terms):
            if n:
                t = step(n - 1, t)
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                raise ConvergenceError(
                    f"{what}: non-finite term at index {n} (divergent tail?)")
            total += t
            if abs(t) <= tol * abs(total):
                streak += 1
                if streak >= _STREAK:
                    return total, n + 1
            else:
                streak = 0
    except OverflowError:
        raise ConvergenceError(
            f"{what}: term overflow at index {n} (divergent tail?)") from None
    raise ConvergenceError(
        f"{what}: no convergence after {max_terms} terms "
        f"(last |term| = {abs(t):.3e}, |sum| = {abs(total):.3e})"
    )


def _lattice_sum(f, qc, a, sgn, tol, max_terms, what):
    """Sum ``p f(p a)`` over ``p = q^{sgn (2n+1)}``, n = 0, 1, ...; return the sum."""
    def step(n, _):
        p = qc ** (sgn * (2 * n + 3))
        return complex(p * f(p * a))

    return _sum_series(lambda: step(-1, None), step, tol, max_terms, what)[0]


def q_integral_finite(f, a, q, tol: float = DEFAULT_TOL, max_terms: int = MAX_TERMS):
    """Jackson q-integral of ``f`` over ``[0, a]``.

    ``int_0^a f d_q x = a (q^-1 - q) sum_{n>=0} q^{2n+1} f(q^{2n+1} a)``.
    Serves as the indefinite integral by varying the upper limit (the
    integration constant is fixed to 0 at the origin).

    Parameters
    ----------
    f : callable
        Integrand, evaluated only at points ``q^{2n+1} a`` inside ``(0, a)``.
    a : float
        Upper limit, ``> 0``.
    q : float or QParam
        Deformation parameter; must not be classical (the lattice collapses
        at ``q = 1``).
    tol, max_terms
        Truncation rule parameters.
    """
    if a <= 0:
        raise ValueError(f"q_integral_finite requires upper limit a > 0, got {a!r}")
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("q_integral_finite requires q != 1 (geometric lattice collapses)")
    qc = qp.canonical
    pref = a * (1.0 / qc - qc)
    total = _lattice_sum(f, qc, a, 1, tol, max_terms, "q_integral_finite")
    return _real_if_real(pref * total)


def q_integral_halfline(f, q, tol: float = DEFAULT_TOL, max_terms: int = MAX_TERMS):
    """Improper Jackson q-integral of ``f`` over ``[0, inf)``.

    ``(q^-1 - q) sum_{n=-inf}^{inf} q^{2n+1} f(q^{2n+1})``; the two tails are
    truncated independently under the shared rule.  Requires decay faster
    than ``1/x`` at infinity and q-regularity at 0.
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("q_integral_halfline requires q != 1 (geometric lattice collapses)")
    qc = qp.canonical
    pref = 1.0 / qc - qc
    inner = _lattice_sum(f, qc, 1.0, 1, tol, max_terms, "q_integral_halfline (x->0 tail)")
    outer = _lattice_sum(f, qc, 1.0, -1, tol, max_terms,
                         "q_integral_halfline (x->inf tail)")
    return _real_if_real(pref * (inner + outer))


def q_integral_fullline(f, q, tol: float = DEFAULT_TOL, max_terms: int = MAX_TERMS):
    """Jackson q-integral over the full line: mirrored half-line sums.

    ``int_-inf^inf f d_q x = int_0^inf f(x) d_q x + int_0^inf f(-x) d_q x``.
    """
    plus = q_integral_halfline(f, q, tol=tol, max_terms=max_terms)
    minus = q_integral_halfline(lambda x: f(-x), q, tol=tol, max_terms=max_terms)
    return plus + minus


def integration_by_parts_residual(f, g, a, q, variant: str = "shifted-q",
                                  tol: float = DEFAULT_TOL) -> float:
    """Residual of q-integration by parts on ``[0, a]``.

    variant "shifted-q":
        int_0^a f(x) Dg(x) d_q x = [f(qx) g(x)]_0^a - int_0^a D[f(qx)] g(qx) d_q x
    variant "shifted-qinv" (boundary factor shifted by 1/q instead):
        int_0^a f(x) Dg(x) d_q x = [f(x/q) g(x)]_0^a - int_0^a D[f(x/q)] g(x/q) d_q x

    ``D[f(qx)]`` is the Jackson derivative of the already-shifted function,
    so both identities are exact (they follow from the two product-rule
    variants plus the fundamental theorem).  Boundary evaluation at 0 uses
    ``f(0) g(0)`` (q-regular limits).  Returns ``|lhs - boundary + integral|``
    (contract: below ``1e-9 * scale``).
    """
    if variant not in ("shifted-q", "shifted-qinv"):
        raise ValueError(
            f"variant must be 'shifted-q' or 'shifted-qinv', got {variant!r}")
    qp = as_qparam(q)
    qc = qp.canonical
    lhs = q_integral_finite(lambda x: f(x) * jackson_derivative(g, x, qp), a, qp, tol=tol)
    if variant == "shifted-q":
        shifted = lambda x: f(qc * x)
        gshift = lambda x: g(qc * x)
    else:
        shifted = lambda x: f(x / qc)
        gshift = lambda x: g(x / qc)
    boundary = shifted(a) * g(a) - f(0.0) * g(0.0)
    rhs_int = q_integral_finite(
        lambda x: jackson_derivative(shifted, x, qp) * gshift(x), a, qp, tol=tol)
    return abs(lhs - (boundary - rhs_int))
