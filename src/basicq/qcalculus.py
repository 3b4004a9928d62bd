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

Every sum here follows the truncation rule of :mod:`basicq._summation`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._summation import DEFAULT_TOL, SplitComplex, _parts, _sum_blocks, _sum_series
from .errors import BasicQError, ConvergenceError, first_nonfinite
from .qnum import as_qparam, basic_number

__all__ = [
    "DEFAULT_TOL",
    "jackson_derivative",
    "jackson_derivative_series",
    "q_leibniz_residual",
    "chain_scaling_residual",
    "q_integral_finite",
    "q_integral_halfline",
    "q_integral_fullline",
    "integration_by_parts_residual",
]


def jackson_derivative(f, x, q):
    """Two-sided Jackson derivative of ``f`` at ``x != 0``.

    On the classical branch dispatches to a central finite difference with
    step ``h = cbrt(eps) * max(|x|, 1)`` (eps = double machine epsilon).

    ``x`` may be an ndarray of points when ``f`` takes arrays; the stencil
    then runs in whatever arithmetic ``f``'s values carry (a
    :class:`SplitComplex` keeps every element bit for bit the scalar one).

    Raises
    ------
    ValueError
        If ``x == 0`` (any element).
    ConvergenceError
        If the step ``(q - 1/q) x`` underflows to 0 at a point, or the value
        is not finite there: the first such point in flat order is named.
    """
    if (x == 0).any() if isinstance(x, np.ndarray) else x == 0:
        raise ValueError("jackson_derivative is undefined at x = 0")
    qp = as_qparam(q)
    # The stencil's own overflow is refused below as a non-finite value; only
    # f's own warnings show, so f is called outside the errstate blocks.
    quiet = functools.partial(np.errstate, over="ignore", divide="ignore", invalid="ignore")
    with quiet():
        if qp.classical:
            scale = np.maximum(abs(x), 1.0) if isinstance(x, np.ndarray) else max(abs(x), 1.0)
            h = 6.055454452393343e-06 * scale  # cbrt(2^-52) * max(|x|,1)
            up, down, step = x + h, x - h, 2.0 * h
        else:
            qc = qp.canonical
            up, down, step = qc * x, x / qc, (qc - 1.0 / qc) * x
    zero = np.flatnonzero(np.equal(step, 0.0))  # underflow: only at a subnormal x
    if zero.size:
        raise ConvergenceError(
            f"jackson_derivative: derivative at x = {float(np.ravel(x)[zero[0]])!r} "
            "is not finite: the step (q - 1/q) x underflows to 0")
    f_up, f_down = f(up), f(down)
    with quiet():
        d = (f_up - f_down) / step
    i = first_nonfinite(d)
    if i is None:
        return d
    x, d = np.broadcast_arrays(x, np.asarray(d))
    raise ConvergenceError(f"jackson_derivative: derivative at x = {float(x.flat[i])!r} "
                           f"is not finite: {complex(d.flat[i])!r}")


def jackson_derivative_series(coefficients, q) -> np.ndarray:
    """Termwise Jackson derivative of the power series ``sum_k c_k x^k``
    given by its 1-D coefficient array: ``c_k -> [k] c_k`` at ``k-1``, as a
    complex array; a constant gives ``[0]``.

    Well-defined at the origin (constant term drops out), and consistent with
    :func:`jackson_derivative` wherever both apply.

    Raises
    ------
    ValueError
        If ``coefficients`` is not one-dimensional.
    """
    qp = as_qparam(q)
    c = np.asarray(coefficients, dtype=complex)
    if c.ndim != 1:
        raise ValueError("power-series coefficients must be one-dimensional")
    if len(c) <= 1:
        return np.zeros(1, dtype=complex)
    return np.array([basic_number(k, qp) * c[k] for k in range(1, len(c))], dtype=complex)


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
    ``x = 0`` raises ``ValueError`` through :func:`jackson_derivative`.
    """
    if a == 0:
        raise ValueError("chain_scaling_residual requires a != 0")
    qp = as_qparam(q)
    direct = jackson_derivative(f, x, qp) / a  # first: x = 0 raises before x divides
    if qp.classical:
        return 0.0
    qc = qp.canonical
    # Derivative of u -> f(u/a) evaluated at u = a x.
    scaled = (f(qc * x) - f(x / qc)) / ((qc - 1.0 / qc) * (a * x))
    return abs(scaled - direct)


def _real_if_real(v):
    # Sums go through complex; hand a float back when nothing imaginary
    # ever entered.
    if isinstance(v, complex) and v.imag == 0.0:
        return v.real
    return v


@functools.lru_cache(maxsize=32)
def _lattice_points(qc, sgn, size):
    """``q^{sgn (2n+1)}`` for ``n < size`` by CPython's float power, whose
    bits the scalar sum uses (numpy's ``power`` rounds differently); cut
    short where the power overflows.  Read-only, cached per ``(q, sgn)``.
    """
    out = []
    for n in range(size):
        try:
            out.append(qc ** (sgn * (2 * n + 1)))
        except OverflowError:
            break
    points = np.array(out, dtype=float)
    points.flags.writeable = False
    return points


def _lattice_sum(f, qc, a, sgn, tol, what, settle=lambda re, im: None):
    """Sum ``p f(p a)`` over ``p = q^{sgn (2n+1)}``, n = 0, 1, ...; return the sum.

    A scalar ``a`` sums point by point; where ``f`` fails at a point ``p a``
    that underflows to 0, a ConvergenceError names ``n``.  An ndarray ``a``
    needs an ``f`` that takes arrays: :func:`_sum_blocks` sums every element
    at once, and the sums come back as a SplitComplex of ``a``'s shape.
    Every block carries both parts of ``p f(p a)``, as the scalar step's
    float-times-complex product; it comes back short where ``f`` raises
    ArithmeticError, ValueError or BasicQError, and a row summed alone calls
    ``f`` on one point at a time as a 1 x 1 array.  ``settle`` goes to
    :func:`_sum_blocks`.  The first block spans the ``log(tol) / log(q^2)``
    terms after which ``p`` alone falls below ``tol``.
    """
    def series(a, f):
        def step(n, _):
            p = qc ** (sgn * (2 * n + 3))
            try:
                return complex(p * f(p * a))
            except (ArithmeticError, ValueError, BasicQError) as e:
                if p * a:
                    raise
                raise ConvergenceError(f"{what}: lattice point {n + 1} underflows to 0, "
                                       f"where the integrand fails: {e}") from None

        return _sum_series(lambda: step(-1, None), step, tol, what)

    if not isinstance(a, np.ndarray):
        return series(a, f)[0]

    flat = np.asarray(a, dtype=float).ravel()

    def terms(n0, n1, idx):
        size = max(64, 1 << (n1 - 1).bit_length())
        p = _lattice_points(qc, sgn, size)[n0:n1, None]
        x = p * flat[None, idx]
        try:
            vr, vi = _parts(f(x))
        except (ArithmeticError, ValueError, BasicQError):  # a short block
            return np.empty((0, idx.size)), np.empty((0, idx.size))
        vr, vi = np.broadcast_to(vr, x.shape), np.broadcast_to(vi, x.shape)
        return p * vr - 0.0 * vi, p * vi + 0.0 * vr

    def scalar(row):
        return series(flat[row], lambda x: np.asarray(f(np.full((1, 1), x))).flat[0])

    first = math.ceil(math.log(tol) / (2.0 * math.log(qc))) if 0.0 < tol < 1.0 else 0
    re, im, _ = _sum_blocks(terms, flat.size, first, tol, what, scalar, settle=settle)
    return SplitComplex(re.reshape(a.shape), im.reshape(a.shape))


def _finite_result(v, what):
    """An integral's value ``v``, raising ConvergenceError when it is not
    finite.  A SplitComplex becomes a complex array whose imaginary ``-0.0``
    reads ``0.0``, as ``complex()`` of the float a scalar integral returns."""
    if isinstance(v, SplitComplex):
        v = np.asarray(SplitComplex(v.re, v.im + 0.0))
    if first_nonfinite(v) is not None:
        raise ConvergenceError(f"{what}: result overflows after a finite sum")
    return v


def q_integral_finite(f, a, q, tol: float = DEFAULT_TOL):
    """Jackson q-integral of ``f`` over ``[0, a]``.

    ``int_0^a f d_q x = a (q^-1 - q) sum_{n>=0} q^{2n+1} f(q^{2n+1} a)``.
    Serves as the indefinite integral by varying the upper limit (the
    integration constant is fixed to 0 at the origin).

    Parameters
    ----------
    f : callable
        Integrand, evaluated only at points ``q^{2n+1} a`` inside ``(0, a)``.
        With an array ``a`` it is called with 2-D arrays of such points (one
        line per lattice index, one column per limit) and returns an array
        of values (real, complex or :class:`SplitComplex`); where it raises
        a numeric or basicq error, the limits are summed one at a time.
    a : float or ndarray
        Upper limit, ``> 0``; an ndarray of limits gives a complex ndarray of
        integrals of the same shape, each element bit for bit the scalar
        result (as a complex), under the rules of :mod:`basicq._summation`.
    q : float or QParam
        Deformation parameter; must not be classical (the lattice collapses
        at ``q = 1``).
    tol : float, optional
        Truncation tolerance (3-consecutive-terms rule).

    Raises
    ------
    ConvergenceError
        If a sum does not converge or the result overflows.

    Examples
    --------
    >>> v = q_integral_finite(lambda x: x, np.array([1.0, 2.0]), 0.5)  # a^2 / [2]
    >>> v.dtype, np.round(v.real, 12).tolist()
    (dtype('complex128'), [0.4, 1.6])
    """
    if np.any(np.less_equal(a, 0)):
        raise ValueError(f"q_integral_finite requires upper limit a > 0, got {a!r}")
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("q_integral_finite requires q != 1 (geometric lattice collapses)")
    qc = qp.canonical
    pref = a * (1.0 / qc - qc)

    def settle(re, im):  # a loop's result check, on the limits before a failing one
        p = np.ravel(pref)[:len(re)]
        _finite_result(SplitComplex(p * re, p * im), "q_integral_finite")

    total = _lattice_sum(f, qc, a, 1, tol, "q_integral_finite", settle=settle)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        value = pref * total
    return _finite_result(_real_if_real(value), "q_integral_finite")


def q_integral_halfline(f, q, tol: float = DEFAULT_TOL):
    """Improper Jackson q-integral of ``f`` over ``[0, inf)``.

    ``(q^-1 - q) sum_{n=-inf}^{inf} q^{2n+1} f(q^{2n+1})``; the two tails are
    truncated independently under the shared rule.  Requires decay faster
    than ``1/x`` at infinity and q-regularity at 0.  A result that overflows
    raises ConvergenceError.
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("q_integral_halfline requires q != 1 (geometric lattice collapses)")
    qc = qp.canonical
    pref = 1.0 / qc - qc
    inner = _lattice_sum(f, qc, 1.0, 1, tol, "q_integral_halfline (x->0 tail)")
    outer = _lattice_sum(f, qc, 1.0, -1, tol, "q_integral_halfline (x->inf tail)")
    return _finite_result(_real_if_real(pref * (inner + outer)), "q_integral_halfline")


def q_integral_fullline(f, q, tol: float = DEFAULT_TOL):
    """Jackson q-integral over the full line: mirrored half-line sums.

    ``int_-inf^inf f d_q x = int_0^inf f(x) d_q x + int_0^inf f(-x) d_q x``.
    """
    plus = q_integral_halfline(f, q, tol=tol)
    minus = q_integral_halfline(lambda x: f(-x), q, tol=tol)
    return _finite_result(plus + minus, "q_integral_fullline")


def integration_by_parts_residual(f, g, a, q, variant: str = "shifted-q") -> float:
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
    lhs = q_integral_finite(lambda x: f(x) * jackson_derivative(g, x, qp), a, qp)
    if variant == "shifted-q":
        shifted = lambda x: f(qc * x)
        gshift = lambda x: g(qc * x)
    else:
        shifted = lambda x: f(x / qc)
        gshift = lambda x: g(x / qc)
    boundary = shifted(a) * g(a) - f(0.0) * g(0.0)
    rhs_int = q_integral_finite(
        lambda x: jackson_derivative(shifted, x, qp) * gshift(x), a, qp)
    return abs(lhs - (boundary - rhs_int))
