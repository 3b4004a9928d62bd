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
the E/S/C series of :mod:`basicq.qfunctions`): stop once 3 consecutive terms
fall below ``tol`` times the running partial sum (default ``tol = 1e-14``),
with a hard cap of 10^6 terms.  A scalar argument is summed term by term; an
array of upper limits (or of E/S/C arguments) is summed by one block kernel
whose every element is bit for bit the scalar result.  That kernel carries
complex values as :class:`SplitComplex`, float64 real and imaginary parts
combined in CPython's order, because numpy's complex ``*``, ``/`` and ``abs``
round differently from CPython's.
"""

from __future__ import annotations

import cmath
import functools
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
# Terms (times rows) one block of an array sum holds at most: bounds the
# memory of a block whatever the number of rows.
_BLOCK_VALUES = 1 << 15


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
        If the value is not finite at a point, named with its value.
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
    f_up, f_down = f(up), f(down)
    with quiet():
        d = (f_up - f_down) / step
    if cmath.isfinite(d) if isinstance(d, (float, complex)) else np.isfinite(np.asarray(d)).all():
        return d
    x, d = np.broadcast_arrays(x, np.asarray(d))
    i = np.isfinite(d).argmin()  # the first point, in flat order
    raise ConvergenceError(f"jackson_derivative: derivative at x = {float(x.flat[i])!r} "
                           f"is not finite: {complex(d.flat[i])!r}")


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


class SplitComplex:
    """Complex values as two float64 arrays, combined by CPython's formulas.

    numpy's complex ``*``, ``/`` and ``abs`` round differently from CPython's
    (about half of random products and quotients differ in the last bit).
    The same arithmetic on the parts, in the order of CPython's complex
    product and quotient, gives CPython's bits:

    - product ``(ar*br - ai*bi, ar*bi + ai*br)``
    - quotient by a real ``d``: ``r = 0.0/d; ((ar + ai*r)/d, (ai - ar*r)/d)``
    - quotient by a complex ``b``: Smith's form, top and bottom divided by
      ``br`` where ``|br| >= |bi|``, else by ``bi``
    - ``abs`` as ``np.hypot``

    A real operand (a float or a real array) enters as ``(x, 0.0)``, as
    CPython promotes it.  Supports ``+``, ``-`` (also unary), ``*``, ``/``
    and ``abs``; ``np.asarray`` gives the complex array.

    Examples
    --------
    >>> z = SplitComplex(np.array([1 + 2j, 3 - 1j]))
    >>> np.asarray(z * z / 2.0)
    array([-1.5+2.j,  4. -3.j])
    """

    __slots__ = ("re", "im")
    # Makes ``ndarray <op> SplitComplex`` defer to the reflected method here.
    __array_ufunc__ = None

    def __init__(self, re, im=None):
        if im is None:
            re, im = _parts(re)
        self.re, self.im = re, im

    def __array__(self, dtype=None, copy=None):
        out = np.empty(np.broadcast(self.re, self.im).shape, dtype=complex)
        out.real, out.imag = self.re, self.im
        return out if dtype is None else out.astype(dtype)

    def __abs__(self):
        # np.hypot(re, 0) is |re| exactly; the plain |re| is far cheaper.
        return np.hypot(self.re, self.im) if np.any(self.im) else np.abs(self.re)

    def __add__(self, other):
        br, bi = _parts(other)
        return SplitComplex(self.re + br, self.im + bi)

    __radd__ = __add__

    def __neg__(self):
        return SplitComplex(-self.re, -self.im)

    def __sub__(self, other):
        br, bi = _parts(other)
        return SplitComplex(self.re - br, self.im - bi)

    def __rsub__(self, other):
        br, bi = _parts(other)
        return SplitComplex(br - self.re, bi - self.im)

    def __mul__(self, other):
        ar, ai = self.re, self.im
        br, bi = _parts(other)
        return SplitComplex(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SplitComplex) or np.iscomplexobj(other):
            return _quotient(self.re, self.im, *_parts(other))
        d = np.asarray(other, dtype=float)
        if np.any(d == 0.0):
            raise ZeroDivisionError("complex division by zero")
        r = 0.0 / d
        return SplitComplex((self.re + self.im * r) / d, (self.im - self.re * r) / d)

    def __rtruediv__(self, other):
        return _quotient(*_parts(other), self.re, self.im)


def _quotient(ar, ai, br, bi):
    """CPython's complex quotient ``a / b``, elementwise on float64 parts."""
    if np.any((br == 0.0) & (bi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    by_re = abs(br) >= abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):  # in the branch not taken
        ratio = np.where(by_re, bi / br, br / bi)
        denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
        re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return SplitComplex(re, im)


def _parts(v):
    """``(re, im)`` of a SplitComplex, or of a complex or real value or array."""
    if isinstance(v, SplitComplex):
        return v.re, v.im
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return v.real, v.imag
    return np.asarray(v, dtype=float), 0.0


def _sum_series(first, step, tol, what):
    """Sum ``t_0 + t_1 + ...`` under the 3-consecutive-terms rule.

    ``first()`` returns ``t_0`` and ``step(n, t_n)`` returns ``t_{n+1}``, both
    as complex: the q-integrals compute each term afresh and ignore ``t_n``,
    the E/S/C series multiply it by their term ratio.  Returns
    ``(sum, terms_used)``, counting the trailing negligible terms.  A term
    that overflows or is not finite raises ConvergenceError, and so do a
    converged sum that is not finite and a series that has not converged
    after ``MAX_TERMS`` terms.
    """
    total = 0.0 + 0.0j
    streak = 0
    n = 0
    try:
        t = first()
        for n in range(MAX_TERMS):
            if n:
                t = step(n - 1, t)
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                raise ConvergenceError(
                    f"{what}: non-finite term at index {n} (divergent tail?)")
            total += t
            if abs(t) <= tol * abs(total):
                streak += 1
                if streak >= _STREAK:
                    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
                        raise ConvergenceError(
                            f"{what}: sum of {n + 1} finite terms overflows")
                    return total, n + 1
            else:
                streak = 0
    except OverflowError:
        raise ConvergenceError(
            f"{what}: term overflow at index {n} (divergent tail?)") from None
    raise ConvergenceError(
        f"{what}: no convergence after {MAX_TERMS} terms "
        f"(last |term| = {abs(t):.3e}, |sum| = {abs(total):.3e})"
    )


def _accumulate(op, first, t, first_line=False):
    """``op(first, t[0])``, ``op(op(first, t[0]), t[1])``, ... down axis 0, in
    that order (a running sum or product, as a scalar loop makes it), led by
    ``first`` itself when ``first_line``.  ``op.accumulate`` along axis 0 is
    slow for few long lines, and a loop over lines for many short ones; both
    combine in this order."""
    out = np.empty((len(t) + 1,) + t.shape[1:])
    out[0] = first
    if not 0 < len(t) <= t.shape[1]:
        out[1:] = t
        op.accumulate(out, axis=0, out=out)
    else:
        for j in range(len(t)):
            op(out[j], t[j], out=out[j + 1])
    return out if first_line else out[1:]


def _sum_blocks(terms, rows, first, tol, what):
    """Sum ``rows`` series at once under the rule of :func:`_sum_series`.

    ``terms(n0, n1, idx)`` returns the real and imaginary parts of terms
    ``n0 .. m-1`` of the rows ``idx``, arrays of shape ``(m - n0, len(idx))``
    (one line per term index), the imaginary part None when every term is
    real; ``m < n1`` means that term ``m`` overflows.
    The first block asks for ``first`` terms and each later one for twice
    as many, but no block for more than ``_BLOCK_VALUES`` values.  Returns
    ``(re, im, terms_used)`` arrays of length ``rows``; each row is bit for
    bit what :func:`_sum_series` returns for its terms, because running sums
    are taken down the term axis in order, like ``total += t``, from the
    carried sum per part, and magnitudes are ``np.hypot`` (CPython's complex
    ``abs``; ``|re|`` for real terms).  A failing row raises the error
    :func:`_sum_series` raises for it; a row's terms are checked only up to
    its stopping index.
    """
    sum_re, sum_im = np.zeros(rows), np.zeros(rows)
    used = np.zeros(rows, dtype=np.int64)
    streak = np.zeros(rows, dtype=np.int64)
    last = np.zeros(rows)
    idx = np.arange(rows)
    n0, size = 0, max(1, first)
    with np.errstate(all="ignore"):
        while idx.size:
            if n0 >= MAX_TERMS:
                j = idx[0]
                raise ConvergenceError(
                    f"{what}: no convergence after {MAX_TERMS} terms (last |term| = "
                    f"{last[j]:.3e}, |sum| = {math.hypot(sum_re[j], sum_im[j]):.3e})")
            n1 = min(n0 + max(1, min(size, _BLOCK_VALUES // idx.size)), MAX_TERMS)
            tr, ti = terms(n0, n1, idx)
            width = tr.shape[0]
            if width == 0:
                raise ConvergenceError(
                    f"{what}: term overflow at index {n0} (divergent tail?)")
            cr = _accumulate(np.add, sum_re[idx], tr)
            if ti is None:  # every imaginary part and sum is 0.0
                ti = ci = np.broadcast_to(0.0, tr.shape)
                mag, sum_mag = np.abs(tr), np.abs(cr)
            else:
                ci = _accumulate(np.add, sum_im[idx], ti)
                mag, sum_mag = np.hypot(tr, ti), np.hypot(cr, ci)
            sum_mag *= tol
            small = mag <= sum_mag
            # Line j of `run`: terms j-2, j-1, j all negligible, the streak
            # carried in from the previous block standing in for j < 2.
            carried = streak[None, idx]
            ext = np.concatenate((carried >= 2, carried >= 1, small))
            run = ext[:-2] & ext[1:-1] & ext[2:]
            stops = run.any(axis=0)
            stop = run.argmax(axis=0)
            # A running sum stays non-finite from the first non-finite term or
            # overflow on, so finite last sums clear the whole block.
            if not (np.isfinite(cr[-1]).all() and np.isfinite(ci[-1]).all()):
                end = np.where(stops, stop, width - 1)
                bad = ~(np.isfinite(tr) & np.isfinite(ti))
                first_bad = np.where(bad.any(axis=0), bad.argmax(axis=0), width)
                failing = first_bad <= end
                if failing.any():
                    raise ConvergenceError(
                        f"{what}: non-finite term at index {n0 + first_bad[failing].min()} "
                        "(divergent tail?)")
                cols = np.arange(end.size)
                over = stops & ~(np.isfinite(cr[end, cols]) & np.isfinite(ci[end, cols]))
                if over.any():
                    raise ConvergenceError(
                        f"{what}: sum of {n0 + stop[over][0] + 1} finite terms overflows")
            done, at = idx[stops], stop[stops]
            cols = np.flatnonzero(stops)
            sum_re[done], sum_im[done] = cr[at, cols], ci[at, cols]
            used[done] = n0 + at + 1
            if done.size == idx.size:
                break
            going = ~stops
            idx = idx[going]
            sum_re[idx], sum_im[idx] = cr[-1, going], ci[-1, going]
            last[idx] = mag[-1, going]
            streak[idx] = np.where(ext[-1, going], np.where(ext[-2, going], 2, 1), 0)
            n0 += width
            if idx.size and n0 < n1:
                raise ConvergenceError(
                    f"{what}: term overflow at index {n0} (divergent tail?)")
            size *= 2
    return sum_re, sum_im, used


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


def _lattice_sum(f, qc, a, sgn, tol, what):
    """Sum ``p f(p a)`` over ``p = q^{sgn (2n+1)}``, n = 0, 1, ...; return the sum.

    A scalar ``a`` sums point by point.  An ndarray ``a`` needs an ``f`` that
    takes arrays: every element's sum is taken at once by
    :func:`_sum_blocks`, and the sums come back as a SplitComplex of ``a``'s
    shape.  The first block spans the ``log(tol) / log(q^2)`` terms after
    which ``p`` alone falls below ``tol``.
    """
    if not isinstance(a, np.ndarray):
        def step(n, _):
            p = qc ** (sgn * (2 * n + 3))
            return complex(p * f(p * a))

        return _sum_series(lambda: step(-1, None), step, tol, what)[0]

    flat = np.asarray(a, dtype=float).ravel()

    def terms(n0, n1, idx):
        size = max(64, 1 << (n1 - 1).bit_length())
        p = _lattice_points(qc, sgn, size)[n0:n1, None]
        x = p * flat[None, idx]
        try:
            v = np.asarray(f(x))
        except OverflowError:
            raise ConvergenceError(
                f"{what}: term overflow at an index in [{n0}, {n1}) (divergent tail?)") from None
        if np.iscomplexobj(v) and v.imag.any():
            vr, vi = np.broadcast_to(v.real, x.shape), np.broadcast_to(v.imag, x.shape)
            return p * vr - 0.0 * vi, p * vi + 0.0 * vr
        # Real values (or imaginary parts all zero, whose signs leave the
        # sums, begun at +0.0, alone): the terms are real.
        return p * np.broadcast_to(np.asarray(v.real, dtype=float), x.shape), None

    first = _STREAK + (math.ceil(math.log(tol) / math.log(qc * qc)) if 0.0 < tol < 1.0 else 0)
    re, im, _ = _sum_blocks(terms, flat.size, first, tol, what)
    return SplitComplex(re.reshape(a.shape), im.reshape(a.shape))


def _finite_result(v, what):
    """An integral's value ``v``, raising ConvergenceError when it is not
    finite.  A SplitComplex becomes a complex array whose imaginary ``-0.0``
    reads ``0.0``, as ``complex()`` of the float a scalar integral returns."""
    if isinstance(v, SplitComplex):
        v = np.asarray(SplitComplex(v.re, v.im + 0.0))
    if not (cmath.isfinite(v) if isinstance(v, (float, complex)) else np.isfinite(v).all()):
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
        of values (real, complex or :class:`SplitComplex`).
    a : float or ndarray
        Upper limit, ``> 0``; an ndarray of limits gives a complex ndarray of
        integrals of the same shape, each element bit for bit the scalar
        result (as a complex).
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
    total = _lattice_sum(f, qc, a, 1, tol, "q_integral_finite")
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
