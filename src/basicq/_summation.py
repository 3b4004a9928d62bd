"""The truncation rule of every series in the package, and its two kernels.

Every series, the q-integrals of :mod:`basicq.qcalculus` and the E/S/C
series of :mod:`basicq.qfunctions`, stops once ``_STREAK`` (3) consecutive
terms fall below ``tol`` times the running partial sum (default ``tol =
1e-14``), with a hard cap of 10^6 terms; both kernels read that streak.  A
scalar argument is summed term by term by :func:`_sum_series`.  An array (of
upper limits or of E/S/C arguments) is summed by the block kernel
:func:`_sum_blocks` in :class:`SplitComplex` arithmetic, so that every
element is bit for bit the scalar result.  The failure rules live in the
scalar sum alone: a block the kernel cannot clear (a term not finite, or any
numeric failure of the integrand) is summed element by element, so an array
call raises what a loop over its elements raises, the first failing
element's error in flat order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

DEFAULT_TOL = 1e-14
MAX_TERMS = 1_000_000
# Consecutive negligible terms required before a series is declared converged.
_STREAK = 3
# Terms (times rows) one block of an array sum holds at most: bounds the
# memory of a block whatever the number of rows.
_BLOCK_VALUES = 1 << 15


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
        return np.hypot(self.re, self.im)

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
    """Sum ``t_0 + t_1 + ...`` until ``_STREAK`` consecutive terms are negligible.

    ``first()`` returns ``t_0`` and ``step(n, t_n)`` returns ``t_{n+1}``, both
    as complex.  Returns ``(sum, terms_used)``, counting the trailing
    negligible terms.  A term that overflows or is not finite raises
    ConvergenceError, and so do a converged sum that is not finite and a
    series that has not converged after ``MAX_TERMS`` terms.
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
    raise _no_convergence(what, abs(t), abs(total))


def _no_convergence(what, term, total):
    """The refusal of a series still running after ``MAX_TERMS`` terms."""
    return ConvergenceError(f"{what}: no convergence after {MAX_TERMS} terms "
                            f"(last |term| = {term:.3e}, |sum| = {total:.3e})")


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


def _sum_blocks(terms, rows, first, tol, what, scalar, *, settle=lambda re, im: None):
    """Sum ``rows`` series at once under the rule of :func:`_sum_series`.

    ``terms(n0, n1, idx)`` returns the real and imaginary parts of terms
    ``n0 .. m-1`` of the rows ``idx``, arrays of shape ``(m - n0, len(idx))``
    (one line per term index); ``m < n1`` means that the block cannot be
    taken whole.  The imaginary part is None only from the E/S/C series at
    real arguments, where every imaginary part and sum is 0.0.
    ``scalar(row)`` returns :func:`_sum_series`'s ``(sum, terms_used)`` for
    one row.  The first block asks for ``first`` terms plus ``_STREAK``,
    each later one for twice as many, and none for more than
    ``_BLOCK_VALUES`` values.  Returns ``(re, im, terms_used)`` arrays of
    length ``rows``, each row bit for bit :func:`_sum_series`'s: running
    sums are taken down the term axis in order, like ``total += t``, from
    the carried sum per part, and magnitudes are ``np.hypot`` (CPython's
    complex ``abs``; ``|re|`` for real terms).

    A block not taken whole, or with a last running sum not finite, hands
    its remaining rows to ``scalar`` one at a time in flat order, and their
    results stand.  Rows still summing after the block that reaches
    ``MAX_TERMS`` terms are refused there, the first in flat order named as
    the scalar sum names it, since a re-sum would take another ``MAX_TERMS``
    terms.  Before either refusal of a row, ``settle(re, im)`` gets the
    final sums of the rows before it, and raises what a loop would have
    raised for them after their sums.
    """
    sum_re, sum_im = np.zeros(rows), np.zeros(rows)
    used = np.zeros(rows, dtype=np.int64)
    streak = np.zeros(rows, dtype=np.int64)
    idx = np.arange(rows)
    n0, size = 0, first + _STREAK
    with np.errstate(all="ignore"):
        while idx.size:
            n1 = min(n0 + max(1, min(size, _BLOCK_VALUES // idx.size)), MAX_TERMS)
            tr, ti = terms(n0, n1, idx)
            cr = _accumulate(np.add, sum_re[idx], tr)
            if ti is None:  # every imaginary part and sum is 0.0
                ci = np.broadcast_to(0.0, tr.shape)
                mag, sum_mag = np.abs(tr), np.abs(cr)
            else:
                ci = _accumulate(np.add, sum_im[idx], ti)
                mag, sum_mag = np.hypot(tr, ti), np.hypot(cr, ci)
            # A running sum stays non-finite from the first non-finite term or
            # overflow on, so finite last sums clear a whole block.
            if len(tr) < n1 - n0 or not (np.isfinite(cr[-1]).all()
                                         and np.isfinite(ci[-1]).all()):
                for row in idx.tolist():
                    try:
                        total, used[row] = scalar(row)
                    except Exception:
                        settle(sum_re[:row], sum_im[:row])
                        raise
                    sum_re[row], sum_im[row] = total.real, total.imag
                break
            sum_mag *= tol
            small = mag <= sum_mag
            # Line j of `run`: the _STREAK terms up to j all negligible, the
            # streak carried in standing in for terms before this block.
            carried = streak[None, idx]
            ext = np.concatenate([carried >= k for k in range(_STREAK - 1, 0, -1)] + [small])
            run = np.logical_and.reduce([ext[k:len(small) + k] for k in range(_STREAK)])
            stops = run.any(axis=0)
            stop = run.argmax(axis=0)
            done, at = idx[stops], stop[stops]
            cols = np.flatnonzero(stops)
            sum_re[done], sum_im[done] = cr[at, cols], ci[at, cols]
            used[done] = n0 + at + 1
            if done.size == idx.size:
                break
            going = ~stops
            if n1 == MAX_TERMS:
                j = np.argmax(going)
                settle(sum_re[:idx[j]], sum_im[:idx[j]])
                raise _no_convergence(what, mag[-1, j], abs(complex(cr[-1, j], ci[-1, j])))
            idx = idx[going]
            sum_re[idx], sum_im[idx] = cr[-1, going], ci[-1, going]
            # The negligible terms that end the block, fewer than _STREAK.
            streak[idx] = np.logical_and.accumulate(ext[:-_STREAK:-1, going]).sum(axis=0)
            n0 = n1
            size *= 2
    return sum_re, sum_im, used
