"""Basic elementary functions: deformed exponential, sine, and cosine.

The canonical ("physics") series, entire in ``z`` for ``q != 1``:

    E_q(z) = sum_k z^k / [k]!
    S_q(z) = sum_n (-1)^n z^{2n+1} / [2n+1]!
    C_q(z) = sum_n (-1)^n z^{2n}   / [2n]!

so that ``E_q(i z) = C_q(z) + i S_q(z)`` and ``D E_q(a x) = a E_q(a x)``.

Each also has a shifted-factorial representation obtained by replacing the
reciprocal factorials with Pochhammer products,

    1/[k]!    = (1-q^2)^k  q^{k(k-1)/2} / (q^2; q^2)_k
    1/[2n]!   = (1-q^2)^{2n} q^{n(2n-1)} / ((q^2; q^4)_n (q^4; q^4)_n)
    1/[2n+1]! = (1-q^2)^{2n} q^{n(2n+1)} / ((q^4; q^4)_n (q^6; q^4)_n)

kept as an independent arithmetic route (``representation="shifted"``) used
only to cross-validate the physics series; it requires ``q != 1``.

Each series is read from one table, ``_SERIES``: ``t_0 = z`` (S) or 1, and
``t_n = t_{n-1} r_n`` with ``r_n = w / d_n`` (physics; ``w = z`` for E and
``-z^2`` for S, C; ``d_n`` a product of basic numbers ``[k]``) or
``((w A) q^{p_n}) / D_n`` (shifted).  A scalar ``z`` is summed term by term.
An ndarray ``z`` is summed by the block kernel of :mod:`basicq.qcalculus` in
the physics representation, each element bit for bit the scalar call, and
element by element through the scalar sum in the shifted one.

Deformed trig identities verified here as residual diagnostics, at a scalar
or at every element of an ndarray ``x``:

    S_q(x/q) S_q(x) + C_q(x/q) C_q(x) = 1              (q-Pythagoras)
    D S_q(a x) = a C_q(a x),  D C_q(a x) = -a S_q(a x)
    D^2 u + a^2 u = 0   for  u in {S_q(ax), C_q(ax), E_q(iax)}
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .qcalculus import DEFAULT_TOL, SplitComplex, jackson_derivative
from .qcalculus import _accumulate, _sum_blocks, _sum_series
from .qnum import _TABLE_SIZE, _bracket_table, as_qparam, basic_number

__all__ = [
    "QSpecialValue",
    "q_exp",
    "q_sin",
    "q_cos",
    "q_pythagoras_residual",
    "trig_derivative_residual",
    "wave_equation_residual",
]

@dataclass(frozen=True)
class QSpecialValue:
    """Value of a basic special function plus its term count.

    Which series produced it is the caller's own ``representation=``
    argument, so it is not repeated here.

    Attributes
    ----------
    value : complex or ndarray
        The function value (a complex array for an array argument).
    terms_used : int or ndarray
        Number of series terms accumulated (including the trailing
        negligible ones that triggered truncation); an int array for an
        array argument.
    """

    value: complex | np.ndarray
    terms_used: int | np.ndarray


class _Series(NamedTuple):
    odd: bool  # S: t_0 = z, and S_q(0) = 0 in one term; E, C: t_0 = 1
    squared: bool  # w = -(z*z) for S and C, z for E; A = (1-q^2)^2 or (1-q^2)
    d: Callable  # (b, n) -> d_n from b(k) = [k]
    shifted: Callable  # (qc, q2, n) -> (q^{p_n}, D_n), q2 = qc*qc


# The term ratio r_n of each series, in the order of operations every sum
# follows: w / d_n (physics), ((w * A) * q^{p_n}) / D_n (shifted).
_SERIES = {
    "exp": _Series(False, False, lambda b, n: b(n),
                   lambda qc, q2, n: (qc ** (n - 1), 1.0 - q2 ** n)),
    "sin": _Series(True, True, lambda b, n: b(2 * n) * b(2 * n + 1),
                   lambda qc, q2, n: (qc ** (4 * n - 1),
                                      (1.0 - qc ** (4 * n)) * (1.0 - qc ** (4 * n + 2)))),
    "cos": _Series(False, True, lambda b, n: b(2 * n - 1) * b(2 * n),
                   lambda qc, q2, n: (qc ** (4 * n - 3),
                                      (1.0 - qc ** (4 * n - 2)) * (1.0 - qc ** (4 * n)))),
}

@functools.lru_cache(maxsize=48)
def _denominators(qp, kind, size):
    """``(None, d_1, d_2, ...)`` of the physics series ``kind`` for every ``n``
    whose basic numbers lie in ``_bracket_table(qp, size)``, so cut short
    where ``[k]`` overflows."""
    d, b = _SERIES[kind].d, _bracket_table(qp, size).__getitem__
    out = [None]
    try:
        while True:
            out.append(d(b, len(out)))
    except IndexError:
        return tuple(out)


@functools.lru_cache(maxsize=48)
def _log_gains(qp, kind):
    """``log |r_1 ... r_n / w^n|`` of the physics series for the first
    ``_TABLE_SIZE`` terms at most; sizes the first block of an array sum."""
    with np.errstate(divide="ignore"):
        return np.cumsum(-np.log(_denominators(qp, kind, _TABLE_SIZE)[1:]))


def _series(kind, z, qp, tol, representation):
    """The series ``kind`` ("exp", "sin", "cos") at a scalar ``z``, summed by
    :func:`_sum_series`, or at an ndarray ``z``: by :func:`_sum_arrays` in
    the physics representation, element by element in the shifted one."""
    if representation not in ("physics", "shifted"):
        raise ValueError(f"q_{kind}: representation must be 'physics' or 'shifted', "
                         f"got {representation!r}")
    if representation == "shifted" and qp.classical:
        raise ValueError(f"q_{kind}: shifted-factorial representation requires q != 1")
    if isinstance(z, np.ndarray):
        if representation == "physics":
            return QSpecialValue(*_sum_arrays(kind, z, qp, tol))
        z = np.asarray(z, dtype=complex)
        sums = [_series(kind, v, qp, tol, representation) for v in z.ravel().tolist()]
        value = np.array([s.value for s in sums], dtype=complex).reshape(z.shape)
        return QSpecialValue(value, np.array([s.terms_used for s in sums],
                                             dtype=np.int64).reshape(z.shape))
    series = _SERIES[kind]
    z = complex(z)
    if series.odd and z == 0:
        return QSpecialValue(0.0 + 0.0j, 1)
    w = -(z * z) if series.squared else z
    # t_{k+1} = t_k r_{k+1}; d_n from the table while it lasts.
    if representation == "physics":
        c = _denominators(qp, kind, _TABLE_SIZE)
        top, b = len(c) - 1, lambda k: basic_number(k, qp)
        step = lambda k, t: t * (w / (c[k + 1] if k < top else series.d(b, k + 1)))
    else:
        qc = qp.canonical
        q2 = qc * qc
        w_a = w * ((1.0 - q2) ** 2 if series.squared else 1.0 - q2)
        ratio = lambda s, d: (w_a * s) / d
        step = lambda k, t: t * ratio(*series.shifted(qc, q2, k + 1))
    value, n = _sum_series(lambda: z if series.odd else 1.0 + 0j, step, tol, "q_" + kind)
    return QSpecialValue(value, n)


def _sum_arrays(kind, z, qp, tol):
    """The physics series ``kind`` at every element of the ndarray ``z``.

    Returns ``(value, terms_used)`` arrays of ``z``'s shape.  The ratios
    ``r_n`` and the running products ``t_n = t_{n-1} r_n`` are taken on
    float64 parts in CPython's order (:class:`SplitComplex`) and summed by
    :func:`_sum_blocks`, so each element is bit for bit the scalar call,
    ``-0.0`` included.
    """
    series = _SERIES[kind]
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real.ravel(), z.imag.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by the sum
        zs = SplitComplex(zr, zi)
        w = -(zs * zs) if series.squared else zs
    wr, wi = w.re, w.im
    # The latest term of every element.
    t_re, t_im = (zr.copy(), zi.copy()) if series.odd else (np.ones(zr.shape), np.zeros(zr.shape))
    # For real z every term's imaginary part is a signed zero, and so is
    # ti*qi; tr*qr alone then gives every term and sum of the complex
    # recurrence (zero signs aside, which leave the sums, begun at +0.0,
    # alone), with an imaginary sum of 0.0.
    real = not zi.any()

    def terms(n0, n1, idx):
        w = wr[None, idx] if real else SplitComplex(wr[None, idx], wi[None, idx])
        c = _denominators(qp, kind, max(_TABLE_SIZE, 1 << (2 * n1).bit_length()))
        n1 = max(n0, min(n1, len(c)))  # [k] overflows: end before that term
        r = w / np.array(c[max(n0, 1):n1], dtype=float)[:, None]
        tr, ti = t_re[idx], t_im[idx]
        if real:  # terms: the running product of the ratios
            out = _accumulate(np.multiply, tr, r, first_line=n0 == 0)
            if len(out):
                t_re[idx] = out[-1]
            return out, None
        out_re, out_im = np.empty((n1 - n0, idx.size)), np.empty((n1 - n0, idx.size))
        if n0 == 0:
            out_re[0], out_im[0] = tr, ti
        for line, qr, qi in zip(range(1 if n0 == 0 else 0, n1 - n0), r.re, r.im):
            np.subtract(tr * qr, ti * qi, out=out_re[line])
            np.add(tr * qi, ti * qr, out=out_im[line])
            tr, ti = out_re[line], out_im[line]
        t_re[idx], t_im[idx] = tr, ti
        return out_re, out_im

    # First block: the terms until |w|^n |r_1 ... r_n / w^n| for the
    # largest |w| falls below tol, plus the 3-term streak.
    logs = _log_gains(qp, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(np.hypot(wr, wi).max(initial=0.0))
    log_terms = np.arange(1, len(logs) + 1) * log_w + logs
    below = np.flatnonzero(log_terms < np.log(tol)) if 0.0 < tol < 1.0 else []
    first = int(below[0]) + 4 if len(below) else 16
    re, im, used = _sum_blocks(terms, zr.size, first, tol, "q_" + kind)
    if series.odd:
        zero = (zr == 0) & (zi == 0)
        re[zero], im[zero], used[zero] = 0.0, 0.0, 1
    value = np.empty(z.shape, dtype=complex)
    value.real, value.imag = re.reshape(z.shape), im.reshape(z.shape)
    return value, used.reshape(z.shape)


def q_exp(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed exponential ``E_q(z) = sum_k z^k / [k]!``.

    Entire in ``z`` for ``q != 1`` (the deformed factorial grows like
    ``q^{-k(k-1)/2}``); reduces to ``exp`` on the classical branch.

    Parameters
    ----------
    z : complex or ndarray
        Argument; an ndarray gives arrays of ``value`` and ``terms_used``,
        each element bit for bit the scalar call: the block kernel sums
        the physics series, and a shifted array is summed element by
        element.
    q : float or QParam
        Deformation parameter.
    tol : float, optional
        Series truncation tolerance (3-consecutive-terms rule).
    representation : {"physics", "shifted"}, optional
        ``"shifted"`` evaluates the same series through the
        shifted-factorial coefficient route (independent arithmetic path,
        ``q != 1`` only).

    Examples
    --------
    >>> q_exp(0.0, 0.9).value
    (1+0j)
    """
    return _series("exp", z, as_qparam(q), tol, representation)


def q_sin(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed sine ``S_q(z) = sum_n (-1)^n z^{2n+1} / [2n+1]!`` (odd).

    Arguments as for :func:`q_exp`, an ndarray ``z`` included."""
    return _series("sin", z, as_qparam(q), tol, representation)


def q_cos(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed cosine ``C_q(z) = sum_n (-1)^n z^{2n} / [2n]!`` (even).

    Arguments as for :func:`q_exp`, an ndarray ``z`` included."""
    return _series("cos", z, as_qparam(q), tol, representation)


def _values(kind, qp, scale=1.0):
    """``t ->`` the physics series ``kind`` at ``scale * t``, a complex for a
    scalar ``t`` and a SplitComplex for an ndarray ``t``; ``scale * t`` is
    taken in CPython's arithmetic either way.

    Each distinct argument array (shape, dtype and bytes) is summed once per
    adapter, into a read-only SplitComplex that later equal arguments get
    back.  The sum goes through :func:`_series`, not the public
    ``q_exp``/``q_sin``/``q_cos``: the benchmark's tracer adds each public
    call's ``terms_used`` to an int counter, which an array of term counts
    does not fit.
    """
    seen = {}

    def f(t):
        if not isinstance(t, np.ndarray):
            return _series(kind, scale * t, qp, DEFAULT_TOL, "physics").value
        key = (t.shape, t.dtype.str, t.tobytes())
        if key not in seen:
            z = np.asarray(SplitComplex(scale) * t) if isinstance(scale, complex) else scale * t
            value = _series(kind, z, qp, DEFAULT_TOL, "physics").value
            value.flags.writeable = False  # shared by every caller of this argument
            seen[key] = SplitComplex(value)
        return seen[key]

    return f


def q_pythagoras_residual(x, q):
    """Residual ``|S_q(x/q) S_q(x) + C_q(x/q) C_q(x) - 1|``.

    The deformed replacement for ``sin^2 + cos^2 = 1``; one factor in each
    product carries the argument shifted by ``1/q``.  An ndarray ``x`` gives
    an array of residuals.  Contract: below ``1e-10`` for ``|x| <= 5``,
    ``q in [0.5, 0.99]``.
    """
    qp = as_qparam(q)
    qc = qp.canonical
    s, c = _values("sin", qp), _values("cos", qp)
    return abs(s(x / qc) * s(x) + c(x / qc) * c(x) - 1.0)


def trig_derivative_residual(x, a, q, which: str = "sin"):
    """Relative residual of the deformed trig derivative relations at ``x != 0``.

    ``which="sin"`` checks ``D S_q(ax) = a C_q(ax)``; ``which="cos"`` checks
    ``D C_q(ax) = -a S_q(ax)``.  The Jackson derivative is evaluated
    pointwise from the series; an ndarray ``x`` gives an array of residuals.
    Contract: below ``1e-10``.  ``x = 0`` raises ``ValueError`` through
    :func:`~basicq.qcalculus.jackson_derivative`.
    """
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    qp = as_qparam(q)
    other = "cos" if which == "sin" else "sin"
    rhs = (a if which == "sin" else -a) * _values(other, qp, a)(x)
    lhs = jackson_derivative(_values(which, qp, a), x, qp)
    scale = abs(lhs) + abs(rhs) + abs(a)
    return abs(lhs - rhs) / scale


def wave_equation_residual(u: str, a, x, q):
    """Relative residual of ``D^2 u + a^2 u = 0`` at ``x != 0``.

    ``u`` selects the solution family: ``"sin"`` for ``S_q(ax)``, ``"cos"``
    for ``C_q(ax)``, ``"exp"`` for the complex wave ``E_q(iax)``.  The second
    Jackson derivative is the two-step stencil

        D^2 f(x) = [f(q^2 x)/q - (q + 1/q) f(x) + q f(x/q^2)] / ((q - 1/q) x)^2,

    and the residual is normalized by the stencil term magnitudes plus
    ``a^2 |u(x)|``, so roundoff cancellation near the origin is measured
    against the size of what is being cancelled.  An ndarray ``x`` gives an
    array of residuals.  Contract: below ``1e-9``.
    """
    if np.any(np.equal(x, 0)):
        raise ValueError("wave_equation_residual requires x != 0")
    if u not in ("sin", "cos", "exp"):
        raise ValueError(f"u must be 'sin', 'cos' or 'exp', got {u!r}")
    qp = as_qparam(q)
    f = _values(u, qp, 1j * a if u == "exp" else a)
    fx = f(x)
    if qp.classical:
        # Five-point second difference at h ~ eps^(1/6): the three-point
        # stencil at the first-derivative step loses six digits to
        # cancellation (eps / h^2), far above the 1e-9 contract.
        h = 2.4631237553627168e-03 * (
            np.maximum(abs(x), 1.0) if isinstance(x, np.ndarray) else max(abs(x), 1.0))
        d2 = (-f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * fx
              + 16.0 * f(x - h) - f(x - 2 * h)) / (12.0 * h * h)
        scale = abs(d2) + a * a * abs(fx) + 1e-300
        return abs(d2 + a * a * fx) / scale
    qc = qp.canonical
    c = (qc - 1.0 / qc) ** 2 * x * x
    t_in, t_mid, t_out = f(qc * qc * x) / qc, (qc + 1.0 / qc) * fx, qc * f(x / (qc * qc))
    d2 = (t_in - t_mid + t_out) / c
    scale = (abs(t_in) + abs(t_mid) + abs(t_out)) / abs(c) + a * a * abs(fx) + 1e-300
    return abs(d2 + a * a * fx) / scale
