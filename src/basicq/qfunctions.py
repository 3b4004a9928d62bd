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

The physics series also take an ndarray ``z``: every element is summed at
once by the block kernel of :mod:`basicq.qcalculus`, bit for bit equal in
value and ``terms_used`` to the scalar call.  Both routes divide by basic
numbers ``[k]`` from one table per ``q``, built by :func:`basic_number`.

Deformed trig identities verified here as residual diagnostics:

    S_q(x/q) S_q(x) + C_q(x/q) C_q(x) = 1              (q-Pythagoras)
    D S_q(a x) = a C_q(a x),  D C_q(a x) = -a S_q(a x)
    D^2 u + a^2 u = 0   for  u in {S_q(ax), C_q(ax), E_q(iax)}
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qcalculus import DEFAULT_TOL, MAX_TERMS, _accumulate, _sum_blocks, _sum_series
from .qnum import as_qparam, basic_number

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
    """Value of a basic special function plus evaluation metadata.

    Attributes
    ----------
    value : complex or ndarray
        The function value (a complex array for an array argument).
    terms_used : int or ndarray
        Number of series terms accumulated (including the trailing
        negligible ones that triggered truncation); an int array for an
        array argument.
    representation : str
        ``"physics-series"`` or ``"shifted-factorial-series"``.
    """

    value: complex
    terms_used: int
    representation: str


def _check_representation(rep, qp, what):
    if rep not in ("physics", "shifted"):
        raise ValueError(f"{what}: representation must be 'physics' or 'shifted', got {rep!r}")
    if rep == "shifted" and qp.classical:
        raise ValueError(f"{what}: shifted-factorial representation requires q != 1")


# Basic numbers a scalar series reads from the table; past it, it calls
# basic_number, which raises where [k] overflows.
_TABLE_SIZE = 256


@functools.lru_cache(maxsize=16)
def _bracket_table(qp, size):
    """``([0], [1], ...)`` from :func:`basic_number` for ``k < size``, cut
    short where ``[k]`` overflows; cached per QParam."""
    out = []
    for k in range(size):
        try:
            out.append(basic_number(k, qp))
        except OverflowError:
            break
    return tuple(out)


def _bracket(qp):
    """``k -> [k]`` for a scalar series, from the table while it lasts."""
    table = _bracket_table(qp, _TABLE_SIZE)
    n = len(table)
    return lambda k: table[k] if k < n else basic_number(k, qp)


# Term ratio t_n / t_{n-1} = w / d_n of each physics series: d_n from the
# table b of basic numbers, and the largest k whose [k] it reads.
_DENOMINATOR = {
    "exp": (lambda b, n: b[n], lambda n: n),
    "sin": (lambda b, n: b[2 * n] * b[2 * n + 1], lambda n: 2 * n + 1),
    "cos": (lambda b, n: b[2 * n - 1] * b[2 * n], lambda n: 2 * n),
}


@functools.lru_cache(maxsize=16)
def _log_denominators(qp, kind):
    """``log(d_1 ... d_n)`` of the physics series ``kind`` for the terms the
    scalar table covers; sizes the first block of :func:`_physics_arrays`."""
    denominator, top = _DENOMINATOR[kind]
    table = _bracket_table(qp, _TABLE_SIZE)
    ds = [denominator(table, n) for n in range(1, len(table)) if top(n) < len(table)]
    return np.cumsum(np.log(ds))


def _physics_arrays(kind, z, qp, tol):
    """The physics series of ``kind`` ("exp", "sin", "cos") at every element of ``z``.

    Returns ``(value, terms_used)`` arrays of ``z``'s shape.  The terms follow
    the scalar recurrence ``t_n = t_{n-1} * (w / d_n)`` (``w`` is ``z`` or
    ``-z^2``) on float64 parts in CPython's order and are summed by
    :func:`_sum_blocks`, so each element is bit for bit the scalar call,
    ``-0.0`` included.
    """
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real.ravel(), z.imag.ravel()
    if kind == "exp":
        wr, wi = zr, zi
    else:  # -(z*z), the complex product negated; overflow is reported by the sum
        with np.errstate(over="ignore", invalid="ignore"):
            wr, wi = -(zr * zr - zi * zi), -(zr * zi + zi * zr)
    # The latest term of every element.
    if kind == "sin":
        t_re, t_im = zr.copy(), zi.copy()
    else:
        t_re, t_im = np.ones(zr.shape), np.zeros(zr.shape)
    denominator, top = _DENOMINATOR[kind]
    # For real z every term's imaginary part is a signed zero, and so is
    # ti*qi; tr*qr alone then gives every term and sum of the complex
    # recurrence (zero signs aside, which leave the sums, begun at +0.0,
    # alone), with an imaginary sum of 0.0.
    real = not zi.any()

    def terms(n0, n1, idx):
        table = _bracket_table(qp, max(_TABLE_SIZE, 1 << top(n1).bit_length()))
        while n1 > n0 and top(n1 - 1) >= len(table):  # [k] overflows: end before that term
            n1 -= 1
        ks = range(max(n0, 1), n1)
        d = np.array([denominator(table, n) for n in ks])[:, None]
        w_re, w_im = wr[None, idx], wi[None, idx]
        tr, ti = t_re[idx], t_im[idx]
        if real:  # terms: the running product of the ratios w / d_n
            out = _accumulate(np.multiply, tr, w_re / d, first_line=n0 == 0)
            if len(out):
                t_re[idx] = out[-1]
            return out, None
        # The ratios w / d_n of all lines at once, then the products in order.
        r = 0.0 / d
        q_re, q_im = (w_re + w_im * r) / d, (w_im - w_re * r) / d
        out_re, out_im = np.empty((n1 - n0, idx.size)), np.empty((n1 - n0, idx.size))
        if n0 == 0:
            out_re[0], out_im[0] = tr, ti
        for line, qr, qi in zip(range(n1 - n0 - len(ks), n1 - n0), q_re, q_im):
            np.subtract(tr * qr, ti * qi, out=out_re[line])
            np.add(tr * qi, ti * qr, out=out_im[line])
            tr, ti = out_re[line], out_im[line]
        t_re[idx], t_im[idx] = tr, ti
        return out_re, out_im

    # First block: the terms until |w|^n / (d_1 ... d_n) for the largest |w|
    # falls below tol, plus the 3-term streak.
    logs = _log_denominators(qp, kind)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(np.hypot(wr, wi).max(initial=0.0))
    log_terms = np.arange(1, len(logs) + 1) * log_w - logs
    below = np.flatnonzero(log_terms < np.log(tol)) if 0.0 < tol < 1.0 else []
    first = int(below[0]) + 4 if len(below) else 16
    re, im, used = _sum_blocks(terms, zr.size, first, tol, MAX_TERMS, "q_" + kind)
    if kind == "sin":
        zero = (zr == 0) & (zi == 0)
        re[zero], im[zero], used[zero] = 0.0, 0.0, 1
    value = np.empty(z.shape, dtype=complex)
    value.real, value.imag = re.reshape(z.shape), im.reshape(z.shape)
    return value, used.reshape(z.shape)


def _array_call(kind, z, qp, tol, representation):
    if representation != "physics":
        raise ValueError(f"q_{kind}: an array argument needs representation='physics'")
    return QSpecialValue(*_physics_arrays(kind, z, qp, tol), "physics-series")


def q_exp(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed exponential ``E_q(z) = sum_k z^k / [k]!``.

    Entire in ``z`` for ``q != 1`` (the deformed factorial grows like
    ``q^{-k(k-1)/2}``); reduces to ``exp`` on the classical branch.

    Parameters
    ----------
    z : complex or ndarray
        Argument; an ndarray gives arrays of ``value`` and ``terms_used``
        (physics representation only), each element bit for bit the
        scalar call.
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
    qp = as_qparam(q)
    _check_representation(representation, qp, "q_exp")
    if isinstance(z, np.ndarray):
        return _array_call("exp", z, qp, tol, representation)
    z = complex(z)
    if representation == "physics":
        b = _bracket(qp)
        value, n = _sum_series(
            lambda: 1.0 + 0j, lambda k, t: t * (z / b(k + 1)),
            tol, MAX_TERMS, "q_exp")
        return QSpecialValue(value, n, "physics-series")
    qc = qp.canonical
    q2 = qc * qc
    value, n = _sum_series(
        lambda: 1.0 + 0j, lambda k, t: t * (z * (1.0 - q2) * qc**k / (1.0 - q2 ** (k + 1))),
        tol, MAX_TERMS, "q_exp")
    return QSpecialValue(value, n, "shifted-factorial-series")


def q_sin(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed sine ``S_q(z) = sum_n (-1)^n z^{2n+1} / [2n+1]!`` (odd).

    Arguments as for :func:`q_exp`, an ndarray ``z`` included."""
    qp = as_qparam(q)
    _check_representation(representation, qp, "q_sin")
    if isinstance(z, np.ndarray):
        return _array_call("sin", z, qp, tol, representation)
    z = complex(z)
    if z == 0:
        rep = "physics-series" if representation == "physics" else "shifted-factorial-series"
        return QSpecialValue(0.0 + 0.0j, 1, rep)
    z2 = z * z
    if representation == "physics":
        b = _bracket(qp)
        value, n = _sum_series(
            lambda: z,
            lambda k, t: t * (-z2 / (b(2 * k + 2) * b(2 * k + 3))),
            tol, MAX_TERMS, "q_sin")
        return QSpecialValue(value, n, "physics-series")
    qc = qp.canonical
    q2 = qc * qc
    value, n = _sum_series(
        lambda: z,
        lambda k, t: t * (-z2 * (1.0 - q2) ** 2 * qc ** (4 * k + 3)
                          / ((1.0 - qc ** (4 * k + 4)) * (1.0 - qc ** (4 * k + 6)))),
        tol, MAX_TERMS, "q_sin")
    return QSpecialValue(value, n, "shifted-factorial-series")


def q_cos(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed cosine ``C_q(z) = sum_n (-1)^n z^{2n} / [2n]!`` (even).

    Arguments as for :func:`q_exp`, an ndarray ``z`` included."""
    qp = as_qparam(q)
    _check_representation(representation, qp, "q_cos")
    if isinstance(z, np.ndarray):
        return _array_call("cos", z, qp, tol, representation)
    z = complex(z)
    z2 = z * z
    if representation == "physics":
        b = _bracket(qp)
        value, n = _sum_series(
            lambda: 1.0 + 0j,
            lambda k, t: t * (-z2 / (b(2 * k + 1) * b(2 * k + 2))),
            tol, MAX_TERMS, "q_cos")
        return QSpecialValue(value, n, "physics-series")
    qc = qp.canonical
    q2 = qc * qc
    value, n = _sum_series(
        lambda: 1.0 + 0j,
        lambda k, t: t * (-z2 * (1.0 - q2) ** 2 * qc ** (4 * k + 1)
                          / ((1.0 - qc ** (4 * k + 2)) * (1.0 - qc ** (4 * k + 4)))),
        tol, MAX_TERMS, "q_cos")
    return QSpecialValue(value, n, "shifted-factorial-series")


def q_pythagoras_residual(x, q, tol: float = DEFAULT_TOL) -> float:
    """Residual ``|S_q(x/q) S_q(x) + C_q(x/q) C_q(x) - 1|``.

    The deformed replacement for ``sin^2 + cos^2 = 1``; one factor in each
    product carries the argument shifted by ``1/q``.  Contract: below
    ``1e-10`` for ``|x| <= 5``, ``q in [0.5, 0.99]``.
    """
    qp = as_qparam(q)
    qc = qp.canonical
    s1 = q_sin(x / qc, qp, tol=tol).value
    s2 = q_sin(x, qp, tol=tol).value
    c1 = q_cos(x / qc, qp, tol=tol).value
    c2 = q_cos(x, qp, tol=tol).value
    return abs(s1 * s2 + c1 * c2 - 1.0)


def trig_derivative_residual(x, a, q, which: str = "sin", tol: float = DEFAULT_TOL) -> float:
    """Relative residual of the deformed trig derivative relations at ``x != 0``.

    ``which="sin"`` checks ``D S_q(ax) = a C_q(ax)``; ``which="cos"`` checks
    ``D C_q(ax) = -a S_q(ax)``.  The Jackson derivative is evaluated
    pointwise from the series.  Contract: below ``1e-10``.
    """
    if x == 0:
        raise ValueError("trig_derivative_residual requires x != 0")
    if which not in ("sin", "cos"):
        raise ValueError(f"which must be 'sin' or 'cos', got {which!r}")
    qp = as_qparam(q)
    if which == "sin":
        f = lambda t: q_sin(a * t, qp, tol=tol).value
        rhs = a * q_cos(a * x, qp, tol=tol).value
    else:
        f = lambda t: q_cos(a * t, qp, tol=tol).value
        rhs = -a * q_sin(a * x, qp, tol=tol).value
    from .qcalculus import jackson_derivative

    lhs = jackson_derivative(f, x, qp)
    scale = abs(lhs) + abs(rhs) + abs(a)
    return abs(lhs - rhs) / scale


def wave_equation_residual(u: str, a, x, q, tol: float = DEFAULT_TOL) -> float:
    """Relative residual of ``D^2 u + a^2 u = 0`` at ``x != 0``.

    ``u`` selects the solution family: ``"sin"`` for ``S_q(ax)``, ``"cos"``
    for ``C_q(ax)``, ``"exp"`` for the complex wave ``E_q(iax)``.  The second
    Jackson derivative is the two-step stencil

        D^2 f(x) = [f(q^2 x)/q - (q + 1/q) f(x) + q f(x/q^2)] / ((q - 1/q) x)^2,

    and the residual is normalized by the stencil term magnitudes plus
    ``a^2 |u(x)|``, so roundoff cancellation near the origin is measured
    against the size of what is being cancelled.  Contract: below ``1e-9``.
    """
    if x == 0:
        raise ValueError("wave_equation_residual requires x != 0")
    if u not in ("sin", "cos", "exp"):
        raise ValueError(f"u must be 'sin', 'cos' or 'exp', got {u!r}")
    qp = as_qparam(q)
    if u == "sin":
        f = lambda t: q_sin(a * t, qp, tol=tol).value
    elif u == "cos":
        f = lambda t: q_cos(a * t, qp, tol=tol).value
    else:
        f = lambda t: q_exp(1j * a * t, qp, tol=tol).value
    if qp.classical:
        # Five-point second difference at h ~ eps^(1/6): the three-point
        # stencil at the first-derivative step loses six digits to
        # cancellation (eps / h^2), far above the 1e-9 contract.
        h = 2.4631237553627168e-03 * max(abs(x), 1.0)
        d2 = (-f(x + 2 * h) + 16.0 * f(x + h) - 30.0 * f(x)
              + 16.0 * f(x - h) - f(x - 2 * h)) / (12.0 * h * h)
        val = f(x)
        scale = abs(d2) + a * a * abs(val) + 1e-300
        return abs(d2 + a * a * val) / scale
    qc = qp.canonical
    c = (qc - 1.0 / qc) ** 2 * x * x
    t_in, t_mid, t_out = f(qc * qc * x) / qc, (qc + 1.0 / qc) * f(x), qc * f(x / (qc * qc))
    d2 = (t_in - t_mid + t_out) / c
    val = f(x)
    scale = (abs(t_in) + abs(t_mid) + abs(t_out)) / abs(c) + a * a * abs(val) + 1e-300
    return abs(d2 + a * a * val) / scale
