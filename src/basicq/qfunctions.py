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

Deformed trig identities verified here as residual diagnostics:

    S_q(x/q) S_q(x) + C_q(x/q) C_q(x) = 1              (q-Pythagoras)
    D S_q(a x) = a C_q(a x),  D C_q(a x) = -a S_q(a x)
    D^2 u + a^2 u = 0   for  u in {S_q(ax), C_q(ax), E_q(iax)}
"""

from __future__ import annotations

from dataclasses import dataclass

from .qcalculus import DEFAULT_TOL, MAX_TERMS, _sum_series
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
    value : complex
        The function value.
    terms_used : int
        Number of series terms accumulated (including the trailing
        negligible ones that triggered truncation).
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


def q_exp(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed exponential ``E_q(z) = sum_k z^k / [k]!``.

    Entire in ``z`` for ``q != 1`` (the deformed factorial grows like
    ``q^{-k(k-1)/2}``); reduces to ``exp`` on the classical branch.

    Parameters
    ----------
    z : complex
        Argument.
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
    z = complex(z)
    if representation == "physics":
        value, n = _sum_series(
            lambda: 1.0 + 0j, lambda k, t: t * (z / basic_number(k + 1, qp)),
            tol, MAX_TERMS, "q_exp")
        return QSpecialValue(value, n, "physics-series")
    qc = qp.canonical
    q2 = qc * qc
    value, n = _sum_series(
        lambda: 1.0 + 0j, lambda k, t: t * (z * (1.0 - q2) * qc**k / (1.0 - q2 ** (k + 1))),
        tol, MAX_TERMS, "q_exp")
    return QSpecialValue(value, n, "shifted-factorial-series")


def q_sin(z, q, tol: float = DEFAULT_TOL, representation: str = "physics") -> QSpecialValue:
    """Deformed sine ``S_q(z) = sum_n (-1)^n z^{2n+1} / [2n+1]!`` (odd)."""
    qp = as_qparam(q)
    _check_representation(representation, qp, "q_sin")
    z = complex(z)
    if z == 0:
        rep = "physics-series" if representation == "physics" else "shifted-factorial-series"
        return QSpecialValue(0.0 + 0.0j, 1, rep)
    z2 = z * z
    if representation == "physics":
        value, n = _sum_series(
            lambda: z,
            lambda k, t: t * (-z2 / (basic_number(2 * k + 2, qp) * basic_number(2 * k + 3, qp))),
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
    """Deformed cosine ``C_q(z) = sum_n (-1)^n z^{2n} / [2n]!`` (even)."""
    qp = as_qparam(q)
    _check_representation(representation, qp, "q_cos")
    z = complex(z)
    z2 = z * z
    if representation == "physics":
        value, n = _sum_series(
            lambda: 1.0 + 0j,
            lambda k, t: t * (-z2 / (basic_number(2 * k + 1, qp) * basic_number(2 * k + 2, qp))),
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
