"""Identity verification suite: every residual diagnostic under one sweep.

Each entry runs a named identity over a parameter sweep (default q in
{0.5, 0.8, 0.9, 0.95, 0.99}, |x| <= 5) and reports the worst residual
against that identity's contract tolerance.  Identities whose very
statement needs q != 1 (lattice integrals, shifted-factorial forms) are
reported as SKIP when only classical q values are requested; the rest
degrade to their classical counterparts and still must pass.

Residuals are relative to a term-magnitude scale (1 + |reference|) except
where a contract pins the absolute value.

To add an identity, write a generator ``residuals(qp)`` that yields its
residuals at one :class:`~basicq.qnum.QParam` and append a row
``(name, detail, tolerance, needs_deformation, residuals)`` to
``_IDENTITIES``; :func:`run_verify` alone sweeps q and keeps the worst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import l2q, qcalculus, qfock, qfunctions, qnum

__all__ = ["IdentityResult", "VerifyReport", "run_verify", "DEFAULT_SWEEP", "lattice_for_q"]

DEFAULT_SWEEP = (0.5, 0.8, 0.9, 0.95, 0.99)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    detail: str
    max_residual: float  # nan when skipped
    tolerance: float
    status: str  # PASS | FAIL | SKIP


@dataclass(frozen=True)
class VerifyReport:
    results: tuple
    q_values: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.results if r.status == "FAIL")


def lattice_for_q(q, x_max: float = 5.0, x_min: float = 1e-3) -> l2q.QLattice:
    """Lattice whose magnitudes span roughly [x_min, x_max] for this q.

    The default exponent window is tied to q = 0.9; rescaling it keeps the
    lattice-based identities comparable across the sweep.
    """
    qc = qnum.as_qparam(q).canonical
    m_min = math.floor(math.log(x_max) / math.log(qc))
    m_max = math.ceil(math.log(x_min) / math.log(qc))
    return l2q.build_lattice(qc, m_min, m_max)


def _rel(res: float, ref: float) -> float:
    return res / (1.0 + abs(ref))


# Smooth function corpus for the calculus identities.  Each entry returns a
# fresh callable for the given q (the deformed exponential depends on it).
def _corpus(qp):
    return [
        ("x^2", lambda x: x * x),
        ("x^3", lambda x: x**3),
        ("poly8", lambda x: 1 + x + 0.5 * x**4 + 0.125 * x**8),
        ("Eq(0.5x)", lambda x: qfunctions.q_exp(0.5 * x, qp).value),
        ("gauss", lambda x: math.exp(-min(x * x, 700.0))),
    ]


def _leibniz(qp, variant):
    fns = _corpus(qp)
    for _, f in fns[:4]:
        for _, g in fns[1:4]:
            for x in (0.3, 0.7, 1.0, 2.0, 5.0):
                lhs = qcalculus.jackson_derivative(lambda t: f(t) * g(t), x, qp)
                res = qcalculus.q_leibniz_residual(f, g, x, qp, variant)
                yield _rel(res, abs(lhs))


def _chain(qp):
    for _, f in _corpus(qp)[:3]:
        for a in (2.0, -1.0, 0.5):
            for x in (0.5, 1.0, 2.5):
                ref = qcalculus.jackson_derivative(f, x, qp) / a
                res = qcalculus.chain_scaling_residual(f, a, x, qp)
                yield _rel(res, abs(ref))


def _ft_derivative_of_integral(qp):
    for _, f in _corpus(qp):
        for x in (0.5, 1.0, 2.0, 4.0):
            dF = qcalculus.jackson_derivative(
                lambda t: qcalculus.q_integral_finite(f, t, qp), x, qp)
            yield _rel(abs(dF - f(x)), f(x))


def _ft_integral_of_derivative(qp):
    for _, f in _corpus(qp):
        for a in (1.0, 3.0, 5.0):
            val = qcalculus.q_integral_finite(
                lambda t: qcalculus.jackson_derivative(f, t, qp), a, qp)
            ref = f(a) - f(0.0)
            yield _rel(abs(val - ref), abs(ref))


def _ibp(qp, variant):
    eq = lambda x: qfunctions.q_exp(x, qp).value
    pairs = ((lambda x: x, lambda x: x * x), (lambda x: x * x, lambda x: x**3),
             (lambda x: 1.0, lambda x: x), (eq, eq))
    for f, g in pairs:
        for a in (1.0, 2.0):
            res = qcalculus.integration_by_parts_residual(f, g, a, qp, variant)
            yield _rel(res, abs(f(a) * g(a)))


def _pythagoras(qp):
    for x in (-5.0, -2.5, -1.0, 0.25, 1.0, 2.5, 5.0):
        yield qfunctions.q_pythagoras_residual(x, qp)


def _trig_derivative(qp, which):
    for a in (1.0, 2.0):
        for x in (0.3, 0.7, 1.5):
            yield qfunctions.trig_derivative_residual(x, a, qp, which)


def _wave(qp):
    for u in ("sin", "cos", "exp"):
        for a in (1.0, 1.2):
            for x in (0.5, 1.0):
                yield qfunctions.wave_equation_residual(u, a, x, qp)


def _exp_eigen(qp):
    for a in (1.5, 0.7):
        f = lambda t: qfunctions.q_exp(a * t, qp).value
        for x in (0.5, 1.0, 2.0, -1.0):
            lhs = qcalculus.jackson_derivative(f, x, qp)
            ref = a * f(x)
            yield _rel(abs(lhs - ref), abs(ref))


def _dual_integral(qp):
    for a in (0.8, 1.5):
        for x in (1.0, 2.0):
            val = qcalculus.q_integral_finite(
                lambda y: qfunctions.q_exp(a * y, qp).value, x, qp)
            ref = (qfunctions.q_exp(a * x, qp).value - 1.0) / a
            yield _rel(abs(val - ref), abs(ref))


def _factorial_bridge(qp):
    for n in range(41):
        direct = qnum.basic_factorial(n, qp)
        via = qnum.basic_factorial_via_shifted(n, qp)
        yield abs(direct - via) / direct


def _dual_representation(qp):
    for fn in (qfunctions.q_exp, qfunctions.q_sin, qfunctions.q_cos):
        for z in (0.5, 2.0, 1.0 + 0.5j, -1.2, 3.0j):
            ref = fn(z, qp).value
            alt = fn(z, qp, representation="shifted").value
            yield abs(ref - alt) / (1.0 + abs(ref))


def _fock(qp):
    for dim in (4, 8, 16):
        res = qfock.algebra_residuals(qfock.build_ladder(dim, qp))
        for key in ("defining", "raising_commutator", "lowering_commutator",
                    "occupancy", "occupancy_shifted"):
            yield res[key]


def _hermiticity(qp, parity):
    # Parity-pure pairs, paired in the q-inner product on both sublattices
    # (the momentum acts on the full lattice; see l2q.hermiticity_residual):
    # the defect is rounding at every q.  Generic mixed pairs are held to
    # 1e-8 by acceptance criterion 4, where the lattice edges leave a small
    # remainder that shrinks as the lattice widens.
    p = l2q.momentum_matrix(lattice_for_q(qp))
    yield l2q.hermiticity_residual(p, trials=8, seed=7, parity=parity)


# (name, detail, tolerance, needs_deformation, residuals at one QParam)
_IDENTITIES = (
    ("leibniz-1", "D(fg)(x) = Df(x) g(x/q) + f(qx) Dg(x)",
     1e-10, True, lambda qp: _leibniz(qp, 1)),
    ("leibniz-2", "D(fg)(x) = Df(x) g(qx) + f(x/q) Dg(x)",
     1e-10, True, lambda qp: _leibniz(qp, 2)),
    ("chain-scaling", "D_{ax} f = (1/a) D_x f", 1e-12, True, _chain),
    ("fundamental-deriv-of-int", "D_x int_0^x f d_q t = f(x)",
     1e-10, True, _ft_derivative_of_integral),
    ("fundamental-int-of-deriv", "int_0^a D f d_q x = f(a) - f(0)",
     1e-9, True, _ft_integral_of_derivative),
    ("by-parts-shifted-q", "int f Dg = [f(qx) g]_0^a - int D[f(qx)] g(qx)",
     1e-9, True, lambda qp: _ibp(qp, "shifted-q")),
    ("by-parts-shifted-qinv", "int f Dg = [f(x/q) g]_0^a - int D[f(x/q)] g(x/q)",
     1e-9, True, lambda qp: _ibp(qp, "shifted-qinv")),
    ("q-pythagoras", "S(x/q) S(x) + C(x/q) C(x) = 1", 1e-10, False, _pythagoras),
    ("trig-deriv-sin", "D S(ax) = a C(ax)", 1e-10, False, lambda qp: _trig_derivative(qp, "sin")),
    ("trig-deriv-cos", "D C(ax) = -a S(ax)", 1e-10, False, lambda qp: _trig_derivative(qp, "cos")),
    ("wave-equation", "D^2 u + a^2 u = 0 for u in {S, C, E(i a x)}", 1e-9, False, _wave),
    ("exp-eigenrelation", "D E(ax) = a E(ax)", 1e-10, False, _exp_eigen),
    ("dual-integral", "int_0^x E(ay) d_q y = (E(ax) - 1)/a", 1e-9, True, _dual_integral),
    ("factorial-bridge", "[n]! via (1-q^2)^n q^{n(n-1)/2} / (q^2; q^2)_n",
     1e-12, True, _factorial_bridge),
    ("dual-representation", "physics vs shifted-factorial series for E, S, C",
     1e-11, True, _dual_representation),
    ("fock-algebra", "a adag - q adag a = q^{-N}; [N, a] = -a; [N, adag] = adag",
     1e-13, False, _fock),
    ("momentum-hermiticity-even",
     "<phi, p psi> = <p phi, psi>, both-sublattice q-inner product, even pairs",
     1e-8, True, lambda qp: _hermiticity(qp, "even")),
    ("momentum-hermiticity-odd",
     "<phi, p psi> = <p phi, psi>, both-sublattice q-inner product, odd pairs",
     1e-8, True, lambda qp: _hermiticity(qp, "odd")),
)


def run_verify(q_values=DEFAULT_SWEEP, tol_override: float | None = None) -> VerifyReport:
    """Run the full identity suite over ``q_values``.

    ``tol_override`` replaces every identity's tolerance (useful to
    demonstrate the failure-report format with an unattainable value).
    """
    qs = tuple(float(q) for q in q_values)
    if not qs:
        raise ValueError("q_values must be nonempty")
    for q in qs:
        if not (q > 0) or not math.isfinite(q):
            raise ValueError(f"q values must be finite and positive, got {q!r}")
    qps = tuple(qnum.as_qparam(q) for q in qs)
    results = []
    for name, detail, tol, needs_deform, residuals in _IDENTITIES:
        if tol_override is not None:
            tol = tol_override
        eligible = [qp for qp in qps if not (needs_deform and qp.classical)]
        if not eligible:
            results.append(IdentityResult(name, detail, float("nan"), tol, "SKIP"))
            continue
        worst = 0.0
        for qp in eligible:
            worst = max(worst, *residuals(qp))
        residual = float(worst)
        status = "PASS" if residual <= tol else "FAIL"
        results.append(IdentityResult(name, detail, residual, tol, status))
    return VerifyReport(tuple(results), qs)
