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
residuals (floats or arrays) at one :class:`~basicq.qnum.QParam` and append
a row ``(name, detail, tolerance, needs_deformation, residuals)`` to
``_IDENTITIES``; :func:`run_verify` alone sweeps q and keeps the worst.  A
NaN residual makes its row FAIL, with ``max_residual`` NaN, and so does a
generator that raises ArithmeticError, ConvergenceError or ValueError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import l2q, qcalculus, qfock, qfunctions, qnum
from .errors import ConvergenceError
from .l2q import DEFAULT_SWEEP
from .qcalculus import DEFAULT_TOL, SplitComplex

__all__ = ["IdentityResult", "VerifyReport", "run_verify", "DEFAULT_SWEEP"]


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


def _rel(res: float, ref: float) -> float:
    return res / (1.0 + abs(ref))


def _pypow(x, n):
    """``x**n`` per element by CPython's float power, as the scalar
    identities computed it (numpy's ``power`` rounds differently)."""
    x = np.asarray(x, dtype=float)
    powers = map(pow, x.ravel().tolist(), itertools.repeat(n))
    return np.fromiter(powers, float, x.size).reshape(x.shape)


def _gauss(x):
    """``exp(-min(x^2, 700))`` per element by ``math.exp`` (numpy's ``exp``
    rounds differently)."""
    x = np.asarray(x, dtype=float)
    arg = (-np.minimum(x * x, 700.0)).ravel().tolist()
    return np.fromiter(map(math.exp, arg), float, x.size).reshape(x.shape)


def _real(fn):
    return lambda x: SplitComplex(fn(x))


# Smooth function corpus for the calculus identities.  Each entry maps an
# array of points to a SplitComplex of values, so every identity below is
# one array expression per q whose elements are bit for bit the scalar
# ones; the deformed exponential depends on q and is read through the
# memoized adapter qfunctions._values.
def _corpus(qp):
    return [
        ("x^2", _real(lambda x: x * x)),
        ("x^3", _real(lambda x: _pypow(x, 3))),
        ("poly8", _real(lambda x: 1 + x + 0.5 * _pypow(x, 4) + 0.125 * _pypow(x, 8))),
        ("Eq(0.5x)", qfunctions._values("exp", qp, 0.5)),
        ("gauss", _real(_gauss)),
    ]


def _leibniz(qp, variant):
    fns = _corpus(qp)
    x = np.array([0.3, 0.7, 1.0, 2.0, 5.0])
    for _, f in fns[:4]:
        for _, g in fns[1:4]:
            lhs = qcalculus.jackson_derivative(lambda t: f(t) * g(t), x, qp)
            res = qcalculus.q_leibniz_residual(f, g, x, qp, variant)
            yield _rel(res, abs(lhs))


def _chain(qp):
    x = np.array([0.5, 1.0, 2.5])
    for _, f in _corpus(qp)[:3]:
        for a in (2.0, -1.0, 0.5):
            ref = qcalculus.jackson_derivative(f, x, qp) / a
            res = qcalculus.chain_scaling_residual(f, a, x, qp)
            yield _rel(res, abs(ref))


def _integral(f, qp):
    """``t -> int_0^t f d_q x`` on arrays of upper limits."""
    return lambda t: SplitComplex(qcalculus.q_integral_finite(f, t, qp))


def _ft_derivative_of_integral(qp):
    x = np.array([0.5, 1.0, 2.0, 4.0])
    for _, f in _corpus(qp):
        dF = qcalculus.jackson_derivative(_integral(f, qp), x, qp)
        yield _rel(abs(dF - f(x)), f(x))


def _ft_integral_of_derivative(qp):
    a = np.array([1.0, 3.0, 5.0])
    for _, f in _corpus(qp):
        val = _integral(lambda t: qcalculus.jackson_derivative(f, t, qp), qp)(a)
        ref = f(a) - f(0.0)
        yield _rel(abs(val - ref), abs(ref))


def _ibp(qp, variant):
    eq = qfunctions._values("exp", qp)
    pairs = ((_real(lambda x: x), _real(lambda x: x * x)),
             (_real(lambda x: x * x), _real(lambda x: _pypow(x, 3))),
             (_real(np.ones_like), _real(lambda x: x)), (eq, eq))
    a = np.array([1.0, 2.0])
    for f, g in pairs:
        res = qcalculus.integration_by_parts_residual(f, g, a, qp, variant)
        yield _rel(res, abs(f(a) * g(a)))


def _pythagoras(qp):
    yield qfunctions.q_pythagoras_residual(np.array([-5.0, -2.5, -1.0, 0.25, 1.0, 2.5, 5.0]), qp)


def _trig_derivative(qp, which):
    for a in (1.0, 2.0):
        yield qfunctions.trig_derivative_residual(np.array([0.3, 0.7, 1.5]), a, qp, which)


def _wave(qp):
    for u in ("sin", "cos", "exp"):
        for a in (1.0, 1.2):
            yield qfunctions.wave_equation_residual(u, a, np.array([0.5, 1.0]), qp)


def _exp_eigen(qp):
    x = np.array([0.5, 1.0, 2.0, -1.0])
    for a in (1.5, 0.7):
        eq = qfunctions._values("exp", qp, a)
        lhs = qcalculus.jackson_derivative(eq, x, qp)
        ref = a * eq(x)
        yield _rel(abs(lhs - ref), abs(ref))


def _dual_integral(qp):
    x = np.array([1.0, 2.0])
    for a in (0.8, 1.5):
        eq = qfunctions._values("exp", qp, a)
        val = _integral(eq, qp)(x)
        ref = (eq(x) - 1.0) / a
        yield _rel(abs(val - ref), abs(ref))


def _factorial_bridge(qp):
    # Where [n]! is past float range, both routes give inf: nothing to compare.
    for n in range(41):
        direct = qnum.basic_factorial(n, qp)
        if math.isfinite(direct):
            via = qnum.basic_factorial_via_shifted(n, qp)
            yield abs(direct - via) / direct


def _dual_representation(qp):
    z = np.array([0.5, 2.0, 1.0 + 0.5j, -1.2, 3.0j])
    for kind in ("exp", "sin", "cos"):
        ref, alt = (SplitComplex(qfunctions._series(kind, z, qp, DEFAULT_TOL, rep).value)
                    for rep in ("physics", "shifted"))
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
    p = l2q.momentum_matrix(l2q.build_lattice(qp, *l2q.default_window(qp)))
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


def run_verify(q_values=DEFAULT_SWEEP) -> VerifyReport:
    """Run the full identity suite over ``q_values``."""
    qs = tuple(float(q) for q in q_values)
    if not qs:
        raise ValueError("q_values must be nonempty")
    for q in qs:
        if not (q > 0) or not math.isfinite(q):
            raise ValueError(f"q values must be finite and positive, got {q!r}")
    qps = tuple(qnum.as_qparam(q) for q in qs)
    results = []
    for name, detail, tol, needs_deform, residuals in _IDENTITIES:
        eligible = [qp for qp in qps if not (needs_deform and qp.classical)]
        if not eligible:
            results.append(IdentityResult(name, detail, float("nan"), tol, "SKIP"))
            continue
        try:  # a row whose values or points leave float range fails (NaN)
            with np.errstate(all="ignore"):
                values = np.concatenate([np.ravel(r) for qp in eligible for r in residuals(qp)])
        except (ArithmeticError, ConvergenceError, ValueError):  # ValueError: a point hits x = 0
            values = np.array([math.nan])
        # A NaN residual fails its row: the worst residual is then unknown.
        residual = float("nan") if np.isnan(values).any() else float(values.max(initial=0.0))
        status = "PASS" if residual <= tol else "FAIL"
        results.append(IdentityResult(name, detail, residual, tol, status))
    return VerifyReport(tuple(results), qs)
