"""Numerical toolkit for the symmetric q-deformed calculus.

Covers basic numbers and factorials, the Jackson derivative and its
integrals, deformed exponential/trigonometric functions in two series
representations, the deformed oscillator ladder algebra, square-summable
functions on the geometric lattice with the q-inner product, and a
Schrödinger solver (stationary states, spectral time evolution) on that
lattice, plus a small expression language and a CLI.
"""

from __future__ import annotations

from .errors import (
    BasicQError,
    ConvergenceError,
    EvaluationError,
    ExpressionError,
    ParseError,
)
from .qnum import (
    CLASSICAL_EPS,
    QParam,
    as_qparam,
    basic_factorial,
    basic_factorial_via_shifted,
    basic_number,
    q_shifted_factorial,
)
from ._summation import DEFAULT_TOL
from .qcalculus import (
    jackson_derivative,
    q_integral_finite,
    q_integral_fullline,
    q_integral_halfline,
)
from .qfunctions import QSpecialValue, q_cos, q_exp, q_sin
from .qfock import LadderTriple, algebra_residuals, build_ladder, fock_state
from .l2q import (
    LatticeFunction,
    OperatorMatrix,
    QLattice,
    build_lattice,
    default_lattice,
    derivative_matrix,
    hermiticity_residual,
    inner_product,
    momentum_matrix,
    position_matrix,
    q_norm,
    sample,
)
from .qschrodinger import (
    Hamiltonian,
    SpectrumResult,
    build_hamiltonian,
    evolve,
    expand,
    expectation,
    free_particle_wave,
    stationary_states,
    synthesize,
)
from .exprparse import evaluate, parse

__version__ = "0.1.0"


def __getattr__(name):
    # The identity suite is imported when it is first asked for, not with
    # the package: only ``basicq verify`` runs it.
    if name == "run_verify":
        from .verify import run_verify
        return run_verify
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BasicQError",
    "ConvergenceError",
    "EvaluationError",
    "ExpressionError",
    "ParseError",
    "CLASSICAL_EPS",
    "QParam",
    "as_qparam",
    "basic_factorial",
    "basic_factorial_via_shifted",
    "basic_number",
    "q_shifted_factorial",
    "DEFAULT_TOL",
    "jackson_derivative",
    "q_integral_finite",
    "q_integral_fullline",
    "q_integral_halfline",
    "QSpecialValue",
    "q_cos",
    "q_exp",
    "q_sin",
    "LadderTriple",
    "algebra_residuals",
    "build_ladder",
    "fock_state",
    "LatticeFunction",
    "OperatorMatrix",
    "QLattice",
    "build_lattice",
    "default_lattice",
    "derivative_matrix",
    "hermiticity_residual",
    "inner_product",
    "momentum_matrix",
    "position_matrix",
    "q_norm",
    "sample",
    "Hamiltonian",
    "SpectrumResult",
    "build_hamiltonian",
    "evolve",
    "expand",
    "expectation",
    "free_particle_wave",
    "stationary_states",
    "synthesize",
    "evaluate",
    "parse",
    "run_verify",
    "__version__",
]
