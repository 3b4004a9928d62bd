"""Deformed Schrödinger solver on the two-sided q-lattice.

The Hamiltonian  H = -(hbar^2 / 2 mass) D^2 + V(x)  acts on the odd-exponent
sublattice (the carrier of the q-inner product): the two-step Jackson
stencil

    D^2 psi(x) = [psi(q^2 x)/q - (q + 1/q) psi(x) + q psi(x/q^2)] / ((q - 1/q) x)^2

couples a point only to its same-branch neighbors two exponents away, so in
coordinate-ascending odd ordering H is exactly tridiagonal.

Boundary closure.  Past the outer end the missing sample is 0 (decay at
infinity).  Past the inner end, ``psi(q^2 x)`` for the innermost odd point
of each branch is filled by linear interpolation across the origin between
the two innermost odd points ``+-x0``:

    psi(q^2 x0) ~ [(1 + q^2) psi(x0) + (1 - q^2) psi(-x0)] / 2 .

This closure is the one choice that is simultaneously (i) exact for
constant and linear functions, (ii) symmetric under the integration
weights, so the spectrum is exactly real, and (iii) coupling the two
branches at the origin, so the classical limit recovers both parity sectors
instead of a doubled even spectrum.  In the lattice order the mirror point
``-x0`` sits where the toward-zero neighbor would, at ``j - sign``.

The solver conjugates the bands by the square-root weights itself,
W^{1/2} H W^{-1/2}, which turns q-Hermiticity into real symmetric
tridiagonal form; eigenvectors mapped back through W^{-1/2} are
automatically q-orthonormal.  They are kept as the columns of one real
matrix, ``SpectrumResult.vectors``, so expanding a state in the eigenbasis
and summing it back are each one matrix product.  Time evolution is purely
spectral, hence exactly unitary in the q-metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError
from .l2q import (
    LatticeFunction,
    OperatorMatrix,
    QLattice,
    _from_odd,
    _neighbor,
    _off_diagonals,
    inner_product,
    q_norm,
    sample,
)
from .qfunctions import q_exp

__all__ = [
    "Hamiltonian",
    "SpectrumResult",
    "WaveState",
    "build_hamiltonian",
    "stationary_states",
    "evolve",
    "expectation",
    "fluctuation",
    "expand",
    "synthesize",
    "free_particle_wave",
]

DEGENERACY_GAP = 1e-10


@dataclass(eq=False)
class SpectrumResult:
    """Ascending real eigenvalues and q-orthonormal eigenfunctions.

    ``vectors`` is a real ``(n_odd, k)`` array: column n holds eigenfunction
    n at the odd points of ``lattice``, in coordinate-ascending order.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    lattice: QLattice

    @property
    def eigenfunctions(self) -> list:
        """The columns of ``vectors`` as lattice functions, built on each access."""
        return [_from_odd(self.lattice, v) for v in self.vectors.T]


@dataclass(eq=False)
class WaveState:
    """A lattice wavefunction at a point in time."""

    psi: LatticeFunction
    t: float = 0.0


@dataclass(frozen=True, eq=False, kw_only=True)
class Hamiltonian(OperatorMatrix):
    """Tridiagonal realization of -(hbar^2/2m) D^2 + V on the odd sublattice.

    An odd-support :class:`~basicq.l2q.OperatorMatrix`: ``lo``/``di``/``up``
    are its real bands in coordinate-ascending odd ordering.  ``sym_e`` is
    the off-diagonal of the weight-conjugated symmetric form fed to the
    eigensolver, whose diagonal is ``di``.  The full spectrum is computed
    on first use and cached.
    """

    support: str = field(default="odd", init=False)
    potential: object
    mass: float
    hbar: float
    sym_e: np.ndarray = field(repr=False)
    potential_text: str | None = None
    _spectrum: SpectrumResult | None = field(default=None, init=False, repr=False)

    @property
    def n_odd(self) -> int:
        return len(self.di)

    def full_spectrum(self) -> SpectrumResult:
        """All eigenpairs, computed once and cached."""
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", stationary_states(self, self.n_odd))
        return self._spectrum


def build_hamiltonian(V, mass: float, hbar: float, lattice: QLattice,
                      potential_text: str | None = None) -> Hamiltonian:
    """Assemble the Hamiltonian for potential ``V`` (a callable of x).

    ``V`` must be real on the lattice (a complex value breaks Hermiticity
    and is rejected), ``mass`` and ``hbar`` positive.

    Examples
    --------
    >>> from .l2q import default_lattice
    >>> H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, default_lattice())
    >>> H.n_odd
    76
    """
    if not (mass > 0):
        raise ValueError(f"mass must be > 0, got {mass!r}")
    if not (hbar > 0):
        raise ValueError(f"hbar must be > 0, got {hbar!r}")
    qc = lattice.q
    idx = lattice.odd_indices
    n = len(idx)
    x = lattice.x[idx]
    w = lattice.w[idx]
    sgn = lattice.sign[idx]
    ms = lattice.m[idx]

    v = np.empty(n)
    for j, xi in enumerate(x):
        val = complex(V(xi))
        if val.imag != 0.0:
            raise ValueError(f"complex potential rejected: V({xi!r}) = {val!r}")
        if not math.isfinite(val.real):
            raise ValueError(f"non-finite potential value at x = {xi!r}")
        v[j] = val.real

    kin = -hbar * hbar / (2.0 * mass)
    j = np.arange(n)
    toward, has_toward = _neighbor(sgn, ms, 1, lattice, stride=2)
    away, has_away = _neighbor(sgn, ms, -1, lattice, stride=2)
    inner = ~has_toward  # innermost odd point of each branch
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = 1.0 / ((qc - 1.0 / qc) ** 2 * x * x)
        di = kin * (-(qc + 1.0 / qc)) * K + v
        di[inner] += kin * K[inner] / qc * (1.0 + qc * qc) / 2.0
        # Toward zero (m + 2) the coefficient couples to the neighbor, or at
        # the inner end to the mirror point, both at index j - s; away from
        # zero (m - 2) past the outer end there is nothing (zero fill).
        c_toward = np.where(has_toward, kin * K / qc,
                            kin * K / qc * (1.0 - qc * qc) / 2.0)
        c_away = kin * K * qc
    lo, up = _off_diagonals(n, (j, toward, c_toward),
                            (j[has_away], away[has_away], c_away[has_away]))
    if not all(np.all(np.isfinite(band)) for band in (lo, di, up)):
        raise ValueError(
            "Hamiltonian bands are not finite at the innermost |x| = %.3g: "
            "m_max = %d is too large for q = %r"
            % (float(np.min(np.abs(x))), lattice.m_max, qc))

    root = np.sqrt(w)
    sym_e = 0.5 * (up * root[:-1] / root[1:] + lo * root[1:] / root[:-1])
    return Hamiltonian(lattice=lattice, lo=lo, di=di, up=up, potential=V,
                       mass=mass, hbar=hbar, sym_e=sym_e,
                       potential_text=potential_text)


def stationary_states(H: Hamiltonian, k: int) -> SpectrumResult:
    """Lowest ``k`` eigenpairs of ``H``.

    The solver conjugates the bands by the square-root weights into real
    symmetric tridiagonal form (diagonal ``H.di``, off-diagonal
    ``H.sym_e``), so eigenvalues come out exactly real; eigenvectors are
    mapped back through the inverse weight conjugation, which makes
    them q-orthonormal with no extra normalization.  Within near-degenerate
    clusters (gap below 1e-10) the block is re-orthogonalized explicitly.
    Each eigenfunction's first significant component (the first above
    ``1e-8`` times its largest magnitude) is made positive.  They are
    returned as the columns of the real ``(n_odd, k)`` array ``vectors``.
    """
    n = H.n_odd
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if k > n:
        raise ValueError(f"k={k} exceeds odd-sublattice size {n}")
    if k == 0:
        return SpectrumResult(np.empty(0), np.empty((n, 0)), H.lattice)
    try:
        if k == n:
            evals, evecs = eigh_tridiagonal(H.di, H.sym_e)
        else:
            evals, evecs = eigh_tridiagonal(
                H.di, H.sym_e, select="i", select_range=(0, k - 1))
    except Exception as exc:
        raise ConvergenceError(
            "tridiagonal eigensolver failed: %s (n=%d, diag in [%.3e, %.3e], "
            "max |offdiag| = %.3e)" % (
                exc, n, float(np.min(H.di)), float(np.max(H.di)),
                float(np.max(np.abs(H.sym_e))))) from exc

    # Safety net for clustered eigenvalues: re-orthogonalize inside blocks.
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] >= DEGENERACY_GAP:
            if i - start > 1:
                block, _ = np.linalg.qr(evecs[:, start:i])
                evecs[:, start:i] = block
            start = i

    evecs /= np.sqrt(H.lattice.w[H.lattice.odd_indices])[:, None]
    mag = np.abs(evecs)
    first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    evecs *= np.where(evecs[first, np.arange(len(evals))] < 0, -1.0, 1.0)
    return SpectrumResult(np.asarray(evals, dtype=float), evecs, H.lattice)


def _real_times_complex(M: np.ndarray, z) -> np.ndarray:
    """``M @ z`` for a real matrix and a complex vector, as one real product.

    ``z`` enters as its (re, im) pairs, so ``M`` stays real; numpy would
    otherwise multiply through a complex copy of ``M``, twice its size.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    return (M @ z.view(float).reshape(-1, 2)).view(complex)[:, 0]


def expand(psi: LatticeFunction, spectrum: SpectrumResult) -> np.ndarray:
    """Coefficients ``c_n = <psi_n, psi>``; even samples of ``psi`` carry no weight."""
    lat = spectrum.lattice
    if psi.lattice is not lat and not psi.lattice.compatible(lat):
        raise ValueError("lattice mismatch")
    idx = lat.odd_indices
    return _real_times_complex(spectrum.vectors.T, lat.w[idx] * psi.values[idx])


def synthesize(coeffs, spectrum: SpectrumResult, lattice: QLattice) -> LatticeFunction:
    """Resum ``sum_n c_n psi_n`` as a lattice function (even samples 0)."""
    return _from_odd(lattice, _real_times_complex(spectrum.vectors, coeffs))


def evolve(state: WaveState, H: Hamiltonian, dt: float, steps: int) -> WaveState:
    """Propagate by ``steps`` steps of size ``dt`` through the full spectrum.

    Each eigencoefficient picks up ``exp(-i E_n dt steps / hbar)``; the
    coefficient magnitudes are untouched, so the q-norm and every spectral
    observable are conserved to rounding.  The state's physical content is
    its odd-sublattice part (the inner product sees nothing else); output
    even-exponent samples are 0.
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 0:
        raise ValueError(f"steps must be a non-negative integer, got {steps!r}")
    if state.psi.lattice is not H.lattice and not state.psi.lattice.compatible(H.lattice):
        raise ValueError("lattice mismatch")
    if steps == 0:
        return WaveState(state.psi, state.t)
    spec = H.full_spectrum()
    c = expand(state.psi, spec)
    phases = np.exp(-1j * spec.eigenvalues * (dt * steps) / H.hbar)
    psi_t = synthesize(c * phases, spec, H.lattice)
    return WaveState(psi_t, state.t + dt * steps)


def _require_normalized(psi: LatticeFunction):
    nrm = q_norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state not q-normalized: ||psi||_q = {nrm!r}")


def _mean(A: OperatorMatrix, psi: LatticeFunction, a_psi: LatticeFunction) -> complex:
    """``<psi, a_psi> / <psi, psi>`` in the q-inner product on ``A.support``."""
    return inner_product(psi, a_psi, A.support) / q_norm(psi, A.support) ** 2


def expectation(A: OperatorMatrix, psi: LatticeFunction) -> complex:
    """Mean value ``<psi, A psi>_q / <psi, psi>_q`` for a q-normalized state.

    ``A`` is an OperatorMatrix.  The pairing is taken in the q-inner
    product on ``A.support``, the measure in which
    :func:`~basicq.l2q.hermiticity_residual` checks ``A``, so the result is
    real to 1e-9 whenever ``A`` meets the Hermiticity contract.  On states
    whose even samples vanish (eigenstates, evolved states) both measures
    give the same value.
    """
    _require_normalized(psi)
    return _mean(A, psi, A.apply(psi))


def fluctuation(A: OperatorMatrix, psi: LatticeFunction) -> float:
    """Variance ``<psi, (A - <A>)^2 psi>_q``; vanishes on eigenstates of A."""
    mean = expectation(A, psi)
    dev = A.apply(psi) - mean * psi
    return _mean(A, psi, A.apply(dev) - mean * dev).real


def free_particle_wave(kwav: float, lattice: QLattice,
                       normalization: complex = 1.0) -> LatticeFunction:
    """Plane wave ``N E_q(i k x)`` sampled on the lattice.

    Not q-normalizable (plane waves never are); ``normalization`` is the
    caller's overall factor, default 1.
    """
    qp = lattice.q
    return sample(lambda x: normalization * q_exp(1j * kwav * x, qp).value, lattice)
