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
automatically q-orthonormal.

Parity split.  The lattice is mirror-symmetric, so for an even potential
the bands ``di`` and ``sym_e`` and the odd weights each equal their own
reversal, and parity is an exact symmetry of H.  When all three do, bit for
bit, the N x N problem splits into two problems of size h = N/2 on the
right half (x > 0).  With ``c = sym_e[h-1]``, the closure coupling of
``-x0`` to ``+x0``, the even block is ``(di[h:], sym_e[h:])`` with
``di[h] + c`` and the odd block the same with ``di[h] - c``.  A block
eigenvector ``u`` embeds as ``[u[::-1], u] / sqrt(2)`` (even) or
``[-u[::-1], u] / sqrt(2)`` (odd), so each eigenfunction has an exact
parity.  The split needs 6N^2 bytes at its peak where the full solve
needs 16N^2.  Otherwise the full problem is solved.

The eigenvectors are kept as real matrices, one per block, so expanding a
state in the eigenbasis and summing it back are each one matrix product per
block; for a split, each product is half the size on folded halves of the
state.  Time evolution is purely
spectral, hence exactly unitary in the q-metric: :func:`evolve` solves
once, expands the initial state once, and synthesizes every requested
time from those coefficients times the phases ``exp(-i E_n t / hbar)``,
so no rounding carries from one time to the next.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError
from .l2q import (
    LatticeFunction,
    OperatorMatrix,
    QLattice,
    _check_same_lattice,
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

    The eigenfunctions are kept only as real arrays on the odd points of
    ``lattice``, never as a list of lattice functions: ``vectors`` gives them
    as columns, and a caller that needs one on the lattice embeds that
    column (even samples 0).

    ``blocks`` holds the eigenvectors as ``(parity, cols, U)`` triples: the
    columns of the real matrix ``U`` are the eigenfunctions numbered ``cols``
    in ``eigenvalues``.  A full solve has one block of parity ``None``, whose
    ``U`` covers all odd points in coordinate-ascending order.  A parity
    split has an even (+1) and an odd (-1) block, whose ``U`` holds the right
    half (x > 0) of each eigenfunction; its left half is ``parity * U[::-1]``.
    """

    eigenvalues: np.ndarray
    blocks: tuple
    lattice: QLattice

    @property
    def vectors(self) -> np.ndarray:
        """Real ``(n_odd, k)`` array: column n holds eigenfunction n at the
        odd points, coordinate-ascending.  Embedded from ``blocks`` on each
        access."""
        n = len(self.lattice.odd_indices)
        h = n // 2
        V = np.empty((n, len(self.eigenvalues)))
        for parity, cols, U in self.blocks:
            if parity is None:
                V[:, cols] = U
            else:
                V[h:, cols] = U
                V[:h, cols] = parity * U[::-1]
        return V


@dataclass(frozen=True, eq=False, kw_only=True)
class Hamiltonian(OperatorMatrix):
    """Tridiagonal realization of -(hbar^2/2m) D^2 + V on the odd sublattice.

    An odd-support :class:`~basicq.l2q.OperatorMatrix`: ``lo``/``di``/``up``
    are its real bands in coordinate-ascending odd ordering.  ``sym_e`` is
    the off-diagonal of the weight-conjugated symmetric form fed to the
    eigensolver, whose diagonal is ``di``.
    """

    support: str = field(default="odd", init=False)
    hbar: float
    sym_e: np.ndarray = field(repr=False)

    @property
    def n_odd(self) -> int:
        return len(self.di)


def build_hamiltonian(V, mass: float, hbar: float, lattice: QLattice) -> Hamiltonian:
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
            raise ValueError(f"complex potential rejected: V({float(xi)!r}) = {val!r}")
        if not math.isfinite(val.real):
            raise ValueError(f"non-finite potential value at x = {float(xi)!r}")
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
    return Hamiltonian(lattice=lattice, lo=lo, di=di, up=up, hbar=hbar, sym_e=sym_e)


def _mirrored(a: np.ndarray) -> bool:
    return np.array_equal(a, a[::-1])


def _eigh(d: np.ndarray, e: np.ndarray, k: int):
    """Lowest ``k`` eigenpairs of the symmetric tridiagonal matrix (d, e)."""
    if k == len(d):
        return eigh_tridiagonal(d, e)
    return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))


def _orthonormalize_clusters(evals: np.ndarray, evecs: np.ndarray):
    """Safety net for clustered eigenvalues: re-orthogonalize inside clusters."""
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] >= DEGENERACY_GAP:
            if i - start > 1:
                block, _ = np.linalg.qr(evecs[:, start:i])
                evecs[:, start:i] = block
            start = i


def _fix_signs(U: np.ndarray, parity):
    """Make each embedded eigenfunction's first significant component positive.

    A half block's eigenfunction starts with its mirror half,
    ``parity * U[::-1]``, so its first significant component is ``parity``
    times ``U`` at the last significant row.
    """
    # |v| > t is v > t or v < -t, and max |v| is max(max v, -min v), both
    # exactly: only boolean masks sit next to U, no float copy of it.
    big = 1e-8 * np.maximum(U.max(axis=0), -U.min(axis=0))
    above = U > big
    above |= U < -big
    cols = np.arange(U.shape[1])
    if parity is None:
        lead = U[np.argmax(above, axis=0), cols]
    else:
        lead = parity * U[len(U) - 1 - np.argmax(above[::-1], axis=0), cols]
    U *= np.where(lead < 0, -1.0, 1.0)


def stationary_states(H: Hamiltonian, k: int) -> SpectrumResult:
    """Lowest ``k`` eigenpairs of ``H``.

    The solver conjugates the bands by the square-root weights into real
    symmetric tridiagonal form (diagonal ``H.di``, off-diagonal
    ``H.sym_e``), so eigenvalues come out exactly real; eigenvectors are
    mapped back through the inverse weight conjugation, which makes
    them q-orthonormal with no extra normalization.  When the bands and the
    odd weights equal their own reversal bit for bit, the problem is solved
    as an even and an odd block of half the size (see the module
    docstring); each block gives its lowest ``min(k, n_odd/2)`` pairs, and
    the lowest ``k`` of both are kept (ties to the even one).  Within
    near-degenerate clusters (gap below 1e-10) of one block the vectors are
    re-orthogonalized explicitly.  Each eigenfunction's first significant
    component (the first above ``1e-8`` times its largest magnitude) is
    made positive.
    """
    n = H.n_odd
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if k > n:
        raise ValueError(f"k={k} exceeds odd-sublattice size {n}")
    if k == 0:
        return SpectrumResult(np.empty(0), ((None, np.arange(0), np.empty((n, 0))),),
                              H.lattice)
    lat = H.lattice
    h = n // 2
    if (n % 2 == 0 and _mirrored(H.di) and _mirrored(H.sym_e)
            and _mirrored(lat.w[lat.odd_indices])):
        problems = []
        for parity in (1, -1):
            d = H.di[h:].copy()
            d[0] += parity * H.sym_e[h - 1]
            problems.append((parity, d, H.sym_e[h:], min(k, h)))
    else:
        problems = [(None, H.di, H.sym_e, k)]
    try:
        solved = [_eigh(d, e, kb) for _, d, e, kb in problems]
    except Exception as exc:
        raise ConvergenceError(
            "tridiagonal eigensolver failed: %s (n=%d, diag in [%.3e, %.3e], "
            "max |offdiag| = %.3e)" % (
                exc, n, float(np.min(H.di)), float(np.max(H.di)),
                float(np.max(np.abs(H.sym_e))))) from exc

    # The lowest k of all blocks, each block's in its own ascending order.
    evals = np.concatenate([ev for ev, _ in solved])
    order = np.argsort(evals, kind="stable")[:k]
    owner = np.repeat(np.arange(len(solved)), [len(ev) for ev, _ in solved])[order]
    # Computed only now, so nothing of size n but the bands is alive
    # across a full solve.
    w = lat.w[lat.odd_indices]
    blocks = []
    for b, ((parity, *_), (ev, U)) in enumerate(zip(problems, solved)):
        _orthonormalize_clusters(ev, U)
        cols = np.flatnonzero(owner == b)
        U = U[:, :len(cols)]
        # 1/sqrt(2) of the embedding: a half vector fills both halves
        U /= np.sqrt(w if parity is None else 2.0 * w[h:])[:, None]
        _fix_signs(U, parity)
        blocks.append((parity, cols, U))
    return SpectrumResult(np.asarray(evals[order], dtype=float), tuple(blocks), lat)


def _real_times_complex(M: np.ndarray, z) -> np.ndarray:
    """``M @ z`` for a real matrix and a complex vector, as one real product.

    ``z`` enters as its (re, im) pairs, so ``M`` stays real; numpy would
    otherwise multiply through a complex copy of ``M``, twice its size.
    """
    z = np.ascontiguousarray(z, dtype=complex)
    return (M @ z.view(float).reshape(-1, 2)).view(complex)[:, 0]


def expand(psi: LatticeFunction, spectrum: SpectrumResult) -> np.ndarray:
    """Coefficients ``c_n = <psi_n, psi>``; even samples of ``psi`` carry no weight.

    Against a half block of parity p, ``<psi_n, psi>`` is ``U^T (a + p b)``,
    with ``a`` the right half of ``w psi`` and ``b`` its left half reversed.
    """
    lat = spectrum.lattice
    _check_same_lattice(psi.lattice, lat)
    idx = lat.odd_indices
    z = lat.w[idx] * psi.values[idx]
    h = len(z) // 2
    c = np.empty(len(spectrum.eigenvalues), dtype=complex)
    for parity, cols, U in spectrum.blocks:
        folded = z if parity is None else z[h:] + parity * z[:h][::-1]
        c[cols] = _real_times_complex(U.T, folded)
    return c


def synthesize(coeffs, spectrum: SpectrumResult) -> LatticeFunction:
    """Resum ``sum_n c_n psi_n`` as a function on ``spectrum.lattice`` (even
    samples 0); on a full spectrum, the inverse of :func:`expand`.

    A half block of parity p adds ``y = U c`` to the right half and ``p y``
    to the left half reversed.
    """
    coeffs = np.asarray(coeffs)
    lattice = spectrum.lattice
    vals = np.zeros(len(lattice.odd_indices), dtype=complex)
    h = len(vals) // 2
    for parity, cols, U in spectrum.blocks:
        y = _real_times_complex(U, coeffs[cols])
        if parity is None:
            vals = y
        else:
            vals[h:] += y
            vals[:h][::-1] += parity * y
    return _from_odd(lattice, vals)


def evolve(psi: LatticeFunction, H: Hamiltonian, times) -> Iterator[LatticeFunction]:
    """``psi`` propagated under ``H`` to each of ``times``, one state per time.

    One full eigensolve and one expansion ``c_n = <psi_n, psi>``, both done
    at the call (so a lattice mismatch or a failed solve raises there); the
    state at time ``t`` is synthesized from ``c_n exp(-i E_n t / hbar)`` as
    the returned iterator reaches it, so one state is alive at a time.
    Only the phases depend on ``t``, so the coefficient magnitudes, hence
    the q-norm and every spectral observable, hold to rounding at every
    time, however many are asked for.  The state's physical content is its
    odd-sublattice part (the inner product sees nothing else); output
    even-exponent samples are 0.
    """
    _check_same_lattice(psi.lattice, H.lattice)
    spec = stationary_states(H, H.n_odd)
    c = expand(psi, spec)
    return (synthesize(c * np.exp(-1j * spec.eigenvalues * t / H.hbar), spec)
            for t in times)


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


def free_particle_wave(kwav: float, lattice: QLattice) -> LatticeFunction:
    """Plane wave ``E_q(i k x)`` sampled on the lattice.

    Not q-normalizable (plane waves never are); scale the result for any
    other overall factor, as in ``2.0 * free_particle_wave(k, lattice)``.
    """
    qp = lattice.q
    return sample(lambda x: q_exp(1j * kwav * x, qp).value, lattice)
