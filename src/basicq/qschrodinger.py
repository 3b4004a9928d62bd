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
instead of a doubled even spectrum.  In the band layout of :mod:`basicq.l2q`
the two innermost odd points are the middle pair, ``h - 1`` and ``h``, so
the closure fills the toward-zero slot that couples them.

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
eigenvector ``u`` unfolds onto the odd points as ``[u[::-1], u] / sqrt(2)``
(even) or ``[-u[::-1], u] / sqrt(2)`` (odd), so each eigenfunction has an
exact parity; one function, ``_unfold``, does this for every eigenvector,
coefficient sum and evolved state, and ``_expand_block`` folds a state the
adjoint way.  Otherwise the full problem is solved.  A full solve needs 16N^2
bytes at its peak (eigenvectors and LAPACK workspace); a split needs 4N^2
per block, and :func:`stationary_states` 6N^2, as it keeps the even
block's eigenvectors across the odd block's solve.

The eigenvectors are kept as real matrices, one per block, so expanding a
state in the eigenbasis and summing it back are each one matrix product per
block; for a split, each product is half the size on folded halves of the
state.  Time evolution is purely spectral, hence exactly unitary in the
q-metric: :func:`evolve` solves each block once, expands the initial state
on it once, and synthesizes every requested time from those coefficients
times the phases ``exp(-i E_n t / hbar)``, so no rounding carries from one
time to the next.  It works one block at a time: a block whose parts of the
state at all T requested times take less room than its eigenvectors (2T <
N/2 for a half block) has them computed and its eigenvectors dropped before
anything else is solved or returned, so a split ``evolve`` peaks at 4N^2;
otherwise it keeps them, and peaks at 6N^2 as :func:`stationary_states`.

Every product on eigenvectors is one real BLAS call per state and block,
on scipy's BLAS, the one its LAPACK solves with: numpy and scipy each ship
an OpenBLAS with a thread pool of its own, and numpy's threads keep spinning
after a product and slow the next block's solve on scipy's.  The call is
the one numpy's ``@`` makes, so the values are bit for bit those of ``@``.
Parts are not batched over times: OpenBLAS blocks a product over many
right-hand sides differently, and it does not give each time's values bit
for bit.

A split ``evolve`` peaks at its odd block's solve: writing the snapshots
stays under that level, as :func:`basicq.l2q.to_csv` holds one block of
rows' values as Python objects at a time and the text reuses heap the solve
has freed.  Two things no output needs are not resident at that solve:
:func:`evolve` leaves out the sign convention's pass over the even block's
eigenvectors, and the CLI imports :mod:`basicq.verify` only for ``verify``.
``BENCH_25.json``, ``BENCH_29.json`` and ``BENCH_30.json`` record the
measured peaks and times.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dgemm, dgemv

from .errors import ConvergenceError, first_nonfinite
from .l2q import (
    LatticeFunction,
    OperatorMatrix,
    QLattice,
    _check_same_lattice,
    _from_odd,
    _read,
    inner_product,
    q_norm,
    sample,
)
from .qfunctions import q_exp
from .qnum import as_int

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


@dataclass(eq=False)
class SpectrumResult:
    """Ascending real eigenvalues and q-orthonormal eigenfunctions.

    The eigenfunctions are kept only as real arrays on the odd points of
    ``lattice``, never as a list of lattice functions: ``vectors`` gives them
    as columns and ``vector(n)`` one of them alone, and a caller that needs
    one on the lattice places that column on the odd points (even samples 0).

    ``blocks`` holds the eigenvectors as ``(parity, cols, U)`` triples: the
    columns of the real matrix ``U`` are the eigenfunctions numbered ``cols``
    (ascending) in ``eigenvalues``.  It holds exactly the blocks that own an
    eigenpair, so none when ``k = 0``.  A full solve's block has parity
    ``None``, and its ``U`` covers all odd points in coordinate-ascending
    order.  A parity split gives an even (+1) and an odd (-1) block, whose
    ``U`` holds the right half (x > 0) of each eigenfunction; its left half
    is ``parity * U[::-1]``.
    """

    eigenvalues: np.ndarray
    blocks: tuple
    lattice: QLattice

    @property
    def vectors(self) -> np.ndarray:
        """Real ``(n_odd, k)`` array: column n holds eigenfunction n at the
        odd points, coordinate-ascending.  Unfolded from ``blocks`` on each
        access."""
        V = np.empty((len(self.lattice.odd_indices), len(self.eigenvalues)))
        for parity, cols, U in self.blocks:
            V[:, cols] = _unfold(parity, U)
        return V

    def vector(self, n: int) -> np.ndarray:
        """Column ``n`` of :attr:`vectors`, unfolded from its block's column
        alone: eigenfunction ``n`` at the odd points, with no ``(n_odd, k)``
        array built."""
        for parity, cols, U in self.blocks:
            j = int(np.searchsorted(cols, n))
            if j < len(cols) and cols[j] == n:
                v = _unfold(parity, U[:, j])
                # A full block's column is a view: copied, so writes miss U.
                return v.copy() if parity is None else v
        raise IndexError(f"eigenfunction {n} out of range for k = {len(self.eigenvalues)}")


def _unfold(parity, y: np.ndarray) -> np.ndarray:
    """A block's values ``y`` on all odd points, coordinate-ascending: a
    full block's (``parity`` None) as they are, a half block's ``y`` on the
    right half and ``parity * y[::-1]`` on the left.  ``y`` is a vector or a
    matrix of columns.  Its adjoint, the fold ``z[h:] + parity * z[:h][::-1]``
    of odd-point values onto a half block, is :func:`_expand_block`'s."""
    return y if parity is None else np.concatenate((parity * y[::-1], y))


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
    and is rejected) and finite, ``mass`` and ``hbar`` positive.  ``V`` is
    read on the odd points as :func:`~basicq.l2q.sample` reads a state: the
    first refused point in lattice order wins before any later point is read.

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

    vals = _read(V, x, real=True)
    # A complex value reads as NaN here, so j is the first refused point.
    j = first_nonfinite(np.where(vals.imag == 0.0, vals.real, np.nan))
    if j is not None:
        if vals[j].imag != 0.0:
            raise ValueError(
                f"complex potential rejected: V({float(x[j])!r}) = {complex(vals[j])!r}")
        raise ValueError(f"non-finite potential value at x = {float(x[j])!r}")
    v = vals.real

    kin = -hbar * hbar / (2.0 * mass)
    h = n // 2  # the innermost odd points are h - 1 and h
    try:
        c2 = (qc - 1.0 / qc) ** 2
    except OverflowError:
        raise ValueError(
            "Hamiltonian stencil factor (q - 1/q)^2 overflows at q = %r "
            "(innermost |x| = %.3g)" % (qc, float(np.min(np.abs(x))))) from None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = 1.0 / (c2 * x * x)
        di = kin * (-(qc + 1.0 / qc)) * K + v
        di[h - 1:h + 1] += kin * K[h - 1:h + 1] / qc * (1.0 + qc * qc) / 2.0
        # Toward zero (m + 2) the coefficient couples to the neighbor, or at
        # the inner end to the mirror point; away from zero (m - 2) past the
        # outer end there is nothing (zero fill).  + 0.0 turns the -0.0
        # coupling where x * x overflows into 0.0.
        toward = kin * K / qc
        toward[h - 1:h + 1] = toward[h - 1:h + 1] * (1.0 - qc * qc) / 2.0
        away = kin * K * qc
    lo = np.concatenate([away[1:h], toward[h:]]) + 0.0
    up = np.concatenate([toward[:h], away[h:-1]]) + 0.0
    if any(first_nonfinite(band) is not None for band in (lo, di, up)):
        raise ValueError(
            "Hamiltonian bands are not finite at the innermost |x| = %.3g: "
            "m_max = %d is too large for q = %r"
            % (float(np.min(np.abs(x))), lattice.m_max, qc))

    root = np.sqrt(lattice.w[idx])
    sym_e = 0.5 * (up * root[:-1] / root[1:] + lo * root[1:] / root[:-1])
    return Hamiltonian(lattice=lattice, lo=lo, di=di, up=up, hbar=hbar, sym_e=sym_e)


def _mirrored(a: np.ndarray) -> bool:
    return np.array_equal(a, a[::-1])


def _eigh(d: np.ndarray, e: np.ndarray, k: int):
    """Lowest ``k`` eigenpairs of the symmetric tridiagonal matrix (d, e).

    A partial solve bisects to ``2 * tiny``, to relative accuracy; bisection
    to the default eps * ||T|| loses the low eigenvalues of wide bands."""
    if k == len(d):
        return eigh_tridiagonal(d, e)
    return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                            lapack_driver="stebz", tol=2 * np.finfo(float).tiny)


def _fix_signs(U: np.ndarray, parity):
    """Make each unfolded eigenfunction's first significant component positive.

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


def _problems(H: Hamiltonian, k: int) -> list:
    """The blocks to solve for the lowest ``k`` pairs, as ``(parity, d, e,
    k_block)``: an even and an odd half block when the bands and the odd
    weights equal their own reversal bit for bit, else the whole of ``H``."""
    n = H.n_odd
    h = n // 2
    lat = H.lattice
    if not (n % 2 == 0 and _mirrored(H.di) and _mirrored(H.sym_e)
            and _mirrored(lat.w[lat.odd_indices])):
        return [(None, H.di, H.sym_e, k)]
    problems = []
    for parity in (1, -1):
        d = H.di[h:].copy()
        d[0] += parity * H.sym_e[h - 1]
        problems.append((parity, d, H.sym_e[h:], min(k, h)))
    return problems


def _solve_block(H: Hamiltonian, problem) -> tuple:
    """``(parity, ev, U)`` of one block from :func:`_problems`: its lowest
    eigenvalues, ascending, and its eigenvectors mapped back through the
    inverse weight conjugation (a half block's scaled by the ``1/sqrt(2)``
    of the unfolding), with LAPACK's signs."""
    parity, d, e, k = problem
    try:
        ev, U = _eigh(d, e, k)
    except Exception as exc:
        raise ConvergenceError(
            "tridiagonal eigensolver failed: %s (n=%d, diag in [%.3e, %.3e], "
            "max |offdiag| = %.3e)" % (
                exc, H.n_odd, float(np.min(H.di)), float(np.max(H.di)),
                float(np.max(np.abs(H.sym_e))))) from exc
    # Read only now, so nothing of size n but the bands is alive across a
    # full solve.
    w = H.lattice.w[H.lattice.odd_indices]
    U /= np.sqrt(w if parity is None else 2.0 * w[H.n_odd // 2:])[:, None]
    return parity, ev, U


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
    the lowest ``k`` of both are kept (ties to the even one); a block that
    owns none of them is dropped, so ``blocks`` holds exactly the blocks
    that own an eigenpair, and none for ``k = 0``.  The vectors
    are LAPACK's (``stevd`` for a full block, ``stein`` for a partial one),
    orthonormal to working precision within clusters of equal or nearly
    equal eigenvalues too, so none is re-orthogonalized.  Each
    eigenfunction's first significant component (the first above ``1e-8``
    times its largest magnitude) is made positive.  The sign rule is applied
    here, where eigenvectors reach the caller, block by block as each is
    solved; :func:`evolve`, whose states do not depend on it, skips it.
    """
    n = H.n_odd
    k = as_int(k, "k must be a non-negative integer, got {!r}", minimum=0)
    if k > n:
        raise ValueError(f"k={k} exceeds odd-sublattice size {n}")
    if k == 0:
        return SpectrumResult(np.empty(0), (), H.lattice)
    solved = []
    for problem in _problems(H, k):
        parity, ev, U = _solve_block(H, problem)
        _fix_signs(U, parity)
        solved.append((parity, ev, U))
    # The lowest k of all blocks, each block's in its own ascending order.
    evals = np.concatenate([ev for _, ev, _ in solved])
    order = np.argsort(evals, kind="stable")[:k]
    owner = np.repeat(np.arange(len(solved)), [len(ev) for _, ev, _ in solved])[order]
    blocks = []
    for b, (parity, _, U) in enumerate(solved):
        cols = np.flatnonzero(owner == b)
        if len(cols):
            blocks.append((parity, cols, U[:, :len(cols)]))
    return SpectrumResult(np.asarray(evals[order], dtype=float), tuple(blocks), H.lattice)


def _real_times_complex(M: np.ndarray, z) -> np.ndarray:
    """``M @ z`` for a real matrix ``M`` and a complex vector ``z``, as one
    real product on scipy's BLAS.

    ``z`` enters as its real and imaginary parts, the two rows of a real
    ``(2, k)`` matrix ``A`` (a view of ``z``), so ``M`` stays real; a complex
    product would go through a complex copy of ``M``, twice its size.  An
    F- or C-ordered ``M`` is passed in its own layout, transposed by flag,
    so it is not copied either.

    The BLAS is scipy's, which the eigensolver has already loaded, not
    numpy's second OpenBLAS, whose threads keep spinning after a product and
    slow the next solve (see the module docstring).  The call is the one
    numpy's ``@`` makes: BLAS forms ``A M^T``, whose transpose is ``M @ z``
    (a matrix-vector product for a one-row ``M``), so every value is bit for
    bit what ``@`` gives.  Asked for ``M A^T`` instead, it differs in the
    last rows at about half of the sizes below 400.
    """
    A = np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2).T
    if len(M) == 1:
        y = dgemv(1.0, A, M[0]).reshape(2, 1)
    elif M.flags.f_contiguous:
        y = dgemm(1.0, A, M, trans_b=1)
    else:
        y = dgemm(1.0, A, M.T)
    return y.T.view(complex)[:, 0]


def _expand_block(psi: LatticeFunction, lat: QLattice, parity, U: np.ndarray) -> np.ndarray:
    """``<psi_n, psi>`` for the columns of one block's ``U`` on ``lat``."""
    idx = lat.odd_indices
    z = lat.w[idx] * psi.values[idx]
    h = len(z) // 2
    return _real_times_complex(U.T, z if parity is None else z[h:] + parity * z[:h][::-1])


def expand(psi: LatticeFunction, spectrum: SpectrumResult) -> np.ndarray:
    """Coefficients ``c_n = <psi_n, psi>``; even samples of ``psi`` carry no weight.

    Against a half block of parity p, ``<psi_n, psi>`` is ``U^T (a + p b)``,
    with ``a`` the right half of ``w psi`` and ``b`` its left half reversed.
    """
    lat = spectrum.lattice
    _check_same_lattice(psi.lattice, lat)
    c = np.empty(len(spectrum.eigenvalues), dtype=complex)
    for parity, cols, U in spectrum.blocks:
        c[cols] = _expand_block(psi, lat, parity, U)
    return c


def synthesize(coeffs, spectrum: SpectrumResult) -> LatticeFunction:
    """Resum ``sum_n c_n psi_n`` as a function on ``spectrum.lattice`` (even
    samples 0); on a full spectrum, the inverse of :func:`expand`.

    Each block adds its part ``y = U c``, unfolded onto the odd points.
    """
    coeffs = np.asarray(coeffs)
    return _from_odd(spectrum.lattice, sum(
        _unfold(parity, _real_times_complex(U, coeffs[cols]))
        for parity, cols, U in spectrum.blocks))


def evolve(psi: LatticeFunction, H: Hamiltonian, times) -> Iterator[LatticeFunction]:
    """``psi`` propagated under ``H`` to each of ``times``, one state per time.

    Every block of the full spectrum (two half blocks for a mirror-symmetric
    ``H``, see :func:`stationary_states`) is solved at the call, one after
    the other, so a lattice mismatch, a failed solve or a phase ``E t / hbar``
    not finite at the largest ``|t|`` (ValueError) raises there.  A
    block's part of the state at time ``t`` is ``U (c exp(-i E t / hbar))``,
    with ``c_n = <psi_n, psi>`` the expansion of ``psi`` on the block, taken
    once.  A block whose parts at all of ``times`` take fewer bytes than its
    eigenvectors ``U`` has them computed and drops ``U`` before anything
    else is solved or returned; every other block keeps ``U`` and computes
    each part as the iterator reaches its time, so one state is alive at a
    time.  Only the phases depend on ``t``, so the coefficient magnitudes,
    hence the q-norm and every spectral observable, hold to rounding at
    every time, however many are asked for.  The state's physical content is
    its odd-sublattice part (the inner product sees nothing else); output
    even-exponent samples are 0.

    The eigenvectors keep LAPACK's signs, not the convention of
    :func:`stationary_states`: negating a column of ``U`` negates its
    ``c_n`` exactly, so every part is the same bit for bit, and the sign
    pass would only cost time and leave pages resident at the next solve.
    """
    _check_same_lattice(psi.lattice, H.lattice)
    # Every block reads the times: an iterator is read into a list, a
    # sequence is kept, not copied.
    if not isinstance(times, (Sequence, np.ndarray)):
        times = list(times)
    # A phase grows with |t|, so the largest |t| (NaN if any t is) bounds all.
    t_far = float(np.max(np.abs(times), initial=0.0))
    problems = _problems(H, H.n_odd)
    parities, parts = [], []
    while problems:
        # Popped, so a solved block's bands are freed too.
        parity, ev, U = _solve_block(H, problems.pop(0))
        with np.errstate(all="ignore"):
            if first_nonfinite(_phase(ev, t_far, H.hbar)) is not None:
                raise ValueError(f"phase E t / hbar is not finite at |t| = {t_far!r}, "
                                 f"hbar = {H.hbar!r}")
        ys = _block_parts(psi, H.lattice, parity, U, ev, H.hbar, times)
        if 16 * len(times) * len(U) < U.nbytes:
            ys = iter(np.fromiter(ys, dtype=(complex, len(U)), count=len(times)))
        parities.append(parity)
        parts.append(ys)
        del U, ys  # a dropped U is freed before the next solve or the return

    def states():
        for ys in zip(*parts):
            yield _from_odd(H.lattice, sum(map(_unfold, parities, ys)))

    return states()


def _block_parts(psi, lat, parity, U, ev, hbar, times) -> Iterator[np.ndarray]:
    """A block's part ``U (c exp(-i E t / hbar))`` of the state at each of
    ``times``, lazily.  ``c``, the expansion of ``psi`` on the block, is
    taken before the first part, not at the call, so no coefficients sit
    beside a later block's solve."""
    c = _expand_block(psi, lat, parity, U)
    for t in times:
        yield _real_times_complex(U, c * np.exp(_phase(ev, t, hbar)))


def _phase(ev, t, hbar) -> np.ndarray:
    """The exponents ``-i E t / hbar`` of the eigenvalues ``ev`` at time ``t``."""
    return -1j * ev * t / hbar


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
