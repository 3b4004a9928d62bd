"""Lattice carrier of the basic square-integrable space.

Functions live on the two-sided geometric lattice ``{±a q^m, m_min <= m <=
m_max}`` with ``0 < q < 1``, by default on :func:`default_window`'s window,
``|x|`` in [1.7e-3, 5].  The q-inner product of states

    <phi, psi> = sum over odd-m points of  a (q^-1 - q) q^m  conj(phi) psi

samples only odd exponents (both signs); it is the Jackson integral on the
odd sublattice.  Even-m points are stored because the Jackson derivative
couples the two parities (one application maps odd-m samples to even-m ones
and back).  Operators that act on the full lattice, such as the momentum,
take their adjoint in the q-inner product on both sublattices, the same
weight at every m: the odd-point Jackson integral plus the one on the
shifted lattice ``q^{2n}``.  On functions whose even samples vanish (the
solver's eigenstates, the point basis) the two agree exactly.

Point order is strictly coordinate-ascending: the negative branch from
``-a q^{m_min}`` up toward zero, then the positive branch away from zero up
to ``+a q^{m_min}``; consecutive same-sign points have ratio exactly ``q``
walking toward zero.  This makes second-difference operators on the odd
sublattice tridiagonal.

Band layout.  In that order the negative branch runs outer to inner at
indices ``0 ... nb-1`` and the positive branch inner to outer after it
(``nb = n_branch``; ``h = n_odd // 2`` on the odd sublattice), so the
same-branch neighbor toward zero is the next index on the left half and the
previous one on the right, and each branch's innermost point sits at the
middle, ``nb - 1`` and ``nb``.  A stencil that reads one neighbor either
side is thus two coefficient arrays, toward and away from zero, and its
superdiagonal is the toward array on the left half and the away array on
the right (its subdiagonal the other way round).

Band storage.  Since a stencil only reaches the neighbors one step either
side, every operator built from it is tridiagonal in its support's
coordinate order.  :class:`OperatorMatrix` stores just its three bands and
applies them directly; a dense matrix exists only as a view built on
request.

Boundary policy for difference operators: a neighbor past the outer end
(``m < m_min``) is treated as 0 (decay at infinity); a neighbor past the
inner end (``m > m_max``) is filled by linear continuation toward the
origin through the two innermost same-branch samples.  The Hamiltonian
closes its inner end across the origin through the mirror point instead
(see :mod:`basicq.qschrodinger`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError, first_nonfinite
from .exprparse import BoundExpression
from .qnum import as_int, as_qparam

__all__ = [
    "QLattice",
    "LatticeFunction",
    "OperatorMatrix",
    "build_lattice",
    "default_window",
    "default_lattice",
    "sample",
    "inner_product",
    "q_norm",
    "basis_function",
    "position_matrix",
    "derivative_matrix",
    "momentum_matrix",
    "decaying_test_function",
    "hermiticity_residual",
    "to_csv",
]

DEFAULT_Q = 0.9
# The q values ``basicq verify`` sweeps by default; kept here, not in
# :mod:`basicq.verify`, so the CLI names them in its help without loading
# the suite.
DEFAULT_SWEEP = (0.5, 0.8, 0.9, 0.95, 0.99)
CSV_SCHEMA_VERSION = 1
# Points per block of CSV rows: only one block's cells are Python objects at
# a time, so writing a file allocates no per-point object for the whole
# lattice.
CSV_BLOCK_ROWS = 256
_CSV_HEADER = f"# schema_version={CSV_SCHEMA_VERSION}\nsign,m,x,weight,re,im\n"
_CSV_ROW = "%d,%d,%.17g,%.17g,%%.17g,%%.17g\n"


@dataclass(frozen=True, eq=False)
class QLattice:
    """Two-sided geometric lattice with q-integration weights.

    Attributes
    ----------
    q : float
        Canonical deformation parameter, in (0, 1).
    m_min, m_max : int
        Exponent bounds; points are ``±a q^m`` for every m in range.
    a : float
        Overall scale, > 0.
    sign, m : numpy.ndarray
        Branch sign (+-1) and exponent per point, coordinate-ascending.
    x : numpy.ndarray
        Coordinates, strictly increasing.
    w_all : numpy.ndarray
        Weight of the q-inner product on both sublattices:
        ``a (q^-1 - q) q^m`` at every point.
    w : numpy.ndarray
        Weight of the q-inner product of states: ``w_all`` at odd m, 0 at
        even m.
    """

    q: float
    m_min: int
    m_max: int
    a: float
    sign: np.ndarray
    m: np.ndarray
    x: np.ndarray
    w: np.ndarray
    w_all: np.ndarray

    @property
    def size(self) -> int:
        return len(self.x)

    @property
    def n_branch(self) -> int:
        """Points per branch."""
        return self.m_max - self.m_min + 1

    @property
    def odd_indices(self) -> np.ndarray:
        """Indices of odd-exponent points, in coordinate-ascending order."""
        return np.nonzero(self.m % 2 != 0)[0]

    def weights(self, support: str = "odd") -> np.ndarray:
        """Weights of the q-inner product on ``support``: ``"odd"`` or ``"all"``."""
        if support == "odd":
            return self.w
        if support == "all":
            return self.w_all
        raise ValueError(f"support must be 'all' or 'odd', got {support!r}")

    def index_of(self, s: int, m: int) -> int:
        """Index of the point with branch sign ``s`` and exponent ``m``."""
        if m < self.m_min or m > self.m_max:
            raise ValueError(f"exponent {m} outside [{self.m_min}, {self.m_max}]")
        if s not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {s!r}")
        if s < 0:
            return m - self.m_min
        return self.n_branch + (self.m_max - m)

    def compatible(self, other: "QLattice") -> bool:
        return (self.q == other.q and self.m_min == other.m_min
                and self.m_max == other.m_max and self.a == other.a)

    @functools.cached_property
    def _csv_templates(self) -> tuple:
        """The rows of :func:`to_csv` in blocks of ``CSV_BLOCK_ROWS`` points,
        each block's ``sign,m,x,weight`` cells formatted and ``%.17g`` left
        for its two value cells."""
        templates = []
        for start in range(0, self.size, CSV_BLOCK_ROWS):
            part = slice(start, start + CSV_BLOCK_ROWS)
            rows = zip(self.sign[part].tolist(), self.m[part].tolist(),
                       self.x[part].tolist(), self.w[part].tolist())
            templates.append(_CSV_ROW * min(CSV_BLOCK_ROWS, self.size - start)
                             % tuple(itertools.chain.from_iterable(rows)))
        return tuple(templates)


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _magnitudes(qc: float, a: float, m):
    """``a q^m`` and the weight ``a (1/q - q) q^m`` at the exponents ``m``."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return a * qc ** m.astype(float), a * (1.0 / qc - qc) * qc ** m.astype(float)


def build_lattice(q, m_min: int, m_max: int, a: float = 1.0) -> QLattice:
    """Construct the two-sided lattice.

    ``q`` is canonicalized into (0, 1); the classical value is rejected
    because the geometric lattice degenerates at ``q = 1``, and so is a
    window whose ``a q^m`` or weights leave float range (0 is never a point).

    Examples
    --------
    >>> lat = build_lattice(0.9, -10, 40)
    >>> lat.size
    102
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("build_lattice requires q != 1 (no geometric lattice classically)")
    m_min = as_int(m_min, "m_min must be an integer, got {!r}")
    m_max = as_int(m_max, "m_max must be an integer, got {!r}")
    if m_min >= m_max:
        raise ValueError(f"m_min must be < m_max, got {m_min} >= {m_max}")
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"scale a must be finite and > 0, got {a!r}")
    qc = qp.canonical
    # |x| and the weight fall as m grows, so the window's two ends bound them
    # all: checked before any array of the window is built.
    mag, w_all = _magnitudes(qc, a, np.array([m_min, m_max]))
    if not np.all((0 < mag) & (mag < np.inf) & (0 < w_all) & (w_all < np.inf)):
        raise ValueError(
            f"lattice window m in [{m_min}, {m_max}] leaves float range at q = {qc!r}: "
            "a point |x| or its weight is 0 or infinite")
    ms = np.arange(m_min, m_max + 1)
    # Negative branch with m ascending runs from -a q^{m_min} (most negative)
    # toward zero; positive branch with m descending continues away from zero.
    m_all = np.concatenate([ms, ms[::-1]])
    s_all = np.concatenate([-np.ones_like(ms), np.ones_like(ms)])
    mag, w_all = _magnitudes(qc, a, m_all)
    x = s_all * mag
    w = np.where(m_all % 2 != 0, w_all, 0.0)
    return QLattice(q=qc, m_min=m_min, m_max=m_max, a=float(a),
                    sign=_freeze(s_all), m=_freeze(m_all),
                    x=_freeze(x), w=_freeze(w), w_all=_freeze(w_all))


# Points (both branches) of the largest default window built: the window
# holds about 16 / (1 - q) points, 15,964 at q 0.999 but 8.0e10 at
# 1 - 1e-10, so a caller refuses a larger one before building it.
MAX_WINDOW_POINTS = 20_000


def default_window(q) -> tuple:
    """Exponents ``(m_min, m_max)`` of ``|x| = q^m`` in [1.7e-3, 5] at the canonical q,
    rounded inward, at least two: ``(-15, 60)`` at q 0.9.  Rejects q = 1."""
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("default_window requires q != 1 (no geometric lattice classically)")
    m_min = math.ceil(math.log(5.0) / math.log(qp.canonical))
    return m_min, max(math.floor(math.log(1.7e-3) / math.log(qp.canonical)), m_min + 1)


def default_lattice() -> QLattice:
    """The package default: :func:`default_window` at q=0.9, m in [-15, 60], a=1 (152 points)."""
    return build_lattice(DEFAULT_Q, *default_window(DEFAULT_Q))


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """Complex samples on a QLattice, one per point in lattice order; a
    sample that is not finite raises ValueError naming its point."""

    lattice: QLattice
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.lattice.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match lattice size {self.lattice.size}")
        j = first_nonfinite(vals)
        if j is not None:
            raise ValueError(f"non-finite sample at x = {float(self.lattice.x[j])!r}")
        object.__setattr__(self, "values", _freeze(vals))

    def __add__(self, other):
        _check_same_lattice(self.lattice, other.lattice)
        return LatticeFunction(self.lattice, self.values + other.values)

    def __sub__(self, other):
        _check_same_lattice(self.lattice, other.lattice)
        return LatticeFunction(self.lattice, self.values - other.values)

    def __mul__(self, c):
        return LatticeFunction(self.lattice, self.values * c)

    __rmul__ = __mul__


def _from_odd(lattice: QLattice, values) -> LatticeFunction:
    """Lattice function holding ``values`` at the odd points, in lattice order.

    Even-exponent samples are 0: the form in which odd-support operators
    and the solver's eigenbasis return states.
    """
    vals = np.zeros(lattice.size, dtype=complex)
    vals[lattice.odd_indices] = values
    return LatticeFunction(lattice, vals)


def _check_same_lattice(a: QLattice, b: QLattice):
    if a is not b and not a.compatible(b):
        raise ValueError("lattice mismatch")


def _read(f, x: np.ndarray, real: bool = False) -> np.ndarray:
    """``f`` at the points ``x``, complex.  A BoundExpression is called once with
    all of them; on EvaluationError, and for any other ``f``, they are read in order
    up to the first value not finite (or not real, if ``real``), the rest left 0."""
    try:
        vals = f(x) if isinstance(f, BoundExpression) else None
    except EvaluationError:
        vals = None  # read point by point, so the first refused point wins
    if vals is None:
        vals = np.zeros(len(x), dtype=complex)
        for j, xj in enumerate(x):
            vals[j] = v = complex(f(xj))
            if not np.isfinite(v) or real and v.imag != 0.0:
                break
    return vals


def sample(f, lattice: QLattice) -> LatticeFunction:
    """Evaluate ``f`` at every lattice point (0 is not one).

    The samples must be finite (the function must belong to the space).  A
    :class:`~basicq.exprparse.BoundExpression` is called once with all the
    points; any other ``f``, or one whose call raises EvaluationError, is
    read point by point in lattice order, and the first refused point wins
    before any later point is read: the ValueError names it.
    """
    return LatticeFunction(lattice, _read(f, lattice.x))


def inner_product(phi: LatticeFunction, psi: LatticeFunction,
                  support: str = "odd") -> complex:
    """q-inner product, conjugate-linear in the first slot.

    ``sum_m w_m conj(phi_m) psi_m`` over all points, with the weights of
    :meth:`QLattice.weights`.  ``support="odd"`` (the default) is the
    q-inner product of states: even-m weights are 0, so only odd exponents
    contribute, matching the Jackson-integral sampling.  ``support="all"``
    weights both sublattices; it is the measure in which a full-lattice
    operator's adjoint is taken, since the Jackson derivative is
    anti-adjoint from one sublattice's measure to the other's.
    """
    _check_same_lattice(phi.lattice, psi.lattice)
    w = phi.lattice.weights(support)
    return complex(np.sum(w * np.conj(phi.values) * psi.values))


def q_norm(psi: LatticeFunction, support: str = "odd") -> float:
    n2 = inner_product(psi, psi, support).real
    return math.sqrt(max(n2, 0.0))


def basis_function(n: int, lattice: QLattice, sign: str = "+") -> LatticeFunction:
    """Point-supported orthonormal basis element at ``x = sign * a q^{2n+1}``.

    Value ``1 / sqrt(|x| (q^-1 - q))`` at that single point and 0 elsewhere;
    this is exactly ``w^{-1/2}`` there, so the family is orthonormal in the
    q-inner product.  ``n`` may be negative (exponent ``2n+1`` just has to
    lie within the lattice range).
    """
    if sign in ("+", 1, +1):
        s = 1
    elif sign in ("-", -1):
        s = -1
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    expo = 2 * n + 1
    if expo < lattice.m_min or expo > lattice.m_max:
        raise ValueError(
            f"basis exponent 2n+1 = {expo} outside [{lattice.m_min}, {lattice.m_max}]")
    idx = lattice.index_of(s, expo)
    vals = np.zeros(lattice.size, dtype=complex)
    vals[idx] = 1.0 / math.sqrt(lattice.w[idx])
    return LatticeFunction(lattice, vals)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Tridiagonal operator on lattice sample vectors, stored as its bands.

    ``support`` is ``"all"`` (full lattice) or ``"odd"`` (odd-exponent
    sublattice, the q-inner product's carrier); in either case the points
    are taken in coordinate-ascending order.  ``di`` is the diagonal,
    ``up`` the superdiagonal (row j, column j + 1) and ``lo`` the
    subdiagonal (row j + 1, column j).  The bands are read-only.
    """

    lattice: QLattice
    lo: np.ndarray = field(repr=False)
    di: np.ndarray = field(repr=False)
    up: np.ndarray = field(repr=False)
    support: str = "all"

    def __post_init__(self):
        if self.support not in ("all", "odd"):
            raise ValueError(f"support must be 'all' or 'odd', got {self.support!r}")
        n = self.lattice.size if self.support == "all" else len(self.lattice.odd_indices)
        for name, size in (("lo", n - 1), ("di", n), ("up", n - 1)):
            band = np.asarray(getattr(self, name))
            if band.shape != (size,):
                raise ValueError(f"band {name} has shape {band.shape}, expected ({size},)")
            object.__setattr__(self, name, _freeze(band))

    @property
    def matrix(self) -> np.ndarray:
        """Dense complex view of the operator, built on each access."""
        n = len(self.di)
        i = np.arange(n)
        mat = np.zeros((n, n), dtype=complex)
        mat[i, i] = self.di
        mat[i[:-1], i[1:]] = self.up
        mat[i[1:], i[:-1]] = self.lo
        return _freeze(mat)

    def apply(self, psi: LatticeFunction) -> LatticeFunction:
        """Apply to a lattice function; odd-support operators leave even samples 0."""
        _check_same_lattice(psi.lattice, self.lattice)
        odd = self.support == "odd"
        v = psi.values[self.lattice.odd_indices] if odd else psi.values
        out = self.di * v
        out[:-1] += self.up * v[1:]
        out[1:] += self.lo * v[:-1]
        return _from_odd(psi.lattice, out) if odd else LatticeFunction(psi.lattice, out)


def position_matrix(lattice: QLattice) -> OperatorMatrix:
    """Diagonal coordinate-multiplication operator on the full lattice."""
    off = np.zeros(lattice.size - 1)
    return OperatorMatrix(lattice, off, lattice.x, off, "all")


def derivative_matrix(lattice: QLattice) -> OperatorMatrix:
    """The Jackson derivative on the full lattice.

    The stencil reads the same-branch neighbors one exponent either side,
    with the module's boundary policy; at the inner end
    ``psi(q x) ~ (1 + q) psi(x) - q psi(x / q)``.  This operator is
    basic-anti-Hermitian; multiply by ``-i hbar`` for the momentum.
    """
    qc = lattice.q
    nb = lattice.n_branch
    inner = lattice.m == lattice.m_max
    c = 1.0 / ((qc - 1.0 / qc) * lattice.x)
    di = np.where(inner, c * (1.0 + qc), 0.0)
    # Toward zero the stencil reads c, away from zero -c, plus the fill's
    # -c q at the inner end; no neighbor past the middle or the ends.
    away = np.where(inner, -c * qc + -c, -c)
    lo = np.concatenate([away[1:nb], [0.0], c[nb + 1:]])
    up = np.concatenate([c[:nb - 1], [0.0], away[nb:-1]])
    return OperatorMatrix(lattice, lo, di, up, "all")


def momentum_matrix(lattice: QLattice, hbar: float = 1.0) -> OperatorMatrix:
    """Momentum ``-i hbar D`` on the full lattice."""
    d = derivative_matrix(lattice)
    s = -1j * hbar
    return OperatorMatrix(lattice, s * d.lo, s * d.di, s * d.up, "all")


def decaying_test_function(lattice: QLattice, rng,
                           parity: str | None = None) -> LatticeFunction:
    """Random member of the Hermiticity test family.

    ``psi(x) = x^2 (c0 + c1 x + c2 x^2 + c3 x^3) exp(-x^2)`` with complex
    standard-normal coefficients: the gaussian kills the outer lattice end,
    the ``x^2`` prefactor kills the inner end, so boundary-policy leftovers
    in difference operators are exponentially suppressed.

    ``parity="even"`` keeps only the even-degree coefficients (c1 = c3 = 0)
    so psi(-x) = psi(x); ``parity="odd"`` keeps only the odd-degree ones so
    psi(-x) = -psi(x).  Default draws all four (mixed parity).
    """
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    if parity == "even":
        c[1] = c[3] = 0.0
    elif parity == "odd":
        c[0] = c[2] = 0.0
    elif parity is not None:
        raise ValueError("parity must be None, 'even' or 'odd'")
    x = lattice.x
    poly = ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
    vals = x * x * poly * np.exp(-(x * x))
    return LatticeFunction(lattice, vals)


def hermiticity_residual(A: OperatorMatrix, trials: int = 20, seed: int = 0,
                         parity: str | None = None) -> float:
    """Max basic-Hermiticity defect of ``A`` over random decaying pairs.

    For each trial draws a pair (phi, psi) from the decaying family and
    measures ``|<phi, A psi> - <A phi, psi>| / (||phi|| ||psi||)`` in the
    q-inner product on ``A.support``: odd points for odd-support operators
    (the Hamiltonian's sublattice form), both sublattices for full-lattice
    ones.  The ``parity`` choice is forwarded to
    :func:`decaying_test_function`.

    The Jackson derivative maps odd-exponent samples to even-exponent
    points and back, and is anti-adjoint from the odd-point measure to the
    even-point one (the Jackson integral on the shifted lattice ``q^{2n}``):

        <phi, D psi>_odd = -<D phi, psi>_even,

    up to lattice-edge leftovers that die as the lattice widens.  On both
    sublattices the momentum ``-i hbar D`` is therefore Hermitian up to
    those leftovers (3e-14 on the default lattice), and to rounding on
    parity-pure pairs.  Pairing both sides in the odd-point measure alone
    would compare two different quadratures of ``conj(p phi) psi``; on
    mixed-parity pairs that gap does not shrink with lattice width, only as
    q -> 1.  The bare derivative, being anti-Hermitian, shows an O(1)
    defect, which is what the control check relies on.  Pairs of q-norm 0
    are skipped, and ValueError names a window where every pair is.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    support = A.support
    rng = np.random.default_rng(seed)
    defects = []
    for _ in range(trials):
        phi = decaying_test_function(A.lattice, rng, parity)
        psi = decaying_test_function(A.lattice, rng, parity)
        lhs = inner_product(phi, A.apply(psi), support)
        rhs = inner_product(A.apply(phi), psi, support)
        denom = q_norm(phi, support) * q_norm(psi, support)
        if denom != 0.0:
            defects.append(abs(lhs - rhs) / denom)
    if not defects:
        lat = A.lattice
        raise ValueError(
            f"hermiticity_residual: every test pair has q-norm 0 on the lattice window "
            f"m in [{lat.m_min}, {lat.m_max}] at q = {lat.q!r}: nothing was measured")
    return max(defects)


def to_csv(psi: LatticeFunction) -> str:
    """Serialize samples as CSV: schema comment, header, one row per point.

    Floats are written with 17 significant digits.  The rows are written in
    blocks of ``CSV_BLOCK_ROWS`` points, each one ``%`` of that block's row
    template with the block's values of ``psi``, and the file is the header
    and the blocks joined.  The templates hold each row's lattice cells,
    formatted on the first call for that lattice and kept as long as the
    lattice (its arrays are read-only); the values of one block at a time
    are Python floats.
    """
    vals = psi.values
    blocks = [_CSV_HEADER]
    for b, template in enumerate(psi.lattice._csv_templates):
        part = vals[b * CSV_BLOCK_ROWS:(b + 1) * CSV_BLOCK_ROWS]
        # + 0.0 turns -0.0 into 0.0; the float view reads re, im point by point.
        blocks.append(template % tuple((part + 0.0).view(float).tolist()))
    return "".join(blocks)
