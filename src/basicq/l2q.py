"""Lattice carrier of the basic square-integrable space.

Functions live on the two-sided geometric lattice ``{±a q^m, m_min <= m <=
m_max}`` with ``0 < q < 1``.  The q-inner product of states

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

Neighbor map.  Every difference stencil here reads same-branch
neighbors through one map: the neighbor ``k`` steps toward zero of the
point at index ``j`` sits at index ``j - sign * k`` (``k < 0`` walks away
from zero), because the order makes a same-branch step one index step.  On
the full lattice one step is one exponent, on the odd sublattice two.  Past
the inner end that index lands on the mirror point ``-x`` of the other
branch; past the outer end it leaves the array.

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

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .qnum import as_qparam

__all__ = [
    "QLattice",
    "LatticeFunction",
    "OperatorMatrix",
    "build_lattice",
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
DEFAULT_M_MIN = -15
DEFAULT_M_MAX = 60
CSV_SCHEMA_VERSION = 1


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


def _freeze(arr):
    arr.setflags(write=False)
    return arr


def _neighbor(sign, m, k, lattice: QLattice, stride: int = 1):
    """Same-branch neighbor ``k`` points toward zero, at exponent ``m + stride k``.

    ``sign`` and ``m`` list the points in lattice order, ``stride`` exponents
    apart on each branch (1 on the full lattice, 2 on the odd sublattice);
    ``k < 0`` walks away from zero.  Returns the neighbor indices
    ``j - sign k`` and the mask of points whose neighbor lies inside
    ``[m_min, m_max]``.  Where the mask is False the index is past the
    branch end: the mirror point at the inner end, off the array at the
    outer end.
    """
    target = m + stride * k
    inside = (target >= lattice.m_min) & (target <= lattice.m_max)
    return np.arange(len(m)) - sign * k, inside


def build_lattice(q, m_min: int, m_max: int, a: float = 1.0) -> QLattice:
    """Construct the two-sided lattice.

    ``q`` is canonicalized into (0, 1); the classical value is rejected
    because the geometric lattice degenerates at ``q = 1``.

    Examples
    --------
    >>> lat = build_lattice(0.9, -10, 40)
    >>> lat.size
    102
    """
    qp = as_qparam(q)
    if qp.classical:
        raise ValueError("build_lattice requires q != 1 (no geometric lattice classically)")
    for name, val in (("m_min", m_min), ("m_max", m_max)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"{name} must be an integer, got {val!r}")
    if m_min >= m_max:
        raise ValueError(f"m_min must be < m_max, got {m_min} >= {m_max}")
    if not (a > 0) or not math.isfinite(a):
        raise ValueError(f"scale a must be finite and > 0, got {a!r}")
    qc = qp.canonical
    ms = np.arange(m_min, m_max + 1)
    # Negative branch with m ascending runs from -a q^{m_min} (most negative)
    # toward zero; positive branch with m descending continues away from zero.
    m_all = np.concatenate([ms, ms[::-1]])
    s_all = np.concatenate([-np.ones_like(ms), np.ones_like(ms)])
    mag = a * qc ** m_all.astype(float)
    x = s_all * mag
    w_all = a * (1.0 / qc - qc) * qc ** m_all.astype(float)
    w = np.where(m_all % 2 != 0, w_all, 0.0)
    return QLattice(q=qc, m_min=m_min, m_max=m_max, a=float(a),
                    sign=_freeze(s_all), m=_freeze(m_all),
                    x=_freeze(x), w=_freeze(w), w_all=_freeze(w_all))


def default_lattice() -> QLattice:
    """The package default: q=0.9, m in [-15, 60], a=1 (152 points, |x| in ~[2e-3, 4.9])."""
    return build_lattice(DEFAULT_Q, DEFAULT_M_MIN, DEFAULT_M_MAX)


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """Complex samples on a QLattice, one per point in lattice order."""

    lattice: QLattice
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.lattice.size,):
            raise ValueError(
                f"values shape {vals.shape} does not match lattice size {self.lattice.size}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite sample rejected")
        object.__setattr__(self, "values", _freeze(vals))

    def norm(self) -> float:
        return q_norm(self)

    def __add__(self, other):
        _check_same_lattice(self, other)
        return LatticeFunction(self.lattice, self.values + other.values)

    def __sub__(self, other):
        _check_same_lattice(self, other)
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


def _check_same_lattice(phi: LatticeFunction, psi: LatticeFunction):
    if phi.lattice is not psi.lattice and not phi.lattice.compatible(psi.lattice):
        raise ValueError("lattice mismatch")


def sample(f, lattice: QLattice) -> LatticeFunction:
    """Evaluate ``f`` at every lattice point (0 is not one).

    Non-finite samples are rejected (the function must belong to the space).
    """
    vals = np.array([complex(f(xi)) for xi in lattice.x])
    return LatticeFunction(lattice, vals)


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
    _check_same_lattice(phi, psi)
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
        if psi.lattice is not self.lattice and not psi.lattice.compatible(self.lattice):
            raise ValueError("lattice mismatch")
        odd = self.support == "odd"
        v = psi.values[self.lattice.odd_indices] if odd else psi.values
        out = self.di * v
        out[:-1] += self.up * v[1:]
        out[1:] += self.lo * v[:-1]
        return _from_odd(psi.lattice, out) if odd else LatticeFunction(psi.lattice, out)


def _off_diagonals(n: int, *entries):
    """Sub- and superdiagonal of an ``n``-point operator from its entries.

    Each entry is ``(row, col, coeff)`` arrays with ``|col - row| = 1``;
    column ``row + 1`` is the upper band at ``row``, column ``row - 1`` the
    lower band at ``row - 1``.  Entries are added in the order given, so a
    slot that several entries share rounds one way.
    """
    lo = np.zeros(n - 1)
    up = np.zeros(n - 1)
    for row, col, coeff in entries:
        right = col > row
        up[row[right]] += coeff[right]
        lo[col[~right]] += coeff[~right]
    return lo, up


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
    rows = np.arange(lattice.size)
    iup, has_up = _neighbor(lattice.sign, lattice.m, 1, lattice)
    idown, has_down = _neighbor(lattice.sign, lattice.m, -1, lattice)
    inner = ~has_up
    c = 1.0 / ((qc - 1.0 / qc) * lattice.x)
    di = np.where(inner, c * (1.0 + qc), 0.0)
    # Stencil order: up neighbor, inner-end fill, down neighbor.
    lo, up = _off_diagonals(
        lattice.size,
        (rows[has_up], iup[has_up], c[has_up]),
        (rows[inner], idown[inner], -c[inner] * qc),
        (rows[has_down], idown[has_down], -c[has_down]))
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
    defect, which is what the control check relies on.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    support = A.support
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phi = decaying_test_function(A.lattice, rng, parity)
        psi = decaying_test_function(A.lattice, rng, parity)
        lhs = inner_product(phi, A.apply(psi), support)
        rhs = inner_product(A.apply(phi), psi, support)
        denom = q_norm(phi, support) * q_norm(psi, support)
        if denom == 0.0:
            continue
        worst = max(worst, abs(lhs - rhs) / denom)
    return worst


def to_csv(psi: LatticeFunction) -> str:
    """Serialize samples as CSV: schema comment, header, one row per point.

    Floats are written with 17 significant digits.
    """
    buf = io.StringIO()
    buf.write(f"# schema_version={CSV_SCHEMA_VERSION}\n")
    buf.write("sign,m,x,weight,re,im\n")
    lat = psi.lattice
    for i in range(lat.size):
        re, im = psi.values[i].real, psi.values[i].imag
        buf.write("%d,%d,%.17g,%.17g,%.17g,%.17g\n" % (
            lat.sign[i], lat.m[i], lat.x[i], lat.w[i],
            re + 0.0, im + 0.0))
    return buf.getvalue()
