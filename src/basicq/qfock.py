"""Deformed oscillator ladder algebra on a truncated number basis.

Matrix realization on ``span{|0>, ..., |dim-1>}`` with

    a |n> = sqrt([n]) |n-1>,   a_dag |n> = sqrt([n+1]) |n+1>,   N |n> = n |n>,

where ``[n]`` is the symmetric basic number.  The defining relation

    a a_dag - q a_dag a = q^{-N}

holds exactly on the interior (dim-1) x (dim-1) block; the last diagonal
entry is a truncation artifact (the ``sqrt([dim])`` amplitude out of the top
state has nowhere to go), so all algebra checks here report interior-block
residuals and expose the artifact magnitude separately.

Since every matrix entry is a ``sqrt([n])``, the whole realization is
invariant under ``q -> 1/q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qnum import as_int, as_qparam, basic_factorial, basic_number

__all__ = [
    "LadderTriple",
    "build_ladder",
    "algebra_residuals",
    "fock_state",
]


@dataclass(frozen=True)
class LadderTriple:
    """Annihilation, creation, and number matrices plus the deformation.

    Attributes
    ----------
    a, a_dag : numpy.ndarray
        Dense ``(dim, dim)`` real matrices; ``a_dag`` is the transpose of
        ``a`` (entries are real).
    N : numpy.ndarray
        ``diag(0, 1, ..., dim-1)``.
    dim : int
        Truncation dimension.
    q : float
        Canonical deformation parameter.
    """

    a: np.ndarray
    a_dag: np.ndarray
    N: np.ndarray
    dim: int
    q: float


def build_ladder(dim: int, q) -> LadderTriple:
    """Build the truncated ladder matrices.

    Parameters
    ----------
    dim : int
        Matrix dimension, at least 2.
    q : float or QParam
        Deformation parameter.

    Examples
    --------
    >>> t = build_ladder(3, 1.0)
    >>> float(t.a[0, 1]), float(t.a[1, 2])
    (1.0, 1.4142135623730951)
    """
    dim = as_int(dim, "dim must be an integer >= 2, got {!r}", minimum=2)
    qp = as_qparam(q)
    a = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(basic_number(n, qp))
    return LadderTriple(
        a=a,
        a_dag=a.T.copy(),
        N=np.diag(np.arange(dim, dtype=float)),
        dim=dim,
        q=qp.canonical,
    )


def _scaled_max(diff: np.ndarray, *terms: np.ndarray) -> float:
    """Max |diff| entry divided by (1 + largest entry among the terms).

    The relations below subtract quantities whose entries grow like
    ``q^{-dim}`` away from q = 1, so an absolute residual is dominated by
    the scale of the operands, not by the quality of the algebra.  Scaling
    by the largest participating entry makes one rounding-level bound hold
    at every (dim, q).
    """
    scale = max(float(np.max(np.abs(t))) for t in terms)
    return float(np.max(np.abs(diff))) / (1.0 + scale)


def algebra_residuals(t: LadderTriple) -> dict:
    """Scaled max-entry residuals of the ladder algebra relations.

    All keys except the two ``*_artifact`` entries are evaluated on the
    interior ``(dim-1) x (dim-1)`` block, scaled per :func:`_scaled_max`,
    and are pure rounding, contractually below 1e-13:

    - ``"defining"``: ``a a_dag - q a_dag a - q^{-N}``
    - ``"raising_commutator"``: ``[N, a_dag] - a_dag``
    - ``"lowering_commutator"``: ``[N, a] + a``
    - ``"occupancy"``: ``a_dag a - diag([0], ..., [dim-2])`` (off-diagonal
      entries vanish identically; the diagonal is ``sqrt([n])^2 - [n]``,
      one rounding of a square per entry)
    - ``"occupancy_shifted"``: ``a a_dag - diag([1], ..., [dim-1])``

    ``"defining_artifact"`` and ``"occupancy_shifted_artifact"`` are the
    absolute ``[dim-1, dim-1]`` entries of the first and last expressions
    over the full matrix: truncation leftovers on the scale of the dropped
    ``[dim]`` amplitude, reported for visibility.
    """
    a, adag, num = t.a, t.a_dag, t.N
    qc = t.q
    dim = t.dim
    k = dim - 1

    try:
        raise_diag = np.diag([qc ** (-n) for n in range(dim)])
    except OverflowError:
        raise OverflowError(
            f"algebra_residuals: q^-{k} at q = {qc!r} leaves float range") from None
    occ_diag = np.diag([basic_number(n, qc) for n in range(dim)])
    occ_up_diag = np.diag([basic_number(n + 1, qc) for n in range(dim)])
    lower_raise = a @ adag
    raise_lower = adag @ a
    defining = lower_raise - qc * raise_lower - raise_diag
    occ = raise_lower - occ_diag
    occ_up = lower_raise - occ_up_diag
    raising = num @ adag - adag @ num - adag
    lowering = num @ a - a @ num + a
    blk = np.s_[:k, :k]
    return {
        "defining": _scaled_max(defining[blk], lower_raise[blk],
                                qc * raise_lower[blk], raise_diag[blk]),
        "raising_commutator": _scaled_max(raising[blk], (num @ adag)[blk], adag[blk]),
        "lowering_commutator": _scaled_max(lowering[blk], (num @ a)[blk], a[blk]),
        "occupancy": _scaled_max(occ[blk], raise_lower[blk], occ_diag[blk]),
        "occupancy_shifted": _scaled_max(occ_up[blk], lower_raise[blk], occ_up_diag[blk]),
        "defining_artifact": float(abs(defining[k, k])),
        "occupancy_shifted_artifact": float(abs(occ_up[k, k])),
    }


def fock_state(n: int, t: LadderTriple) -> np.ndarray:
    """Normalized number state built by repeated raising: ``(a_dag)^n |0> / sqrt([n]!)``.

    Constructed through the ladder matrices rather than set directly, so the
    result doubles as a consistency check of the ``sqrt([n])`` amplitudes;
    it equals the coordinate vector ``e_n`` up to rounding (1e-13).
    """
    n = as_int(n, "n must be a non-negative integer, got {!r}", minimum=0)
    if n >= t.dim:
        raise ValueError(f"n={n} out of range for dim={t.dim}")
    vec = np.zeros(t.dim)
    vec[0] = 1.0
    for _ in range(n):
        vec = t.a_dag @ vec
    return vec / np.sqrt(basic_factorial(n, t.q))
