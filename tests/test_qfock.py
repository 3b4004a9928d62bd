"""Tests for the deformed oscillator ladder matrices."""

from __future__ import annotations

import numpy as np
import pytest

from basicq import (
    LadderTriple,
    algebra_residuals,
    basic_number,
    build_ladder,
    fock_state,
)

DIMS = [4, 8, 16]
QS = [0.5, 0.9, 1.0]


def test_algebra_residuals_past_float_range_names_the_power():
    # every [n] of the ladder fits, but q^-(dim - 1) of q^-N does not
    t = build_ladder(8, 1e-46)
    with pytest.raises(OverflowError) as err:
        algebra_residuals(t)
    assert str(err.value) == "algebra_residuals: q^-7 at q = 1e-46 leaves float range"


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("dim", DIMS)
def test_shapes_and_structure(dim, q):
    t = build_ladder(dim, q)
    assert isinstance(t, LadderTriple)
    assert t.a.shape == t.a_dag.shape == t.N.shape == (dim, dim)
    # lowering on the first superdiagonal, raising on the first subdiagonal
    assert np.count_nonzero(t.a - np.diag(np.diag(t.a, 1), 1)) == 0
    assert np.count_nonzero(t.a_dag - np.diag(np.diag(t.a_dag, -1), -1)) == 0
    assert np.array_equal(np.diag(t.N), np.arange(dim))


@pytest.mark.parametrize("q", QS)
def test_amplitudes_are_sqrt_basic_numbers(q):
    t = build_ladder(6, q)
    for n in range(1, 6):
        amp = np.sqrt(basic_number(n, q))
        assert t.a[n - 1, n] == pytest.approx(amp, rel=1e-15)
        assert t.a_dag[n, n - 1] == pytest.approx(amp, rel=1e-15)


def test_adjoint_pair():
    t = build_ladder(7, 0.8)
    assert np.array_equal(t.a_dag, t.a.T)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("dim", DIMS)
def test_interior_algebra_residuals(dim, q):
    res = algebra_residuals(build_ladder(dim, q))
    for key in ("defining", "raising_commutator", "lowering_commutator",
                "occupancy", "occupancy_shifted"):
        assert res[key] <= 1e-13, (key, res[key])


@pytest.mark.parametrize("q", QS)
def test_occupancy_structure_is_exact(q):
    # adag a is diagonal by construction: off-diagonal entries vanish
    # identically, diagonals equal [n] up to one rounding of a square
    t = build_ladder(8, q)
    prod = t.a_dag @ t.a
    off = prod - np.diag(np.diag(prod))
    assert np.count_nonzero(off) == 0
    want = np.array([basic_number(n, q) for n in range(8)])
    assert np.allclose(np.diag(prod), want, rtol=5e-16, atol=0.0)


def test_truncation_artifacts_are_visible_and_large():
    # the last diagonal entry of the defining relation carries the dropped
    # [dim] amplitude; it must not be silently absorbed into the residual
    res = algebra_residuals(build_ladder(8, 0.5))
    assert res["defining_artifact"] > 1.0
    assert res["occupancy_shifted_artifact"] > 1.0


def test_classical_limit_is_ordinary_oscillator():
    t = build_ladder(6, 1.0)
    comm = t.a @ t.a_dag - t.a_dag @ t.a
    assert np.allclose(comm[:5, :5], np.eye(5), atol=1e-14)


@pytest.mark.parametrize("q", QS)
def test_fock_states_are_coordinate_vectors(q):
    t = build_ladder(8, q)
    for n in range(8):
        v = fock_state(n, t)
        want = np.zeros(8)
        want[n] = 1.0
        assert np.allclose(v, want, atol=1e-13)


def test_fock_state_norm_survives_large_amplitudes():
    # at q = 0.5 the amplitudes reach sqrt([15]) ~ 148; the factorial
    # normalization must still land on a unit vector
    t = build_ladder(16, 0.5)
    v = fock_state(15, t)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_build_ladder_validation():
    with pytest.raises(ValueError):
        build_ladder(1, 0.9)
    with pytest.raises(ValueError):
        build_ladder(0, 0.9)


def test_fock_state_validation():
    t = build_ladder(4, 0.9)
    with pytest.raises(ValueError):
        fock_state(-1, t)
    with pytest.raises(ValueError):
        fock_state(4, t)
    with pytest.raises(ValueError):
        fock_state(True, t)


def test_q_inversion_symmetry():
    # ladder amplitudes only see the symmetric basic numbers
    t1 = build_ladder(6, 0.8)
    t2 = build_ladder(6, 1.25)
    assert np.allclose(t1.a, t2.a, rtol=1e-14)
