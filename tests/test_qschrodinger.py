"""Tests for the lattice Hamiltonian, its spectrum, and spectral evolution."""

from __future__ import annotations

import math

import numpy as np
import pytest

from basicq import (
    Hamiltonian,
    OperatorMatrix,
    WaveState,
    build_hamiltonian,
    build_lattice,
    default_lattice,
    evolve,
    expand,
    expectation,
    free_particle_wave,
    inner_product,
    q_exp,
    q_norm,
    sample,
    stationary_states,
    synthesize,
)
from basicq.l2q import (
    decaying_test_function,
    derivative_matrix,
    momentum_matrix,
    position_matrix,
)
from basicq.qschrodinger import fluctuation


def oscillator(lattice=None):
    lat = lattice if lattice is not None else default_lattice()
    return build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)


def gaussian_packet(lat):
    psi = sample(lambda x: math.exp(-((x - 0.4) ** 2)), lat)
    return (1.0 / q_norm(psi)) * psi


# -- assembly ----------------------------------------------------------------

class TestAssembly:
    def test_basic_shape(self):
        H = oscillator()
        assert isinstance(H, Hamiltonian)
        assert isinstance(H, OperatorMatrix)
        assert H.n_odd == 76
        assert H.support == "odd"
        assert H.matrix.shape == (76, 76)

    def test_matrix_is_tridiagonal(self):
        H = oscillator()
        M = H.matrix
        band = np.triu(M, 2) + np.tril(M, -2)
        assert np.count_nonzero(band) == 0

    def test_potential_on_diagonal(self):
        lat = default_lattice()
        H0 = build_hamiltonian(lambda x: 0.0, 1.0, 1.0, lat)
        H1 = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
        xs = lat.x[lat.odd_indices]
        diff = np.diag(H1.matrix - H0.matrix)
        assert np.allclose(diff, xs * xs, rtol=1e-13)

    def test_apply_matches_matrix(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        odd = lat.odd_indices
        via_bands = H.apply(psi)
        via_matrix = H.matrix @ psi.values[odd]
        assert np.allclose(via_bands.values[odd], via_matrix, atol=1e-12)

    def test_validation(self):
        lat = default_lattice()
        with pytest.raises(ValueError):
            build_hamiltonian(lambda x: x * x, 0.0, 1.0, lat)
        with pytest.raises(ValueError):
            build_hamiltonian(lambda x: x * x, 1.0, -1.0, lat)
        with pytest.raises(ValueError):
            build_hamiltonian(lambda x: 1j * x, 1.0, 1.0, lat)  # complex potential
        with pytest.raises(ValueError):
            build_hamiltonian(lambda x: math.nan, 1.0, 1.0, lat)

    def test_non_finite_bands_rejected(self):
        # x*x underflows to 0 at the innermost points, so the kinetic
        # coefficient 1/x^2 is infinite
        lat = build_lattice(0.5, -15, 600)
        with pytest.raises(ValueError, match="m_max = 600 is too large") as exc:
            build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
        assert "|x| = 4.82e-181" in str(exc.value)

    @pytest.mark.parametrize("q, m_min, m_max, hbar, mass, excluded", [
        (0.9, -15, 60, 1.0, 1.0, [0, 37, 38, 75]),
        (0.8, -4, 21, 0.7, 2.5, [12, 13]),
    ])
    def test_kinetic_band_is_product_of_derivatives(self, q, m_min, m_max, hbar,
                                                    mass, excluded):
        # -(hbar^2/2m) D_(o<-e) D_(e<-o) from the full-lattice derivative
        # matrix, row by row, away from the closure rows: the innermost odd
        # point of each branch, and the outermost one when m_min is odd
        # (its even neighbor m_min - 1 is off the lattice)
        lat = build_lattice(q, m_min, m_max)
        H = build_hamiltonian(lambda x: 0.0, mass, hbar, lat)
        D = derivative_matrix(lat).matrix
        odd = lat.odd_indices
        even = np.nonzero(lat.m % 2 == 0)[0]
        prod = -(hbar * hbar / (2.0 * mass)) * (D[np.ix_(odd, even)] @ D[np.ix_(even, odd)])
        kin = H.matrix
        ms = lat.m[odd]
        closure = ms == ms.max()
        if m_min % 2 != 0:
            closure |= ms == ms.min()
        assert np.flatnonzero(closure).tolist() == excluded
        for r in np.flatnonzero(~closure):
            gap = np.max(np.abs(kin[r] - prod[r]))
            assert gap <= 1e-13 * np.max(np.abs(kin[r])), (r, gap)


# -- free particle -----------------------------------------------------------

@pytest.mark.parametrize("kwav", [0.5, 1.0, 2.0])
def test_free_wave_satisfies_wave_equation_on_lattice(kwav):
    # second-difference of the sampled deformed plane wave against -k^2 u,
    # checked at every point whose full stencil lies on the lattice
    lat = default_lattice()
    u = free_particle_wave(kwav, lat)
    qc = lat.q
    worst = 0.0
    for i in range(lat.size):
        s, m = int(lat.sign[i]), int(lat.m[i])
        if m - 2 < lat.m_min or m + 2 > lat.m_max:
            continue
        x = lat.x[i]
        t_in = u.values[lat.index_of(s, m + 2)] / qc
        t_mid = (qc + 1.0 / qc) * u.values[i]
        t_out = qc * u.values[lat.index_of(s, m - 2)]
        c = (qc - 1.0 / qc) ** 2 * x * x
        d2 = (t_in - t_mid + t_out) / c
        scale = (abs(t_in) + abs(t_mid) + abs(t_out)) / abs(c) + kwav ** 2 * abs(u.values[i])
        worst = max(worst, abs(d2 + kwav ** 2 * u.values[i]) / scale)
    assert worst < 1e-9


def test_free_wave_values_are_deformed_exponential():
    lat = default_lattice()
    u = free_particle_wave(1.3, lat, normalization=2.0)
    i = lat.index_of(1, 5)
    want = 2.0 * q_exp(1.3j * lat.x[i], lat.q).value
    assert u.values[i] == pytest.approx(want, rel=1e-13)


# -- spectrum ----------------------------------------------------------------

class TestSpectrum:
    def test_eigenvalues_real_ascending_positive(self):
        spec = stationary_states(oscillator(), 8)
        ev = spec.eigenvalues
        assert ev.dtype.kind == "f"  # exactly real by construction
        assert np.all(np.diff(ev) > 0)
        assert np.all(ev > 0)  # kinetic + x^2 is positive definite

    def test_orthonormality(self):
        spec = stationary_states(oscillator(), 8)
        G = np.array([[inner_product(a, b) for b in spec.eigenfunctions]
                      for a in spec.eigenfunctions])
        assert np.max(np.abs(G - np.eye(8))) < 1e-9

    def test_eigenfunction_solves_eigenproblem(self):
        H = oscillator()
        spec = stationary_states(H, 4)
        for E, f in zip(spec.eigenvalues, spec.eigenfunctions):
            r = H.apply(f) - E * f
            assert q_norm(r) < 1e-9 * max(1.0, abs(E))

    def test_sign_convention_deterministic(self):
        # first significant component positive: re-solving cannot flip signs
        a = stationary_states(oscillator(), 5)
        b = stationary_states(oscillator(), 5)
        for f, g in zip(a.eigenfunctions, b.eigenfunctions):
            assert np.allclose(f.values, g.values, rtol=1e-12)

    def test_full_spectrum_cached(self):
        H = oscillator()
        s1 = H.full_spectrum()
        s2 = H.full_spectrum()
        assert s1 is s2
        assert len(s1.eigenvalues) == H.n_odd

    def test_k_validation(self):
        H = oscillator()
        with pytest.raises(ValueError):
            stationary_states(H, -1)
        with pytest.raises(ValueError):
            stationary_states(H, H.n_odd + 1)
        empty = stationary_states(H, 0)
        assert len(empty.eigenvalues) == 0

    def test_deformation_lowers_oscillator_levels(self):
        # at q = 0.9 the low-lying levels sit measurably below the
        # classical ladder, but keep its qualitative even spacing
        spec = stationary_states(oscillator(), 3)
        classical = np.array([0.5, 1.5, 2.5]) * math.sqrt(2.0)
        assert np.all(spec.eigenvalues < classical)
        gaps = np.diff(spec.eigenvalues)
        assert gaps[1] == pytest.approx(gaps[0], rel=0.2)


# -- expansion and synthesis -------------------------------------------------

class TestExpansion:
    def test_roundtrip(self):
        lat = default_lattice()
        H = oscillator(lat)
        spec = H.full_spectrum()
        psi = gaussian_packet(lat)
        c = expand(psi, spec)
        back = synthesize(c, spec, lat)
        # the packet lives on the odd sublattice as far as the metric sees
        odd = lat.odd_indices
        assert np.allclose(back.values[odd], psi.values[odd], atol=1e-10)

    def test_parseval(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        c = expand(psi, H.full_spectrum())
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_energy_from_coefficients(self):
        lat = default_lattice()
        H = oscillator(lat)
        spec = H.full_spectrum()
        psi = gaussian_packet(lat)
        c = expand(psi, spec)
        e_spec = float(np.sum(np.abs(c) ** 2 * spec.eigenvalues))
        e_direct = expectation(H, psi)
        assert abs(e_direct.imag) < 1e-9
        assert e_spec == pytest.approx(e_direct.real, abs=1e-9)


    def test_eigenvectors_are_one_real_odd_sublattice_array(self):
        lat = default_lattice()
        spec = stationary_states(oscillator(lat), 5)
        assert spec.vectors.dtype == np.float64
        assert spec.vectors.shape == (len(lat.odd_indices), 5)
        for n, f in enumerate(spec.eigenfunctions):
            assert np.array_equal(f.values[lat.odd_indices], spec.vectors[:, n])
            assert not np.any(np.delete(f.values, lat.odd_indices))

    def test_expand_is_inner_product_and_ignores_even_samples(self):
        lat = default_lattice()
        spec = stationary_states(oscillator(lat), 8)
        # mixed parity, nonzero at the even points too
        psi = decaying_test_function(lat, np.random.default_rng(3))
        assert np.all(np.delete(psi.values, lat.odd_indices) != 0)
        want = np.array([inner_product(f, psi) for f in spec.eigenfunctions])
        got = expand(psi, spec)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_synthesize_is_sum_of_eigenfunctions(self):
        lat = default_lattice()
        spec = stationary_states(oscillator(lat), 8)
        rng = np.random.default_rng(4)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        want = sum(cn * f.values for cn, f in zip(c, spec.eigenfunctions))
        got = synthesize(c, spec, lat)
        assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))


# -- evolution ---------------------------------------------------------------

class TestEvolution:
    def test_norm_and_energy_conserved(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        out = evolve(WaveState(psi, 0.0), H, dt=0.01, steps=1000)
        assert out.t == pytest.approx(10.0, rel=1e-12)
        assert q_norm(out.psi) == pytest.approx(1.0, abs=1e-9)
        e0 = expectation(H, psi).real
        # renormalize exactly before the expectation guard
        e1 = expectation(H, (1.0 / q_norm(out.psi)) * out.psi).real
        assert e1 == pytest.approx(e0, abs=1e-9)

    def test_eigenstate_picks_up_pure_phase(self):
        # eigenpair taken from the same spectrum evolve expands in; the
        # k-lowest solver path agrees only to its ~1e-10 eigenvalue noise,
        # which times t would dominate the phase comparison
        lat = default_lattice()
        H = oscillator(lat)
        spec = H.full_spectrum()
        f = spec.eigenfunctions[1]
        t = 3.7
        out = evolve(WaveState(f, 0.0), H, dt=t / 100, steps=100)
        phase = np.exp(-1j * spec.eigenvalues[1] * t)
        odd = lat.odd_indices
        assert np.max(np.abs(out.psi.values[odd] - phase * f.values[odd])) < 1e-9

    def test_zero_steps_identity(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        out = evolve(WaveState(psi, 1.5), H, dt=0.1, steps=0)
        odd = lat.odd_indices
        assert np.allclose(out.psi.values[odd], psi.values[odd], atol=1e-12)
        assert out.t == 1.5

    def test_time_reversal(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        fwd = evolve(WaveState(psi, 0.0), H, dt=0.05, steps=40)
        back = evolve(fwd, H, dt=-0.05, steps=40)
        odd = lat.odd_indices
        assert np.max(np.abs(back.psi.values[odd] - psi.values[odd])) < 1e-10

    def test_evolve_validation(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        with pytest.raises(ValueError):
            evolve(WaveState(psi, 0.0), H, dt=0.1, steps=-1)
        other = build_hamiltonian(lambda x: x * x, 1.0, 1.0, build_lattice(0.9, -2, 8, 1.0))
        with pytest.raises(ValueError):
            evolve(WaveState(psi, 0.0), other, dt=0.1, steps=1)


# -- observables -------------------------------------------------------------

class TestObservables:
    def test_expectation_requires_normalized_state(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = sample(lambda x: math.exp(-x * x), lat)  # not normalized
        with pytest.raises(ValueError):
            expectation(H, psi)

    def test_momentum_expectation_is_real_on_mixed_parity_states(self):
        # the pairing follows the operator's support, so p's mean is real
        lat = default_lattice()
        p = momentum_matrix(lat)
        rng = np.random.default_rng(0)
        for _ in range(10):
            psi = decaying_test_function(lat, rng)
            psi = (1.0 / q_norm(psi)) * psi
            assert abs(expectation(p, psi).imag) < 1e-12

    def test_full_lattice_expectation_on_eigenstates_uses_odd_points(self):
        lat = default_lattice()
        x = position_matrix(lat)
        for f in stationary_states(oscillator(lat), 3).eigenfunctions:
            assert expectation(x, f) == pytest.approx(
                inner_product(f, x.apply(f)), abs=1e-15)

    def test_fluctuation_vanishes_on_eigenstates(self):
        H = oscillator()
        spec = stationary_states(H, 3)
        for f in spec.eigenfunctions:
            assert fluctuation(H, f) < 1e-9

    def test_packet_has_positive_energy_spread(self):
        lat = default_lattice()
        H = oscillator(lat)
        assert fluctuation(H, gaussian_packet(lat)) > 1e-3
