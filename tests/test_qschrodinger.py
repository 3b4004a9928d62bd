"""Tests for the lattice Hamiltonian, its spectrum, and spectral evolution."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from unittest.mock import Mock

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from basicq import (
    Hamiltonian,
    OperatorMatrix,
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
    _from_odd,
    decaying_test_function,
    derivative_matrix,
    momentum_matrix,
    position_matrix,
)
import basicq.qschrodinger as qschrodinger
from basicq.qschrodinger import fluctuation


def oscillator(lattice=None):
    lat = lattice if lattice is not None else default_lattice()
    return build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)


def eigenfunctions(spec):
    """The columns of ``spec.vectors`` as lattice functions."""
    return [_from_odd(spec.lattice, v) for v in spec.vectors.T]


def gaussian_packet(lat):
    psi = sample(lambda x: math.exp(-((x - 0.4) ** 2)), lat)
    return (1.0 / q_norm(psi)) * psi


# Even potentials make H mirror-symmetric bit for bit; the shifted well does not.
EVEN_POTENTIALS = (lambda x: x * x, lambda x: x ** 4 - 2 * x * x, abs,
                   lambda x: -3.0 * math.exp(-((x / 0.5) ** 2)))


def SHIFTED_GAUSS(x):
    return math.exp(-(((x - 0.2) / 0.4) ** 2))


def _sturm_count(d, e2, x):
    """Eigenvalues of the symmetric tridiagonal (d, e) below ``x``: the
    negative pivots of ``T - x I = L D L^T``, with ``e2`` the squares of e."""
    count, pivot = 0, mpmath.mpf(1)
    for i, di in enumerate(d):
        pivot = di - x - (e2[i - 1] / pivot if i else 0)
        if pivot == 0:
            pivot = mpmath.mpf(10) ** -mpmath.mp.dps
        count += pivot < 0
    return count


def sturm_eigenvalues(d, e, guess, tol, dps=50):
    """The lowest ``len(guess)`` eigenvalues of the float bands (d, e) by
    Sturm-count bisection at ``dps`` digits, each to within ``tol``.

    ``guess[i]`` only seeds eigenvalue i's bracket, which is widened until
    the counts show it holds eigenvalue i, then halved.
    """
    with mpmath.workdps(dps):
        dm = [mpmath.mpf(float(v)) for v in d]
        e2 = [mpmath.mpf(float(v)) ** 2 for v in e]
        out = []
        for i, g in enumerate(guess):
            lo = hi = mpmath.mpf(float(g))
            step = mpmath.mpf(tol)
            while _sturm_count(dm, e2, lo) > i:
                lo, step = lo - step, 2 * step
            step = mpmath.mpf(tol)
            while _sturm_count(dm, e2, hi) <= i:
                hi, step = hi + step, 2 * step
            while hi - lo > tol:
                mid = (lo + hi) / 2
                if _sturm_count(dm, e2, mid) > i:
                    hi = mid
                else:
                    lo = mid
            out.append(float((lo + hi) / 2))
        return out


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
        # the message names x as a plain float, not a numpy repr
        x0 = float(lat.x[lat.odd_indices][0])
        with pytest.raises(ValueError) as exc:
            build_hamiltonian(lambda x: 1j * x, 1.0, 1.0, lat)  # complex potential
        assert str(exc.value) == f"complex potential rejected: V({x0!r}) = {1j * x0!r}"
        with pytest.raises(ValueError) as exc:
            build_hamiltonian(lambda x: math.nan, 1.0, 1.0, lat)
        assert str(exc.value) == f"non-finite potential value at x = {x0!r}"

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
    u = 2.0 * free_particle_wave(1.3, lat)
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
        fs = eigenfunctions(spec)
        G = np.array([[inner_product(a, b) for b in fs] for a in fs])
        assert np.max(np.abs(G - np.eye(8))) < 1e-9

    def test_eigenfunction_solves_eigenproblem(self):
        H = oscillator()
        spec = stationary_states(H, 4)
        for E, f in zip(spec.eigenvalues, eigenfunctions(spec)):
            r = H.apply(f) - E * f
            assert q_norm(r) < 1e-9 * max(1.0, abs(E))

    def test_sign_convention_deterministic(self):
        # first significant component positive: re-solving cannot flip signs
        a = stationary_states(oscillator(), 5)
        b = stationary_states(oscillator(), 5)
        for f, g in zip(eigenfunctions(a), eigenfunctions(b)):
            assert np.allclose(f.values, g.values, rtol=1e-12)

    @pytest.mark.parametrize("potential", [*EVEN_POTENTIALS[:3], SHIFTED_GAUSS])
    @pytest.mark.parametrize("k", [5, None])
    def test_sign_rule_matches_the_magnitude_reference(self, potential, k):
        # the reference takes |v| as a float array and is the sign rule as
        # first written: the rule on eigh_tridiagonal's output after the
        # cluster re-orthogonalization and the W^{-1/2} scaling, bit for bit.
        # A mirror-symmetric H is solved as its even and odd blocks, each
        # vector embedded into the full odd sublattice before the rule reads
        # it; the shifted well is solved whole.
        lat = default_lattice()
        H = build_hamiltonian(potential, 1.0, 1.0, lat)
        n = H.n_odd
        k = n if k is None else k
        w = lat.w[lat.odd_indices]

        def solve(d, e, kb):
            select = {} if kb == len(d) else {"select": "i", "select_range": (0, kb - 1)}
            evals, evecs = eigh_tridiagonal(d, e, **select)
            start = 0
            for i in range(1, kb + 1):
                if i == kb or evals[i] - evals[i - 1] >= qschrodinger.DEGENERACY_GAP:
                    if i - start > 1:
                        evecs[:, start:i] = np.linalg.qr(evecs[:, start:i])[0]
                    start = i
            return evals, evecs

        if potential is SHIFTED_GAUSS:
            evals, evecs = solve(H.di, H.sym_e, k)
            evecs /= np.sqrt(w)[:, None]
        else:
            h = n // 2
            parts = []
            for parity in (1, -1):
                d = H.di[h:].copy()
                d[0] += parity * H.sym_e[h - 1]
                ev, u = solve(d, H.sym_e[h:], min(k, h))
                u /= np.sqrt(2.0 * w[h:])[:, None]
                parts.append((ev, np.vstack([parity * u[::-1], u])))
            evals = np.concatenate([ev for ev, _ in parts])
            order = np.argsort(evals, kind="stable")[:k]
            evals, evecs = evals[order], np.hstack([u for _, u in parts])[:, order]
        mag = np.abs(evecs)
        first = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
        evecs *= np.where(evecs[first, np.arange(k)] < 0, -1.0, 1.0)
        spec = stationary_states(H, k)
        assert np.array_equal(spec.eigenvalues, evals)
        assert np.array_equal(spec.vectors, evecs)

    @pytest.mark.parametrize("potential", EVEN_POTENTIALS)
    @pytest.mark.parametrize("k", [1, 5, 38, 39, None])
    def test_even_potential_eigenfunctions_have_exact_parity(self, potential, k):
        H = build_hamiltonian(potential, 1.0, 1.0, default_lattice())
        vectors = stationary_states(H, H.n_odd if k is None else k).vectors
        for v in vectors.T:
            assert np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v)

    def test_double_well_states_keep_their_parity(self):
        # the two lowest pairs of a deep double well are degenerate to
        # rounding; a full solve returns them mixed (parity defect 0.56)
        lat = build_lattice(0.99, -150, 600)
        H = build_hamiltonian(lambda x: x ** 4 - 20 * x * x, 1.0, 1.0, lat)
        ev_full, v_full = eigh_tridiagonal(H.di, H.sym_e, select="i", select_range=(0, 3))
        mixed = np.minimum(np.linalg.norm(v_full - v_full[::-1], axis=0),
                           np.linalg.norm(v_full + v_full[::-1], axis=0))
        assert np.max(mixed) > 0.1
        spec = stationary_states(H, 4)
        assert np.allclose(spec.eigenvalues, ev_full, rtol=1e-9)
        for v in spec.vectors.T:
            assert np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v)

    @pytest.mark.parametrize("potential, nudge, sizes", [
        (lambda x: x * x, False, [38, 38]),
        (lambda x: x * x, True, [76]),
        (SHIFTED_GAUSS, False, [76]),
    ])
    def test_mirror_gate_picks_two_half_solves_or_one_full(self, monkeypatch,
                                                           potential, nudge, sizes):
        H = build_hamiltonian(potential, 1.0, 1.0, default_lattice())
        if nudge:  # one ulp off the mirror in one diagonal entry
            di = H.di.copy()
            di[3] = np.nextafter(di[3], np.inf)
            H = dataclasses.replace(H, di=di)
        spy = Mock(wraps=eigh_tridiagonal)
        monkeypatch.setattr(qschrodinger, "eigh_tridiagonal", spy)
        stationary_states(H, 4)
        assert [len(call.args[0]) for call in spy.call_args_list] == sizes

    @pytest.mark.parametrize("m_range", [(-15, 60), (-30, 140)])
    @pytest.mark.parametrize("potential", [*EVEN_POTENTIALS, SHIFTED_GAUSS])
    def test_lowest_eigenvalues_within_eps_norm_of_sturm_reference(self, m_range, potential):
        # normwise: a backward-stable solver meets eps * ||T||, with T the
        # symmetric tridiagonal form; relative accuracy is not claimed
        H = build_hamiltonian(potential, 1.0, 1.0, build_lattice(0.9, *m_range))
        guess = eigh_tridiagonal(H.di, H.sym_e, eigvals_only=True)
        bound = np.finfo(float).eps * max(abs(guess[0]), abs(guess[-1]))
        ref = np.array(sturm_eigenvalues(H.di, H.sym_e, guess[:6], 1e-3 * bound), dtype=float)
        for k in (H.n_odd, 6):
            err = np.abs(stationary_states(H, k).eigenvalues[:6] - ref)
            assert np.max(err) <= bound, (k, err / bound)

    def test_no_matrix_sized_temporary_past_the_eigensolver_peak(self):
        # a full solve's eigenvectors plus workspace set the peak; after it
        # only boolean masks may join the eigenvectors.  The slack covers
        # Python scalars alive across the solve (an n x n bool mask here is
        # 549 KiB; a float copy of the eigenvectors is 4.3 MiB).  A parity
        # split holds both halves' vectors and one half's workspace, 3/8 of
        # the full solve's peak.
        lat = build_lattice(0.99, -150, 600)

        def traced_peak(call):
            call()  # warm: first-call allocations are not the solve's
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = call()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            del result
            return peak

        for potential, ratio, slack in ((lambda x: x * x, 0.5, 0), (SHIFTED_GAUSS, 1.0, 1024)):
            H = build_hamiltonian(potential, 1.0, 1.0, lat)
            n = H.n_odd
            assert n == 750
            solver = traced_peak(lambda: eigh_tridiagonal(H.di, H.sym_e))
            assert traced_peak(lambda: stationary_states(H, n)) <= ratio * solver + slack

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
        spec = stationary_states(H, H.n_odd)
        psi = gaussian_packet(lat)
        c = expand(psi, spec)
        back = synthesize(c, spec)
        # the packet lives on the odd sublattice as far as the metric sees
        odd = lat.odd_indices
        assert np.allclose(back.values[odd], psi.values[odd], atol=1e-10)

    def test_parseval(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        c = expand(psi, stationary_states(H, H.n_odd))
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_energy_from_coefficients(self):
        lat = default_lattice()
        H = oscillator(lat)
        spec = stationary_states(H, H.n_odd)
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
        for n, f in enumerate(eigenfunctions(spec)):
            assert np.array_equal(f.values[lat.odd_indices], spec.vectors[:, n])
            assert not np.any(np.delete(f.values, lat.odd_indices))

    def test_expand_is_inner_product_and_ignores_even_samples(self):
        lat = default_lattice()
        spec = stationary_states(oscillator(lat), 8)
        # mixed parity, nonzero at the even points too
        psi = decaying_test_function(lat, np.random.default_rng(3))
        assert np.all(np.delete(psi.values, lat.odd_indices) != 0)
        want = np.array([inner_product(f, psi) for f in eigenfunctions(spec)])
        got = expand(psi, spec)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_synthesize_is_sum_of_eigenfunctions(self):
        lat = default_lattice()
        spec = stationary_states(oscillator(lat), 8)
        rng = np.random.default_rng(4)
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        want = sum(cn * f.values for cn, f in zip(c, eigenfunctions(spec)))
        got = synthesize(c, spec)
        assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))


# -- evolution ---------------------------------------------------------------

class TestEvolution:
    def test_norm_and_energy_conserved(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        (out,) = evolve(psi, H, [10.0])
        assert q_norm(out) == pytest.approx(1.0, abs=1e-9)
        e0 = expectation(H, psi).real
        # renormalize exactly before the expectation guard
        e1 = expectation(H, (1.0 / q_norm(out)) * out).real
        assert e1 == pytest.approx(e0, abs=1e-9)

    def test_eigenstate_picks_up_pure_phase(self):
        # eigenpair taken from the full spectrum evolve expands in; the
        # k-lowest solver path agrees only to its ~1e-10 eigenvalue noise,
        # which times t would dominate the phase comparison
        lat = default_lattice()
        H = oscillator(lat)
        spec = stationary_states(H, H.n_odd)
        f = eigenfunctions(spec)[1]
        t = 3.7
        (out,) = evolve(f, H, [t])
        phase = np.exp(-1j * spec.eigenvalues[1] * t)
        odd = lat.odd_indices
        assert np.max(np.abs(out.values[odd] - phase * f.values[odd])) < 1e-9

    def test_zero_time_identity(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        (out,) = evolve(psi, H, [0.0])
        odd = lat.odd_indices
        assert np.allclose(out.values[odd], psi.values[odd], atol=1e-12)

    def test_time_reversal(self):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        (fwd,) = evolve(psi, H, [2.0])
        (back,) = evolve(fwd, H, [-2.0])
        odd = lat.odd_indices
        assert np.max(np.abs(back.values[odd] - psi.values[odd])) < 1e-10

    def test_each_time_is_synthesized_from_the_initial_expansion(self):
        lat = default_lattice()
        H = build_hamiltonian(lambda x: x * x, 0.7, 1.3, lat)
        psi = gaussian_packet(lat)
        ts = [0.0, 0.25, 1.0, 7.5, -3.0]
        out = list(evolve(psi, H, ts))
        assert len(out) == len(ts)
        spec = stationary_states(H, H.n_odd)
        c = expand(psi, spec)
        for t, got in zip(ts, out):
            want = synthesize(c * np.exp(-1j * spec.eigenvalues * t / H.hbar), spec)
            assert np.max(np.abs(got.values - want.values)) <= 1e-14 * np.max(
                np.abs(want.values))
        assert list(evolve(psi, H, [])) == []

    def test_one_eigensolve_and_one_expansion_for_all_times(self, monkeypatch):
        spies = {name: Mock(wraps=getattr(qschrodinger, name))
                 for name in ("stationary_states", "expand")}
        for name, spy in spies.items():
            monkeypatch.setattr(qschrodinger, name, spy)
        lat = default_lattice()
        evolve(gaussian_packet(lat), oscillator(lat), [0.5 * k for k in range(1, 41)])
        assert [spy.call_count for spy in spies.values()] == [1, 1]

    def test_evolve_validation(self, monkeypatch):
        # a lattice mismatch is refused before any eigensolve
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve ran before the lattice check")

        monkeypatch.setattr(qschrodinger, "stationary_states", no_eigensolve)
        monkeypatch.setattr(qschrodinger, "eigh_tridiagonal", no_eigensolve)
        psi = gaussian_packet(default_lattice())
        other = build_hamiltonian(lambda x: x * x, 1.0, 1.0, build_lattice(0.9, -2, 8, 1.0))
        with pytest.raises(ValueError, match="lattice mismatch"):
            evolve(psi, other, [0.1])


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
        for f in eigenfunctions(stationary_states(oscillator(lat), 3)):
            assert expectation(x, f) == pytest.approx(
                inner_product(f, x.apply(f)), abs=1e-15)

    def test_fluctuation_vanishes_on_eigenstates(self):
        H = oscillator()
        spec = stationary_states(H, 3)
        for f in eigenfunctions(spec):
            assert fluctuation(H, f) < 1e-9

    def test_packet_has_positive_energy_spread(self):
        lat = default_lattice()
        H = oscillator(lat)
        assert fluctuation(H, gaussian_packet(lat)) > 1e-3
