"""Tests for the lattice Hamiltonian, its spectrum, and spectral evolution."""

from __future__ import annotations

import dataclasses
import math
import re
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


def traced_peak(call):
    """Bytes ``call()`` allocates at its peak under tracemalloc, on a second
    call (first-call allocations are not the call's own)."""
    call()
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

    def test_overflowing_stencil_factor_rejected(self):
        # The window is in float range at q 1e-200, but (q - 1/q)^2 is not:
        # it raised OverflowError; now a ValueError names q and |x|, not m_max.
        lat = build_lattice(1e-200, 0, 1)
        with pytest.raises(ValueError) as exc:
            build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
        assert str(exc.value) == ("Hamiltonian stencil factor (q - 1/q)^2 overflows at "
                                  "q = 1e-200 (innermost |x| = 1e-200)")

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

    @pytest.mark.parametrize("q", [0.5, 0.8, 0.9, 0.99])
    @pytest.mark.parametrize("m_min, m_max", [
        (0, 1), (-1, 2), (1, 2), (2, 9), (-3, 4), (-2, 5), (-15, 60)])
    def test_bands_match_pointwise_stencils_at_every_branch_end(self, q, m_min, m_max):
        # Both stencils rebuilt point by point from (sign, exponent): the
        # neighbor by exponent, the mirror point by sign, the derivative's
        # inner-end fill summed with its away-from-zero term.  Exact, so the
        # closure and edge rows are pinned as well as the interior.
        lat = build_lattice(q, m_min, m_max)
        qc = lat.q
        D = np.zeros((lat.size, lat.size))
        for j in range(lat.size):
            s, m = int(lat.sign[j]), int(lat.m[j])
            c = 1.0 / ((qc - 1.0 / qc) * lat.x[j])
            if m < m_max:
                D[j, lat.index_of(s, m + 1)] += c
            else:
                D[j, j] += c * (1.0 + qc)
                D[j, lat.index_of(s, m - 1)] += -c * qc
            if m > m_min:
                D[j, lat.index_of(s, m - 1)] += -c
        for op, s in ((derivative_matrix(lat), 1.0), (momentum_matrix(lat, 0.7), -0.7j)):
            assert np.array_equal(op.di, s * np.diag(D))
            assert np.array_equal(op.up, s * np.diag(D, 1))
            assert np.array_equal(op.lo, s * np.diag(D, -1))

        hbar, mass = 0.8, 1.3
        V = lambda x: x * x + 0.3 * x  # noqa: E731  (no mirror symmetry)
        H = build_hamiltonian(V, mass, hbar, lat)
        odd = lat.odd_indices
        at = {int(i): r for r, i in enumerate(odd)}
        kin = -hbar * hbar / (2.0 * mass)
        M = np.zeros((len(odd), len(odd)))
        for r, j in enumerate(odd):
            s, m, x = int(lat.sign[j]), int(lat.m[j]), lat.x[j]
            K = 1.0 / ((qc - 1.0 / qc) ** 2 * x * x)
            M[r, r] = kin * (-(qc + 1.0 / qc)) * K + complex(V(x)).real
            if m + 2 <= m_max:
                M[r, at[lat.index_of(s, m + 2)]] = kin * K / qc
            else:
                M[r, r] += kin * K / qc * (1.0 + qc * qc) / 2.0
                M[r, at[lat.index_of(-s, m)]] = kin * K / qc * (1.0 - qc * qc) / 2.0
            if m - 2 >= m_min:
                M[r, at[lat.index_of(s, m - 2)]] = kin * K * qc
        up, lo = np.diag(M, 1), np.diag(M, -1)
        root = np.sqrt(lat.w[odd])
        sym_e = 0.5 * (up * root[:-1] / root[1:] + lo * root[1:] / root[:-1])
        assert np.array_equal(H.di, np.diag(M))
        assert np.array_equal(H.up, up)
        assert np.array_equal(H.lo, lo)
        assert np.array_equal(H.sym_e, sym_e)


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

    @pytest.mark.parametrize("k", [4, None])
    def test_clustered_levels_come_out_q_orthonormal(self, k):
        # The deep double well's levels pair up to rounding (9 clusters below
        # a gap of 1e-10 in the full solve, 2 in the lowest 4), and the tilt
        # breaks the mirror symmetry, so one unsplit block holds each pair.
        # LAPACK's vectors are orthonormal there with no re-orthogonalization:
        # U^T W U = I to n_odd * eps (measured: 2.4e-15 full, 3.3e-16 partial).
        lat = default_lattice()
        H = build_hamiltonian(lambda x: 50 * (x * x - 4) ** 2 + 1e-13 * x, 1.0, 1.0, lat)
        k = H.n_odd if k is None else k
        spec = stationary_states(H, k)
        assert len(qschrodinger._problems(H, k)) == 1
        assert np.sum(np.diff(spec.eigenvalues) < 1e-10) == (9 if k == H.n_odd else 2)
        U = spec.vectors
        gram = U.T @ (lat.w[lat.odd_indices][:, None] * U)
        assert np.max(np.abs(gram - np.eye(k))) <= H.n_odd * np.finfo(float).eps

    @pytest.mark.parametrize("potential", [*EVEN_POTENTIALS[:3], SHIFTED_GAUSS])
    @pytest.mark.parametrize("k", [5, None])
    def test_sign_rule_matches_the_magnitude_reference(self, potential, k):
        # the reference takes |v| as a float array and is the sign rule as
        # first written: the rule on eigh_tridiagonal's output after the
        # W^{-1/2} scaling, bit for bit.
        # A mirror-symmetric H is solved as its even and odd blocks, each
        # vector embedded into the full odd sublattice before the rule reads
        # it; the shifted well is solved whole.
        lat = default_lattice()
        H = build_hamiltonian(potential, 1.0, 1.0, lat)
        n = H.n_odd
        k = n if k is None else k
        w = lat.w[lat.odd_indices]

        def solve(d, e, kb):
            select = {} if kb == len(d) else {"select": "i", "select_range": (0, kb - 1),
                                              "lapack_driver": "stebz",
                                              "tol": 2 * np.finfo(float).tiny}
            return eigh_tridiagonal(d, e, **select)

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

    @pytest.mark.parametrize("m_range, bound", [((-15, 60), 1e-12), ((-30, 200), 1e-6)])
    def test_partial_solve_relatively_accurate_to_the_block_bands(self, m_range, bound):
        # a partial solve bisects to a relative tolerance.  At m_max 200
        # eps * ||T|| is 1.2e4, and bisection to it gave -1346.04 three
        # times; on the default lattice it was off by 1.1e-10
        H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, build_lattice(0.9, *m_range))
        ref = []
        for _, d, e, k in qschrodinger._problems(H, 3):
            guess = eigh_tridiagonal(d, e, eigvals_only=True)[:k]
            ref += sturm_eigenvalues(d, e, guess, 1e-17)
        ref = np.sort(ref)[:3]
        got = stationary_states(H, 3).eigenvalues
        assert np.max(np.abs(got - ref) / ref) <= bound, np.abs(got - ref) / ref

    def test_no_matrix_sized_temporary_past_the_eigensolver_peak(self):
        # a full solve's eigenvectors plus workspace set the peak; after it
        # only boolean masks may join the eigenvectors.  The slack covers
        # Python scalars alive across the solve (an n x n bool mask here is
        # 549 KiB; a float copy of the eigenvectors is 4.3 MiB).  A parity
        # split holds both halves' vectors and one half's workspace, 3/8 of
        # the full solve's peak.
        lat = build_lattice(0.99, -150, 600)
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

    @pytest.mark.parametrize("window", [None, (0.99, -150, 600)], ids=["default", "n750"])
    @pytest.mark.parametrize("potential, k, blocks", [
        (lambda x: x * x, 5, 2), (lambda x: x * x, None, 2), (SHIFTED_GAUSS, None, 1),
        (SHIFTED_GAUSS, 5, 1)], ids=["split", "split-full", "unsplit-full", "unsplit"])
    def test_vector_vectors_and_synthesize_unfold_alike(self, window, potential, k, blocks):
        # vector(n), vectors[:, n] and the synthesis of the n-th unit
        # coefficient vector place eigenfunction n on the odd points alike.
        lat = default_lattice() if window is None else build_lattice(*window)
        H = build_hamiltonian(potential, 1.0, 1.0, lat)
        spec = stationary_states(H, H.n_odd if k is None else k)
        assert len(spec.blocks) == blocks
        V = spec.vectors
        unit = np.zeros(V.shape[1])
        for n in range(V.shape[1]):
            unit[n] = 1.0
            assert np.array_equal(spec.vector(n), V[:, n])
            assert np.array_equal(synthesize(unit, spec).values[lat.odd_indices], V[:, n])
            unit[n] = 0.0
        for n in (-1, V.shape[1]):
            with pytest.raises(IndexError):
                spec.vector(n)

    def test_blocks_hold_only_the_blocks_that_own_an_eigenpair(self):
        # the lowest pair of x^2 is even: the odd half block owns nothing
        spec = stationary_states(oscillator(), 1)
        assert [(parity, list(cols)) for parity, cols, _ in spec.blocks] == [(1, [0])]

    def test_no_eigenpairs_hold_no_blocks(self):
        lat = default_lattice()
        spec = stationary_states(oscillator(lat), 0)
        assert spec.blocks == ()
        assert spec.vectors.shape == (len(lat.odd_indices), 0)
        assert expand(gaussian_packet(lat), spec).shape == (0,)
        assert not np.any(synthesize([], spec).values)

    def test_synthesize_on_two_odd_points(self):
        # one pair on a lattice with two odd points: a one-row half block
        lat = build_lattice(0.9, 0, 1)
        spec = stationary_states(build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat), 1)
        assert len(spec.blocks) == 1
        got = synthesize([1.0], spec)
        assert np.array_equal(got.values, _from_odd(lat, spec.vector(0)).values)

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

    @pytest.mark.parametrize("window", [(-15, 60), (-15, 54)], ids=["h38", "h35"])
    @pytest.mark.parametrize("potential, k", [
        (lambda x: x * x, None),      # split, full solve: F-ordered stevd vectors
        (lambda x: x * x, 5),         # split, partial solve: stebz + stein
        (lambda x: x * x, 1),         # one column: a matrix-vector product
        (SHIFTED_GAUSS, None),        # unsplit, full solve
        (SHIFTED_GAUSS, 5),           # unsplit, partial solve
    ], ids=["split-full", "split-partial", "split-one", "unsplit-full", "unsplit-partial"])
    def test_products_are_numpy_matmul_bit_for_bit(self, window, potential, k):
        # expand and synthesize run on scipy's BLAS; each block's product must
        # be the value numpy's @ gives, bit for bit.  The blocks (38 and 76,
        # 35 and 70 rows) include sizes at which BLAS asked for U times the
        # (re, im) columns, the other operand order, differs from @ in its
        # last rows.
        lat = build_lattice(0.9, *window)
        H = build_hamiltonian(potential, 1.0, 1.0, lat)
        spec = stationary_states(H, H.n_odd if k is None else k)
        psi = decaying_test_function(lat, np.random.default_rng(5))
        idx = lat.odd_indices
        z = lat.w[idx] * psi.values[idx]
        h = len(z) // 2
        rng = np.random.default_rng(6)
        n_pairs = len(spec.eigenvalues)
        coeffs = rng.standard_normal(n_pairs) + 1j * rng.standard_normal(n_pairs)
        want_c = np.empty(n_pairs, dtype=complex)
        want_vals = np.zeros(len(idx), dtype=complex)
        for parity, cols, U in spec.blocks:
            zb = z if parity is None else z[h:] + parity * z[:h][::-1]
            want_c[cols] = (U.T @ zb.view(float).reshape(-1, 2)).view(complex)[:, 0]
            y = (U @ coeffs[cols].view(float).reshape(-1, 2)).view(complex)[:, 0]
            if parity is None:
                want_vals = y
            else:
                want_vals[h:] += y
                want_vals[:h][::-1] += parity * y
        assert np.array_equal(expand(psi, spec).view(np.uint64), want_c.view(np.uint64))
        got = synthesize(coeffs, spec).values[idx]
        assert np.array_equal(got.view(np.uint64), want_vals.view(np.uint64))


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

    @pytest.mark.parametrize("potential, n_times, window", [
        (lambda x: x * x, 5, None),   # the even block's parts computed at the call
        (lambda x: x * x, 40, None),  # 2 T >= n_odd/2: the even block's U kept
        (SHIFTED_GAUSS, 5, None),     # one full block
        # half blocks of h = 375; 187 is the most times with 2 T < h
        *((lambda x: x * x, n, (0.99, -150, 600)) for n in (1, 5, 11, 187)),
        # the benchmark's n_odd-3750 lattice, half blocks of h = 1875
        *((lambda x: x * x, n, (0.999, -750, 2999)) for n in (2, 6)),
    ], ids=["mirror-5", "mirror-40", "full-5", *(f"mirror750-{n}" for n in (1, 5, 11, 187)),
            *(f"mirror3750-{n}" for n in (2, 6))])
    def test_each_time_is_synthesized_from_the_initial_expansion(self, potential, n_times,
                                                                 window):
        lat = default_lattice() if window is None else build_lattice(*window)
        H = build_hamiltonian(potential, 0.7, 1.3, lat)
        psi = gaussian_packet(lat)
        ts = [0.0, 0.25, 1.0, 7.5, -3.0, *(0.3 * k for k in range(n_times - 5))][:n_times]
        out = list(evolve(psi, H, ts))
        assert len(out) == len(ts)
        spec = stationary_states(H, H.n_odd)
        c = expand(psi, spec)
        for t, got in zip(ts, out):
            want = synthesize(c * np.exp(-1j * spec.eigenvalues * t / H.hbar), spec)
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
        if H.n_odd < 3750:  # there, a third full solve would take about 0.4 s
            assert list(evolve(psi, H, [])) == []

    @pytest.mark.parametrize("potential, blocks", [(lambda x: x * x, 2), (SHIFTED_GAUSS, 1)],
                             ids=["mirror", "full"])
    def test_signs_are_fixed_only_where_vectors_are_output(self, monkeypatch, potential,
                                                           blocks):
        # evolve's states do not depend on the signs of its eigenvectors (a
        # column negated negates its coefficient exactly), so it skips the
        # sign rule; stationary_states applies it to each block it solves.
        spy = Mock(wraps=qschrodinger._fix_signs)
        monkeypatch.setattr(qschrodinger, "_fix_signs", spy)
        lat = default_lattice()
        H = build_hamiltonian(potential, 1.0, 1.0, lat)
        assert len(list(evolve(gaussian_packet(lat), H, [0.5, 1.0]))) == 2
        assert spy.call_count == 0
        for k in (3, H.n_odd):
            spy.reset_mock()
            stationary_states(H, k)
            assert spy.call_count == blocks

    @pytest.mark.parametrize("n_times", [10, 30])
    def test_times_may_be_any_iterable(self, n_times):
        lat = default_lattice()
        H = oscillator(lat)
        psi = gaussian_packet(lat)
        ts = [0.5 * k for k in range(n_times)]
        want = [f.values for f in evolve(psi, H, ts)]
        for times in (iter(ts), tuple(ts), np.array(ts)):
            got = [f.values for f in evolve(psi, H, times)]
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("potential, blocks", [(lambda x: x * x, 2), (SHIFTED_GAUSS, 1)],
                             ids=["mirror", "full"])
    def test_one_eigensolve_and_one_expansion_for_all_times(
            self, monkeypatch, potential, blocks):
        spies = {name: Mock(wraps=getattr(qschrodinger, name))
                 for name in ("eigh_tridiagonal", "_expand_block")}
        for name, spy in spies.items():
            monkeypatch.setattr(qschrodinger, name, spy)
        lat = default_lattice()
        H = build_hamiltonian(potential, 1.0, 1.0, lat)
        out = list(evolve(gaussian_packet(lat), H, [0.5 * k for k in range(1, 41)]))
        assert len(out) == 40
        assert [spy.call_count for spy in spies.values()] == [blocks, blocks]

    @pytest.fixture(scope="class")
    def mirror_750(self):
        lat = build_lattice(0.99, -150, 600)
        H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
        assert H.n_odd == 750
        h = H.n_odd // 2
        d = H.di[h:].copy()
        d[0] += H.sym_e[h - 1]
        floor = traced_peak(lambda: eigh_tridiagonal(d, H.sym_e[h:]))
        return H, sample(lambda x: math.exp(-((x - 1.0) ** 2)), lat), floor

    @staticmethod
    def evolve_peak(psi, H, n_times):
        times = [0.01 * k for k in range(n_times)]

        def consume():  # one state alive at a time, as a caller writing each
            for _ in evolve(psi, H, times):
                pass

        return traced_peak(consume)

    def test_few_times_evolve_within_one_half_block_solve(self, mirror_750):
        # 2 T < n_odd/2: the even block's parts at all times (16 T h bytes,
        # 29 KiB here) replace its eigenvectors (1.07 MiB) before the odd
        # block is solved, so one half-block solve sets the peak.  The slack
        # covers those parts and one state's arrays; keeping the even
        # eigenvectors across the odd solve costs 1.5 times the floor.
        H, psi, floor = mirror_750
        assert self.evolve_peak(psi, H, 5) <= floor + 128 * 1024

    def test_few_times_evolve_returns_holding_no_eigenvectors(self, mirror_750):
        # the last block's parts (16 T h bytes) are computed and its
        # eigenvectors (8 h^2 bytes, 1.07 MiB) dropped before evolve returns
        H, psi, _ = mirror_750
        h = H.n_odd // 2
        times = [0.3, 0.6]
        list(evolve(psi, H, times))  # first-call allocations are not evolve's own
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            states = evolve(psi, H, times)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del states
        assert held < 0.5 * 8 * h * h, held

    def test_few_times_evolve_peak_at_the_branch_edge(self, mirror_750):
        # At T = 187 the even block's parts are about the size of U = 8 h^2
        # bytes, and so are the odd block's: with the odd block's U, three
        # of them set the peak (3.04 U).  A product of all 187 times at once
        # adds its coefficient and result matrices, each again U's size.
        H, psi, _ = mirror_750
        h = H.n_odd // 2
        assert self.evolve_peak(psi, H, 187) <= 3.2 * 8 * h * h

    def test_many_times_evolve_peak_does_not_grow_with_their_number(self, mirror_750):
        # 2 T >= n_odd/2: the even block's eigenvectors are kept, the parts
        # are computed one time at a time.  The 1 KiB covers allocator
        # noise of tens of bytes; a copy of the 4000 times alone is 31 KiB.
        H, psi, floor = mirror_750
        peaks = [self.evolve_peak(psi, H, n_times) for n_times in (375, 4000)]
        assert max(peaks) <= 1.5 * floor
        assert peaks[1] <= peaks[0] + 1024

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

    @pytest.mark.parametrize("potential", [lambda x: x * x, SHIFTED_GAUSS],
                             ids=["mirror", "full"])
    @pytest.mark.parametrize("times, hbar, t_far", [
        ([0.5, 1e308], 1.0, "1e+308"),
        ([-1e308], 1.0, "1e+308"),
        ([1.0, float("nan")], 1.0, "nan"),
        ([1e10], 1e-300, "10000000000.0"),
    ], ids=["overflow", "negative", "nan", "small-hbar"])
    def test_time_whose_phase_is_not_finite_is_refused_at_the_call(
            self, recwarn, potential, times, hbar, t_far):
        lat = default_lattice()
        H = build_hamiltonian(potential, 1.0, hbar, lat)
        with pytest.raises(ValueError, match=re.escape(
                f"phase E t / hbar is not finite at |t| = {t_far}, hbar = {hbar!r}")):
            evolve(gaussian_packet(lat), H, times)
        assert not recwarn.list
        # a phase far from overflow is taken
        (out,) = evolve(gaussian_packet(lat), H, [1e300 * hbar])
        assert np.all(np.isfinite(out.values))


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
