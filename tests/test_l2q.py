"""Tests for the geometric lattice Hilbert space and its operators."""

from __future__ import annotations

import gc
import io
import math
import random
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from basicq import (
    LatticeFunction,
    OperatorMatrix,
    QLattice,
    build_lattice,
    default_lattice,
    derivative_matrix,
    hermiticity_residual,
    inner_product,
    momentum_matrix,
    position_matrix,
    q_norm,
    sample,
)
from basicq.errors import ParseError
from basicq.exprparse import BoundExpression, parse
from basicq.l2q import (
    CSV_BLOCK_ROWS,
    _from_odd,
    basis_function,
    decaying_test_function,
    default_window,
    to_csv,
)
from basicq.qschrodinger import build_hamiltonian, evolve, stationary_states
from test_fuzz_cli import _expr


def gauss2(x):
    return x * x * math.exp(-x * x)


# -- lattice geometry --------------------------------------------------------

class TestLatticeGeometry:
    def test_default_shape(self):
        lat = default_lattice()
        assert (lat.q, lat.m_min, lat.m_max, lat.a) == (0.9, -15, 60, 1.0)
        assert lat.size == 152
        assert lat.n_branch == 76
        assert len(lat.odd_indices) == 76

    def test_points_strictly_ascending(self):
        lat = default_lattice()
        assert np.all(np.diff(lat.x) > 0)

    def test_points_are_signed_geometric(self):
        lat = build_lattice(0.8, -3, 5, 2.0)
        for i in range(lat.size):
            s, m = int(lat.sign[i]), int(lat.m[i])
            assert lat.x[i] == pytest.approx(s * 2.0 * 0.8 ** m, rel=1e-15)

    def test_mirror_symmetry(self):
        lat = default_lattice()
        assert np.allclose(lat.x, -lat.x[::-1], rtol=1e-15)

    def test_weights_odd_only(self):
        lat = build_lattice(0.9, -4, 9, 1.0)
        q = 0.9
        for i in range(lat.size):
            m = int(lat.m[i])
            if m % 2 == 0:
                assert lat.w[i] == 0.0
            else:
                assert lat.w[i] == pytest.approx((1 / q - q) * q ** m, rel=1e-14)

    def test_weights_of_both_sublattices(self):
        lat = build_lattice(0.9, -4, 9, 1.0)
        q = 0.9
        for i in range(lat.size):
            m = int(lat.m[i])
            assert lat.w_all[i] == pytest.approx((1 / q - q) * q ** m, rel=1e-14)
            if m % 2 != 0:
                assert lat.w_all[i] == lat.w[i]
        assert lat.weights() is lat.w
        assert lat.weights("all") is lat.w_all
        with pytest.raises(ValueError):
            lat.weights("even")

    def test_weights_resolve_the_unit_interval(self):
        # odd weights on [0, 1] telescope to the full Jackson measure of [0, 1]
        lat = build_lattice(0.9, 1, 401, 1.0)
        half = lat.w[lat.x > 0].sum()
        assert half == pytest.approx(1.0, abs=1e-14)

    def test_index_roundtrip(self):
        lat = build_lattice(0.7, -2, 6, 1.0)
        for i in range(lat.size):
            assert lat.index_of(int(lat.sign[i]), int(lat.m[i])) == i

    def test_index_of_rejects_outside(self):
        lat = build_lattice(0.7, -2, 6, 1.0)
        with pytest.raises(ValueError):
            lat.index_of(1, 7)
        with pytest.raises(ValueError):
            lat.index_of(0, 3)

    def test_q_canonicalized(self):
        a = build_lattice(0.8, -2, 4, 1.0)
        b = build_lattice(1.25, -2, 4, 1.0)
        assert np.allclose(a.x, b.x, rtol=1e-15)

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_lattice(1.0, -2, 4, 1.0)  # classical q has no lattice
        with pytest.raises(ValueError):
            build_lattice(0.9, 5, 2, 1.0)
        with pytest.raises(ValueError):
            build_lattice(0.9, -2, 4, 0.0)
        with pytest.raises(ValueError):
            build_lattice(0.9, 2, 2, 1.0)  # no odd exponent in range

    @pytest.mark.parametrize("q, m_min, m_max", [
        (0.5, -15, 1075),  # q^1075 underflows: x = 0 at the inner end
        (0.5, -1024, 10),  # q^-1024 overflows: |x| = inf at the outer end
        (1e-200, -1, 1),  # |x| finite, the weight (1/q - q) q^-1 overflows
    ])
    def test_window_past_float_range_rejected(self, q, m_min, m_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and nothing is printed
            with pytest.raises(ValueError) as exc:
                build_lattice(q, m_min, m_max)
        assert str(exc.value) == (
            f"lattice window m in [{m_min}, {m_max}] leaves float range at q = {q!r}: "
            "a point |x| or its weight is 0 or infinite")

    def test_window_past_float_range_is_refused_before_it_is_built(self):
        # building the 2 million points' arrays would take 84 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="leaves float range"):
                build_lattice(0.9, -1_000_000, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_window_at_the_float_range_edges_builds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lat = build_lattice(0.5, -1023, 1074)
        assert lat.x[-1] == 2.0 ** 1023 and lat.w_all[0] == 1.5 * 2.0 ** 1023
        assert lat.x[lat.n_branch] == 5e-324 and lat.w_all[lat.n_branch] > 0

    def test_compatibility(self):
        a = build_lattice(0.9, -2, 4, 1.0)
        b = build_lattice(0.9, -2, 4, 1.0)
        c = build_lattice(0.9, -2, 5, 1.0)
        assert a.compatible(b)
        assert not a.compatible(c)


class TestDefaultWindow:
    def test_default_lattice_is_the_rule_at_q_0_9(self):
        assert default_window(0.9) == (-15, 60)
        a, b = default_lattice(), build_lattice(0.9, -15, 60)
        assert (a.q, a.m_min, a.m_max, a.a) == (b.q, b.m_min, b.m_max, b.a)
        for name in ("sign", "m", "x", "w", "w_all"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("q, window", [(0.5, (-2, 9)), (0.8, (-7, 28)),
                                           (0.95, (-31, 124)), (0.99, (-160, 634))])
    def test_window_is_the_points_in_range_rounded_inward(self, q, window):
        assert default_window(q) == window
        m_min, m_max = window
        assert 5.0 < q ** (m_min - 1) and q ** m_min <= 5.0
        assert 1.7e-3 <= q ** m_max and q ** (m_max + 1) < 1.7e-3

    @pytest.mark.parametrize("q", [1e-6, 0.001, 0.01, 0.3, 0.5, 0.9, 0.99])
    def test_q_and_its_reciprocal_share_a_window(self, q):
        assert default_window(1 / q) == default_window(q)

    @pytest.mark.parametrize("q", [1e-6, 0.001, 1000])
    def test_window_keeps_two_exponents_at_tiny_and_huge_q(self, q):
        m_min, m_max = default_window(q)
        assert m_min < m_max
        assert build_lattice(q, m_min, m_max).size >= 4

    def test_classical_q_is_rejected(self):
        with pytest.raises(ValueError, match="q != 1"):
            default_window(1.0)


# -- functions and inner product ---------------------------------------------

class TestInnerProduct:
    def test_reference_norm_squared(self):
        # <psi, psi> for psi = x^2 exp(-x^2), 50-digit lattice sum
        psi = sample(gauss2, default_lattice())
        n2 = inner_product(psi, psi).real
        assert n2 == pytest.approx(0.23543140895690216, rel=1e-14)

    def test_conjugate_linear_first_slot(self):
        lat = default_lattice()
        phi = sample(gauss2, lat)
        psi = sample(lambda x: x * math.exp(-x * x), lat)
        assert inner_product(2j * phi, psi) == pytest.approx(
            -2j * inner_product(phi, psi), rel=1e-14)
        assert inner_product(phi, 2j * psi) == pytest.approx(
            2j * inner_product(phi, psi), rel=1e-14)

    def test_even_exponent_samples_carry_no_weight(self):
        lat = default_lattice()
        phi = sample(gauss2, lat)
        bumped = phi.values.copy()
        for i in range(lat.size):
            if int(lat.m[i]) % 2 == 0:
                bumped[i] += 17.0
        psi = LatticeFunction(lat, bumped)
        assert inner_product(phi, psi) == pytest.approx(
            inner_product(phi, phi), rel=1e-14)

    def test_norm_matches_inner_product(self):
        psi = sample(gauss2, default_lattice())
        assert q_norm(psi) == pytest.approx(math.sqrt(0.23543140895690216), rel=1e-14)

    def test_lattice_mismatch_rejected(self):
        a = sample(gauss2, build_lattice(0.9, -2, 4, 1.0))
        b = sample(gauss2, build_lattice(0.9, -2, 5, 1.0))
        with pytest.raises(ValueError):
            inner_product(a, b)

    def test_nonfinite_samples_rejected(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        with pytest.raises(ValueError):
            sample(lambda x: math.inf, lat)
        # the message names the first non-finite point in lattice order
        x0 = float(lat.x[lat.x > 0][0])
        with pytest.raises(ValueError) as exc:
            sample(lambda x: math.nan if x > 0 else x, lat)
        assert str(exc.value) == f"non-finite sample at x = {x0!r}"

    def test_the_first_refused_sample_wins_before_a_later_point_is_read(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        read = []

        def f(x):
            read.append(x)
            if x > 0:
                raise ZeroDivisionError("a later point")
            return math.inf if x == lat.x[1] else x

        with pytest.raises(ValueError) as exc:
            sample(f, lat)
        assert str(exc.value) == f"non-finite sample at x = {float(lat.x[1])!r}"
        assert read == lat.x[:2].tolist()

    def test_samples_of_the_wrong_shape_rejected(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        with pytest.raises(ValueError) as exc:
            LatticeFunction(lat, np.zeros((2, lat.size)))
        assert str(exc.value) == "values shape (2, 14) does not match lattice size 14"

    def test_arithmetic(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        f = sample(lambda x: x, lat)
        g = sample(lambda x: x * x, lat)
        h = f + 2.0 * g - g
        assert np.allclose(h.values, f.values + g.values, rtol=1e-15)


def _samples(f, lat):
    return [sample(f, lat).values]


def _bands(f, lat):
    H = build_hamiltonian(f, 1.0, 1.0, lat)
    return [H.lo, H.di, H.up, H.sym_e]


def _read_outcome(read, f, lat):
    """The bytes of each array ``read(f, lat)`` returns, or its error's class and text."""
    try:
        return [a.tobytes() for a in read(f, lat)]
    except Exception as exc:
        return type(exc), str(exc)


def test_an_expression_reads_as_its_point_function():
    # a BoundExpression is called with every point at once, any other
    # function point by point: both give the same bits or the same error
    rng = random.Random(17)
    lattices = {q: build_lattice(q, *default_window(q)) for q in (0.5, 0.9)}
    checked = 0
    while checked < 300:
        text, q = _expr(rng), rng.choice((0.5, 0.9))
        try:
            f = BoundExpression(parse(text), q)
        except ParseError:  # such as "--x"
            continue
        for read in (_samples, _bands):
            assert (_read_outcome(read, f, lattices[q])
                    == _read_outcome(read, lambda x: f(x), lattices[q])), text
        checked += 1


class TestBasisFunctions:
    def test_orthonormal_family(self):
        lat = default_lattice()
        members = [basis_function(n, lat, s) for n in (0, 3, 10) for s in ("+", "-")]
        for i, f in enumerate(members):
            for j, g in enumerate(members):
                want = 1.0 if i == j else 0.0
                assert inner_product(f, g).real == pytest.approx(want, abs=1e-12)

    def test_value_is_inverse_sqrt_weight(self):
        lat = default_lattice()
        f = basis_function(2, lat, "+")
        idx = lat.index_of(1, 5)
        assert f.values[idx] == pytest.approx(1.0 / math.sqrt(lat.w[idx]), rel=1e-14)

    def test_out_of_range_rejected(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        with pytest.raises(ValueError):
            basis_function(3, lat)  # exponent 7 > m_max
        with pytest.raises(ValueError):
            basis_function(0, lat, sign="?")


# -- operators ---------------------------------------------------------------

class TestOperators:
    def test_position_is_pointwise_coordinate(self):
        lat = default_lattice()
        psi = sample(gauss2, lat)
        got = position_matrix(lat).apply(psi)
        assert np.allclose(got.values, lat.x * psi.values, rtol=1e-15)

    def test_momentum_paths_agree_on_linear_functions_everywhere(self):
        # the inner-end linear continuation is exact on linear functions;
        # only the outermost rows (m = m_min) lose their zero-filled neighbor
        lat = default_lattice()
        psi = sample(lambda x: 3.0 + 2.0 * x, lat)
        got = momentum_matrix(lat).apply(psi)
        rows = lat.m > lat.m_min
        assert np.allclose(got.values[rows], -2j, rtol=0, atol=1e-10)

    def test_momentum_is_minus_i_hbar_derivative(self):
        lat = default_lattice()
        psi = sample(gauss2, lat)
        d = derivative_matrix(lat).apply(psi)
        p = momentum_matrix(lat, hbar=0.7).apply(psi)
        assert np.allclose(p.values, -0.7j * d.values, rtol=1e-14)

    def test_derivative_interior_matches_pointwise_stencil(self):
        from basicq import jackson_derivative
        lat = default_lattice()
        psi = sample(gauss2, lat)
        d = derivative_matrix(lat).apply(psi)
        for i in range(lat.size):
            m = int(lat.m[i])
            if lat.m_min + 1 <= m <= lat.m_max - 1:
                want = jackson_derivative(gauss2, lat.x[i], lat.q)
                assert d.values[i] == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_inner_end_linear_continuation(self):
        # past the smallest |x| the stencil continues toward the origin
        # through the two innermost same-branch samples
        lat = build_lattice(0.9, -2, 4, 1.0)
        psi = sample(lambda x: 3.0 + 2.0 * x, lat)
        d = momentum_matrix(lat).apply(psi)
        i = lat.index_of(1, 4)  # innermost positive point
        assert d.values[i] == pytest.approx(-1j * 2.0, rel=1e-12)

    def test_operator_matrix_validation(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        n = lat.size
        with pytest.raises(ValueError):
            OperatorMatrix(lat, np.zeros(2), np.zeros(3), np.zeros(2), "all")
        with pytest.raises(ValueError):
            OperatorMatrix(lat, np.zeros(n), np.zeros(n), np.zeros(n - 1), "all")
        with pytest.raises(ValueError):
            OperatorMatrix(lat, np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), "diagonal")
        odd = len(lat.odd_indices)
        with pytest.raises(ValueError):
            OperatorMatrix(lat, np.zeros(n - 1), np.zeros(n), np.zeros(n - 1), "odd")
        A = OperatorMatrix(lat, np.zeros(odd - 1), np.ones(odd), np.zeros(odd - 1), "odd")
        assert A.matrix.shape == (odd, odd)

    def test_bands_are_read_only(self):
        p = momentum_matrix(default_lattice())
        for band in (p.lo, p.di, p.up, p.matrix):
            with pytest.raises(ValueError):
                band[0] = 1.0

    @pytest.mark.parametrize("name", ["x", "D", "p", "H"])
    def test_band_apply_matches_dense_view(self, name):
        lat = build_lattice(0.8, -4, 21)
        A = {
            "x": lambda: position_matrix(lat),
            "D": lambda: derivative_matrix(lat),
            "p": lambda: momentum_matrix(lat, hbar=0.7),
            "H": lambda: build_hamiltonian(lambda x: x * x, 2.5, 0.7, lat),
        }[name]()
        rng = np.random.default_rng(6)
        psi = LatticeFunction(lat, rng.standard_normal(lat.size)
                              + 1j * rng.standard_normal(lat.size))
        rows = lat.odd_indices if A.support == "odd" else np.arange(lat.size)
        want = A.matrix @ psi.values[rows]
        got = A.apply(psi).values
        assert np.max(np.abs(got[rows] - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.all(np.delete(got, rows) == 0)

    def test_band_operators_allocate_no_dense_matrix(self):
        # a 1700-point dense complex matrix would take 46 MB
        tracemalloc.start()
        try:
            hermiticity_residual(momentum_matrix(build_lattice(0.99, -161, 688)), trials=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# -- Hermiticity structure ---------------------------------------------------

class TestHermiticity:
    def test_parity_pure_pairs_are_exact(self):
        p = momentum_matrix(default_lattice())
        assert hermiticity_residual(p, trials=20, seed=0, parity="even") < 1e-12
        assert hermiticity_residual(p, trials=20, seed=0, parity="odd") < 1e-12

    def test_parity_pure_pairs_exact_at_coarse_q(self):
        # the equal-parity cancellation is independent of the deformation
        lat = build_lattice(0.5, -8, 30, 1.0)
        p = momentum_matrix(lat)
        assert hermiticity_residual(p, trials=12, seed=3, parity="even") < 1e-12
        assert hermiticity_residual(p, trials=12, seed=3, parity="odd") < 1e-12

    def test_mixed_parity_defect_shrinks_toward_classical(self):
        # Pairing both sides in the odd-point q-inner product alone compares
        # two quadratures of conj(p phi) psi, one on the odd and one on the
        # even sublattice.  Same geometry rescaled: on mixed-parity pairs that
        # gap dies off as q -> 1.
        res = []
        for q, m_lo, m_hi in [(0.5, -3, 12), (0.9, -15, 60), (0.97, -50, 200)]:
            lat = build_lattice(q, m_lo, m_hi, 1.0)
            p = momentum_matrix(lat)
            rng = np.random.default_rng(1)
            worst = 0.0
            for _ in range(10):
                phi = decaying_test_function(lat, rng)
                psi = decaying_test_function(lat, rng)
                gap = abs(inner_product(phi, p.apply(psi))
                          - inner_product(p.apply(phi), psi))
                worst = max(worst, gap / (q_norm(phi) * q_norm(psi)))
            res.append(worst)
        assert res[0] > 1e-2
        assert res[1] < 1e-3
        assert res[2] < 1e-9

    def test_derivative_anti_adjoint_from_odd_to_even_points(self):
        # <phi, D psi>_odd = -<D phi, psi>_even on generic mixed-parity pairs:
        # the two sublattice sums are the same sum, reindexed by one exponent.
        for window in ((0.5, -3, 10), (0.8, -8, 31), (0.9, -16, 66)):
            lat = build_lattice(*window)
            d = derivative_matrix(lat)
            w_even = lat.w_all - lat.w
            rng = np.random.default_rng(0)
            for _ in range(10):
                phi = decaying_test_function(lat, rng)
                psi = decaying_test_function(lat, rng)
                lhs = inner_product(phi, d.apply(psi))
                rhs = np.sum(w_even * np.conj(d.apply(phi).values) * psi.values)
                assert abs(lhs + rhs) / (q_norm(phi) * q_norm(psi)) < 1e-13

    def test_both_sublattice_pairing_matches_on_odd_support(self):
        # functions with zero even samples pair identically in both measures
        lat = default_lattice()
        rng = np.random.default_rng(2)
        odd = lat.m % 2 != 0
        phi = LatticeFunction(lat, decaying_test_function(lat, rng).values * odd)
        psi = LatticeFunction(lat, decaying_test_function(lat, rng).values * odd)
        assert inner_product(phi, psi, "all") == inner_product(phi, psi)
        assert q_norm(psi, "all") == q_norm(psi)

    def test_bare_derivative_flagged_non_hermitian(self):
        d = derivative_matrix(default_lattice())
        assert hermiticity_residual(d, trials=10, seed=0) > 0.1

    def test_residual_refuses_a_window_where_nothing_is_measured(self):
        # the decaying family is 0 at every |x| above about 27: every pair
        # has q-norm 0, and a defect of 0.0 would pass the bare derivative
        d = derivative_matrix(build_lattice(0.9, -420, -400))
        with pytest.raises(ValueError, match=r"m in \[-420, -400\] at q = 0.9: nothing was"):
            hermiticity_residual(d)

    def test_trials_validation(self):
        p = momentum_matrix(default_lattice())
        with pytest.raises(ValueError):
            hermiticity_residual(p, trials=0)

    def test_family_parity_options(self):
        lat = default_lattice()
        rng = np.random.default_rng(5)
        even = decaying_test_function(lat, rng, parity="even")
        odd = decaying_test_function(lat, rng, parity="odd")
        rev = slice(None, None, -1)
        assert np.allclose(even.values, even.values[rev], rtol=1e-13)
        assert np.allclose(odd.values, -odd.values[rev], rtol=1e-13)
        with pytest.raises(ValueError):
            decaying_test_function(lat, rng, parity="sideways")


# -- serialization -----------------------------------------------------------

class TestSerialization:
    def test_csv_roundtrip(self):
        lat = default_lattice()
        psi = sample(lambda x: (1 + 2j) * x * math.exp(-x * x), lat)
        cols = np.loadtxt(io.StringIO(to_csv(psi)), delimiter=",", skiprows=2)
        assert cols.shape == (lat.size, 6)
        for col, want in zip(cols.T, (lat.sign, lat.m, lat.x, lat.w)):
            assert np.array_equal(col, want)
        assert np.array_equal(cols[:, 4] + 1j * cols[:, 5], psi.values)

    def test_csv_matches_per_row_formatting(self):
        # the row templates are cached on each lattice; every file must equal
        # all six cells formatted row by row
        def reference(psi):
            lat, v = psi.lattice, psi.values + 0.0
            rows = zip(lat.sign.tolist(), lat.m.tolist(), lat.x.tolist(), lat.w.tolist(),
                       v.real.tolist(), v.imag.tolist())
            return ("# schema_version=1\nsign,m,x,weight,re,im\n"
                    + "".join("%d,%d,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows))

        for lat in (default_lattice(), build_lattice(0.5, -3, 7, 2.5), default_lattice()):
            for f in (gauss2, lambda x: (1 - 2j) * x ** 3, lambda x: -0.0):
                psi = sample(f, lat)
                assert to_csv(psi) == reference(psi)

        # Solver eigenvectors embedded on the odd points and an evolved
        # complex state, on a lattice whose x and weights run from 9e-13 to
        # 1e18, printed in exponent form.
        lat = build_lattice(0.5, -70, 30, 1e-3)
        H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
        vectors = stationary_states(H, 3).vectors
        states = [_from_odd(lat, vectors[:, n]) for n in range(3)]
        states.append(next(evolve(sample(lambda x: math.exp(-(x - 0.3) ** 2), lat), H, [0.7])))
        assert "e-13," in to_csv(states[0]) and "e+18," in to_csv(states[0])
        assert np.any(states[-1].values.imag != 0)
        for psi in states:
            assert to_csv(psi) == reference(psi)

        # The rows are written in blocks of CSV_BLOCK_ROWS points.  A lattice
        # has an even number of rows (two branches), so past a block edge by
        # as little as it can be is one point per branch.  Lattices under one
        # block, of one and two whole blocks, one point per branch past each,
        # and the benchmark's 7500 rows, each with a sampled complex state,
        # two embedded eigenvectors (from half blocks for the even potential,
        # from one full block otherwise) and an evolved state.
        sizes = []
        for q, m_min, m_max, V in ((0.9, -15, 60, lambda x: x * x),
                                   (0.97, -40, 87, lambda x: x * x + 0.3 * x),
                                   (0.97, -40, 88, lambda x: x * x),
                                   (0.98, -60, 195, lambda x: x * x),
                                   (0.98, -60, 196, lambda x: x * x + 0.3 * x),
                                   (0.999, -750, 2999, lambda x: x * x)):
            lat = build_lattice(q, m_min, m_max)
            sizes.append(lat.size)
            H = build_hamiltonian(V, 1.0, 1.0, lat)
            spec = stationary_states(H, 2)
            psi0 = sample(lambda x: (1 - 2j) * math.exp(-(x - 0.3) ** 2), lat)
            states = [psi0, *(_from_odd(lat, spec.vector(n)) for n in range(2)),
                      next(evolve(psi0 * (1 / q_norm(psi0)), H, [0.7]))]
            for psi in states:
                assert to_csv(psi) == reference(psi)
        assert CSV_BLOCK_ROWS == 256 and sizes == [152, 256, 258, 512, 514, 7500]

    def test_csv_cache_lives_as_long_as_its_lattice(self):
        lat = build_lattice(0.9, -4, 12, 1.0)
        to_csv(sample(gauss2, lat))
        ref = weakref.ref(lat)
        del lat
        gc.collect()
        assert ref() is None

    def test_csv_deterministic(self):
        psi = sample(gauss2, default_lattice())
        assert to_csv(psi) == to_csv(psi)

    def test_csv_no_negative_zero_cells(self):
        lat = build_lattice(0.9, -2, 4, 1.0)
        psi = LatticeFunction(lat, np.full(lat.size, -0.0 + 0.0j))
        for line in to_csv(psi).splitlines():
            if line.startswith("#") or line.startswith("sign"):
                continue
            re_cell, im_cell = line.split(",")[-2:]
            assert re_cell == "0" and im_cell == "0"
