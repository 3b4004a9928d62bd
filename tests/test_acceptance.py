"""Release acceptance checks, one test per shipping criterion.

Each test computes its measurements, prints a single summary line
(visible with ``pytest -s`` and in failure reports), and then asserts.
Tolerances are the contractual release thresholds, not the tighter
values the implementation typically achieves.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

from basicq import (
    build_hamiltonian,
    build_lattice,
    default_lattice,
    evolve,
    expand,
    expectation,
    free_particle_wave,
    inner_product,
    jackson_derivative,
    q_cos,
    q_exp,
    q_norm,
    q_sin,
    sample,
    stationary_states,
)
from basicq.cli import main as cli_main
from basicq.l2q import _from_odd, derivative_matrix, hermiticity_residual, momentum_matrix
from basicq.qfock import algebra_residuals, build_ladder
from basicq.verify import DEFAULT_SWEEP, run_verify


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    return line


def _normalized_packet(lat):
    psi = sample(lambda x: np.exp(-((x - 0.4) ** 2)), lat)
    return psi * (1.0 / q_norm(psi))


def test_criterion_1_identity_suite_green():
    t0 = time.monotonic()
    report = run_verify()
    elapsed = time.monotonic() - t0
    sweep_ok = report.q_values == DEFAULT_SWEEP == (0.5, 0.8, 0.9, 0.95, 0.99)
    ok = report.all_pass and sweep_ok and elapsed < 60.0
    line = _report(1, "identity suite", ok,
                   f"{len(report.results)} identities, "
                   f"failures={[r.name for r in report.failures]}, "
                   f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_2_dual_representation_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(0.3, 0.99)
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        for fn in (q_exp, q_sin, q_cos):
            a = fn(z, q).value
            b = fn(z, q, representation="shifted").value
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-11
    line = _report(2, "dual series representations", ok,
                   f"worst rel diff {worst:.3e} over 100 (z, q) draws x 3 functions")
    assert ok, line


def test_criterion_3_ladder_algebra_residuals():
    worst = 0.0
    offdiag_exact = True
    for dim in (4, 8, 16):
        for q in (0.5, 0.9, 1.0):
            triple = build_ladder(dim, q)
            res = algebra_residuals(triple)
            for key in ("defining", "raising_commutator", "lowering_commutator",
                        "occupancy", "occupancy_shifted"):
                worst = max(worst, res[key])
            occ = triple.a_dag @ triple.a
            offdiag_exact &= bool(np.all(occ[~np.eye(dim, dtype=bool)] == 0.0))
    ok = worst <= 1e-13 and offdiag_exact
    line = _report(3, "ladder algebra", ok,
                   f"worst interior residual {worst:.3e}, "
                   f"occupancy off-diagonal exactly zero: {offdiag_exact}")
    assert ok, line


def test_criterion_4_momentum_hermiticity():
    # Generic (mixed-parity) random pairs on the default lattice.  The
    # full-lattice momentum is paired in the q-inner product on both
    # sublattices, where <phi, D psi>_odd = -<D phi, psi>_even makes p
    # Hermitian up to lattice-edge leftovers; those must shrink as the
    # lattice widens.  The bare derivative must be flagged.
    lat = default_lattice()
    r_default = hermiticity_residual(momentum_matrix(lat), trials=20, seed=0)
    widths = [
        hermiticity_residual(momentum_matrix(build_lattice(0.9, -15, m_max)),
                             trials=20, seed=0)
        for m_max in (30, 45, 60)
    ]
    r_control = hermiticity_residual(derivative_matrix(lat), trials=20, seed=0)

    ok_residual = r_default <= 1e-8
    ok_widths = widths[0] > widths[1] > widths[2]
    ok_control = r_control > 1e-2
    ok = ok_residual and ok_widths and ok_control
    line = _report(4, "momentum hermiticity", ok,
                   f"default-lattice residual {r_default:.3e} (<=1e-8: {ok_residual}), "
                   f"widths {[f'{w:.6e}' for w in widths]} strictly decreasing: {ok_widths}, "
                   f"bare-derivative control {r_control:.3e} flagged: {ok_control}")
    assert ok, line


def test_criterion_5_free_particle_wave_equation():
    lat = default_lattice()
    q = lat.q
    pos = {(s, mm): i
           for i, (s, mm) in enumerate(zip(np.sign(lat.x), lat.m))}
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        v = free_particle_wave(k, lat).values
        scale = np.max(np.abs(v))
        for i, (s, mm) in enumerate(zip(np.sign(lat.x), lat.m)):
            if mm < lat.m_min + 2 or mm > lat.m_max - 2:
                continue
            x = lat.x[i]
            d_up = (v[pos[(s, mm)]] - v[pos[(s, mm - 2)]]) / ((q - 1 / q) * (x / q))
            d_dn = (v[pos[(s, mm + 2)]] - v[pos[(s, mm)]]) / ((q - 1 / q) * (x * q))
            d2 = (d_dn - d_up) / ((q - 1 / q) * x)
            worst = max(worst, abs(d2 + k * k * v[i]) / scale)
    ok = worst <= 1e-9
    line = _report(5, "free particle", ok,
                   f"worst interior residual {worst:.3e} of scale, k in (0.5, 1, 2)")
    assert ok, line


def test_criterion_6_solver_and_evolution():
    lat = default_lattice()
    H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
    spec = stationary_states(H, 8)

    real_ok = spec.eigenvalues.dtype.kind == "f" and bool(
        np.all(np.isfinite(spec.eigenvalues)))
    fs = [_from_odd(lat, v) for v in spec.vectors.T]
    gram = np.array([[inner_product(fi, fj) for fj in fs] for fi in fs])
    ortho = float(np.max(np.abs(gram - np.eye(8))))

    psi0 = _normalized_packet(lat)
    e0 = expectation(H, psi0).real
    (psi_t,) = evolve(psi0, H, [10.0])
    norm_drift = abs(q_norm(psi_t) - 1.0)
    renorm = psi_t * (1.0 / q_norm(psi_t))
    energy_drift = abs(expectation(H, renorm).real - e0)

    full = stationary_states(H, H.n_odd)
    eig = _from_odd(lat, full.vectors[:, 1])
    ev = float(full.eigenvalues[1])
    (out,) = evolve(eig, H, [10.0])
    phase_err = q_norm(out - cmath.exp(-1j * ev * 10.0) * eig)

    ok = (real_ok and ortho <= 1e-9 and norm_drift <= 1e-9
          and energy_drift <= 1e-9 and phase_err <= 1e-9)
    line = _report(6, "solver and evolution", ok,
                   f"real dtype {real_ok}, orthonormality {ortho:.3e}, "
                   f"norm drift {norm_drift:.3e}, energy drift {energy_drift:.3e}, "
                   f"phase error {phase_err:.3e} over t=10")
    assert ok, line


def test_criterion_7_classical_limit_regression():
    t0 = time.monotonic()
    lat = build_lattice(0.999, -1609, 6905)
    H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
    levels = stationary_states(H, 3).eigenvalues

    # independent reference: dense uniform grid, standard 3-point Laplacian
    n, span = 6000, 12.0
    xs = np.linspace(-span, span, n)
    h = xs[1] - xs[0]
    ref, _ = eigh_tridiagonal(1.0 / h**2 + xs * xs,
                              np.full(n - 1, -0.5 / h**2),
                              select="i", select_range=(0, 2))
    level_err = float(np.max(np.abs(levels - ref) / ref))

    corpus = [
        (math.sin, math.cos),
        (math.exp, math.exp),
        (lambda x: x ** 3, lambda x: 3 * x * x),
        (lambda x: math.exp(-x * x), lambda x: -2 * x * math.exp(-x * x)),
        (lambda x: 1 / (1 + x * x), lambda x: -2 * x / (1 + x * x) ** 2),
    ]
    q_near = 1.0 - 1e-4
    deriv_err = 0.0
    for f, fprime in corpus:
        for x in (-2.0, -0.7, 0.3, 1.1, 2.5):
            got = jackson_derivative(f, x, q_near)
            deriv_err = max(deriv_err, abs(got - fprime(x)) / abs(fprime(x)))
    elapsed = time.monotonic() - t0

    ok = level_err <= 0.01 and deriv_err <= 1e-3 and elapsed < 30.0
    line = _report(7, "classical limit", ok,
                   f"levels {np.array2string(levels, precision=6)} vs uniform-grid, "
                   f"worst rel {level_err:.3e}; derivative corpus worst rel "
                   f"{deriv_err:.3e}; {elapsed:.1f}s")
    assert ok, line


def test_criterion_8_parseval_and_energy_sum():
    lat = default_lattice()
    H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)
    psi = _normalized_packet(lat)
    full = stationary_states(H, H.n_odd)
    c = expand(psi, full)
    complete = abs(float(np.sum(np.abs(c) ** 2)) - 1.0)
    via_sum = float(np.sum(np.abs(c) ** 2 * full.eigenvalues))
    direct = expectation(H, psi).real
    energy_gap = abs(via_sum - direct)
    ok = complete <= 1e-8 and energy_gap <= 1e-8
    line = _report(8, "completeness", ok,
                   f"|sum|c|^2 - 1| = {complete:.3e}, "
                   f"|sum|c|^2 E - <H>| = {energy_gap:.3e}")
    assert ok, line


def test_criterion_9_cli_contract(capsys, tmp_path):
    golden = cli_main(["eval", "--fn", "Sq", "--points", "0"])
    golden_out = capsys.readouterr().out
    golden_ok = (golden == 0 and
                 golden_out == "# schema_version=1\nx,re,im,terms_used\n0,0,0,1\n")

    runs = []
    for d in ("a", "b"):
        out = tmp_path / d
        out.mkdir()
        assert cli_main(["solve", "--potential", "x^2", "--k", "2",
                         "--output", str(out)]) == 0
        capsys.readouterr()
        runs.append(b"".join(sorted(
            p.read_bytes() for p in out.iterdir())))
    determinism_ok = runs[0] == runs[1]

    verify_code = cli_main(["verify"])
    capsys.readouterr()
    compute_fail = cli_main(["qint", "--expr", "Eq(x)", "--halfline", "--q", "0.5"])
    capsys.readouterr()
    usage_fail = cli_main(["qderiv", "--expr", "x^^2", "--points", "1"])
    capsys.readouterr()
    codes_ok = (verify_code, compute_fail, usage_fail) == (0, 1, 2)

    ok = golden_ok and determinism_ok and codes_ok
    line = _report(9, "command line contract", ok,
                   f"golden bytes {golden_ok}, rerun byte-identical {determinism_ok}, "
                   f"exit codes (verify, diverge, parse)="
                   f"{(verify_code, compute_fail, usage_fail)}")
    assert ok, line
