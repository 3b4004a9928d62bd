"""The geometric-lattice Hilbert space.

States live on the two-sided geometric lattice x = +-a q^m with a
weighted inner product that is the q-integral in disguise. Position
and momentum become matrices; momentum is Hermitian once its adjoint is
taken in the measure of both sublattices the Jackson derivative couples.
"""

from __future__ import annotations

import numpy as np

from basicq import (
    build_lattice,
    default_lattice,
    derivative_matrix,
    expectation,
    hermiticity_residual,
    inner_product,
    momentum_matrix,
    q_norm,
    sample,
)
from basicq.l2q import basis_function, decaying_test_function, default_window

lat = default_lattice()
print(f"default lattice: q={lat.q}, exponents {lat.m_min}..{lat.m_max}, "
      f"{lat.size} points on both sides of 0")
print(f"  outermost |x| = {np.max(np.abs(lat.x)):.4f}, "
      f"innermost |x| = {np.min(np.abs(lat.x)):.3e}")
inner = np.sum(lat.w[(lat.m >= 1) & (lat.x > 0)])
print(f"  weights inside (0, a] sum to {inner:.15f}, the q-integral of 1 over")
print(f"  [0, 1] short by exactly the innermost coordinate {1 - inner:.6e}")

print("\northonormal basis functions (delta spikes scaled by the weight)")
f0, f1 = basis_function(0, lat), basis_function(1, lat)
print(f"  <phi_0, phi_0> = {inner_product(f0, f0).real:.15f}")
print(f"  <phi_0, phi_1> = {abs(inner_product(f0, f1)):.2e}")

print("\na sampled gaussian packet and its norm")
psi = sample(lambda x: np.exp(-x * x) * x * x, lat)
print(f"  ||x^2 exp(-x^2)|| = {q_norm(psi):.15f}")

print("\nmomentum Hermiticity <phi, p psi> = <p phi, psi>, random decaying pairs")
print("  D maps odd-exponent samples to even-exponent points, and")
print("  <phi, D psi>_odd = -<D phi, psi>_even, so p is paired in the q-inner")
print("  product on both sublattices (same weight a(1/q - q)q^m at every m)")
p = momentum_matrix(lat)
for parity in ("even", "odd"):
    r = hermiticity_residual(p, trials=20, seed=0, parity=parity)
    print(f"  {parity:>5}-parity pairs : residual {r:.3e}  (rounding level)")
print("  generic pairs: a lattice-edge leftover that falls as the lattice widens")
for m_max in (30, 45, 60):
    r = hermiticity_residual(momentum_matrix(build_lattice(0.9, -15, m_max)),
                             trials=20, seed=0)
    print(f"    m_max={m_max:<3} residual {r:.3e}")
psi_mixed = decaying_test_function(lat, np.random.default_rng(0))
psi_mixed = (1.0 / q_norm(psi_mixed)) * psi_mixed
print(f"  so <p> on a normalized mixed-parity state is real: "
      f"Im <p> = {expectation(p, psi_mixed).imag:.1e}")


def odd_point_gap(lat_q, trials=10, seed=1):
    """Both sides paired in the odd-point q-inner product alone."""
    p_q = momentum_matrix(lat_q)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        phi = decaying_test_function(lat_q, rng)
        psi = decaying_test_function(lat_q, rng)
        gap = abs(inner_product(phi, p_q.apply(psi))
                  - inner_product(p_q.apply(phi), psi))
        worst = max(worst, gap / (q_norm(phi) * q_norm(psi)))
    return worst


print("  pairing both sides in the odd-point measure alone compares two")
print("  quadratures of conj(p phi) psi (odd and even sublattice); on mixed")
print("  pairs that gap shrinks as q -> 1, not with lattice size:")
for q in (0.5, 0.8, 0.9, 0.97):
    print(f"    q={q:<5} odd-point gap {odd_point_gap(build_lattice(q, *default_window(q))):.3e}")
gaps = [odd_point_gap(build_lattice(0.9, -15, m_max)) for m_max in (30, 45, 60)]
print("    q=0.9 at m_max 30/45/60: " + ", ".join(f"{g:.4e}" for g in gaps))

print("\ncontrol: the bare derivative (no -i) is not Hermitian at all")
print(f"  residual {hermiticity_residual(derivative_matrix(lat), trials=20, seed=0):.3e}")
