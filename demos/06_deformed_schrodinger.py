"""Stationary states and time evolution on the lattice.

The kinetic term is the squared Jackson derivative, so the oscillator
spectrum bends away from the evenly spaced classical ladder; evolution
is spectral and keeps norm and energy to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from basicq import (
    build_hamiltonian,
    build_lattice,
    default_lattice,
    evolve,
    expand,
    expectation,
    position_matrix,
    q_norm,
    sample,
    stationary_states,
)

lat = default_lattice()
H = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat)

print("oscillator V = x^2 at q=0.9: lowest levels vs the classical ladder")
spec = stationary_states(H, 5)
for n, e in enumerate(spec.eigenvalues):
    classical = math.sqrt(2) * (n + 0.5)
    print(f"  n={n}  E = {e:.6f}   classical {classical:.6f}")

print("\nnear the classical regime (q=0.999) the ladder comes back")
lat999 = build_lattice(0.999, -1609, 6905)
H999 = build_hamiltonian(lambda x: x * x, 1.0, 1.0, lat999)
for n, e in enumerate(stationary_states(H999, 3).eigenvalues):
    print(f"  n={n}  E = {e:.6f}   classical {math.sqrt(2) * (n + 0.5):.6f}")

print("\na gaussian packet, expanded in the computed eigenbasis")
psi = sample(lambda x: np.exp(-((x - 0.4) ** 2)), lat)
psi = psi * (1.0 / q_norm(psi))
full = stationary_states(H, H.n_odd)
c = expand(psi, full)
print(f"  completeness: sum |c_n|^2 = {np.sum(np.abs(c) ** 2):.12f}")
print(f"  energy two ways: sum |c|^2 E = {np.sum(np.abs(c)**2 * full.eigenvalues):.12f}, "
      f"<H> = {expectation(H, psi).real:.12f}")

print("\nevolving the packet to t=1..5, each from the one t=0 expansion")
times = [1.0, 2.0, 3.0, 4.0, 5.0]
xop = position_matrix(lat)
for t, psi_t in zip(times, evolve(psi, H, times)):
    x_mean = expectation(xop, psi_t).real
    print(f"  t={t:.1f}  norm={q_norm(psi_t):.12f}  "
          f"<x>={x_mean:+.6f}  <H>={expectation(H, psi_t).real:.12f}")
print("  norm and energy hold to rounding; <x> swings as the packet oscillates")
