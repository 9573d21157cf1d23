"""The modulus lattice, its bicharacter, and the grid Fourier transform.

Walks through the exact lattice arithmetic: points are stored as
(modulus index, angle), the bicharacter is symmetric and multiplicative,
and the finite grid's integer pairing reproduces it exactly.
"""

import itertools
import math

import numpy as np

from qazb import chi, grid, make_point

q = 0.5

# Points are pairs (k, theta): |gamma| = q^k, arg gamma = theta.
gamma = make_point(3, math.pi / 2)          # q^3 * i
print("gamma       =", gamma.value(q))
print("phase       =", gamma.phase())
print("singular?   ", gamma.is_singular)

# The singular set of the quantum exponential is {-1, -q^-2, -q^-4, ...}:
# decidable exactly because angles reduce to [0, 2 pi) without drift.
print("-q^-2 singular:", make_point(-2, math.pi).is_singular)
print("-q^-1 singular:", make_point(-1, math.pi).is_singular)

# chi(gamma, gamma') = e^{i(l theta + k theta')} pairs the group with itself.
print("\nchi(gamma, q) = phase(gamma):", chi(gamma, make_point(1, 0.0)))
g1, g2, g3 = gamma, make_point(-2, 1.0), make_point(1, 2.2)
lhs = chi(g1 * g2, g3)
rhs = chi(g1, g3) * chi(g2, g3)
print("multiplicativity error:", abs(lhs - rhs))
print("symmetry is bitwise:", chi(g1, g2) == chi(g2, g1))

# The finite model replaces Z x S^1 by Z_M x Z_M with centred moduli.
M = 4
gr = grid(q, M)
print(f"\nM={M} grid moduli:", sorted({abs(p.value(q)) for p in gr.points}))

# Its pairing is chi restricted to grid points -- exactly.
worst = max(
    abs(gr.pairing(i1, i2) - chi(gr.point(*i1), gr.point(*i2)))
    for i1 in itertools.product(range(M), repeat=2)
    for i2 in itertools.product(range(M), repeat=2)
)
print("grid pairing vs chi, exhaustive max error:", worst)

# The pairing kernel, normalised by 1/M, is a unitary: the lattice group
# is its own Pontryagin dual and F_M realises the duality at grid scale.
F = gr.fourier
print("unitarity defect:", np.linalg.norm(F @ F.conj().T - np.eye(M * M), 2))
rng = np.random.default_rng(0)
v = rng.standard_normal(M * M) + 1j * rng.standard_normal(M * M)
print("norm preservation:", abs(np.linalg.norm(F @ v) - np.linalg.norm(v)))
print("fft route agrees: ", np.abs(F @ v - gr.fourier_columns(v, False)).max())
