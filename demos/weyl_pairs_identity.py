"""Regular q^2-pairs in the Schrodinger model and the exponential identity.

Builds the grid pair (Y, X), checks the defining conjugation relation on
the interior window, and sweeps the windowed witness of
F_q(X +. Y) = F_q(Y) F_q(X) over growing grids, including the order
sensitivity that distinguishes the quantum identity from a classical one.
"""

import numpy as np

from qazb import NormalMatrix, exp_identity_residual, grid, schrodinger_pair, verify_q2
from qazb.q2pair import Q2Pair, windowed_modulus_distance

q = 0.5

# X multiplies by the grid values; Y is its Fourier conjugate.  Finite
# dimensions admit no exact pair with Y != 0, so the conjugation relation
# chi(X, gamma) Y chi(X, gamma)* = gamma Y holds off the wrap subspace and
# is checked through the interior window.
g = grid(q, 8)
pair = schrodinger_pair(g, margin=2)
report = verify_q2(pair, tol=1e-10)
print("axioms pass:", report.passed)
for row in report.rows():
    print(f"  {row['condition']:<18} {row['value']:.3e}  pass={row['pass']}")

# The exponential identity is witnessed in commutation form: the product
# F_q(Y) F_q(X) is a function of the closed sum, so it commutes with X+Y
# on the window; the swapped product does not.
print("\nwindowed identity witness across grid sizes:")
for M in (8, 12, 16):
    p = schrodinger_pair(grid(q, M))
    ident = exp_identity_residual(p)
    print(
        f"  M={M:<3} residual={ident.residual:.3e}  swapped={ident.residual_swapped:.3e}"
        f"  raw sum defect={ident.sum_defect:.3f}  windowed={ident.sum_defect_windowed:.1e}"
    )

# The Y = 0 control is exact: F_q(X + 0) = F_q(0) F_q(X).
base = schrodinger_pair(g)
zero_pair = Q2Pair(
    Y=NormalMatrix(np.zeros((64, 64))), X=base.X, grid=g, window=base.window_or_identity(),
)
print("\nY=0 control residual:", exp_identity_residual(zero_pair).residual)

# The closed sum's modulus spectrum approaches the lattice on the window
# (the raw spectrum of the wrapped sum does not converge; the self-adjoint
# compression of S*S is the faithful statistic).
print("\nwindowed modulus-spectrum distance to q^Z:")
for M in (8, 12, 16):
    print(f"  M={M:<3} {windowed_modulus_distance(schrodinger_pair(grid(q, M))):.5f}")
