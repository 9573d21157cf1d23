"""The quantum exponential function F_q on the lattice closure.

Shows the defining product, its exact special values, unit modulus, the
continuous approach to the singular set, and the constructive inversion
of a family gamma -> F_q(beta gamma) back to its generator beta.
"""

import math

import numpy as np

from qazb import QExpParams, fq, fq_family, grid, invert_fq_family, make_point, zero_point
from qazb.qexp import candidate_separation

params = QExpParams(q=0.5)   # tol defaults to 1e-13; at most qexp.MAX_TERMS = 512 factors

# Special values are exact, not approximate: F_q(0) = 1, F_q = -1 on the
# singular set, F_q = 1 on real positive lattice points.
print("F_q(0)      =", fq(zero_point(), params))
print("F_q(-1)     =", fq(make_point(0, math.pi), params))
print("F_q(-q^-2)  =", fq(make_point(-2, math.pi), params))
print("F_q(q^5)    =", fq(make_point(5, 0.0), params))

# Everywhere else the truncated product runs with a certified tail bound;
# every factor is a ratio of conjugates, so the value is unit modulus.
val = fq(make_point(0, math.pi / 2), params)    # gamma = i
print("\nF_q(i)      =", val, " |.|-1 =", abs(abs(val) - 1))

# Continuity toward the singular point -q^-2 along its circle: the value
# approaches -1 monotonically as the angle closes in on pi.
print("\napproach to -q^-2:")
for eps in (0.4, 0.2, 0.1, 0.05):
    v = fq(make_point(-2, math.pi - eps), params)
    print(f"  eps={eps:<5} |F_q + 1| = {abs(v + 1):.6f}")

# Inversion: the family gamma -> F_q(beta gamma) over a finite grid
# determines beta uniquely among grid candidates (plus zero).
g = grid(0.5, 8)
beta = g.point(1, 2)
data = fq_family(beta, g, params)
rec = invert_fq_family(data, g, params)
print("\ninversion recovers beta:", rec.beta == beta, " residual:", rec.residual)
print("constant family maps to zero:", invert_fq_family(np.ones(64, complex), g, params).beta.zero)

# The discriminability certificate: worst-case objective separation
# between distinct candidates, strictly positive at this grid size.
print("separation certificate s0 =", candidate_separation(g, params))
