#!/usr/bin/env python3
"""One map, three independent ways to its Faber polynomials.

The polynomials F_j attached to an exterior map w + a0 + a1/w + ... can be
generated by the coefficient recurrence, read off a log generating series
at a point, or (for special families) written in closed form.  This script
builds all three for the two-cusp map w + 1/(2 w^2) and shows they agree.
"""

import numpy as np
from numpy.polynomial import Polynomial

from faberpoly import (Hypocycloid, faber_system_from_recurrence,
                       faber_values_from_log_series,
                       hypocycloid_faber_closed_form, to_exterior_map)
from faberpoly.poly import evaluate_rows

N = 8
family = Hypocycloid(2)
a = to_exterior_map(family, N)           # a[k] = a_k

a0, *tail = a[:4].tolist()
print(f"map: w + 1/(2 w^2), coefficients a0={a0}, tail={tuple(tail)}...")
print()

# path 1: the recurrence fills the whole prefix F_0..F_N, one table row per F_j
system = faber_system_from_recurrence(a, N)
print("recurrence-generated polynomials:")
for j in (2, 3, 6):
    print(f"  F_{j}(z) = {Polynomial(system[j, :j + 1].real, symbol='z'):ascii}")
print()

# path 2: the closed form fills the same table from the binomial-factorial formula
closed = hypocycloid_faber_closed_form(2, N)
print("closed-form polynomials (binomial-factorial formula):")
for j in (2, 3, 6):
    dev = np.abs(closed[j] - system[j]).max()
    print(f"  F_{j}(z) = {Polynomial(closed[j, :j + 1].real, symbol='z'):ascii}   "
          f"(coefficient difference from the recurrence {dev:.1e})")
print()

# path 3: the log series produces values F_j(z) without any polynomial
z = 1.3 - 0.4j
values = faber_values_from_log_series(a, z, N)
direct = evaluate_rows(system, z)[0]
print(f"log-series values at z = {z} vs polynomial evaluation:")
for j in (1, 4, 8):
    print(f"  F_{j}({z}) = {values[j - 1]:.12f}   |difference| = "
          f"{abs(values[j - 1] - direct[j]):.2e}")
print()

# the paths agree to round-off across random points: one oracle call for
# all 50 points (column i belongs to point i), one Horner pass over the table
rng = np.random.default_rng(0)
xy = rng.uniform(-2, 2, size=(50, 2))
zz = xy[:, 0] + 1j * xy[:, 1]
vals = faber_values_from_log_series(a, zz, N)              # shape (N, 50)
direct, magnitude = evaluate_rows(system[1:], zz)
worst = np.max(np.abs(vals - direct) / (1.0 + magnitude))
print(f"max scaled deviation across 50 random points, j <= {N}: {worst:.2e}")
