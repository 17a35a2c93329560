#!/usr/bin/env python3
"""Hypocycloid Faber polynomials and where their zeros live.

w + 1/(m w^m) maps |w| > 1 onto the exterior of an (m+1)-cusped
hypocycloid.  Its Faber polynomials have an explicit binomial-factorial
form, collapse to doubled Chebyshev polynomials at m = 1, and all their
zeros sit on the rays joining the origin to the cusps.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial

from faberpoly import (Hypocycloid, chebyshev_scaled, hypocycloid_faber_closed_form,
                       to_exterior_map)
from faberpoly.poly import faber_roots

# -- the m = 1 case is the Chebyshev family on [-2, 2] -------------------------

print("m = 1 closed form vs doubled Chebyshev on the half scale:")
closed, cheb = hypocycloid_faber_closed_form(1, 8), chebyshev_scaled(8)
for j in (2, 3, 4, 8):
    print(f"  F_{j}(z) = {Polynomial(closed[j, :j + 1].real, symbol='z'):ascii}   "
          f"(coefficient difference {np.abs(closed[j] - cheb[j]).max():.1e})")
print()

# -- zeros on cusp rays ---------------------------------------------------------

for m in (2, 3):
    directions = [2 * math.pi * v / (m + 1) for v in range(m + 1)]
    print(f"m = {m}: cusp rays at angles "
          f"{[f'{d * 180 / math.pi:.0f}deg' for d in directions]}")
    closed = hypocycloid_faber_closed_form(m, 12)
    # the zeros of F_j are the eigenvalues of the map's j x j Faber Hessenberg matrix
    zeros = faber_roots(to_exterior_map(Hypocycloid(m), m), closed, (7, 12))
    for j, roots in zip((7, 12), zeros):
        print(f"  zeros of F_{j}:")
        for r in sorted(roots.tolist(),
                        key=lambda r: (round(abs(r), 6), math.atan2(r.imag, r.real))):
            if abs(r) <= 1e-8:
                print(f"    |r| = 0 (origin, multiplicity from j mod (m+1))")
                continue
            angle = math.atan2(r.imag, r.real) % (2 * math.pi)
            off = min(min(abs(angle - d), 2 * math.pi - abs(angle - d))
                      for d in directions)
            print(f"    |r| = {abs(r):.4f}, angle = {angle * 180 / math.pi:7.2f}deg, "
                  f"off-ray by {off:.1e} rad")
    print()
