#!/usr/bin/env python3
"""Kernel polynomials of the exponential map and the derivative identity.

The generating kernel K(z, t) = 1/(1 - z t e^{-lam t}) expands as
sum_j P_j(z) t^j with P_j = sum_{k<=j} lam^{j-k} F_k, and the same
combination gives the derivative identity z F_j'(z) = j P_j(z).
"""

import cmath

import numpy as np
from numpy.polynomial import Polynomial

from faberpoly import (check_derivative_identity, exp_map_boundary, kernel_polys)
from faberpoly.poly import evaluate_rows

lam = 0.6
N = 12
ps = kernel_polys(lam, N)

print(f"kernel polynomials for lam = {lam}:")
for j in (0, 1, 2, 3):
    print(f"  P_{j}(z) = {Polynomial(ps[j, :j + 1].real, symbol='z'):ascii}")
print()

# partial sums of the expansion against the closed-form kernel
rng = np.random.default_rng(2)
print("kernel expansion at sample points (truncated at j = 12):")
for _ in range(4):
    theta = rng.uniform(0, 2 * cmath.pi)
    z = 0.45 * exp_map_boundary(lam, theta)
    t = 0.4 * cmath.exp(2j * cmath.pi * rng.uniform())
    exact = 1.0 / (1.0 - z * t * cmath.exp(-lam * t))
    partial = sum(p * t ** j for j, p in enumerate(evaluate_rows(ps, z)[0].tolist()))
    print(f"  z = {z:.3f}, t = {t:.3f}: K = {exact:.10f}, "
          f"truncation error {abs(exact - partial):.1e}")
print()

# the derivative identity ties the same combination to z F_j'
report = check_derivative_identity(lam, 20, 1e-9)
print(f"derivative identity z F_j' = j P_j for j <= 20: passed={report.passed}, "
      f"max coefficient residual {report.max_residual:.2e}")

# spelled out at j = 2: z F_2'(z) = z(2z - 2 lam) vs 2 P_2
from faberpoly import exp_map_exterior, faber_system_from_recurrence

fs = faber_system_from_recurrence(exp_map_exterior(0.0, lam, 2), 2)
lhs = fs[2] * np.arange(3)          # z F_2' has coefficient k c_k at z^k
rhs = 2.0 * ps[2, :3]
print(f"  at j = 2: z F_2' = {Polynomial(lhs.real, symbol='z'):ascii} "
      f"and 2 P_2 = {Polynomial(rhs.real, symbol='z'):ascii}")
