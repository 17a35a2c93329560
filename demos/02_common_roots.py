#!/usr/bin/env python3
"""Common roots of Faber polynomial sequences.

A map w + z0 + sum_{j>=n} a_j w^{-j} has F_j(z0) = 0 for exactly the first
n indices, and the tail coefficients can be recovered from the values at
z0.  The exponential map eta + w exp(lam/w) is the one map whose F_j all
vanish at a single point from index 2 on; this script profiles both
patterns and shows the common point is unique.
"""

from faberpoly import (ComplexPolynomial, GapMap, check_gap_coefficient_recovery,
                       exp_map_exterior, exp_map_faber_closed_form,
                       exponential_map_characterization, faber_system_from_recurrence,
                       leading_common_root_order, to_exterior_map)
from faberpoly.poly import evaluate_rows

# -- a gap map: zeros up to n, a jump at n + 1 --------------------------------

gap = GapMap(z0=1.0, n=3, tail=(0.2, -0.05, 0.03, 0.01))
a = to_exterior_map(gap, gap.highest_index)
system = faber_system_from_recurrence(a, 8)
profile = leading_common_root_order(system, gap.z0, 1e-10)

print(f"gap map with z0 = {gap.z0}, n = {gap.n}:")
for j, v in enumerate(profile.values, start=1):
    marker = "  <- first nonvanishing" if j == profile.first_nonvanishing else ""
    print(f"  |F_{j}(z0)| = {v:.3e}{marker}")
print(f"expected jump at n + 1 = {gap.n + 1}; "
      f"|F_4(z0)| = (n+1)|a_n| = {4 * abs(gap.tail[0]):.3f}")
print()

# the tail coefficients are recoverable from the polynomial values at z0
report = check_gap_coefficient_recovery(system, gap, 1e-10)
print(f"coefficient recovery a_j = -F_(j+1)(z0)/(j+1): "
      f"passed={report.passed}, max residual {report.max_residual:.2e}")
print()

# -- the exponential map: one persistent common root --------------------------

eta, lam = 0.4 - 0.1j, 0.7
a = exp_map_exterior(eta, lam, 16)
system = faber_system_from_recurrence(a, 16)
profile = leading_common_root_order(system, eta, 1e-10)
print(f"exponential map with eta = {eta}, lam = {lam}:")
print(f"  |F_1(eta)| = {profile.values[0]:.6f} (equals |lam|)")
print(f"  max |F_j(eta)| for j >= 2: {max(profile.values[1:]):.3e}")
print(f"  characterization check: "
      f"{exponential_map_characterization(system, a, eta, 1e-9)}")
print()

# uniqueness: F_2 has roots eta and eta + 2 lam, but F_3 rejects the latter
closed = exp_map_faber_closed_form(eta, lam, 3)
f3_at_reflected = evaluate_rows(closed[3:], eta + 2 * lam)[0][0]
print("uniqueness of the common point:")
print(f"  roots of F_2: {[f'{r:.4f}' for r in ComplexPolynomial(closed[2, :3]).roots()]}")
print(f"  F_3 at the reflected point eta + 2 lam: "
      f"{abs(f3_at_reflected):.6f}  (equals |lam|^3 = {abs(lam) ** 3:.6f})")
