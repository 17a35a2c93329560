#!/usr/bin/env python3
"""The exponential map, its Lambert-W inverse, and its geometry.

eta + w exp(lam/w) is univalent on |w| > 1 exactly when |lam| <= 1.  Its
inverse is -lam / W0(-lam/(z - eta)) through the principal Lambert branch,
its image boundary is the curve e^{i theta} exp(lam e^{-i theta}), and
starlikeness is certified by the closed-form infimum 1 - |lam|.
"""

import cmath

import numpy as np

from faberpoly import (ExpMap, evaluate_map, exp_map_boundary, inverse_exp_map,
                       lambert_w0, lambert_w0_power_series,
                       starlikeness_grid_infimum, starlikeness_infimum,
                       univalence_certificate_bound)

# -- Lambert W basics ----------------------------------------------------------

print("principal Lambert branch (Halley iteration):")
for t in (0.0, complex(cmath.e), -0.25, 1 + 2j):
    res = lambert_w0(t)
    print(f"  W0({t}) = {res.value:.12f}   iterations={res.iterations} "
          f"residual={res.residual:.1e}")
series = lambert_w0_power_series(1, 20)
t = 0.1
summed = sum(c * t ** k for k, c in enumerate(series))
print(f"  power series at t = {t}: {summed:.12f} vs Halley "
      f"{lambert_w0(t).value:.12f}")
print()

# -- the inverse map round trip ------------------------------------------------

eta, lam = 0.2, 0.8
fam = ExpMap(eta, lam)
print(f"inverse map round trips for eta = {eta}, lam = {lam}:")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(200):
    w = (1.1 + 5 * rng.uniform()) * cmath.exp(2j * cmath.pi * rng.uniform())
    z = evaluate_map(fam, w)
    worst = max(worst, abs(inverse_exp_map(z, eta, lam) - w))
print(f"  max |Phi(Psi(w)) - w| over 200 exterior samples: {worst:.2e}")
print()

# -- boundary curve and starlikeness -------------------------------------------

print(f"boundary curve samples (lam = {lam}):")
for theta in (0.0, cmath.pi / 2, cmath.pi):
    print(f"  theta = {theta:.3f}: {exp_map_boundary(lam, theta):.6f}")
print()

print("starlikeness functional inf Re(w Psi'(w)/(Psi(w) - eta)):")
for mod in (0.0, 0.5, 1.0):
    closed = starlikeness_infimum(0.0, mod)
    grid = starlikeness_grid_infimum(0.0, mod)
    print(f"  |lam| = {mod}: closed form {closed:.6f}, grid infimum {grid:.6f}")
print()

print("non-univalence certificates (bound above 6 rules univalence out):")
r_grid = np.linspace(1.0005, 3.0, 20000)
for mod in (0.9, 1.0, 1.05, 1.5):
    bound = univalence_certificate_bound(0.0, mod, r_grid)
    flag = "NOT univalent" if bound > 6 else "no certificate"
    print(f"  |lam| = {mod}: max bound {bound:9.3f}  -> {flag}")
