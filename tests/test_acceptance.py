"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.

Pointwise value agreements are measured relative to the Horner evaluation
magnitude 1 + sum_k |c_k| |z|^k (ulp scale): at sample points interior to
the image region the true values are exponentially smaller than the
monomials producing them, and both computation paths carry round-off
proportional to that working scale, so value-relative agreement at 1e-9
is not a meaningful (or attainable) target there.  Coefficientwise
comparisons are relative to 1 + max coefficient magnitude throughout.
"""

import cmath
import io
import math
from contextlib import redirect_stdout

import numpy as np

from faberpoly.cli import main as cli_main
from faberpoly.faber import (exp_map_exterior, faber_system_from_recurrence,
                             faber_values_from_log_series,
                             faber_values_from_ratio_series,
                             faber_derivative_values_from_series,
                             kernel_polys)
from faberpoly.maps import (ExpMap, Hypocycloid, chebyshev_scaled, evaluate_map,
                            exp_map_boundary, exp_map_faber_closed_form,
                            gap_faber_closed_form, hypocycloid_faber_closed_form,
                            inverse_exp_map, lambert_w0, lambert_w0_power_series,
                            starlikeness_grid_infimum, to_exterior_map,
                            two_gap_faber_system, univalence_certificate_bound)
from faberpoly.poly import ComplexPolynomial, evaluate_rows
from faberpoly.series import PowerSeries
from faberpoly.suites import (draw_disk, draw_exterior_map, draw_gap_map,
                              draw_two_gap_map)
from faberpoly.verify import _row_deviation, check_derivative_identity


def verdict(number: int, passed: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}  {text}")
    assert passed, f"criterion {number}: {text}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(0)
    tol = 1e-9
    worst = 0.0
    for _ in range(50):
        emap = draw_exterior_map(rng, 30)
        system = faber_system_from_recurrence(emap, 30)
        for _ in range(20):
            z = draw_disk(rng, 3.0)
            oracle = faber_values_from_log_series(emap, z, 30)
            values, magnitudes = evaluate_rows(system[1:], z)
            worst = max(worst, np.max(np.abs(oracle - values) / (1.0 + magnitudes)))
    verdict(1, worst <= tol,
            f"log-series oracle vs recurrence, 50 maps x 20 points, j <= 30: "
            f"max deviation {worst:.3e} <= {tol}")


def test_criterion_02_closed_form_equivalence():
    tol = 1e-9
    worst = 0.0
    # hypocycloid families
    for m in range(1, 5):
        system = faber_system_from_recurrence(to_exterior_map(Hypocycloid(m), 24), 24)
        closed = hypocycloid_faber_closed_form(m, 24)
        worst = max(worst, _row_deviation(closed, system).max())
    # exponential families over moduli and phases
    for mod in (0.0, 0.3, 0.7, 1.0):
        phases = [1.0] if mod == 0.0 else [cmath.exp(2j * math.pi * k / 8) for k in range(8)]
        for phase in phases:
            lam = mod * phase
            for eta in (0.0, 0.35 - 0.2j):
                system = faber_system_from_recurrence(exp_map_exterior(eta, lam, 20), 20)
                closed = exp_map_faber_closed_form(eta, lam, 20)
                worst = max(worst, _row_deviation(closed, system).max())
    # gap maps: closed form up to n + 1
    rng = np.random.default_rng(2)
    for _ in range(8):
        gap = draw_gap_map(rng)
        system = faber_system_from_recurrence(
            to_exterior_map(gap, max(gap.highest_index, gap.n + 1)), gap.n + 1)
        closed = gap_faber_closed_form(gap, gap.n + 1)
        worst = max(worst, _row_deviation(closed, system).max())
    # two-gap maps: full piecewise system
    for _ in range(8):
        fam = draw_two_gap_map(rng)
        closed = two_gap_faber_system(fam, 24)
        generic = faber_system_from_recurrence(
            to_exterior_map(fam, max(fam.highest_index, 24)), 24)
        worst = max(worst, _row_deviation(closed, generic).max())
    verdict(2, worst <= tol,
            f"closed forms vs recurrence (hypocycloid, exponential, gap, two-gap): "
            f"max coefficient deviation {worst:.3e} <= {tol}")


def test_criterion_03_chebyshev_identity():
    tol = 1e-12
    closed, cheb = hypocycloid_faber_closed_form(1, 24), chebyshev_scaled(24)
    worst = _row_deviation(closed, cheb)[1:].max()
    verdict(3, worst <= tol,
            f"single-cusp closed form equals doubled Chebyshev, j = 1..24: "
            f"max deviation {worst:.3e} <= {tol}")


def test_criterion_04_exponential_common_root_pattern():
    ok = True
    worst_tail = 0.0
    rng = np.random.default_rng(4)
    for eta, lam in ((0.0, 0.5), (0.3 - 0.1j, 0.8j), (1.0, -0.6 + 0.6j), (0.2, 1.0)):
        emap = exp_map_exterior(eta, lam, 20)
        values = np.abs(evaluate_rows(faber_system_from_recurrence(emap, 20), eta)[0])
        ok &= abs(values[1] - abs(lam)) <= 1e-12 * (1 + abs(lam))
        tail_max = values[2:].max()
        worst_tail = max(worst_tail, tail_max)
        ok &= tail_max <= 1e-10
        # perturbing any tail coefficient participating in F_1..F_20 must
        # break the pattern (alpha_k first enters at F_{k+1}, so k <= 19)
        for k in range(1, 20):
            a = emap.copy()
            a[k] += 1e-3
            bumped = faber_system_from_recurrence(a, 20)
            broken = np.abs(evaluate_rows(bumped[2:], eta)[0]).max()
            ok &= broken > 1e-4
    verdict(4, ok,
            f"|F_1(eta)| = |lam| and F_j(eta) = 0 for 2 <= j <= 20 "
            f"(max tail value {worst_tail:.3e}); every 1e-3 tail bump breaks it")


def test_criterion_05_generating_series_identities():
    tol = 1e-9
    rng = np.random.default_rng(5)
    worst = 0.0
    index = np.arange(1, 21)
    for _ in range(30):
        emap = draw_exterior_map(rng, 24)
        z = draw_disk(rng, 3.0)
        system = faber_system_from_recurrence(emap, 20)
        ratio = faber_values_from_ratio_series(emap, z, 20)
        deriv = faber_derivative_values_from_series(emap, z, 20)
        values, magnitudes = evaluate_rows(system, z)
        worst = max(worst, np.max(np.abs(ratio - values) / (1.0 + magnitudes)))
        values, magnitudes = evaluate_rows(system[1:, 1:] * index, z)   # row j-1 is F_j'
        worst = max(worst, np.max(np.abs(deriv - values / index) / (1.0 + magnitudes)))
    for lam in (0.7, 0.3 + 0.4j, cmath.exp(0.6j)):
        report = check_derivative_identity(lam, 20, tol)
        worst = max(worst, report.max_residual)
    verdict(5, worst <= tol,
            f"value/derivative series identities at 30 seeded (map, z) pairs and "
            f"the derivative identity for j <= 20: max residual {worst:.3e} <= {tol}")


def test_criterion_06_kernel_expansion():
    rng = np.random.default_rng(6)
    sum_tol, coeff_tol, series_tol = 1e-8, 1e-12, 1e-10
    worst_sum = worst_coeff = worst_series = 0.0
    for lam in (0.4, 0.4 * cmath.exp(2.1j)):
        ps = kernel_polys(lam, 15)
        fs = faber_system_from_recurrence(exp_map_exterior(0.0, lam, 15), 15)
        # definitional combination P_j = sum lam^{j-k} F_k, coefficientwise
        direct = np.array([sum(lam ** (j - k) * fs[k] for k in range(j + 1))
                           for j in range(16)])
        worst_coeff = max(worst_coeff, _row_deviation(ps, direct).max())
        # kernel values: 20 points with z on the half-scale boundary curve
        for _ in range(20):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z = 0.5 * exp_map_boundary(lam, theta)
            t = draw_disk(rng, 0.5)
            kernel_value = 1.0 / (1.0 - z * t * cmath.exp(-lam * t))
            partial = sum(p * t ** j for j, p in enumerate(evaluate_rows(ps, z)[0].tolist()))
            worst_sum = max(worst_sum, abs(kernel_value - partial))
        # series-engine coefficients of 1/(1 - z t e^{-lam t}) at fixed z
        t_series = PowerSeries([0, 1] + [0] * 14)
        exp_series = PowerSeries([(-lam) ** k / math.factorial(k) for k in range(16)])
        for _ in range(5):
            z = 0.5 * exp_map_boundary(lam, rng.uniform(0.0, 2.0 * math.pi))
            kernel = PowerSeries(PowerSeries([1] + [0] * 15).coeffs
                                 - z * (t_series * exp_series).coeffs).reciprocal()
            worst_series = max(worst_series,
                               np.abs(kernel.coeffs - evaluate_rows(ps, z)[0]).max())
    passed = (worst_sum <= sum_tol and worst_coeff <= coeff_tol
              and worst_series <= series_tol)
    verdict(6, passed,
            f"kernel expansion: partial sums {worst_sum:.3e} <= {sum_tol}, "
            f"combination {worst_coeff:.3e} <= {coeff_tol}, "
            f"series coefficients {worst_series:.3e} <= {series_tol}")


def test_criterion_07_lambert_and_inverse():
    rng = np.random.default_rng(7)
    # defining identity on a 1000-point grid off the cut
    worst_grid = 0.0
    count = 0
    while count < 1000:
        t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if abs(t.imag) < 1e-9 and t.real < -0.2:
            continue
        count += 1
        res = lambert_w0(t)
        assert res.converged
        worst_grid = max(worst_grid, res.residual / (1.0 + abs(t)))
    # inverse map round trip
    eta, lam = 0.0, 0.8
    worst_round = 0.0
    for _ in range(100):
        radius = 1.1 + 8.9 * rng.uniform()
        w = radius * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        z = evaluate_map(ExpMap(eta, lam), w)
        worst_round = max(worst_round, abs(inverse_exp_map(z, eta, lam) - w))
    # summed power series against Halley values
    series = lambert_w0_power_series(1, 20)
    worst_series = 0.0
    for k in range(16):
        t = 0.1 * cmath.exp(2j * math.pi * k / 16)
        summed = sum(c * t ** i for i, c in enumerate(series))
        worst_series = max(worst_series, abs(summed - lambert_w0(t).value))
    passed = worst_grid <= 1e-12 and worst_round <= 1e-10 and worst_series <= 1e-10
    verdict(7, passed,
            f"Lambert identity {worst_grid:.3e} <= 1e-12 on 1000 points, "
            f"inverse round trip {worst_round:.3e} <= 1e-10, "
            f"series sum {worst_series:.3e} <= 1e-10")


def test_criterion_08_gap_coefficient_recovery():
    rng = np.random.default_rng(8)
    tol = 1e-10
    worst = 0.0
    bound_ok = True
    for _ in range(20):
        gap = draw_gap_map(rng)
        emap = to_exterior_map(gap, max(gap.highest_index, 2 * gap.n + 1))
        values = evaluate_rows(faber_system_from_recurrence(emap, 2 * gap.n + 1), gap.z0)[0]
        for j in range(gap.n, 2 * gap.n + 1):
            expected = emap[j]
            recovered = -values[j + 1] / (j + 1)
            worst = max(worst, abs(recovered - expected) / (1.0 + abs(expected)))
            bound_ok &= abs(expected) <= 2.0 / (j + 1) + 1e-15
    verdict(8, worst <= tol and bound_ok,
            f"tail recovery alpha_j = -F_j+1(z0)/(j+1) on 20 gap maps, j in [n, 2n]: "
            f"max residual {worst:.3e} <= {tol}; bounds 2/(j+1) hold by construction")


def test_criterion_09_starlikeness_functionals():
    grid_step = 2.0 * math.pi / 720.0
    worst = 0.0
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        gap = abs(starlikeness_grid_infimum(lam) - (1.0 - lam))
        worst = max(worst, gap)
    infimum_ok = worst <= 1e-6 + grid_step
    r_grid = np.linspace(1.0005, 3.0, 20000)
    certificate_ok = all(
        univalence_certificate_bound(lam, r_grid) > 6.0
        for lam in (1.05, 1.2 * cmath.exp(0.7j), 1.5, 2.0))
    verdict(9, infimum_ok and certificate_ok,
            f"grid infimum within {worst:.3e} of 1 - |lam| "
            f"(budget {1e-6 + grid_step:.3e}); non-univalence certified for |lam| >= 1.05")


def test_criterion_10_root_rays():
    angle_tol, resid_tol = 1e-6, 1e-8
    worst_angle = worst_resid = 0.0
    for m in range(1, 5):
        directions = [2 * math.pi * v / (m + 1) for v in range(m + 1)]
        system = hypocycloid_faber_closed_form(m, 24)
        for j in range(1, 25):
            row = system[j:j + 1, :j + 1]
            roots = ComplexPolynomial(row[0]).roots()
            values = evaluate_rows(row, np.array(roots))[0]
            worst_resid = max(worst_resid, np.abs(values).max() / (1.0 + np.abs(row).sum()))
            for r in roots:
                if abs(r) <= 1e-8:
                    continue
                angle = math.atan2(r.imag, r.real) % (2 * math.pi)
                dist = min(min(abs(angle - phi), 2 * math.pi - abs(angle - phi))
                           for phi in directions)
                worst_angle = max(worst_angle, dist)
    verdict(10, worst_angle <= angle_tol and worst_resid <= resid_tol,
            f"hypocycloid roots on cusp rays (m <= 4, j <= 24): max angle "
            f"{worst_angle:.3e} <= {angle_tol}, max residual {worst_resid:.3e} <= {resid_tol}")


def test_criterion_11_deterministic_reports():
    def run_all():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["verify", "--suite", "all", "--seed", "0"])
        return code, buf.getvalue().encode()

    code_a, bytes_a = run_all()
    code_b, bytes_b = run_all()
    verdict(11, code_a == 0 and code_b == 0 and bytes_a == bytes_b,
            f"two full verify runs with seed 0: byte-identical "
            f"({len(bytes_a)} bytes), both passing")
