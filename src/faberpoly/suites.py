"""Named, seeded verification suites combining every module.

Each suite returns a :class:`CheckReport`; all randomness flows through an
explicit seed, so a suite run is reproducible bit for bit.  These are the
checks the command line exposes under ``verify --suite NAME``.

Pointwise comparisons of polynomial values are normalized by the Horner
evaluation magnitude 1 + sum_k |c_k| |z|^k.  At sample points inside the
image region the true values are exponentially smaller than the monomial
terms that produce them, so agreement is only meaningful relative to that
working scale (both computation paths carry round-off proportional to it).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .faber import (ExteriorMap, exp_map_exterior, faber_system_from_recurrence,
                    faber_values_from_log_series, faber_values_from_ratio_series,
                    faber_derivative_values_from_series, check_derivative_identity)
from .maps import (ExpMap, GapMap, Hypocycloid, TwoGapMap,
                   chebyshev_scaled, evaluate_map, exp_map_faber_closed_form,
                   gap_faber_closed_form, hypocycloid_faber_closed_form,
                   inverse_exp_map, lambert_w0, lambert_w0_power_series,
                   to_exterior_map, two_gap_faber_system)
from .poly import evaluate_rows
from .report import CheckReport, combine
from .verify import (check_gap_coefficient_recovery, exponential_map_characterization,
                     leading_common_root_order)

SUITE_NAMES = (
    "recurrence-vs-oracle", "eq13", "eq14", "eq16",
    "theorem1", "theorem2", "theorem3",
    "chebyshev", "he-formula", "lambert", "rays",
)


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

def draw_disk(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.uniform())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def draw_exterior_map(rng: np.random.Generator, truncation: int) -> ExteriorMap:
    """Random coefficients with |alpha_k| <= 1/(k+1)."""
    alpha0 = draw_disk(rng, 1.0)
    tail = [draw_disk(rng, 1.0 / (k + 1)) for k in range(1, truncation + 1)]
    return ExteriorMap(alpha0, tail)


def draw_gap_map(rng: np.random.Generator, n_max: int = 5) -> GapMap:
    """Random gap map whose tail spans j = n..2n with |alpha_j| <= 2/(j+1).

    z0 stays in the unit disk so the recurrence round-off at z0 (which
    scales like (1+|z0|)^{2n+1} eps) stays clear of the 1e-10 tolerances.
    """
    n = int(rng.integers(1, n_max + 1))
    z0 = draw_disk(rng, 1.0)
    tail = []
    for j in range(n, 2 * n + 1):
        bound = 2.0 / (j + 1)
        if j == n:
            r = bound * (0.4 + 0.6 * rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            tail.append(complex(r * math.cos(phi), r * math.sin(phi)))
        else:
            tail.append(draw_disk(rng, bound))
    return GapMap(z0, n, tail)


def draw_two_gap_map(rng: np.random.Generator, pattern_valid: bool = False) -> TwoGapMap:
    """Random two-gap map.

    With ``pattern_valid`` the second gap index is capped at 2m + 1; beyond
    that the recurrence forces F_{2m+2}(z0) = (m+1) alpha_m^2 != 0, so the
    single-extra-root value pattern can only hold on this range.
    """
    m = int(rng.integers(1, 4))
    if pattern_valid:
        n = int(rng.integers(m + 2, 2 * m + 2))
    else:
        n = m + 2 + int(rng.integers(0, 4))
    z0 = draw_disk(rng, 1.0)
    r = (0.3 + 0.7 * rng.uniform()) / (m + 1)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    alpha_m = complex(r * math.cos(phi), r * math.sin(phi))
    tail = []
    for j in range(n, n + 3):
        bound = 1.0 / (j + 1)
        if j == n:
            rr = bound * (0.4 + 0.6 * rng.uniform())
            pp = rng.uniform(0.0, 2.0 * math.pi)
            tail.append(complex(rr * math.cos(pp), rr * math.sin(pp)))
        else:
            tail.append(draw_disk(rng, bound))
    return TwoGapMap(z0, m, alpha_m, n, tail)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _row_deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two tables of one shape, max_k |a_k - b_k| relative to
    1 + the larger max |c| of the two rows (as coefficient_deviation)."""
    def magnitude(t):
        return np.hypot(t.real, t.imag)   # abs() of a Python complex, to the ulp
    scale = 1.0 + np.maximum(magnitude(a).max(axis=1), magnitude(b).max(axis=1))
    return magnitude(a - b).max(axis=1) / scale


def _value_residual(expected, table: np.ndarray, z) -> float:
    """Worst |expected_j - row_j(z)| over the table rows and the points z,
    each relative to 1 + the row's Horner magnitude at that point."""
    values, magnitudes = evaluate_rows(table, z)
    return float(np.max(np.abs(np.asarray(expected) - values) / (1.0 + magnitudes)))


def suite_recurrence_vs_oracle(seed: int = 0, n_maps: int = 50, n_points: int = 20,
                               n_highest: int = 30, truncation: int = 30,
                               tol: float = 1e-9) -> CheckReport:
    """Recurrence-generated values against the log-series oracle."""
    rng = np.random.default_rng(seed)
    per_map = []
    for _ in range(n_maps):
        emap = draw_exterior_map(rng, truncation)
        table = faber_system_from_recurrence(emap, n_highest).coeffs[1:]
        z = np.array([draw_disk(rng, 3.0) for _ in range(n_points)])
        oracle = faber_values_from_log_series(emap, z, n_highest)
        per_map.append(_value_residual(oracle, table, z))
    worst = max(per_map)
    return CheckReport("recurrence-vs-oracle", worst <= tol, worst, tuple(per_map))


def suite_eq13(seed: int = 0, pairs: int = 30, n_highest: int = 20,
               truncation: int = 24, tol: float = 1e-9) -> CheckReport:
    """Value generating series Psi'(w) w/(Psi(w)-z) against the recurrence."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(pairs):
        emap = draw_exterior_map(rng, truncation)
        z = draw_disk(rng, 3.0)
        table = faber_system_from_recurrence(emap, n_highest).coeffs
        coeffs = faber_values_from_ratio_series(emap, z, n_highest)
        residuals.append(_value_residual(coeffs, table, z))
    worst = max(residuals)
    return CheckReport("eq13", worst <= tol, worst, tuple(residuals))


def suite_eq16(seed: int = 0, pairs: int = 30, n_highest: int = 20,
               truncation: int = 24, tol: float = 1e-9) -> CheckReport:
    """Derivative generating series 1/(Psi(w)-z) against the recurrence."""
    rng = np.random.default_rng(seed)
    index = np.arange(1, n_highest + 1)
    residuals = []
    for _ in range(pairs):
        emap = draw_exterior_map(rng, truncation)
        z = draw_disk(rng, 3.0)
        f = faber_system_from_recurrence(emap, n_highest).coeffs
        values, magnitudes = evaluate_rows(f[1:, 1:] * index, z)    # row j-1 is F_j'
        coeffs = faber_derivative_values_from_series(emap, z, n_highest)
        residuals.append(float(np.max(np.abs(coeffs - values / index) / (1.0 + magnitudes))))
    worst = max(residuals)
    return CheckReport("eq16", worst <= tol, worst, tuple(residuals))


def suite_eq14(lam: complex = 0.7, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Polynomial identity z F_j'(z) = j sum_k lam^{j-k} F_k(z)."""
    report = check_derivative_identity(lam, n_highest, tol)
    return CheckReport("eq14", report.passed, report.max_residual, report.residuals)


def suite_theorem1(seed: int = 0, cases: int = 20, tol: float = 1e-10) -> CheckReport:
    """Gap maps: monomial prefix, first nonvanishing value, coefficient recovery."""
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(cases):
        gap = draw_gap_map(rng)
        n_highest = 2 * gap.n + 2
        system = faber_system_from_recurrence(to_exterior_map(gap, n_highest), n_highest)
        profile = leading_common_root_order(system, gap.z0, tol)
        ok = profile.first_nonvanishing == gap.n + 1
        value_resid = abs(profile.values[gap.n] - (gap.n + 1) * abs(gap.alpha_n())) \
            / (1.0 + (gap.n + 1) * abs(gap.alpha_n()))
        head = gap.n + 2
        closed_resid = float(_row_deviation(gap_faber_closed_form(gap, gap.n + 1).coeffs,
                                            system.coeffs[:head, :head]).max())
        recovery = check_gap_coefficient_recovery(gap, n_highest, tol)
        worst = max(value_resid, closed_resid, recovery.max_residual)
        reports.append(CheckReport(
            f"theorem1-case-{i}", ok and worst <= tol and recovery.passed, worst))
    return combine("theorem1", reports)


def suite_theorem2(seed: int = 0, cases: int = 10, n_highest: int = 24,
                   tol: float = 1e-9) -> CheckReport:
    """Two-gap maps: piecewise recurrence equals the generic one; value pattern.

    The closed-form equivalence is checked on unconstrained draws; the
    value pattern only on maps with n <= 2m + 1 (see draw_two_gap_map).
    """
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(cases):
        fam = draw_two_gap_map(rng)
        closed = two_gap_faber_system(fam, n_highest)
        generic = faber_system_from_recurrence(to_exterior_map(fam, n_highest), n_highest)
        coeff_resid = float(_row_deviation(closed.coeffs, generic.coeffs).max())
        # value pattern at z0: zero up to n except the single index m+1
        pat = draw_two_gap_map(rng, pattern_valid=True)
        rows = faber_system_from_recurrence(to_exterior_map(pat, n_highest),
                                            n_highest).coeffs[1:pat.n + 1]
        values = np.abs(evaluate_rows(rows, pat.z0)[0])          # |F_j(z0)|, j = 1..
        pattern = values / (1.0 + np.abs(rows).max(axis=1))
        if pat.m < len(rows):
            expected = (pat.m + 1) * abs(pat.alpha_m)
            pattern[pat.m] = abs(values[pat.m] - expected) / (1.0 + expected)
        pattern_resid = float(pattern.max(initial=0.0))
        worst = max(coeff_resid, pattern_resid)
        reports.append(CheckReport(f"theorem2-case-{i}", worst <= tol, worst))
    return combine("theorem2", reports)


def suite_theorem3(seed: int = 0, cases: int = 10, n_highest: int = 20,
                   tol: float = 1e-9) -> CheckReport:
    """Exponential maps: common-root pattern, closed form, perturbation breaks it."""
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(cases):
        eta = draw_disk(rng, 1.5)
        r = 0.2 + 0.8 * rng.uniform()
        phi = rng.uniform(0.0, 2.0 * math.pi)
        lam = complex(r * math.cos(phi), r * math.sin(phi))
        emap = exp_map_exterior(eta, lam, n_highest)
        detected = exponential_map_characterization(emap, eta, n_highest, tol)
        closed_resid = float(_row_deviation(
            exp_map_faber_closed_form(eta, lam, n_highest).coeffs,
            faber_system_from_recurrence(emap, n_highest).coeffs).max())
        k = int(rng.integers(1, emap.truncation + 1))
        bumped_tail = list(emap.tail)
        bumped_tail[k - 1] += 1e-3
        bumped = ExteriorMap(emap.alpha0, bumped_tail)
        broken = not exponential_map_characterization(bumped, eta, n_highest, tol)
        ok = detected and broken and closed_resid <= tol
        reports.append(CheckReport(f"theorem3-case-{i}", ok, closed_resid))
    return combine("theorem3", reports)


def suite_chebyshev(n_highest: int = 24, tol: float = 1e-12) -> CheckReport:
    """Single-cusp closed form reduces to doubled Chebyshev on the half scale."""
    residuals = _row_deviation(hypocycloid_faber_closed_form(1, n_highest).coeffs,
                               chebyshev_scaled(n_highest).coeffs)[1:].tolist()
    worst = max(residuals)
    return CheckReport("chebyshev", worst <= tol, worst, tuple(residuals))


def suite_he_formula(n_highest: int = 24, m_max: int = 4, tol: float = 1e-9) -> CheckReport:
    """Hypocycloid closed form against the recurrence for m = 1..m_max."""
    reports = []
    for m in range(1, m_max + 1):
        emap = to_exterior_map(Hypocycloid(m), n_highest)
        worst = float(_row_deviation(hypocycloid_faber_closed_form(m, n_highest).coeffs,
                                     faber_system_from_recurrence(emap, n_highest).coeffs).max())
        reports.append(CheckReport(f"he-formula-m{m}", worst <= tol, worst))
    return combine("he-formula", reports)


def suite_lambert(seed: int = 0, grid_points: int = 1000, tol: float = 1e-12) -> CheckReport:
    """Defining identity on a grid, inverse-map round trips, series consistency."""
    rng = np.random.default_rng(seed)
    # defining-identity residual off the cut
    worst_grid = 0.0
    count = 0
    while count < grid_points:
        t = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if abs(t.imag) < 1e-9 and t.real < -0.2:
            continue
        count += 1
        res = lambert_w0(t)
        if not res.converged:
            return CheckReport("lambert", False, math.inf,
                               notes=f"no convergence at t={t}")
        worst_grid = max(worst_grid, res.residual / (1.0 + abs(t)))
    # inverse map round trip through the exponential map
    eta, lam = 0.3 - 0.2j, 0.8
    fam = ExpMap(eta, lam)
    worst_round = 0.0
    for _ in range(100):
        radius = 1.1 + 8.9 * rng.uniform()
        w = radius * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        z = evaluate_map(fam, w)
        worst_round = max(worst_round, abs(inverse_exp_map(z, eta, lam) - w))
    # summed power series against Halley values on |t| = 0.1
    series = lambert_w0_power_series(1, 20)
    worst_series = 0.0
    for k in range(16):
        t = 0.1 * cmath.exp(2j * math.pi * k / 16.0)
        summed = sum(c * t ** i for i, c in enumerate(series.coeffs.tolist()))
        worst_series = max(worst_series, abs(summed - lambert_w0(t).value))
    passed = worst_grid <= tol and worst_round <= 1e-10 and worst_series <= 1e-10
    return CheckReport("lambert", passed, max(worst_grid, worst_round, worst_series),
                       (worst_grid, worst_round, worst_series))


def suite_rays(n_highest: int = 24, m_max: int = 4, angle_tol: float = 1e-6,
               residual_tol: float = 1e-8) -> CheckReport:
    """Roots of hypocycloid Faber polynomials sit on the cusp rays."""
    reports = []
    for m in range(1, m_max + 1):
        directions = [2.0 * math.pi * v / (m + 1) for v in range(m + 1)]
        worst_angle = 0.0
        worst_resid = 0.0
        system = hypocycloid_faber_closed_form(m, n_highest)
        for j in range(1, n_highest + 1):
            p = system[j]
            scale = 1.0 + sum(abs(c) for c in p.coeffs)
            for r in p.roots():
                worst_resid = max(worst_resid, abs(p.evaluate(r)) / scale)
                if abs(r) <= 1e-8:
                    continue
                a = math.atan2(r.imag, r.real) % (2.0 * math.pi)
                d = min(min(abs(a - phi), 2.0 * math.pi - abs(a - phi))
                        for phi in directions)
                worst_angle = max(worst_angle, d)
        ok = worst_angle <= angle_tol and worst_resid <= residual_tol
        reports.append(CheckReport(f"rays-m{m}", ok, worst_angle))
    return combine("rays", reports)


def run_suite(name: str, seed: int = 0, n_highest: int | None = None,
              tol: float | None = None, lam: complex | None = None) -> list[CheckReport]:
    """Dispatch one suite (or 'all') with optional overrides.

    ``n_highest`` must be at least 1, and at least 3 for ``theorem3`` (also
    under 'all'); ``theorem1`` and ``lambert``, whose degrees follow from
    their draws, refuse it.  A ValueError names the suite.
    """
    if n_highest is not None and n_highest < 1:
        raise ValueError(f"suite {name!r} needs N >= 1, got {n_highest}")
    if n_highest is not None and n_highest < 3 and name in ("theorem3", "all"):
        raise ValueError(f"suite 'theorem3' needs N >= 3 to characterize the common-root "
                         f"pattern, got {n_highest}")
    if n_highest is not None and name in ("theorem1", "lambert"):
        raise ValueError(f"suite {name!r} takes no N: its degrees follow from its draws")
    kwargs_n = {} if n_highest is None else {"n_highest": n_highest}
    kwargs_t = {} if tol is None else {"tol": tol}
    dispatch = {
        "recurrence-vs-oracle": lambda: suite_recurrence_vs_oracle(seed, **kwargs_n, **kwargs_t),
        "eq13": lambda: suite_eq13(seed, **kwargs_n, **kwargs_t),
        "eq14": lambda: suite_eq14(0.7 if lam is None else lam, **kwargs_n, **kwargs_t),
        "eq16": lambda: suite_eq16(seed, **kwargs_n, **kwargs_t),
        "theorem1": lambda: suite_theorem1(seed, **kwargs_t),
        "theorem2": lambda: suite_theorem2(seed, **kwargs_n, **kwargs_t),
        "theorem3": lambda: suite_theorem3(seed, **kwargs_n, **kwargs_t),
        "chebyshev": lambda: suite_chebyshev(**kwargs_n, **kwargs_t),
        "he-formula": lambda: suite_he_formula(**kwargs_n, **kwargs_t),
        "lambert": lambda: suite_lambert(seed, **kwargs_t),
        "rays": lambda: suite_rays(**kwargs_n),
    }
    if name == "all":
        return [dispatch[n]() for n in SUITE_NAMES]
    if name not in dispatch:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [dispatch[name]()]
