"""Named, seeded verification suites combining every module.

Each suite returns one :class:`CheckReport` from ``CheckReport.verdict`` (or
``judged``) over its cases, one (passed, residual) per map, pair or m,
taken lazily, so the first residual that is not finite stops the suite
before the next case is drawn.  All randomness flows through an explicit
seed, so a suite run is reproducible bit for bit.  These are the checks
the command line exposes under ``verify --suite NAME``.

The draws are part of every report.  Each disk point takes two uniforms
from the generator, its radius and then its angle (``draw_disks`` takes k
points from one call of k pairs); a change to that order or count changes
every report.

Pointwise comparisons of polynomial values are normalized by the Horner
evaluation magnitude 1 + sum_k |c_k| |z|^k.  At sample points inside the
image region the true values are exponentially smaller than the monomial
terms that produce them, so agreement is only meaningful relative to that
working scale (both computation paths carry round-off proportional to it).
"""

from __future__ import annotations

import cmath
import inspect
import math
from dataclasses import replace

import numpy as np

from .faber import (_map_coefficients, exp_map_exterior, faber_system_from_recurrence,
                    faber_values_from_log_series, faber_values_from_ratio_series,
                    faber_derivative_values_from_series)
from .maps import (ExpMap, GapMap, Hypocycloid, TwoGapMap,
                   chebyshev_scaled, evaluate_map, exp_map_faber_closed_form,
                   gap_faber_closed_form, hypocycloid_faber_closed_form,
                   inverse_exp_map, lambert_w0, lambert_w0_power_series,
                   to_exterior_map, two_gap_faber_system)
from .poly import RootFindingError, _aberth, _horner, evaluate_rows
from .verify import (CheckReport, _refuse_undecided, _row_deviation, _row_scale,
                     check_derivative_identity, check_gap_coefficient_recovery,
                     exponential_map_characterization, leading_common_root_order)

SUITE_NAMES = (
    "recurrence-vs-oracle", "eq13", "eq14", "eq16",
    "theorem1", "theorem2", "theorem3",
    "chebyshev", "he-formula", "lambert", "rays",
)


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

def draw_polar(rng: np.random.Generator, r: float) -> complex:
    """A point of modulus r at a uniform angle."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def draw_disks(rng: np.random.Generator, radii: list[float]) -> list[complex]:
    """One uniform point of the disk |z| <= R for each R in ``radii``, from one
    generator call of len(radii) pairs: radius R sqrt(u), then angle 2 pi v."""
    points = []
    for radius, (u, v) in zip(radii, rng.uniform(size=(len(radii), 2)).tolist()):
        r, phi = radius * math.sqrt(u), 2.0 * math.pi * v
        points.append(complex(r * math.cos(phi), r * math.sin(phi)))
    return points


def draw_disk(rng: np.random.Generator, radius: float) -> complex:
    return draw_disks(rng, [radius])[0]


def draw_exterior_map(rng: np.random.Generator, truncation: int) -> np.ndarray:
    """Random coefficient array a_0 .. a_truncation with |a_k| <= 1/(k+1)."""
    return _map_coefficients(draw_disks(rng, [1.0 / (k + 1) for k in range(truncation + 1)]))


def draw_gap_map(rng: np.random.Generator) -> GapMap:
    """Random gap map, 1 <= n <= 5, whose tail spans j = n..2n with |alpha_j| <= 2/(j+1).

    z0 stays in the unit disk so the recurrence round-off at z0 (which
    scales like (1+|z0|)^{2n+1} eps) stays clear of the 1e-10 tolerances.
    """
    n = int(rng.integers(1, 6))
    z0 = draw_disk(rng, 1.0)
    lead = draw_polar(rng, 2.0 / (n + 1) * (0.4 + 0.6 * rng.uniform()))
    tail = [lead] + draw_disks(rng, [2.0 / (j + 1) for j in range(n + 1, 2 * n + 1)])
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
    alpha_m = draw_polar(rng, (0.3 + 0.7 * rng.uniform()) / (m + 1))
    lead = draw_polar(rng, 1.0 / (n + 1) * (0.4 + 0.6 * rng.uniform()))
    tail = [lead] + draw_disks(rng, [1.0 / (j + 1) for j in (n + 1, n + 2)])
    return TwoGapMap(z0, m, alpha_m, n, tail)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _value_residual(expected, table: np.ndarray, z) -> float:
    """Worst |expected_j - row_j(z)| over the table rows and the points z,
    each relative to 1 + the row's Horner magnitude at that point."""
    values, magnitudes = evaluate_rows(table, z)
    return float(np.max(np.abs(np.asarray(expected) - values) / (1.0 + magnitudes)))


def _per_map(name: str, seed: int, maps: int, truncation: int, residual,
             tol: float) -> CheckReport:
    """Judge ``residual(rng, a)`` on ``maps`` seeded random maps of the given
    truncation; the first map whose residual is not finite stops the check."""
    rng = np.random.default_rng(seed)
    return CheckReport.judged(name, (residual(rng, draw_exterior_map(rng, truncation))
                                     for _ in range(maps)), tol)


def suite_recurrence_vs_oracle(seed: int = 0, n_highest: int = 30,
                               tol: float = 1e-9) -> CheckReport:
    """Recurrence-generated values against the log-series oracle, on 50
    random maps of truncation 30 with 20 points each."""
    def residual(rng, a):
        table = faber_system_from_recurrence(a, n_highest)[1:]
        z = np.array(draw_disks(rng, [3.0] * 20))
        return _value_residual(faber_values_from_log_series(a, z, n_highest), table, z)
    return _per_map("recurrence-vs-oracle", seed, 50, 30, residual, tol)


def suite_eq13(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Value generating series Psi'(w) w/(Psi(w)-z) against the recurrence,
    on 30 random pairs of a map of truncation 24 and a point."""
    def residual(rng, a):
        z = draw_disk(rng, 3.0)
        table = faber_system_from_recurrence(a, n_highest)
        return _value_residual(faber_values_from_ratio_series(a, z, n_highest), table, z)
    return _per_map("eq13", seed, 30, 24, residual, tol)


def suite_eq16(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Derivative generating series 1/(Psi(w)-z) against the recurrence,
    on 30 random pairs of a map of truncation 24 and a point."""
    index = np.arange(1, n_highest + 1)

    def residual(rng, a):
        z = draw_disk(rng, 3.0)
        f = faber_system_from_recurrence(a, n_highest)
        values, magnitudes = evaluate_rows(f[1:, 1:] * index, z)    # row j-1 is F_j'
        coeffs = faber_derivative_values_from_series(a, z, n_highest)
        return float(np.max(np.abs(coeffs - values / index) / (1.0 + magnitudes)))
    return _per_map("eq16", seed, 30, 24, residual, tol)


def suite_eq14(lam: complex = 0.7, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Polynomial identity z F_j'(z) = j sum_k lam^{j-k} F_k(z)."""
    try:
        report = check_derivative_identity(lam, n_highest, tol)
    except OverflowError as exc:
        raise OverflowError(f"eq14 at lambda={lam}, N={n_highest}: {exc}") from exc
    return replace(report, name="eq14")


def suite_theorem1(seed: int = 0, tol: float = 1e-10) -> CheckReport:
    """Gap maps: monomial prefix, first nonvanishing value, coefficient
    recovery, on 20 random draws."""
    rng = np.random.default_rng(seed)

    def cases():
        for _ in range(20):
            gap = draw_gap_map(rng)
            n_highest = 2 * gap.n + 2
            table = faber_system_from_recurrence(to_exterior_map(gap, n_highest), n_highest)
            profile = leading_common_root_order(table, gap.z0, tol)
            expected = (gap.n + 1) * abs(gap.tail[0])
            value_resid = abs(profile.values[gap.n] - expected) / (1.0 + expected)
            head = gap.n + 2
            closed_resid = _row_deviation(gap_faber_closed_form(gap, gap.n + 1),
                                          table[:head, :head]).max()
            recovery = check_gap_coefficient_recovery(table, gap, tol)
            worst = np.max((value_resid, closed_resid, recovery.max_residual))
            yield profile.first_nonvanishing == gap.n + 1 and worst <= tol, worst
    return CheckReport.verdict("theorem1", cases())


def suite_theorem2(seed: int = 0, n_highest: int = 24, tol: float = 1e-9) -> CheckReport:
    """Two-gap maps: piecewise recurrence equals the generic one; value
    pattern, on 10 pairs of random draws.

    The closed-form equivalence is checked on unconstrained draws; the
    value pattern only on maps with n <= 2m + 1 (see draw_two_gap_map).
    """
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(10):
            try:
                fam = draw_two_gap_map(rng)
                closed = two_gap_faber_system(fam, n_highest)
                generic = faber_system_from_recurrence(to_exterior_map(fam, n_highest),
                                                       n_highest)
                # value pattern at z0: zero up to n except the single index m+1
                pat = draw_two_gap_map(rng, pattern_valid=True)
                rows = faber_system_from_recurrence(to_exterior_map(pat, n_highest),
                                                    n_highest)[1:pat.n + 1]
            except OverflowError as exc:
                raise OverflowError(f"theorem2 case {i}, N={n_highest}: {exc}") from exc
            values = np.abs(evaluate_rows(rows, pat.z0)[0])          # |F_j(z0)|, j = 1..
            pattern = values / (1.0 + np.abs(rows).max(axis=1))
            if pat.m < len(rows):
                expected = (pat.m + 1) * abs(pat.alpha_m)
                pattern[pat.m] = abs(values[pat.m] - expected) / (1.0 + expected)
            yield np.max((_row_deviation(closed, generic).max(), pattern.max(initial=0.0)))
    return CheckReport.judged("theorem2", cases(), tol)


def suite_theorem3(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Exponential maps: common-root pattern, closed form, perturbation
    breaks it, on 10 random draws."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(10):
            eta = draw_disk(rng, 1.5)
            lam = draw_polar(rng, 0.2 + 0.8 * rng.uniform())
            where = f"theorem3 case {i}, N={n_highest}"
            try:
                a = exp_map_exterior(eta, lam, n_highest)
                recurrence = faber_system_from_recurrence(a, n_highest)
                detected = exponential_map_characterization(recurrence, a, eta, tol)
                closed = exp_map_faber_closed_form(eta, lam, n_highest)
                rows = _row_deviation(closed, recurrence)
                closed_resid = rows.max()
                if closed_resid > tol:  # the same sum over term magnitudes bounds its round-off
                    sizes = exp_map_faber_closed_form(-abs(eta), -abs(lam), n_highest).real
                    bound = (np.finfo(float).eps * np.arange(1, n_highest + 2)
                             * sizes.max(axis=1) / _row_scale(closed, recurrence))
                    _refuse_undecided(where, rows, bound, tol)
                bumped = a.copy()
                bumped[int(rng.integers(1, len(a)))] += 1e-3
                broken = not exponential_map_characterization(
                    faber_system_from_recurrence(bumped, n_highest), bumped, eta, tol)
            except OverflowError as exc:
                raise OverflowError(f"{where}: {exc}") from exc
            yield detected and broken and closed_resid <= tol, closed_resid
    return CheckReport.verdict("theorem3", cases())


def suite_chebyshev(n_highest: int = 24, tol: float = 1e-12) -> CheckReport:
    """Single-cusp closed form reduces to doubled Chebyshev on the half scale."""
    try:
        closed = hypocycloid_faber_closed_form(1, n_highest)
    except OverflowError as exc:
        raise OverflowError(f"chebyshev at N={n_highest}: {exc}") from exc
    residuals = _row_deviation(closed, chebyshev_scaled(n_highest))[1:].tolist()
    return CheckReport.judged("chebyshev", residuals, tol)


def suite_he_formula(n_highest: int = 24, tol: float = 1e-9) -> CheckReport:
    """Hypocycloid closed form against the recurrence for m = 1..4."""
    def cases():
        for m in range(1, 5):
            a = to_exterior_map(Hypocycloid(m), n_highest)
            try:
                closed = hypocycloid_faber_closed_form(m, n_highest)
                recurrence = faber_system_from_recurrence(a, n_highest)
            except OverflowError as exc:
                raise OverflowError(f"he-formula at N={n_highest}, m={m}: {exc}") from exc
            yield _row_deviation(closed, recurrence).max()
    return CheckReport.judged("he-formula", cases(), tol)


def suite_lambert(seed: int = 0, tol: float = 1e-12) -> CheckReport:
    """Defining identity on a grid of 1000 points, inverse-map round trips,
    series consistency; ``tol`` judges the grid residual only."""
    rng = np.random.default_rng(seed)
    # defining-identity residual off the cut: a pair on the cut is replaced by
    # a fresh one, drawn in a block with the other replacements
    grid = []
    wanted = 1000
    while wanted:
        pairs = rng.uniform(-4.0, 4.0, size=(wanted, 2)).tolist()
        wanted = 0
        for re, im in pairs:
            if abs(im) < 1e-9 and re < -0.2:
                wanted += 1
                continue
            t = complex(re, im)
            res = lambert_w0(t)
            if not res.converged:
                raise ArithmeticError(f"lambert: no convergence at t={t}")
            grid.append(res.residual / (1.0 + abs(t)))
    # inverse map round trip through the exponential map
    eta, lam = 0.3 - 0.2j, 0.8
    fam = ExpMap(eta, lam)
    round_trips = []
    for u, v in rng.uniform(size=(100, 2)).tolist():
        radius = 1.1 + 8.9 * u
        w = radius * cmath.exp(1j * (2.0 * math.pi * v))
        z = evaluate_map(fam, w)
        round_trips.append(abs(inverse_exp_map(z, eta, lam) - w))
    # summed power series against Halley values on |t| = 0.1
    series = lambert_w0_power_series(1, 20)
    misses = []
    for k in range(16):
        t = 0.1 * cmath.exp(2j * math.pi * k / 16.0)
        summed = sum(c * t ** i for i, c in enumerate(series.coeffs.tolist()))
        misses.append(abs(summed - lambert_w0(t).value))
    return CheckReport.verdict("lambert", ((worst <= bound, worst) for worst, bound in
                                           zip(map(np.max, (grid, round_trips, misses)),
                                               (tol, 1e-10, 1e-10))))


def suite_rays(n_highest: int = 24, tol: float = 1e-6) -> CheckReport:
    """Roots of hypocycloid Faber polynomials sit on the cusp rays, m = 1..4.

    ``tol`` judges the worst angle of a root off its nearest ray; every
    root's residual must stay within 1e-8 of its polynomial's scale.  Each
    m solves its whole table in one batched Aberth call, and row j's roots
    fill row j - 1 of a lower-triangular block.
    """
    own = np.tri(n_highest, dtype=bool)          # row j - 1 holds the j roots of F_j

    def cases():
        for m in range(1, 5):
            table = hypocycloid_faber_closed_form(m, n_highest)
            rows = table[1:]
            try:
                found = _aberth([row[:j + 1] for j, row in enumerate(rows, 1)])
            except RootFindingError as exc:
                raise RootFindingError(f"rays at m={m}, roots of F_{exc.row + 1}: {exc}",
                                       exc.roots, exc.residuals) from exc
            roots = np.zeros((n_highest, n_highest), dtype=complex)
            roots[own] = np.concatenate(found)
            values = np.abs(_horner(rows.T[:, :, None], roots))
            scale = 1.0 + np.abs(rows).sum(axis=1)
            worst_resid = (np.where(own, values, 0.0).max(axis=1) / scale).max()
            angles = np.arctan2(roots.imag, roots.real) % (2.0 * math.pi)
            off = np.abs(angles[..., None] - 2.0 * math.pi * np.arange(m + 1) / (m + 1))
            off = np.minimum(off, 2.0 * math.pi - off).min(axis=-1)
            worst_angle = off.max(initial=0.0, where=own & (np.abs(roots) > 1e-8))
            yield worst_angle <= tol and worst_resid <= 1e-8, worst_angle
    return CheckReport.verdict("rays", cases())


#: the command-line flag of each option a suite may take
_OPTION_FLAGS = {"n_highest": "--N", "tol": "--tol", "lam": "--lambda"}


def run_suite(name: str, seed: int = 0, n_highest: int | None = None,
              tol: float | None = None, lam: complex | None = None) -> list[CheckReport]:
    """Run one suite (or 'all') with optional overrides.

    Each option goes to the suites whose signature takes it.  A single
    suite refuses an option it does not take; 'all' gives each option to
    the suites that take it.  ``n_highest`` must be at least 1, and at
    least 3 for ``theorem3`` (also under 'all').  A ValueError names the
    suite.  Suites are looked up by module-global name at call time, so a
    rebound ``suite_*`` function is the one that runs.
    """
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    if n_highest is not None and n_highest < 1:
        raise ValueError(f"suite {name!r} needs N >= 1, got {n_highest}")
    if n_highest is not None and n_highest < 3 and name in ("theorem3", "all"):
        raise ValueError(f"suite 'theorem3' needs N >= 3 to characterize the common-root "
                         f"pattern, got {n_highest}")
    options = {"n_highest": n_highest, "tol": tol, "lam": lam}
    given = {key: value for key, value in options.items() if value is not None}
    reports = []
    for suite_name in SUITE_NAMES if name == "all" else (name,):
        suite = globals()["suite_" + suite_name.replace("-", "_")]
        taken = inspect.signature(suite).parameters
        refused = [_OPTION_FLAGS[key] for key in given if key not in taken]
        if refused and name != "all":
            raise ValueError(f"suite {name!r} takes no {' or '.join(refused)}")
        kwargs = {key: value for key, value in given.items() if key in taken}
        if "seed" in taken:
            kwargs["seed"] = seed
        with np.errstate(all="ignore"):     # CheckReport.verdict refuses what overflows
            reports.append(suite(**kwargs))
    return reports
