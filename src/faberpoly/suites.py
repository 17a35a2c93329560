"""Named, seeded verification suites combining every module.

Each suite returns one :class:`CheckReport` from ``CheckReport.verdict`` (or
``judged``) over its cases, one (passed, residual) per map, pair or m,
taken lazily, so the first residual that is not finite stops the suite
before the next case is computed.  The three series suites
(``recurrence-vs-oracle``, ``eq13``, ``eq16``) draw all their cases first
and then judge them in blocks, one stacked recurrence, oracle call and
Horner pass per block, so that stop skips the blocks after it.  All
randomness flows through an explicit seed, so a suite run is
reproducible bit for bit.  These are the checks the command line exposes
under ``verify --suite NAME``.

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

def _value_residuals(expected: np.ndarray, tables: np.ndarray, z: np.ndarray,
                     index=1.0) -> np.ndarray:
    """Per map of a stack, the worst |expected_j - row_j(z) / index_j| over its
    rows and points, each relative to 1 + the row's Horner magnitude there."""
    values, magnitudes = evaluate_rows(tables, z)
    return np.max(np.abs(expected - values / index) / (1.0 + magnitudes), axis=(1, 2))


#: most table entries, maps times (N+1)^2, that one block of a series suite
#: builds at once (with the oracle's series about 1 MB at the default N); a
#: larger table forms a block alone
_TABLE_BUDGET = 1 << 14


def _series_suite(name: str, seed: int, maps: int, truncation: int, points: int,
                  n_highest: int, residuals, tol: float) -> CheckReport:
    """Judge ``residuals(a, tables, z)``, one per map of a stack a with its
    recurrence tables and its row of points z, on ``maps`` seeded maps of the
    given truncation with ``points`` points each, all drawn first (a map,
    then its points), then judged in blocks under ``_TABLE_BUDGET``.  The
    first case not finite, or whose table overflows, stops the check."""
    rng = np.random.default_rng(seed)
    drawn = [(draw_exterior_map(rng, truncation), draw_disks(rng, [3.0] * points))
             for _ in range(maps)]
    size = max(1, _TABLE_BUDGET // (n_highest + 1) ** 2)

    def cases():
        for start in range(0, maps, size):
            a, z = (np.array(block) for block in zip(*drawn[start:start + size]))
            try:
                tables = faber_system_from_recurrence(a, n_highest)
            except OverflowError as exc:
                if exc.map:          # the maps before it are judged first
                    yield from residuals(a[:exc.map], faber_system_from_recurrence(
                        a[:exc.map], n_highest), z[:exc.map]).tolist()
                raise OverflowError(f"{name} case {start + exc.map}, N={n_highest}: the "
                                    f"recurrence overflows float64 from F_{exc.row} on") from exc
            yield from residuals(a, tables, z).tolist()
    return CheckReport.judged(name, cases(), tol)


def suite_recurrence_vs_oracle(seed: int = 0, n_highest: int = 30,
                               tol: float = 1e-9) -> CheckReport:
    """Recurrence-generated values against the log-series oracle, on 50
    random maps of truncation 30 with 20 points each."""
    def residuals(a, tables, z):
        return _value_residuals(faber_values_from_log_series(a, z, n_highest), tables[:, 1:], z)
    return _series_suite("recurrence-vs-oracle", seed, 50, 30, 20, n_highest, residuals, tol)


def suite_eq13(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Value generating series Psi'(w) w/(Psi(w)-z) against the recurrence,
    on 30 random pairs of a map of truncation 24 and a point."""
    def residuals(a, tables, z):
        return _value_residuals(faber_values_from_ratio_series(a, z, n_highest), tables, z)
    return _series_suite("eq13", seed, 30, 24, 1, n_highest, residuals, tol)


def suite_eq16(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Derivative generating series 1/(Psi(w)-z) against the recurrence,
    on 30 random pairs of a map of truncation 24 and a point."""
    index = np.arange(1, n_highest + 1)

    def residuals(a, tables, z):        # row j-1 of the evaluated rows is F_j'
        return _value_residuals(faber_derivative_values_from_series(a, z, n_highest),
                                tables[:, 1:, 1:] * index, z, index[:, None])
    return _series_suite("eq16", seed, 30, 24, 1, n_highest, residuals, tol)


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
        summed = sum(c * t ** i for i, c in enumerate(series.tolist()))
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


#: each option a suite may take: its command-line flag and least value
_OPTIONS = {"n_highest": ("--N", 1), "seed": ("--seed", 0), "tol": ("--tol", 0),
            "lam": ("--lambda", None)}


def run_suite(name: str, seed: int | None = None, n_highest: int | None = None,
              tol: float | None = None, lam: complex | None = None) -> list[CheckReport]:
    """Run one suite (or 'all'); an option left None keeps each suite's default.

    Each option goes to the suites whose signature takes it, so ``seed``
    reaches only the suites that draw.  A single suite refuses an option it
    does not take.  ``n_highest`` must be at least 1 (3 for ``theorem3``,
    also under 'all'), ``seed`` and ``tol`` at least 0.  A ValueError names
    the suite and the flag.  Suites are looked up by module-global name at
    call time, so a rebound ``suite_*`` is the one run.
    """
    if name != "all" and name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    options = {"n_highest": n_highest, "seed": seed, "tol": tol, "lam": lam}
    given = {key: value for key, value in options.items() if value is not None}
    for key, value in given.items():
        flag, least = _OPTIONS[key]
        if least is not None and value < least:
            raise ValueError(f"suite {name!r} needs {flag} >= {least}, got {value}")
    if n_highest is not None and n_highest < 3 and name in ("theorem3", "all"):
        raise ValueError(f"suite 'theorem3' needs N >= 3 to characterize the common-root "
                         f"pattern, got {n_highest}")
    reports = []
    for suite_name in SUITE_NAMES if name == "all" else (name,):
        suite = globals()["suite_" + suite_name.replace("-", "_")]
        taken = inspect.signature(suite).parameters
        refused = [_OPTIONS[key][0] for key in given if key not in taken]
        if refused and name != "all":
            raise ValueError(f"suite {name!r} takes no {' or '.join(refused)}")
        with np.errstate(all="ignore"):     # CheckReport.verdict refuses what overflows
            reports.append(suite(**{key: given[key] for key in taken if key in given}))
    return reports
