"""Named, seeded verification suites combining every module.

Each suite returns one :class:`CheckReport` from ``CheckReport.verdict`` (or
``judged``) over its cases, one (passed, residual) per map, pair or m,
taken lazily, so the first residual that is not finite stops the suite
before the next case is computed.  The suites that draw
(``recurrence-vs-oracle``, ``eq13``, ``eq16`` and ``theorem1`` to
``theorem3``) draw all their cases first and then judge them in blocks of
at most ``_TABLE_BUDGET`` table entries, a block computed only when its
first case is reached, so that stop skips the blocks after it.  A series
block is one stacked recurrence and one stacked oracle table, judged by
``_row_deviation``; a theorem block one stacked recurrence per set of maps
(theorem 1 one at the block's largest N = 2n + 2, theorem 2 its maps and
its pattern maps, theorem 3 its maps and its perturbed maps), whose tables
the checkers of :mod:`faberpoly.verify` judge as one stack, and in theorem 3
also one stacked exp-map closed form of its maps.  An overflow or a closed
form's refusal still names the first case it stops, as a case at a time
would: every suite puts its case before the error's message by one helper,
``_named``, and a stack refused from map k holds its cases before k
(``_stacked_tables``).  All randomness flows through an explicit seed, so a
suite run is reproducible bit for bit.

Theorems 1-3 judge each map at its point, z0 or eta, centered there (z0 =
0, or a_0 less eta, and theorem 3's closed form at eta = 0): the recurrence
is translation-covariant, so column 0 of the centered table holds F_j at
the point, with no cancellation.
These are the checks the command line exposes under ``verify --suite
NAME``.

The draws are part of every report.  Each disk point takes two uniforms
from the generator, its radius and then its angle (``draw_disks`` takes k
points from one call of k pairs, and a series suite all its maps from one
such call); a change to that order or count changes every report.
"""

from __future__ import annotations

import cmath
import inspect
import math
from contextlib import contextmanager
from dataclasses import replace
from functools import partial

import numpy as np

from .faber import (_cut_map, _derivative_table, _log_table, _map_coefficients, _overflow,
                    _ratio_table, exp_map_exterior, faber_system_from_recurrence)
from .maps import (ExpMap, GapMap, Hypocycloid, TwoGapMap,
                   chebyshev_scaled, evaluate_map, exp_map_faber_closed_form,
                   gap_faber_closed_form, hypocycloid_faber_closed_form,
                   inverse_exp_map, lambert_w0, lambert_w0_power_series,
                   to_exterior_map, two_gap_faber_system)
from .poly import (RootFindingError, _hessenberg, _root_residuals, evaluate_rows,
                   faber_roots)
from .verify import (CheckReport, _row_deviation, _row_scale, check_derivative_identity,
                     check_gap_coefficient_recovery, exponential_map_characterization,
                     leading_common_root_order)

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
    u, v = rng.uniform(size=(len(radii), 2)).T
    r, phi = np.multiply(radii, np.sqrt(u)), 2.0 * math.pi * v
    return list(map(complex, (r * np.cos(phi)).tolist(), (r * np.sin(phi)).tolist()))


def draw_disk(rng: np.random.Generator, radius: float) -> complex:
    return draw_disks(rng, [radius])[0]


def draw_exterior_map(rng: np.random.Generator, truncation: int,
                      maps: int | None = None) -> np.ndarray:
    """Random coefficient array a_0 .. a_truncation with |a_k| <= 1/(k+1), or
    with ``maps`` a stack of that many, one per row, from one ``draw_disks``
    call that takes the uniforms of ``maps`` single draws in their order."""
    radii = [1.0 / (k + 1) for k in range(truncation + 1)]
    if maps is None:
        return _map_coefficients(draw_disks(rng, radii))
    disks = draw_disks(rng, radii * maps)
    return _map_coefficients(np.reshape(disks, (maps, truncation + 1)), stack=True)


def draw_gap_map(rng: np.random.Generator) -> GapMap:
    """Random gap map, 1 <= n <= 5, whose tail spans j = n..2n with |alpha_j| <= 2/(j+1),
    and z0 in the unit disk.

    The range does not bound theorem 1's round-off, since it centers the
    map at z0; it stays because the draws are part of every report.
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

#: most table entries, maps times (N+1)^2, that one stacked recurrence of a
#: suite builds at once (a series block also holds the oracle's Riordan array,
#: its oracle table and their difference, each about as large); a larger
#: table forms a block alone.  It sets which maps share a stack, and so the
#: rounding of the stacked products in every report.  A theorem-3 block also
#: holds its stacked closed form; peak RSS of `verify --suite theorem3` at
#: N = 40 read 37.6-37.7 MB with it against 37.4 MB without, at N = 100
#: 37.7-38.0 against 37.8, at N = 300 46.1-46.2 against 46.0-46.1, and
#: `recurrence-vs-oracle --N 300` 42.8-42.9 MB either way (3 runs each)
_TABLE_BUDGET = 1 << 14


def _blocks(rows: list[int]):
    """Consecutive ranges of case indices whose tables, of ``rows[i]`` rows
    for case i, hold at most ``_TABLE_BUDGET`` entries together; a larger
    table forms a block alone."""
    start, entries = 0, 0
    for i, n in enumerate(rows):
        if i > start and entries + n * n > _TABLE_BUDGET:
            yield range(start, i)
            start, entries = i, 0
        entries += n * n
    if rows:
        yield range(start, len(rows))


@contextmanager
def _named(where: str):
    """Name the case of an ArithmeticError raised inside: the same error is
    re-raised, its message behind ``where: ``."""
    try:
        yield
    except ArithmeticError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


def _stacked_tables(build, maps: np.ndarray, n_highest: int, source: str = "the recurrence"):
    """The tables ``build(maps, n_highest)`` of a stack of maps up to the
    first whose table overflows, and the OverflowError of that map as one
    map's, naming ``source`` and the row (None when no table overflows)."""
    try:
        return build(maps, n_highest), None
    except OverflowError as exc:
        error = _overflow(source, exc.row)
        error.__cause__ = exc
        return build(maps[:exc.map], n_highest), error


def _case_table(stacked, k: int) -> np.ndarray:
    """Table k of ``_stacked_tables``, or the OverflowError of map k."""
    tables, error = stacked
    if k < len(tables):
        return tables[k]
    raise error


def _series_suite(name: str, seed: int, maps: int, truncation: int, n_highest: int,
                  tables, tol: float) -> CheckReport:
    """Judge the oracle and recurrence tables ``tables(a, recurrence)`` gives
    for a stack of maps a, one residual per map, its worst ``_row_deviation``,
    on ``maps`` seeded maps of the given truncation, all drawn first, then
    judged in blocks under ``_TABLE_BUDGET``.  The first case not finite, or
    whose table overflows, stops the check."""
    drawn = draw_exterior_map(np.random.default_rng(seed), truncation, maps)

    def cases():
        for block in _blocks([n_highest + 1] * maps):
            a = drawn[block.start:block.stop]
            recurrence, exc = _stacked_tables(faber_system_from_recurrence, a, n_highest)
            # the maps before an overflow are judged first, then the map after them raises
            k = len(recurrence)
            yield from _row_deviation(*tables(a[:k], recurrence)).max(axis=-1).tolist()
            if exc:
                with _named(f"{name} case {block.start + k}, N={n_highest}"):
                    _case_table((recurrence, exc), k)

    return CheckReport.judged(name, cases(), tol)


def suite_recurrence_vs_oracle(seed: int = 0, n_highest: int = 30,
                               tol: float = 1e-9) -> CheckReport:
    """Recurrence tables against the log-series oracle's, on 50 random maps
    of truncation 30."""
    return _series_suite("recurrence-vs-oracle", seed, 50, 30, n_highest,
                         lambda a, tables: (_log_table(a, n_highest), tables), tol)


def suite_eq13(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Ratio generating series Psi'(w) w/(Psi(w)-z) against the recurrence,
    table against table, on 30 random maps of truncation 24."""
    return _series_suite("eq13", seed, 30, 24, n_highest,
                         lambda a, tables: (_ratio_table(a, n_highest), tables), tol)


def suite_eq16(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Derivative generating series 1/(Psi(w)-z) against the recurrence,
    table against table, on 30 random maps of truncation 24: row j - 1 holds
    F_j'/j, coefficient k (k+1) c_{k+1}/j from row j of the recurrence.  Its
    oracle re-reads the log oracle's Riordan array, so what this suite adds
    is the index and scale of F_j'/j."""
    index = np.arange(1, n_highest + 1)

    def tables(a, recurrence):
        return _derivative_table(a, n_highest), recurrence[:, 1:, 1:] * index / index[:, None]
    return _series_suite("eq16", seed, 30, 24, n_highest, tables, tol)


def suite_eq14(lam: complex = 0.7, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Polynomial identity z F_j'(z) = j sum_k lam^{j-k} F_k(z)."""
    with _named(f"eq14 at lambda={lam}, N={n_highest}"):
        report = check_derivative_identity(lam, n_highest, tol)
    return replace(report, name="eq14")


#: the loosest threshold at which theorems 1 and 3 call a value zero: a looser
#: ``tol`` would count |F_{n+1}(z0)| = (n+1)|alpha_n| (theorem 1), |F_1(z0)| =
#: |lambda| or the perturbation of theorem 3's bumped map as zero
_ZERO = 1e-4


def suite_theorem1(seed: int = 0, tol: float = 1e-10) -> CheckReport:
    """Gap maps: monomial prefix, first nonvanishing value, coefficient
    recovery, on 20 random draws, each centered at its point z0 and judged
    at 0, all drawn first and then judged in blocks, one stacked recurrence
    per block at its largest N = 2n + 2."""
    rng = np.random.default_rng(seed)
    gaps = [replace(draw_gap_map(rng), z0=0.0) for _ in range(20)]

    def cases():
        for block in _blocks([2 * gap.n + 3 for gap in gaps]):
            maps = gaps[block.start:block.stop]
            n_highest = 2 * max(gap.n for gap in maps) + 2
            tables = faber_system_from_recurrence(
                np.array([to_exterior_map(gap, n_highest) for gap in maps]), n_highest)
            profiles = leading_common_root_order(tables, tol=min(tol, _ZERO))
            recoveries = check_gap_coefficient_recovery(tables, maps, tol=tol)
            for gap, table, profile, recovery in zip(maps, tables, profiles, recoveries):
                expected = (gap.n + 1) * abs(gap.tail[0])
                value_resid = abs(profile.values[gap.n] - expected) / (1.0 + expected)
                head = gap.n + 2
                closed_resid = _row_deviation(gap_faber_closed_form(gap, gap.n + 1),
                                              table[:head, :head]).max()
                worst = np.max((value_resid, closed_resid, recovery.max_residual))
                yield profile.first_nonvanishing == gap.n + 1 and worst <= tol, worst
    return CheckReport.verdict("theorem1", cases())


def suite_theorem2(seed: int = 0, n_highest: int = 24, tol: float = 1e-9) -> CheckReport:
    """Two-gap maps: piecewise recurrence equals the generic one; value
    pattern, on 10 pairs of random draws, all drawn first and then judged
    in blocks, one stacked recurrence per block for each of the two sets.

    The closed-form equivalence is checked on unconstrained draws; the
    value pattern only on maps with n <= 2m + 1 (see draw_two_gap_map),
    each centered at its point z0 and judged at 0.
    """
    rng = np.random.default_rng(seed)
    drawn = [(draw_two_gap_map(rng), replace(draw_two_gap_map(rng, pattern_valid=True), z0=0.0))
             for _ in range(10)]

    def stacked(maps):          # a map's entries past a_N never reach its table
        return _stacked_tables(faber_system_from_recurrence,
                               np.array([to_exterior_map(fam, n_highest)[:n_highest + 1]
                                         for fam in maps]), n_highest)

    def cases():
        for block in _blocks([n_highest + 1] * len(drawn)):
            fams, pats = zip(*drawn[block.start:block.stop])
            generic, patterned = stacked(fams), stacked(pats)
            for k, (fam, pat) in enumerate(zip(fams, pats)):
                with _named(f"theorem2 case {block.start + k}, N={n_highest}"):
                    closed = two_gap_faber_system(fam, n_highest)
                    table = _case_table(generic, k)
                    # value pattern at z0: zero up to n except the single index m+1
                    rows = _case_table(patterned, k)[1:pat.n + 1]
                values = np.abs(rows[:, 0])                             # |F_j(z0)|, j = 1..
                pattern = values / _row_scale(rows)
                if pat.m < len(rows):
                    expected = (pat.m + 1) * abs(pat.alpha_m)
                    pattern[pat.m] = abs(values[pat.m] - expected) / (1.0 + expected)
                yield np.max((_row_deviation(closed, table).max(), pattern.max(initial=0.0)))
    return CheckReport.judged("theorem2", cases(), tol)


#: what theorem 3's perturbed map adds to one of its coefficients, ten times _ZERO
_BUMP = 1e-3


def suite_theorem3(seed: int = 0, n_highest: int = 20, tol: float = 1e-9) -> CheckReport:
    """Exponential maps: common-root pattern, closed form, perturbation
    breaks it, on 10 random draws, each centered at its point eta and judged
    at 0, all drawn first (eta, lambda, then the perturbed index) and then
    judged in blocks, one stacked recurrence per block for the maps and one
    for the perturbed maps, and one stacked closed form for the maps."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(10):
        eta = draw_disk(rng, 1.5)
        lam = draw_polar(rng, 0.2 + 0.8 * rng.uniform())
        drawn.append((eta, lam, int(rng.integers(1, n_highest + 1))))

    def characterized(maps):
        """The stacked tables of the maps up to an overflow, and their verdicts at 0."""
        tables, exc = _stacked_tables(faber_system_from_recurrence, maps, n_highest)
        return (tables, exc), exponential_map_characterization(
            tables, maps[:len(tables)], tol=min(tol, _ZERO))

    def cases():
        for block in _blocks([n_highest + 1] * len(drawn)):
            etas, lams, bumps = zip(*drawn[block.start:block.stop])
            a = np.array([exp_map_exterior(eta, lam, n_highest) for eta, lam in zip(etas, lams)])
            a[:, 0] -= etas
            bumped = a.copy()
            bumped[np.arange(len(a)), bumps] += _BUMP
            (exact, detected), (perturbed, kept) = characterized(a), characterized(bumped)
            closed_forms = _stacked_tables(partial(exp_map_faber_closed_form, 0.0), np.array(lams),
                                           n_highest, "the exp-map closed form")
            for k in range(len(lams)):
                with _named(f"theorem3 case {block.start + k}, N={n_highest}"):
                    recurrence = _case_table(exact, k)
                    closed = _case_table(closed_forms, k)
                    _case_table(perturbed, k)
                closed_resid = _row_deviation(closed, recurrence).max()
                yield detected[k] and not kept[k] and closed_resid <= tol, closed_resid
            del recurrence, closed          # no view keeps this block's stacks alive in the next
    return CheckReport.verdict("theorem3", cases())


def suite_chebyshev(n_highest: int = 24, tol: float = 1e-12) -> CheckReport:
    """Single-cusp closed form reduces to doubled Chebyshev on the half scale."""
    with _named(f"chebyshev at N={n_highest}"):
        closed = hypocycloid_faber_closed_form(1, n_highest)
        scaled = chebyshev_scaled(n_highest)
    residuals = _row_deviation(closed, scaled)[1:].tolist()
    return CheckReport.judged("chebyshev", residuals, tol)


def suite_he_formula(n_highest: int = 24, tol: float = 1e-9) -> CheckReport:
    """Hypocycloid closed form against the recurrence for m = 1..4."""
    def cases():
        for m in range(1, 5):
            a = _cut_map(to_exterior_map(Hypocycloid(m), n_highest))
            with _named(f"he-formula at N={n_highest}, m={m}"):
                closed = hypocycloid_faber_closed_form(m, n_highest)
                recurrence = faber_system_from_recurrence(a, n_highest)
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
    points = 0.1 * np.exp(2j * math.pi * np.arange(16) / 16.0)
    summed = evaluate_rows(lambert_w0_power_series(1, 20)[None], points)[0][0]
    misses = np.abs(summed - [lambert_w0(t).value for t in points.tolist()])
    return CheckReport.verdict("lambert", ((worst <= bound, worst) for worst, bound in
                                           zip(map(np.max, (grid, round_trips, misses)),
                                               (tol, 1e-10, 1e-10))))


def suite_rays(n_highest: int = 24, tol: float = 1e-6) -> CheckReport:
    """Roots of hypocycloid Faber polynomials sit on the cusp rays, m = 1..4.

    The roots come from ``faber_roots`` on the map w + 1/(m w^m), of
    rotational order m + 1, whose zeros count by the closed-form rows; they
    are judged against those rows, so that the map and the closed form
    still meet.  Row j - 1 of a lower-triangular block holds the j roots of
    F_j.  A root's residual must stay within (64 + 2j) eps of
    1 + sum_k |c_k| |x|^k, the rule that accepts any root
    (``_root_residuals``).  ``tol`` judges the worst angle of a root
    (|x| > 1e-8) off its nearest ray.  Rows are judged in ascending j, and
    the first that does not pass decides m, by ``_judge_ray_row``.
    """
    own = np.tri(n_highest, dtype=bool)
    degrees = np.arange(1, n_highest + 1)[:, None]

    def cases():
        for m in range(1, 5):
            where = f"rays at N={n_highest}, m={m}"
            a = to_exterior_map(Hypocycloid(m), m)
            with _named(where):
                table = hypocycloid_faber_closed_form(m, n_highest)
                roots = np.zeros((n_highest, n_highest), dtype=complex)
                roots[own] = np.concatenate(faber_roots(a, table, range(1, n_highest + 1)))
            values, within = _root_residuals(table[1:].T[:, :, None], roots, degrees)
            off = np.where(own & (np.abs(roots) > 1e-8), _off_ray(roots, m), 0.0)
            open_rows = np.flatnonzero((own & ~within).any(axis=1) | (off > tol).any(axis=1))
            if open_rows.size:
                j = int(open_rows[0]) + 1
                _judge_ray_row(f"{where}, F_{j}", a, roots[j - 1, :j], off[j - 1, :j],
                               values[j - 1, :j], tol)
            yield not open_rows.size, off.max()
    return CheckReport.verdict("rays", cases())


def _off_ray(x: np.ndarray, m: int) -> np.ndarray:
    """The angle of each point off its nearest ray at angle 2 pi v / (m + 1)."""
    angles = np.arctan2(x.imag, x.real) % (2.0 * math.pi)
    off = np.abs(angles[..., None] - 2.0 * math.pi * np.arange(m + 1) / (m + 1))
    return np.minimum(off, 2.0 * math.pi - off).min(axis=-1)


def _judge_ray_row(where: str, a: np.ndarray, x: np.ndarray, off: np.ndarray,
                   residuals: np.ndarray, tol: float) -> None:
    """Return when a root x of F_j, j = len(x), of the map ``a`` lies off its
    ray by more than ``tol`` plus its bound: the row fails.  Otherwise the
    row is undecided in float64, a RootFindingError.  Each root's bound is
    its forward error bound kappa eps ||H_j||_F seen as an angle from the
    origin (pi / 2 where it reaches the origin), plus 4 ulps of 2 pi for the
    rounding of the angle itself; kappa is the condition number of the
    eigenvalue nearest the root, from ``np.linalg.eig`` and the rows of the
    inverse eigenvector matrix, and infinite where either solve fails."""
    far = off > tol
    if far.any():
        h = _hessenberg(a, len(x))
        try:
            w, v = np.linalg.eig(h)
            kappa = np.linalg.norm(np.linalg.inv(v), axis=1) * np.linalg.norm(v, axis=0)
        except np.linalg.LinAlgError:
            w, kappa = x, np.full(len(x), np.inf)
        reach = kappa[np.abs(x[:, None] - w).argmin(axis=1)] * np.finfo(float).eps
        reach *= np.linalg.norm(h)
        bound = np.arcsin(np.divide(reach, np.abs(x), out=np.ones(len(x)),
                                    where=np.abs(x) > reach))
        bound += 8.0 * math.pi * np.finfo(float).eps    # the angle's own rounding
        if (off > tol + bound).any():
            return
        k = int(np.argmax(np.where(far, off, -1.0)))
        why = (f"root {complex(x[k])} is {off[k]:.1e} rad off its ray, within tol plus "
               f"its bound {bound[k]:.1e} rad")
    else:
        why = "a residual beyond (64 + 2j) eps of its Horner scale"
    raise RootFindingError(f"{where} ill-conditioned in float64: {why}", x, residuals)


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
