"""Theorem-level checkers for common roots of Faber systems.

Three facts are made testable here:

* a map of the form w + z0 + sum_{j>=n} alpha_j w^{-j} (alpha_n != 0) has
  F_j(z0) = 0 exactly for j = 1..n, with |F_{n+1}(z0)| = (n+1)|alpha_n|;
* for such a map the tail coefficients are recoverable from the values,
  alpha_j = -F_{j+1}(z0)/(j+1) for j between n and 2n;
* the only maps whose Faber polynomials all vanish at one point from index
  2 on are z0 + w exp((alpha0 - z0)/w), equivalently the tail must match
  alpha_j = (alpha0 - z0)^{j+1}/(j+1)!.

All zero tests are relative to the coefficient scale of the polynomial
being evaluated, since recurrence round-off grows with the index.  The
infinite "all later values vanish" statements are necessarily checked up
to the generated horizon, which the profile reports explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faber import ExteriorMap, FaberSystem, faber_system_from_recurrence
from .maps import GapMap, to_exterior_map
from .poly import evaluate_rows
from .report import CheckReport


@dataclass(frozen=True)
class CommonRootProfile:
    """|F_j(z0)| for j = 1..N and the first index where the value is nonzero.

    ``first_nonvanishing`` is None when every value up to the horizon
    len(values) is below tolerance ("none up to N").
    """

    z0: complex
    first_nonvanishing: int | None
    values: tuple[float, ...]

    @property
    def horizon(self) -> int:
        return len(self.values)


def leading_common_root_order(system: FaberSystem, z0: complex,
                              tol: float = 1e-10) -> CommonRootProfile:
    """Profile the values |F_j(z0)|, j = 1..N, against per-index scales.

    A value counts as nonzero when it exceeds tol * (1 + max coefficient
    magnitude of F_j).  For a gap map with parameters (z0, n) the expected
    outcome is first_nonvanishing = n + 1.
    """
    if system.highest_index < 2:
        raise ValueError("profiling needs at least F_1 and F_2")
    z0 = complex(z0)
    rows = system.coeffs[1:]
    values = np.abs(evaluate_rows(rows, z0)[0])
    nonzero = np.flatnonzero(values > tol * (1.0 + np.abs(rows).max(axis=1)))
    first = int(nonzero[0]) + 1 if nonzero.size else None
    return CommonRootProfile(z0=z0, first_nonvanishing=first, values=tuple(values.tolist()))


def check_gap_coefficient_recovery(family: GapMap, n_highest: int,
                                   tol: float = 1e-10) -> CheckReport:
    """Verify alpha_j = -F_{j+1}(z0)/(j+1) for j = n .. min(2n, N-1).

    Uses the recurrence-generated system of the gap map; residuals are
    normalized by 1 + |alpha_j|.
    """
    emap = to_exterior_map(family, n_highest)
    values = evaluate_rows(faber_system_from_recurrence(emap, n_highest).coeffs, family.z0)[0]
    residuals = []
    for j in range(family.n, min(2 * family.n, n_highest - 1) + 1):
        expected = emap.alpha(j)
        recovered = -complex(values[j + 1]) / (j + 1)
        residuals.append(abs(recovered - expected) / (1.0 + abs(expected)))
    worst = max(residuals, default=0.0)
    return CheckReport(
        name="gap-coefficient-recovery",
        passed=worst <= tol,
        max_residual=worst,
        residuals=tuple(residuals),
    )


def exponential_map_characterization(emap: ExteriorMap, z0: complex, n_highest: int,
                                     tol: float = 1e-9) -> bool:
    """True exactly when the map carries the exponential-map common-root pattern.

    Checks both directions jointly: (a) the value profile at z0 shows
    |F_1(z0)| > 0 and F_j(z0) = 0 for all 2 <= j <= N, and (b) the tail
    coefficients match alpha_j = (alpha0 - z0)^{j+1}/(j+1)! up to the
    truncation.  A shift map (z0 = alpha0) fails (a) by construction.
    """
    if n_highest < 3:
        raise ValueError("need at least F_3 to characterize the pattern")
    z0 = complex(z0)
    table = faber_system_from_recurrence(emap, n_highest).coeffs
    nonzero = np.abs(evaluate_rows(table, z0)[0]) > tol * (1.0 + np.abs(table).max(axis=1))
    if not nonzero[1] or nonzero[2:].any():
        return False
    lam = emap.alpha0 - z0
    power = lam
    for j in range(1, emap.truncation + 1):
        power = power * lam / (j + 1)
        if abs(emap.alpha(j) - power) > tol * (1.0 + abs(power)):
            return False
    return True
