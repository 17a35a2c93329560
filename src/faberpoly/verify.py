"""Verdicts and checkers for the identities and theorems of Faber systems.

Every report comes from :meth:`CheckReport.verdict`, which takes each case's
(passed, residual) in order and refuses the first residual that is NaN or
inf; :meth:`CheckReport.judged` is its case of residuals held to one
tolerance.  The facts made testable here:

* z F_j'(z) = j P_j(z) for the exponential map w*exp(lam/w) and its
  kernel polynomials;
* a map of the form w + z0 + sum_{j>=n} alpha_j w^{-j} (alpha_n != 0) has
  F_j(z0) = 0 exactly for j = 1..n, with |F_{n+1}(z0)| = (n+1)|alpha_n|;
* for such a map the tail coefficients are recoverable from the values,
  alpha_j = -F_{j+1}(z0)/(j+1) for j between n and 2n;
* the only maps whose Faber polynomials all vanish at one point from index
  2 on are z0 + w exp((alpha0 - z0)/w), equivalently the tail must match
  alpha_j = (alpha0 - z0)^{j+1}/(j+1)!.

A Faber system is read as the generators return it, one lower-triangular
coefficient table whose row j holds F_j, and two systems are compared row
by row.  A checker of one map reads the table its caller built, with N its
number of rows less one.  All zero tests are relative to the coefficient
scale of the polynomial being evaluated, since recurrence round-off grows
with the index.  The infinite "all later values vanish" statements are
necessarily checked up to the generated horizon, which the profile reports
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .faber import _kernel_tables, _map_coefficients, exp_map_exterior
from .maps import GapMap, to_exterior_map
from .poly import evaluate_rows


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check: a verdict plus per-item residuals."""

    name: str
    passed: bool
    max_residual: float
    residuals: tuple[float, ...] = ()
    notes: str = ""

    @classmethod
    def verdict(cls, name: str, cases: Iterable[tuple[bool, float]]) -> CheckReport:
        """One report over the cases' (passed, residual) pairs, taken in order:
        it passes exactly when every case does, and keeps every residual and
        the worst.  The first residual that is NaN or inf is refused with an
        ArithmeticError before a later case is taken, and a verdict over no
        cases with a ValueError."""
        passed, residuals = True, []
        for ok, r in cases:
            if not math.isfinite(r):
                raise ArithmeticError(f"check {name!r} has a residual not finite in float64 "
                                      f"at case {len(residuals)}")
            passed = passed and bool(ok)
            residuals.append(float(r))
        if not residuals:
            raise ValueError(f"check {name!r} has no residuals to judge")
        return cls(name, passed, max(residuals), tuple(residuals))

    @classmethod
    def judged(cls, name: str, residuals: Iterable[float], tol: float) -> CheckReport:
        """The verdict whose cases pass exactly when their residual is at most ``tol``."""
        return cls.verdict(name, ((r <= tol, r) for r in residuals))

    def to_dict(self) -> dict:
        return {**asdict(self), "residuals": list(self.residuals)}


def _magnitude(t: np.ndarray) -> np.ndarray:
    return np.hypot(t.real, t.imag)       # abs() of a Python complex, to the ulp


def _row_scale(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two tables of one shape, 1 + the larger max |c| of the two rows."""
    return 1.0 + np.maximum(_magnitude(a).max(axis=1), _magnitude(b).max(axis=1))


def _row_deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, max_k |a_k - b_k| relative to ``_row_scale``: the coefficient
    deviation of two systems, one entry per index j."""
    return _magnitude(a - b).max(axis=1) / _row_scale(a, b)


def _refuse_undecided(where: str, residuals: np.ndarray, bound: np.ndarray,
                      tol: float) -> None:
    """Raise ArithmeticError naming the first row that float64 cannot decide:
    its residual exceeds ``tol``, its round-off ``bound`` the looser of ``tol``
    and the default 1e-9, and the residual lies within that bound.  A check
    with a real fault, a row above both ``tol`` and its bound, fails instead."""
    over = residuals > tol
    undecided = np.flatnonzero(over & (bound > max(tol, 1e-9)) & (residuals <= bound))
    if undecided.size and not (over & (residuals > bound)).any():
        j = undecided[0]
        raise ArithmeticError(
            f"{where}: row j={j} has residual {residuals[j]:.3e} against a round-off "
            f"bound of {bound[j]:.3e}; the identity is ill-conditioned in float64")


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


def leading_common_root_order(table: np.ndarray, z0: complex,
                              tol: float = 1e-10) -> CommonRootProfile:
    """Profile the values |F_j(z0)|, j = 1..N, of the coefficient table of
    F_0 ... F_N against per-index scales.

    A value counts as nonzero when it exceeds tol * (1 + max coefficient
    magnitude of F_j).  For a gap map with parameters (z0, n) the expected
    outcome is first_nonvanishing = n + 1.
    """
    if len(table) < 3:
        raise ValueError("profiling needs at least F_1 and F_2")
    z0 = complex(z0)
    rows = table[1:]
    values = np.abs(evaluate_rows(rows, z0)[0])
    nonzero = np.flatnonzero(values > tol * (1.0 + np.abs(rows).max(axis=1)))
    first = int(nonzero[0]) + 1 if nonzero.size else None
    return CommonRootProfile(z0=z0, first_nonvanishing=first, values=tuple(values.tolist()))


def check_gap_coefficient_recovery(table: np.ndarray, family: GapMap,
                                   tol: float = 1e-10) -> CheckReport:
    """Verify alpha_j = -F_{j+1}(z0)/(j+1) for j = n .. min(2n, N-1) on the
    coefficient table of F_0 ... F_N of the gap map.

    Residuals are normalized by 1 + |alpha_j|.  N must be at least n + 1,
    the first index whose value carries a tail coefficient.
    """
    n_highest = len(table) - 1
    if n_highest <= family.n:
        raise ValueError(f"recovering alpha_{family.n} needs N >= {family.n + 1}, "
                         f"got {n_highest}")
    a = to_exterior_map(family, n_highest)
    values = evaluate_rows(table, family.z0)[0]
    residuals = []
    for j in range(family.n, min(2 * family.n, n_highest - 1) + 1):
        expected = complex(a[j])
        recovered = -complex(values[j + 1]) / (j + 1)
        residuals.append(abs(recovered - expected) / (1.0 + abs(expected)))
    return CheckReport.judged("gap-coefficient-recovery", residuals, tol)


def exponential_map_characterization(table: np.ndarray, a, z0: complex,
                                     tol: float = 1e-9) -> bool:
    """True exactly when the map with coefficient array ``a``, with the
    coefficient table of F_0 ... F_N, carries the exponential-map
    common-root pattern.

    Checks both directions jointly: (a) the value profile at z0 shows
    |F_1(z0)| > 0 and F_j(z0) = 0 for all 2 <= j <= N, and (b) the tail
    a[1:] matches a_j = (a_0 - z0)^{j+1}/(j+1)!, the tail of
    ``exp_map_exterior`` at lam = a_0 - z0.  A shift map (z0 = a_0) fails
    (a) by construction.
    """
    if len(table) < 4:
        raise ValueError("need at least F_3 to characterize the pattern")
    z0 = complex(z0)
    nonzero = np.abs(evaluate_rows(table, z0)[0]) > tol * (1.0 + np.abs(table).max(axis=1))
    if not nonzero[1] or nonzero[2:].any():
        return False
    a = _map_coefficients(a)
    expected = exp_map_exterior(z0, a[0] - z0, len(a) - 1)[1:]
    return not (_magnitude(a[1:] - expected) > tol * (1.0 + _magnitude(expected))).any()


def check_derivative_identity(lam: complex, n_highest: int, tol: float = 1e-9) -> CheckReport:
    """Coefficientwise check of z F_j'(z) = j P_j(z) for j = 0..N (map w*exp(lam/w)).

    Coefficient k of z F_j' is k c_k, so the identity compares F scaled by
    column index with P scaled by row index, row by row relative to
    1 + max|coefficient|.  One recurrence run gives both tables.

    Round-off in row j of P is bounded by eps j H_j relative to the same
    scale, with H_j = sum_{k<=j} |lam|^{j-k} max|F_k|; ``_refuse_undecided``
    raises ArithmeticError where float64 cannot decide the identity.
    """
    f, p = _kernel_tables(lam, n_highest)
    k = np.arange(n_highest + 1)
    lhs, rhs = f * k, k[:, None] * p
    residuals = _row_deviation(lhs, rhs)
    growth = _magnitude(f).max(axis=1)
    for j in range(1, n_highest + 1):
        growth[j] += abs(lam) * growth[j - 1]
    bound = np.finfo(float).eps * k * growth / _row_scale(lhs, rhs)
    _refuse_undecided(f"eq14 at lambda={lam}, N={n_highest}", residuals, bound, tol)
    return CheckReport.judged("derivative-identity", residuals.tolist(), tol)
