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
number of rows less one.  The three common-root checkers judge a map at
its point z0 on the table of the map centered there (a_0 less z0): the
recurrence is translation-covariant, so column 0 of that table holds
F_j(z0) exactly.  They also take a stack of tables, and of maps, and give
one verdict per table, and refuse a number of maps unlike the number of
tables.  Every magnitude is ``np.abs``, and every row residual and zero
test is relative to one row scale, ``_row_scale``: 1 + the largest
|c_k| of the row over the tables judged together, since recurrence
round-off grows with the index.  The infinite "all later values vanish"
statements are necessarily checked up to the generated horizon, which the
profile reports explicitly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .faber import _kernel_tables, _map_coefficients, exp_map_exterior


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


def _row_scale(*tables: np.ndarray) -> np.ndarray:
    """1 + the largest |c_k| of each row over the tables (or stacks) given, all
    of one shape: the scale of every row residual and zero test of the checks."""
    return 1.0 + np.maximum.reduce([np.abs(t).max(axis=-1) for t in tables])


def _row_deviation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, max_k |a_k - b_k| relative to ``_row_scale(a, b)``: the coefficient
    deviation of two systems, one entry per index j (behind the stack's axes)."""
    return np.abs(a - b).max(axis=-1) / _row_scale(a, b)


@dataclass(frozen=True)
class CommonRootProfile:
    """|F_j(0)| for j = 1..N and the first index where the value is nonzero.

    ``first_nonvanishing`` is None when every value up to the horizon
    len(values) is below tolerance ("none up to N").
    """

    first_nonvanishing: int | None
    values: tuple[float, ...]

    @property
    def horizon(self) -> int:
        return len(self.values)


def leading_common_root_order(table: np.ndarray, *, tol: float = 1e-10):
    """Profile the values |F_j(0)|, j = 1..N, column 0 of the coefficient
    table of F_0 ... F_N, against per-index scales.

    A value counts as nonzero when it exceeds tol * (1 + max coefficient
    magnitude of F_j).  For a gap map with parameters (z0, n), centered at
    z0, the expected outcome is first_nonvanishing = n + 1.  A stack of B
    tables gives a list of B profiles.
    """
    if table.shape[-2] < 3:
        raise ValueError("profiling needs at least F_1 and F_2")
    rows = table[..., 1:, :]
    values = np.abs(rows[..., 0])
    nonzero = values > tol * _row_scale(rows)
    width = rows.shape[-2]
    profiles = [CommonRootProfile(values=tuple(row_values),
                                  first_nonvanishing=int(row.argmax()) + 1 if row.any() else None)
                for row, row_values in zip(nonzero.reshape(-1, width),
                                           values.reshape(-1, width).tolist())]
    return profiles if table.ndim == 3 else profiles[0]


def check_gap_coefficient_recovery(table: np.ndarray, family, *, tol: float = 1e-10):
    """Verify alpha_j = -F_{j+1}(0)/(j+1) for j = n .. min(2n, N-1) on the
    coefficient table of F_0 ... F_N of the gap map centered at its z0.

    Residuals are normalized by 1 + |alpha_j|.  N must be at least n + 1,
    the first index whose value carries a tail coefficient.  A stack of B
    tables takes a sequence of exactly B gap maps, one per table, and gives
    a list of B reports.
    """
    families = list(family) if table.ndim == 3 else [family]
    if len(families) != table[..., 0, 0].size:
        raise ValueError(f"{len(table)} tables need one gap map each, got {len(families)}")
    n_highest = table.shape[-1] - 1
    for gap in families:
        if n_highest <= gap.n:
            raise ValueError(f"recovering alpha_{gap.n} needs N >= {gap.n + 1}, "
                             f"got {n_highest}")
    # entry [k, j] for alpha_j of gap k, j = 0 .. N-1; alpha_j is 0 past the tail
    recovered = -table[..., 1:, 0].reshape(len(families), -1) / np.arange(1, n_highest + 1)
    expected = np.zeros_like(recovered)
    for k, gap in enumerate(families):
        expected[k, gap.n:gap.n + len(gap.tail)] = gap.tail[:n_highest - gap.n]
    residuals = np.abs(recovered - expected) / (1.0 + np.abs(expected))
    reports = [CheckReport.judged("gap-coefficient-recovery",
                                  row[gap.n:min(2 * gap.n, n_highest - 1) + 1].tolist(), tol)
               for gap, row in zip(families, residuals)]
    return reports if table.ndim == 3 else reports[0]


def exponential_map_characterization(table: np.ndarray, a, *, tol: float = 1e-9):
    """True exactly when the map with coefficient array ``a``, with the
    coefficient table of F_0 ... F_N, carries the exponential-map
    common-root pattern at 0.

    Checks both directions jointly: (a) the values at 0 show |F_1(0)| > 0
    and F_j(0) = 0 for all 2 <= j <= N, and (b) the tail a[1:] matches
    a_j = a_0^{j+1}/(j+1)!, the tail of ``exp_map_exterior`` at eta = 0 and
    lam = a_0.  A map centered at its point eta judges the pattern at eta.
    A shift map (a_0 = 0) fails (a) by construction.  A stack of B tables
    takes the stack of exactly their B maps and gives a boolean array of B
    verdicts.
    """
    if table.shape[-2] < 4:
        raise ValueError("need at least F_3 to characterize the pattern")
    nonzero = np.abs(table[..., 0]) > tol * _row_scale(table)
    pattern = nonzero[..., 1] & ~nonzero[..., 2:].any(axis=-1)
    a = _map_coefficients(a, stack=table.ndim == 3)
    if a.shape[:-1] != table.shape[:-2]:
        raise ValueError(f"{len(table)} tables need one map each, got {a[..., 0].size}")
    expected = np.array([exp_map_exterior(0, a0, a.shape[-1] - 1)[1:]
                         for a0 in a[..., 0].reshape(-1).tolist()])
    expected = expected.reshape(a[..., 1:].shape)
    tail = ~(np.abs(a[..., 1:] - expected) > tol * (1.0 + np.abs(expected))).any(axis=-1)
    matched = pattern & tail
    return matched if table.ndim == 3 else bool(matched)


def check_derivative_identity(lam: complex, n_highest: int, tol: float = 1e-9) -> CheckReport:
    """Coefficientwise check of z F_j'(z) = j P_j(z) for j = 0..N (map w*exp(lam/w)).

    Coefficient k of z F_j' is k c_k, so the identity compares F scaled by
    column index with P scaled by row index, row by row relative to
    1 + max|coefficient|.  One recurrence run gives both tables.

    Round-off in row j of P is bounded by eps j H_j relative to the same
    scale, with H_j = sum_{k<=j} |lam|^{j-k} max|F_k|.  An ArithmeticError
    names the first row that float64 cannot decide: its residual exceeds
    ``tol``, its bound the looser of ``tol`` and the default 1e-9, and the
    residual lies within that bound.  A real fault, a row above both ``tol``
    and its bound, fails the check instead.
    """
    f, p = _kernel_tables(lam, n_highest)
    k = np.arange(n_highest + 1)
    lhs, rhs = f * k, k[:, None] * p
    residuals = _row_deviation(lhs, rhs)
    growth = np.abs(f).max(axis=1)
    for j in range(1, n_highest + 1):
        growth[j] += abs(lam) * growth[j - 1]
    bound = np.finfo(float).eps * k * growth / _row_scale(lhs, rhs)
    over = residuals > tol
    undecided = np.flatnonzero(over & (bound > max(tol, 1e-9)) & (residuals <= bound))
    if undecided.size and not (over & (residuals > bound)).any():
        j = undecided[0]
        raise ArithmeticError(f"row j={j} has residual {residuals[j]:.3e} against a round-off "
                              f"bound of {bound[j]:.3e}; the identity is ill-conditioned in float64")
    return CheckReport.judged("derivative-identity", residuals.tolist(), tol)
