"""Faber systems of exterior maps.

An exterior map is w + a0 + a1/w + a2/w^2 + ... on |w| > 1.  Its Faber
polynomials F_j are monic of degree j and satisfy the coefficient
recurrence

    F_{j+1}(z) = (z - a0) F_j(z) - sum_{k=1}^{j} a_k F_{j-k}(z) - j a_j,

with F_0 = 1 and F_1 = z - a0 (empty sums are zero, a_k = 0 beyond the
truncation).  A Faber system F_0 ... F_N is one read-only (N+1) x (N+1)
lower-triangular complex table whose row j holds the ascending
coefficients of F_j: entry [j, j] is 1 and everything right of it is 0.
Read down the columns of the table, the recurrence is a triangular
Toeplitz solve: with g(t) = 1 + a0 t + a1 t^2 + ... (Psi(w)/w at t = 1/w)
and h = 1/g, column m (the z^m coefficients of F_0, F_1, ...) is h times
column m - 1 shifted down one row, and column 0 is h times the series
1 - sum_{k>=1} k a_k t^{k+1} of Psi'(w) (Curtiss, Amer. Math. Monthly
1971).  Independently of the recurrence, the values F_j(z) are the
coefficients of two generating series in t = 1/w,

    log((Psi(w) - z) / w)        = - sum_{j>=1} (F_j(z) / j) t^j,
    Psi'(w) w / (Psi(w) - z)     =   sum_{j>=0}  F_j(z)      t^j,
    1 / (Psi(w) - z)             =   sum_{j>=1} (F_j'(z) / j) t^j,

which this module evaluates with the truncated-series engine as numeric
oracles against the recurrence.  For the exponential map w*exp(lam/w) it
also builds the kernel polynomials P_j = sum_{k<=j} lam^{j-k} F_k.  This
module only generates; the checkers in :mod:`faberpoly.verify` read the
tables their callers built here, and judge them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import PowerSeries


@dataclass(frozen=True)
class ExteriorMap:
    """Coefficient data of a map w + alpha0 + sum_{k>=1} alpha_k w^{-k}.

    Tail coefficients beyond the truncation are exactly zero.
    """

    alpha0: complex
    tail: tuple[complex, ...]

    def __init__(self, alpha0: complex, tail: Sequence[complex] = ()):
        object.__setattr__(self, "alpha0", complex(alpha0))
        object.__setattr__(self, "tail", tuple(complex(c) for c in tail))

    @property
    def truncation(self) -> int:
        return len(self.tail)

    def alpha(self, k: int) -> complex:
        if k < 0:
            raise IndexError("coefficient index must be nonnegative")
        if k == 0:
            return self.alpha0
        if k <= len(self.tail):
            return self.tail[k - 1]
        return 0j


def exp_map_exterior(eta: complex, lam: complex, truncation: int) -> ExteriorMap:
    """Coefficient form of eta + w*exp(lam/w): alpha0 = eta + lam and
    alpha_j = lam^{j+1}/(j+1)!, truncated after ``truncation`` terms."""
    eta = complex(eta)
    lam = complex(lam)
    tail = []
    c = lam
    for j in range(1, truncation + 1):
        c = c * lam / (j + 1)
        tail.append(c)
    return ExteriorMap(eta + lam, tail)


def faber_system_from_recurrence(emap: ExteriorMap, n_highest: int) -> np.ndarray:
    """F_0 ... F_N by the coefficient recurrence, as the read-only
    (N+1) x (N+1) lower-triangular table whose row j holds the ascending
    coefficients of F_j; one table column per step.

    Column 0 is the truncated product of h = 1/g with the series of Psi'(w);
    column m is the truncated product of h with column m - 1 shifted down
    one row, so every step is one contiguous convolution and the diagonal
    comes out exactly 1.  h comes from its own triangular loop here, never
    from the series engine the oracles use.  Deterministic: the same map
    always yields bit-identical systems.  Raises OverflowError naming the
    first F_j that float64 cannot hold.
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    n = n_highest
    a = np.zeros(n + 1, dtype=complex)
    a[:min(emap.truncation, n) + 1] = (emap.alpha0,) + emap.tail[:n]
    g = np.concatenate(((1.0,), a[:n]))
    dpsi = np.zeros(n + 1, dtype=complex)        # Psi'(w) = 1 - sum k a_k t^{k+1}
    dpsi[0] = 1.0
    h = np.zeros(n + 1, dtype=complex)
    h[0] = 1.0
    cols = np.zeros((n + 1, n + 1), dtype=complex)    # row m is column m of the table
    with np.errstate(over="ignore", invalid="ignore"):
        dpsi[2:] = -np.arange(1, n) * a[1:n]
        for k in range(1, n + 1):
            h[k] = -(g[1:k + 1] @ h[k - 1::-1])
        cols[0] = np.convolve(h, dpsi)[:n + 1]
        for m in range(1, n + 1):
            cols[m, m:] = np.convolve(h[:n + 1 - m], cols[m - 1, m - 1:n])[:n + 1 - m]
    return _read_only(_finite_rows(np.ascontiguousarray(cols.T), "the recurrence", "F"))


def _finite_rows(table: np.ndarray, source: str, letter: str) -> np.ndarray:
    """The table, unless a row is not finite: then an OverflowError names the first."""
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise OverflowError(f"{source} overflows float64 from {letter}_{bad[0]} on")
    return table


def _read_only(table: np.ndarray) -> np.ndarray:
    """The coefficient table, marked read-only as every generator returns it."""
    table.flags.writeable = False
    return table


def _map_minus_z_over_w(emap: ExteriorMap, z, order: int) -> PowerSeries:
    """(Psi(w) - z)/w as a series in t = 1/w: 1 + (a0 - z) t + sum a_k t^{k+1},
    batched over the shape of ``z``."""
    z = np.asarray(z, dtype=complex)
    tail = emap.tail[:max(order - 1, 0)]
    base = np.zeros(order + 1, dtype=complex)
    base[0] = 1.0
    base[1:2] = emap.alpha0        # slices: at order 0 there is no t term
    base[2:len(tail) + 2] = tail
    coeffs = np.broadcast_to(base.reshape((-1,) + (1,) * z.ndim), base.shape + z.shape).copy()
    coeffs[1:2] -= z
    return PowerSeries(coeffs)


def _oracle_values(values: np.ndarray, z):
    """The values of one point as a list of complex; those of an array of
    points as an array with one column per point."""
    return values.tolist() if np.ndim(z) == 0 else np.array(values)


def faber_values_from_log_series(emap: ExteriorMap, z, n_highest: int):
    """Values [F_1(z), ..., F_N(z)] read off the log generating series.

    ``z`` is a point, giving a list, or an array of points, giving an array
    of shape (N, *z.shape) whose entry [j-1, ...] is F_j at the point z[...].
    This path never touches the recurrence: it builds (Psi(w) - z)/w,
    takes the series log, and returns -j times the t^j coefficients.
    """
    if n_highest < 1:
        raise ValueError("need at least F_1")
    log_series = _map_minus_z_over_w(emap, z, n_highest).log1()
    index = np.arange(1, n_highest + 1).reshape((-1,) + (1,) * np.ndim(z))
    return _oracle_values(-index * log_series.coeffs[1:n_highest + 1], z)


def faber_values_from_ratio_series(emap: ExteriorMap, z, n_highest: int):
    """Coefficients 0..N of Psi'(w) w / (Psi(w) - z) in t = 1/w.

    Coefficient j equals F_j(z); the numerator series is
    1 - sum_{k>=1} k a_k t^{k+1}.  A point gives a list, an array of
    points an array of shape (N+1, *z.shape).
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    order = max(n_highest, 1)
    tail = emap.tail[:order - 1]
    num = np.zeros(order + 1, dtype=complex)
    num[0] = 1.0
    num[2:len(tail) + 2] = -np.arange(1, len(tail) + 1) * np.asarray(tail, dtype=complex)
    denom = _map_minus_z_over_w(emap, z, order)
    ratio = PowerSeries(num) * denom.reciprocal()
    return _oracle_values(ratio.coeffs[: n_highest + 1], z)


def faber_derivative_values_from_series(emap: ExteriorMap, z, n_highest: int):
    """Coefficients 1..N of 1/(Psi(w) - z) in t = 1/w; entry j-1 equals F_j'(z)/j.

    Uses 1/(Psi(w) - z) = t * reciprocal((Psi(w) - z)/w), whose constant
    term is 1, so no division hazard arises.  A point gives a list, an array
    of points an array of shape (N, *z.shape).
    """
    if n_highest < 1:
        raise ValueError("need at least index 1")
    recip = _map_minus_z_over_w(emap, z, n_highest).reciprocal()
    return _oracle_values(recip.coeffs[:n_highest], z)


def _kernel_tables(lam: complex, n_highest: int) -> tuple[np.ndarray, np.ndarray]:
    """The Faber table F of w*exp(lam/w) and the kernel table P, rows 0..N.

    Row j of P is P_j = lam * P_{j-1} + F_j, so every P_j is monic of degree j.
    Raises OverflowError naming the first P_j that float64 cannot hold.
    """
    lam = complex(lam)
    f = faber_system_from_recurrence(exp_map_exterior(0.0, lam, n_highest), n_highest)
    p = f.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n_highest + 1):
            p[j] += lam * p[j - 1]
    return f, _finite_rows(p, "the kernel recurrence", "P")


def kernel_polys(lam: complex, n_highest: int) -> np.ndarray:
    """P_0 ... P_N with P_j = sum_{k=0}^{j} lam^{j-k} F_k, for the map w*exp(lam/w),
    as a read-only table like the recurrence's, row j holding P_j.

    Built as the exact Horner combination P_j = lam * P_{j-1} + F_j.  These
    are the t-coefficients of the kernel 1/(1 - z t exp(-lam t)).
    """
    return _read_only(_kernel_tables(lam, n_highest)[1])
