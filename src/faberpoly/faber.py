"""Faber systems of exterior maps.

An exterior map is w + a0 + a1/w + a2/w^2 + ... on |w| > 1, given by its
coefficient array a with a[k] = a_k (a read-only 1-D complex array holding
at least a_0; any sequence of numbers is accepted in its place), and a
(B, n+1) array is a stack of B maps, which the recurrence and the oracles
take in one pass.  Its Faber polynomials F_j are monic of degree j and
satisfy the coefficient recurrence

    F_{j+1}(z) = (z - a0) F_j(z) - sum_{k=1}^{j} a_k F_{j-k}(z) - j a_j,

with F_0 = 1 and F_1 = z - a0 (empty sums are zero, a_k = 0 beyond the
last entry of a).  A Faber system F_0 ... F_N is one read-only (N+1) x (N+1)
lower-triangular complex table whose row j holds the ascending
coefficients of F_j: entry [j, j] is 1 and everything right of it is 0.
The recurrence builds the table row by row: row j + 1 is z F_j less
a_0 F_j + ... + a_{k-1} F_{j-k+1}, one product over the first
k = min(j + 1, len(a)) map entries, less j a_j.  So a row depends only on
the rows before it.  Independently of the recurrence, the values F_j(z)
are the coefficients of three generating series in t = 1/w,

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

import numpy as np

from .series import PowerSeries


def _map_coefficients(coeffs, stack: bool = False) -> np.ndarray:
    """The map w + a_0 + a_1/w + ... as its read-only coefficient array a,
    a[k] = a_k (zero beyond the last entry), or with ``stack`` a 2-D stack of
    maps, one per row, perhaps none; a ValueError unless ``coeffs`` is such
    and its maps hold a_0."""
    a = np.array(coeffs, dtype=complex)
    if a.ndim not in ((1, 2) if stack else (1,)) or not a.shape[-1]:
        stacks = " (a stack of maps a 2-D one)" if stack else ""
        raise ValueError(f"a map is a 1-D array a_0, a_1, ... of at least one "
                         f"coefficient{stacks}, got shape {a.shape}")
    a.flags.writeable = False
    return a


def exp_map_exterior(eta: complex, lam: complex, truncation: int) -> np.ndarray:
    """Coefficient array of eta + w*exp(lam/w): a_0 = eta + lam and
    a_j = lam^{j+1}/(j+1)! for j = 1..``truncation``."""
    eta = complex(eta)
    lam = complex(lam)
    a = [eta + lam]
    c = lam
    for j in range(1, truncation + 1):
        c = c * lam / (j + 1)
        a.append(c)
    return _map_coefficients(a)


def faber_system_from_recurrence(a, n_highest: int) -> np.ndarray:
    """F_0 ... F_N of the map with coefficient array ``a`` by the
    coefficient recurrence, as the read-only
    (N+1) x (N+1) lower-triangular table whose row j holds the ascending
    coefficients of F_j; one table row per step, over as many map entries
    as ``a`` gives (up to a_N), so a map cut after its last nonzero entry
    costs less.  A stack of B maps, one per row of ``a``, gives the
    (B, N+1, N+1) stack of their tables.

    Deterministic: the same map or stack always yields bit-identical
    systems.  Raises OverflowError naming the first F_j that float64 cannot
    hold, in a stack that of the first map with one; the error carries the
    map's position in the stack (``map``, None for one map) and the row
    (``row``).  A stack of no maps gives no tables.
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    given = _map_coefficients(a, stack=True)
    tables = _recurrence_tables(given.reshape(-1, given.shape[-1]), n_highest)
    return _finite_rows(tables if given.ndim == 2 else tables[0], "the recurrence")


def _cut_map(a: np.ndarray) -> np.ndarray:
    """The map ``a`` cut after its last nonzero coefficient, a_0 kept, so that
    its recurrence over K nonzero coefficients costs O(K N^2), not O(N^3)."""
    return a[:len(np.trim_zeros(a, "b")) or 1]


def _recurrence_tables(maps: np.ndarray, n: int) -> np.ndarray:
    """The (B, N+1, N+1) tables of a stack of maps, unchecked.  Row j + 1 is
    one stacked product of -a_0 ... -a_{k-1} with the rows F_j ... F_{j-k+1},
    k = min(j + 1, width) for the ``width`` entries given, plus z F_j (a
    shift by one column, so the diagonal comes out exactly 1) and -j a_j.
    A row depends only on the rows before it, so the first row that is not
    finite is the first one float64 cannot hold.
    """
    maps = maps[:, :n + 1]
    b, width = maps.shape
    negated = -maps[:, None, :]
    # F_j of map b in flipped[b, n - j], so that the rows a step reads are one
    # slice; stored row index first, so that the row it writes shares no memory
    # span with them, which would make numpy copy the operands of a stack
    flipped = np.zeros((n + 1, b, n + 1), dtype=complex).swapaxes(0, 1)
    flipped[:, n, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        constants = -np.arange(width) * maps                # -j a_j
        for j in range(n):
            k = min(j + 1, width)
            row = flipped[:, n - j - 1:n - j]
            np.matmul(negated[:, :, :k], flipped[:, n - j:n - j + k, :j + 1], out=row[..., :j + 1])
            row[..., 1:j + 2] += flipped[:, n - j:n - j + 1, :j + 1]
            if j < width:
                row[:, 0, 0] += constants[:, j]
    return np.ascontiguousarray(flipped[:, ::-1])


def _overflow(source: str, row: int, letter: str = "F", map_index=None) -> OverflowError:
    """The OverflowError of ``source`` from row ``letter``_``row`` on, in map
    ``map_index`` of a stack when given, carrying both as ``map`` and ``row``;
    the one place its text is written."""
    where = "" if map_index is None else f" in map {map_index}"
    error = OverflowError(f"{source} overflows float64{where} from {letter}_{row} on")
    error.map, error.row = map_index, row
    return error


def _finite_rows(table: np.ndarray, source: str, letter: str = "F") -> np.ndarray:
    """The table, or stack of tables, marked read-only as every generator
    returns it, unless a row is not finite: then the ``_overflow`` of the
    first, in a stack of the first map with one."""
    bad = np.argwhere(~np.isfinite(table).all(axis=-1))
    if bad.size:
        *k, j = bad[0].tolist()
        raise _overflow(source, j, letter, *k)
    table.flags.writeable = False
    return table


def _map_minus_z_over_w(a: np.ndarray, z, order: int) -> PowerSeries:
    """(Psi(w) - z)/w = 1 + (a0 - z) t + sum a_k t^{k+1} in t = 1/w to ``order``,
    series axis first, then the points z of a map (of a stack: each map's row of z)."""
    z = np.asarray(z, dtype=complex)
    tail = a[..., :order].T
    coeffs = np.zeros((order + 1,) + a.shape[:-1] + z.shape[a.ndim - 1:], dtype=complex)
    coeffs[0] = 1.0
    coeffs[1:1 + len(tail)] = tail.reshape(tail.shape + (1,) * (coeffs.ndim - tail.ndim))
    coeffs[1:2] -= z
    return PowerSeries(coeffs)


def _oracle_values(values: np.ndarray, a: np.ndarray, z):
    """The values of one map at one point as a list of complex; otherwise an
    array with one column per point, behind one axis of maps for a stack."""
    if a.ndim == 1 and np.ndim(z) == 0:
        return values.tolist()
    return np.array(values.swapaxes(0, 1) if a.ndim == 2 else values, order="C")


def faber_values_from_log_series(a, z, n_highest: int):
    """Values [F_1(z), ..., F_N(z)] read off the log generating series.

    ``z`` is a point, giving a list, or an array of points, giving an array
    of shape (N, *z.shape) whose entry [j-1, ...] is F_j at the point z[...].
    A stack of B maps takes one row of points per map, z[b] for map b, and
    gives shape (B, N, *z.shape[1:]).
    This path never touches the recurrence: it builds (Psi(w) - z)/w,
    takes the series log, and returns -j times the t^j coefficients.
    """
    if n_highest < 1:
        raise ValueError("need at least F_1")
    a = _map_coefficients(a, stack=True)
    values = _map_minus_z_over_w(a, z, n_highest).log1().coeffs[1:n_highest + 1]
    index = np.arange(1, n_highest + 1).reshape((-1,) + (1,) * (values.ndim - 1))
    return _oracle_values(-index * values, a, z)


def faber_values_from_ratio_series(a, z, n_highest: int):
    """Coefficients 0..N of Psi'(w) w / (Psi(w) - z) in t = 1/w.

    Coefficient j equals F_j(z).  The numerator series
    1 - sum_{k>=1} k a_k t^{k+1} is d - t d' for d = (Psi(w) - z)/w, so its
    coefficient k is (1 - k) d_k.  A point gives a list, an array of
    points an array of shape (N+1, *z.shape), and a stack of maps, as for
    the log series, shape (B, N+1, *z.shape[1:]).
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    order = max(n_highest, 1)
    a = _map_coefficients(a, stack=True)
    d = _map_minus_z_over_w(a, z, order)
    k = np.arange(order + 1).reshape((-1,) + (1,) * (d.coeffs.ndim - 1))
    ratio = PowerSeries((1 - k) * d.coeffs) * d.reciprocal()
    return _oracle_values(ratio.coeffs[: n_highest + 1], a, z)


def faber_derivative_values_from_series(a, z, n_highest: int):
    """Coefficients 1..N of 1/(Psi(w) - z) in t = 1/w; entry j-1 equals F_j'(z)/j.

    Uses 1/(Psi(w) - z) = t * reciprocal((Psi(w) - z)/w), whose constant
    term is 1, so no division hazard arises.  A point gives a list, an array
    of points an array of shape (N, *z.shape), and a stack of maps, as for
    the log series, shape (B, N, *z.shape[1:]).
    """
    if n_highest < 1:
        raise ValueError("need at least index 1")
    a = _map_coefficients(a, stack=True)
    recip = _map_minus_z_over_w(a, z, n_highest).reciprocal()
    return _oracle_values(recip.coeffs[:n_highest], a, z)


def _kernel_tables(lam: complex, n_highest: int) -> tuple[np.ndarray, np.ndarray]:
    """The Faber table F of w*exp(lam/w) and the kernel table P, rows 0..N.

    Row j of P is P_j = lam * P_{j-1} + F_j, so every P_j is monic of degree j.
    Raises OverflowError naming the first P_j that float64 cannot hold.
    """
    lam = complex(lam)
    f = faber_system_from_recurrence(_cut_map(exp_map_exterior(0.0, lam, n_highest)), n_highest)
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
    return _kernel_tables(lam, n_highest)[1]
