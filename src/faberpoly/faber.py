"""Faber systems of exterior maps.

An exterior map is w + a0 + a1/w + a2/w^2 + ... on |w| > 1, given by its
coefficient array a with a[k] = a_k (a read-only 1-D complex array holding
at least a_0; any sequence of numbers is accepted in its place), and a
(B, n+1) array is a stack of B maps, which the recurrence and the table
oracles take in one pass.  Its Faber polynomials F_j are monic of degree j
and satisfy the coefficient recurrence

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
oracles against the recurrence, at points or coefficientwise in z.  With
d = 1 + a_0 t + a_1 t^2 + ... = (Psi(w) - z)/w + z t, n = d - t d', r = 1/d and
its Riordan array R[j, k] = [t^{j-k}] r^k, 1/(d - z t) = sum_k z^k t^k r^{k+1}
makes each series a table, read-only with diagonal exactly 1: row j of the
log table is (j/k) R[j, k] in column k >= 1 and -j [t^j] log d in column 0;
column k of the ratio table's row j is [t^{j-k}] n r^{k+1} =
sum_i n_i R[j+1-i, k+1]; column k of F_j'/j is R[j, k+1].

For the exponential map w*exp(lam/w) it also builds the kernel
polynomials P_j = sum_{k<=j} lam^{j-k} F_k, and for any map the values
F_j(x) and F_j'(x) by the same recurrence on values (``_row_values``), for
the Newton step of ``faber_roots`` on a map of rotational order s > 1.
This module only generates; the checkers in :mod:`faberpoly.verify` read
the tables their callers built here, and judge them.
"""

from __future__ import annotations

import numpy as np

from .series import PowerSeries, reciprocal_powers


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


def _row_values(a, x: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """F_j(x) and F_j'(x) of the map ``a`` at the points of row i of a
    (R, K) array ``x``, j = rows[i] for ascending distinct indices ``rows``
    (1..R by default), by the recurrence on values

        F_{j+1}  = (x - a_0) F_j  - sum_{k=1}^{j} a_k F_{j-k}  - j a_j,
        F'_{j+1} = F_j + (x - a_0) F'_j - sum_{k=1}^{j} a_k F'_{j-k},

    from F_0 = 1 and F_0' = 0: one pass of max(rows) steps over the points
    of every row at once, step j reading off F_{j+1} at the row of index
    j + 1, if there is one.  A step runs only on the rows not yet read and
    over the map's nonzero entries, and only the last len(a) values of each
    point are kept, so the pass holds O(len(a) R K) numbers, never a table.
    Values float64 cannot hold come out inf or NaN.
    """
    x = np.asarray(x, dtype=complex)
    n = len(x) if rows is None else int(rows[-1])
    # the rows read before step j: rows[:done[j]]
    done = range(n + 1) if rows is None else np.searchsorted(rows, range(n + 1), "right").tolist()
    a = _map_coefficients(a)[:n]
    width = len(a)
    shift, taps = x - a[0], (np.flatnonzero(a[1:]) + 1).tolist()
    # F_i and F_i' of each point in slot i % width
    slots = list(np.zeros((width, 2) + x.shape, dtype=complex))
    slots[0][0] = 1.0
    read = np.empty((2,) + x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            live = slice(done[j], None)
            now = slots[j % width][:, live]
            step = shift[live] * now
            step[1] += now[0]
            for k in taps:
                if k > j:
                    break
                step -= a[k] * slots[(j - k) % width][:, live]
            if j < width:
                step[0] -= j * a[j]
            slots[(j + 1) % width][:, live] = step
            if done[j + 1] > done[j]:
                read[:, done[j]] = step[:, 0]
    return read[0], read[1]


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


def _d_polynomial(a, order: int) -> np.ndarray:
    """d = 1 + a_0 t + a_1 t^2 + ... to degree at most ``order``, along the last axis."""
    a = _map_coefficients(a, stack=True)[..., :order]
    return np.concatenate((np.ones(a.shape[:-1] + (1,)), a), axis=-1)


def _map_minus_z_over_w(a: np.ndarray, z, order: int) -> PowerSeries:
    """(Psi(w) - z)/w = d - z t in t = 1/w to ``order``, series axis first,
    then the points z."""
    z = np.asarray(z, dtype=complex)
    d = _d_polynomial(a, order)
    coeffs = np.zeros((order + 1,) + z.shape, dtype=complex)
    coeffs[:len(d)] = d.reshape(d.shape + (1,) * z.ndim)
    coeffs[1:2] -= z
    return PowerSeries(coeffs)


def _oracle_values(values: np.ndarray, z):
    """The values at one point as a list of complex; otherwise an array with
    one column per point."""
    return values.tolist() if np.ndim(z) == 0 else np.array(values, order="C")


def faber_values_from_log_series(a, z, n_highest: int):
    """Values [F_1(z), ..., F_N(z)] read off the log generating series.

    ``z`` is a point, giving a list, or an array of points, giving an array
    of shape (N, *z.shape) whose entry [j-1, ...] is F_j at the point z[...].
    This path never touches the recurrence: it builds (Psi(w) - z)/w,
    takes the series log, and returns -j times the t^j coefficients.
    """
    if n_highest < 1:
        raise ValueError("need at least F_1")
    a = _map_coefficients(a)
    values = _map_minus_z_over_w(a, z, n_highest).log1().coeffs[1:n_highest + 1]
    index = np.arange(1, n_highest + 1).reshape((-1,) + (1,) * (values.ndim - 1))
    return _oracle_values(-index * values, z)


def faber_values_from_ratio_series(a, z, n_highest: int):
    """Coefficients 0..N of Psi'(w) w / (Psi(w) - z) in t = 1/w.

    Coefficient j equals F_j(z).  The numerator series
    1 - sum_{k>=1} k a_k t^{k+1} is d - t d' for d = (Psi(w) - z)/w, so its
    coefficient k is (1 - k) d_k.  A point gives a list, an array of
    points an array of shape (N+1, *z.shape).
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    order = max(n_highest, 1)
    d = _map_minus_z_over_w(_map_coefficients(a), z, order)
    k = np.arange(order + 1).reshape((-1,) + (1,) * (d.coeffs.ndim - 1))
    ratio = PowerSeries((1 - k) * d.coeffs) * d.reciprocal()
    return _oracle_values(ratio.coeffs[: n_highest + 1], z)


def faber_derivative_values_from_series(a, z, n_highest: int):
    """Coefficients 1..N of 1/(Psi(w) - z) in t = 1/w; entry j-1 equals F_j'(z)/j.

    Uses 1/(Psi(w) - z) = t * reciprocal((Psi(w) - z)/w), whose constant
    term is 1, so no division hazard arises.  A point gives a list, an array
    of points an array of shape (N, *z.shape).
    """
    if n_highest < 1:
        raise ValueError("need at least index 1")
    recip = _map_minus_z_over_w(_map_coefficients(a), z, n_highest).reciprocal()
    return _oracle_values(recip.coeffs[:n_highest], z)


def _log_table(a, n_highest: int) -> np.ndarray:
    """F_0 ... F_N of a map, or of each map of a stack, from the log series."""
    d = _d_polynomial(a, n_highest)
    table, j = reciprocal_powers(d, n_highest), np.arange(n_highest + 1)
    table[..., 1:] *= j[:, None] / j[1:]                    # (j/k) R[j, k]
    padded = np.zeros((n_highest + 1,) + d.shape[:-1], dtype=complex)
    padded[:d.shape[-1]] = np.moveaxis(d, -1, 0)
    table[..., 1:, 0] = -j[1:] * np.moveaxis(PowerSeries(padded).log1().coeffs[1:], 0, -1)
    table.flags.writeable = False
    return table


def _ratio_table(a, n_highest: int) -> np.ndarray:
    """F_0 ... F_N of a map, or of each map of a stack, from the ratio series:
    row j is sum_i n_i R_{j+1-i}, read from column 1 on, a product over the
    rows of R with the numerator n banded to the map's length."""
    d = _d_polynomial(a, n_highest + 1)
    rows, width = reciprocal_powers(d, n_highest + 1)[..., 1:, 1:], d.shape[-1]
    band = ((1 - np.arange(width)) * d)[..., None, ::-1]          # n_L ... n_0
    table = np.zeros_like(rows)
    for j in range(n_highest + 1):
        k = min(j + 1, width)
        table[..., j:j + 1, :j + 1] = band[..., width - k:] @ rows[..., j + 1 - k:j + 1, :j + 1]
    table.flags.writeable = False
    return table


def _derivative_table(a, n_highest: int) -> np.ndarray:
    """F_1'/1 ... F_N'/N of a map, or of each map of a stack, row j - 1 holding
    F_j'/j, from the derivative series: the log table's array R, re-read."""
    table = reciprocal_powers(_d_polynomial(a, n_highest), n_highest)[..., 1:, 1:]
    table.flags.writeable = False
    return table


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
