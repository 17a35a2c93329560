"""Reference results computed apart from the program under test.

Nothing here imports ``faberpoly``.  Faber coefficients come from the
closed forms (shift, hypocycloid, exponential map) or from the coefficient
recurrence run in mpmath on the exact sparse tail (gap and two-gap maps);
values come from the same closed forms evaluated in mpmath (gap maps: up
to index n + 1, then the value recurrence).  Every input parameter is a
float, hence an exact dyadic rational, so the only rounding is mpmath's at
``MP_DPS`` digits.  The working scales that values and residuals are judged
against are float64 sums taken in log space.

The checkers at the bottom take a program output and its reference and
return ``None`` when the output is right, or a one-line reason when not.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np

MP_DPS = 40
EPS = 2.0 ** -52

#: coefficientwise tolerance of a generated F_j, relative to 1 + max_k |c_k|
COEFF_TOL = 1e-10
#: an oracle value may be off by this much of 1 + sum_k |c_k| |z|^k
VALUE_TOL = 1e-11
#: a root's residual may be this many eps of 1 + sum_k |c_k| |r|^k
ROOT_RESIDUAL_EPS = 64.0
#: hypocycloid roots must lie on a cusp ray to this many radians, as in
#: ``faberpoly verify --suite rays``
RAY_ANGLE_TOL = 1e-6

mpmath.mp.dps = MP_DPS


def _mpc(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


# ---------------------------------------------------------------------------
# exact coefficient rows (ascending), as mpmath numbers
# ---------------------------------------------------------------------------

def shift_rows(alpha0: complex, n: int) -> list[list]:
    """F_j(z) = (z - alpha0)^j for j = 0..n."""
    neg = -_mpc(alpha0)
    powers = [mpmath.mpc(1)]
    for _ in range(n):
        powers.append(powers[-1] * neg)
    return [[math.comb(j, k) * powers[j - k] for k in range(j + 1)] for j in range(n + 1)]


def hypocycloid_row(m: int, j: int) -> list:
    """He's formula for w + 1/(m w^m), each coefficient one mpmath division:
    F_j = j sum_k (-1)^k (j-mk-1)! / ((j-(m+1)k)! m^k k!) z^{j-(m+1)k}."""
    if j == 0:
        return [mpmath.mpf(1)]
    f = math.factorial
    row = [mpmath.mpf(0)] * (j + 1)
    for k in range(j // (m + 1) + 1):
        power = j - (m + 1) * k
        row[power] = (-1) ** k * mpmath.mpf(j * f(j - m * k - 1)) / (f(power) * m ** k * f(k))
    return row


def hypocycloid_rows(m: int, n: int) -> list[list]:
    return [hypocycloid_row(m, j) for j in range(n + 1)]


def exp_rows(lam: complex, n: int) -> list[list]:
    """F_0..F_n of w exp(lam/w), that is eta = 0, in powers of z:
    F_1 = z - lam and F_j = j sum_{k=1}^{j} e_{j,k} z^k for j >= 2, where
    e_{j,k} = (-lam)^{j-k} k^{j-k-1} / (j-k)!, built by the exact ratio
    e_{j,k} = e_{j-1,k} (-lam) k / (j-k) from e_{j,j} = 1/j."""
    neg = -_mpc(lam)
    rows = [[mpmath.mpc(1)], [neg, mpmath.mpc(1)]]
    e = [None, mpmath.mpf(1)]
    for j in range(2, n + 1):
        e = [None] + [e[k] * neg * k / (j - k) for k in range(1, j)] + [mpmath.mpf(1) / j]
        rows.append([mpmath.mpc(0)] + [j * x for x in e[1:]])
    return rows[: n + 1]


def exp_values(lam: complex, z: complex, n: int):
    """(F_j(z), F_j'(z)), j = 0..n, of w exp(lam/w) from the same closed form,
    written F_j(z) = j (-lam)^j sum_k r_{j,k} v^k with v = -z/lam and the
    real r_{j,k} = k^{j-k-1} / (j-k)!, so that the sums are real-by-complex."""
    neg = -_mpc(lam)
    v = _mpc(z) / neg
    vp = [mpmath.mpc(1)]
    for _ in range(n):
        vp.append(vp[-1] * v)
    dvp = [k * vp[k - 1] for k in range(1, n + 1)]
    vals, ders = [mpmath.mpc(1), _mpc(z) + neg], [mpmath.mpc(0), mpmath.mpc(1)]
    r = [None, mpmath.mpf(1)]
    negj = neg
    for j in range(2, n + 1):
        r = [None] + [r[k] * k / (j - k) for k in range(1, j)] + [mpmath.mpf(1) / j]
        negj *= neg
        vals.append(j * negj * mpmath.fdot(r[1:], vp[1: j + 1]))
        ders.append(j * negj / neg * mpmath.fdot(r[1:], dvp[: j]))
    return vals[: n + 1], ders[: n + 1]


def exp_log_abs_rows(lam: complex, n: int) -> list[np.ndarray]:
    """log |c_{j,k}| of the rows of ``exp_rows``, from the closed form."""
    ll = math.log(abs(lam))
    rows = [np.zeros(1), np.array([ll, 0.0])]
    for j in range(2, n + 1):
        k = np.arange(1, j + 1, dtype=float)
        d = j - k
        logs = math.log(j) + d * ll + (d - 1) * np.log(k) - np.array([math.lgamma(x + 1) for x in d])
        rows.append(np.concatenate(([-math.inf], logs)))
    return rows[: n + 1]


def shift_log_abs_rows(alpha0: complex, n: int) -> list[np.ndarray]:
    """log |c_{j,k}| of (z - alpha0)^j: log C(j,k) + (j-k) log |alpha0|."""
    la = math.log(abs(alpha0)) if alpha0 != 0 else -math.inf
    lg = np.array([math.lgamma(x + 1) for x in range(n + 1)])
    rows = []
    for j in range(n + 1):
        k = np.arange(j + 1)
        with np.errstate(invalid="ignore"):
            rows.append(np.where(k == j, 0.0, lg[j] - lg[k] - lg[j - k] + (j - k) * la))
    return rows


def exp_row_centered(lam: complex, j: int) -> list:
    """F_j of eta + w exp(lam/w) in powers of u = z - eta."""
    return exp_rows(lam, j)[j]


def exp_row(eta: complex, lam: complex, j: int) -> list:
    """F_j of eta + w exp(lam/w) in powers of z, by an exact Taylor shift."""
    centered = exp_row_centered(lam, j)
    shift = -_mpc(eta)
    powers = [mpmath.mpc(1)]
    for _ in range(j):
        powers.append(powers[-1] * shift)
    return [mpmath.fsum(centered[k] * math.comb(k, i) * powers[k - i] for k in range(i, j + 1))
            for i in range(j + 1)]


def recurrence_rows(alpha0: complex, tail: dict[int, complex], n: int) -> list[list]:
    """F_0..F_n of w + alpha0 + sum_k tail[k] w^-k by the coefficient recurrence
    F_{j+1} = (z - alpha0) F_j - sum_k a_k F_{j-k} - j a_j, in mpmath, using
    only the nonzero tail entries."""
    a0 = _mpc(alpha0)
    a = {k: _mpc(c) for k, c in tail.items() if c != 0}
    rows = [[mpmath.mpc(1)], [-a0, mpmath.mpc(1)]]
    for j in range(1, n):
        prev = rows[j]
        nxt = [mpmath.mpc(0)] + list(prev)
        for i, c in enumerate(prev):
            nxt[i] -= a0 * c
        for k, ak in a.items():
            if k <= j:
                for i, c in enumerate(rows[j - k]):
                    nxt[i] -= ak * c
        if j in a:
            nxt[0] -= j * a[j]
        rows.append(nxt)
    return rows[: n + 1]


def to_complex(row) -> np.ndarray:
    return np.array([complex(c) for c in row], dtype=complex)


def max_coefficient(rows) -> float:
    return max(float(abs(c)) for row in rows for c in row)


# ---------------------------------------------------------------------------
# values F_j(z) and F_j'(z) from coefficient rows, with their working scale
# ---------------------------------------------------------------------------

def values_from_rows(rows, z: complex):
    """(F_j(z), F_j'(z)) for every row, evaluated in mpmath."""
    u = _mpc(z)
    n = len(rows) - 1
    powers = [mpmath.mpc(1)]
    for _ in range(n):
        powers.append(powers[-1] * u)
    dpowers = [k * powers[k - 1] for k in range(1, n + 1)]
    vals, ders = [], []
    for row in rows:
        vals.append(mpmath.fdot(row, powers[: len(row)]))
        ders.append(mpmath.fdot(row[1:], dpowers[: len(row) - 1]) if len(row) > 1
                    else mpmath.mpc(0))
    return vals, ders


def shift_values(alpha0: complex, z: complex, n: int):
    """((z - alpha0)^j, j (z - alpha0)^{j-1}) for j = 0..n."""
    u = _mpc(z) - _mpc(alpha0)
    powers = [mpmath.mpc(1)]
    for _ in range(n):
        powers.append(powers[-1] * u)
    return powers, [mpmath.mpc(0)] + [j * powers[j - 1] for j in range(1, n + 1)]


def gap_values(z0: complex, n_gap: int, tail: list[complex], z: complex, n: int):
    """(F_j(z), F_j'(z)), j = 0..n, of w + z0 + sum_i tail[i] w^-(n_gap+i).

    Indices up to n_gap + 1 use the closed form ((z - z0)^j, then one
    corrected power); later ones run the value recurrence in mpmath."""
    u = _mpc(z) - _mpc(z0)
    a = {n_gap + i: _mpc(c) for i, c in enumerate(tail) if c != 0}
    vals, ders = [mpmath.mpc(1)], [mpmath.mpc(0)]
    for j in range(1, n + 1):
        if j <= n_gap:
            vals.append(u ** j)
            ders.append(j * u ** (j - 1))
        elif j == n_gap + 1:
            vals.append(u ** j - j * a[n_gap])
            ders.append(j * u ** (j - 1))
        else:
            v = u * vals[j - 1] - sum(ak * vals[j - 1 - k] for k, ak in a.items() if k <= j - 1)
            d = vals[j - 1] + u * ders[j - 1] - sum(ak * ders[j - 1 - k]
                                                     for k, ak in a.items() if k <= j - 1)
            if j - 1 in a:
                v -= (j - 1) * a[j - 1]
            vals.append(v)
            ders.append(d)
    return vals, ders


def recurrence_log_abs_rows(alpha0: complex, tail: dict[int, complex],
                            n: int) -> list[np.ndarray]:
    """log |c_{j,k}| by the recurrence in float64; used only as a working scale."""
    rows = [np.array([1.0 + 0j]), np.array([-complex(alpha0), 1.0 + 0j])]
    for j in range(1, n):
        nxt = np.zeros(j + 2, dtype=complex)
        nxt[1:] += rows[j]
        nxt[: j + 1] -= complex(alpha0) * rows[j]
        for k, ak in tail.items():
            if ak != 0 and k <= j:
                nxt[: j - k + 1] -= ak * rows[j - k]
        if tail.get(j, 0) != 0:
            nxt[0] -= j * tail[j]
        rows.append(nxt)
    with np.errstate(divide="ignore"):
        return [np.log(np.abs(r)) for r in rows[: n + 1]]


def log_scales(log_abs_rows, z: complex):
    """log(1 + sum_k |c_k| |z|^k) and log(1 + sum_k k |c_k| |z|^{k-1}) per row,
    summed in log space so that no magnitude overflows; z must be nonzero."""
    lz = math.log(abs(z))
    vals, ders = [], []
    for row in log_abs_rows:
        k = np.arange(len(row))
        terms = row + k * lz
        dterms = row[1:] + np.log(k[1:]) + (k[1:] - 1) * lz
        vals.append(float(np.logaddexp.reduce(np.append(terms, 0.0))))
        ders.append(float(np.logaddexp.reduce(np.append(dterms, 0.0))))
    return vals, ders


def real_log_abs_rows(rows) -> list[np.ndarray]:
    with np.errstate(divide="ignore"):
        return [np.log(np.abs(np.array([float(c) for c in row]))) for row in rows]


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_faber_rows(results, ref_rows: list[np.ndarray], tol: float = COEFF_TOL):
    """A generated table [[[re, im], ...], ...] against exact rows.

    Each F_j must have degree j with leading coefficient 1; a comparison
    relative to the largest coefficient alone would pass a dropped leading
    term, so degree and leading term are checked on their own first."""
    if len(results) != len(ref_rows):
        return f"{len(results)} polynomials, expected {len(ref_rows)}"
    non_monic = []
    worst, worst_j = 0.0, 0
    for j, (row, ref) in enumerate(zip(results, ref_rows)):
        if len(row) != j + 1:
            non_monic.append(j)
            continue
        got = np.array([complex(re, im) for re, im in row])
        if not np.all(np.isfinite(got)) or abs(got[-1] - 1.0) > 1e-12:
            non_monic.append(j)
            continue
        dev = float(np.max(np.abs(got - ref))) / (1.0 + float(np.max(np.abs(ref))))
        if dev > worst:
            worst, worst_j = dev, j
    if non_monic:
        return (f"{len(non_monic)} F_j not monic of degree j, "
                f"first at j={non_monic[0]}")
    if worst > tol:
        return f"F_{worst_j} off by {worst:.2e} of its scale (tolerance {tol:.0e})"
    return None


def check_values(got, ref, log_scale, first_index: int, tol: float = VALUE_TOL):
    """Oracle values against mpmath references, scaled by the Horner magnitude."""
    if len(got) != len(ref):
        return f"{len(got)} values, expected {len(ref)}"
    worst, worst_j = -math.inf, 0
    for i, (g, r, ls) in enumerate(zip(got, ref, log_scale)):
        g = complex(g)
        if not cmath.isfinite(g):
            return f"non-finite value at index {first_index + i}"
        err = float(abs(_mpc(g) - r))
        rel = (math.log(err) if err > 0 else -math.inf) - ls
        if rel > worst:
            worst, worst_j = rel, first_index + i
    if worst > math.log(tol):
        return f"value {worst_j} off by {math.exp(worst):.2e} of its scale (tolerance {tol:.0e})"
    return None


def check_roots(roots, row, cusps: int | None = None):
    """Root set of the exact polynomial ``row`` (ascending, mpmath).

    Requires deg-many finite roots, each with an mpmath residual at the
    float64 Horner noise floor and, for a hypocycloid with ``cusps`` cusps,
    every nonzero root on a cusp ray."""
    deg = len(row) - 1
    if len(roots) != deg:
        return f"{len(roots)} roots, expected {deg}"
    if not all(cmath.isfinite(r) for r in roots):
        return "non-finite root"
    for r in roots:
        x = _mpc(r)
        ax = abs(x)
        value = mpmath.polyval(row[::-1], x)
        floor = 1 + mpmath.polyval([abs(c) for c in row[::-1]], ax)
        if abs(value) > ROOT_RESIDUAL_EPS * EPS * floor:
            return f"root {r} has residual {float(abs(value) / floor):.2e} of its scale"
    if cusps is not None:
        rays = [2.0 * math.pi * v / cusps for v in range(cusps)]
        for r in roots:
            if abs(r) <= 1e-8:
                continue
            a = math.atan2(r.imag, r.real) % (2.0 * math.pi)
            off = min(min(abs(a - phi), 2.0 * math.pi - abs(a - phi)) for phi in rays)
            if off > RAY_ANGLE_TOL:
                return f"root {r} is {off:.1e} rad off its cusp ray"
    return None
