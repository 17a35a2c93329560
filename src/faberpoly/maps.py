"""Closed-form map families and the special functions attached to them.

Families
--------
Shift(alpha0)                  w + alpha0
GapMap(z0, n, tail)            w + z0 + sum_{j>=n} alpha_j w^{-j},   alpha_n != 0
TwoGapMap(z0, m, alpha_m,
          n, tail)             w + z0 + alpha_m w^{-m} + sum_{j>=n} alpha_j w^{-j}
Hypocycloid(m)                 w + 1/(m w^m)
ExpMap(eta, lam)               eta + w exp(lam / w)

Each family knows its exterior-map coefficient form (for the recurrence
path) and, where one exists, a closed form for its Faber polynomials,
returned like the recurrence's as one read-only coefficient table of rows
0..N, row j holding the ascending coefficients of F_j: the gap families
produce shifted monomials with a single correction term, the hypocycloid
family has an explicit binomial-factorial formula (scaled Chebyshev
polynomials when m = 1), and the exponential family has the explicit sum
F_j(z) = j sum_k (-lam)^{j-k} k^{j-k-1}/(j-k)! (z-eta)^k.

The exponential family also carries its inverse map through the principal
branch of the Lambert W function (one Halley run from one seed chosen by the
region of the argument, for any finite argument off the cut), the power
series of W^j, the starlikeness and univalence-certificate functionals, and
the boundary curve e^{i theta} exp(lam e^{-i theta}).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .faber import _finite_rows, _map_coefficients, exp_map_exterior

BRANCH_POINT = -math.exp(-1.0)

#: Halley iteration cap for the Lambert W evaluation
LAMBERT_MAX_ITER = 60
#: converged means the defining-identity residual is below this times (1 + |t|)
LAMBERT_RESIDUAL_TOL = 1e-12


class BranchCutError(ValueError):
    """Argument lies on the branch cut (-inf, -1/e) of the principal Lambert branch."""


# ---------------------------------------------------------------------------
# map families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shift:
    alpha0: complex


@dataclass(frozen=True)
class GapMap:
    """w + z0 + sum_{j=n}^{M} tail[j-n] w^{-j}; the leading tail entry must be nonzero."""

    z0: complex
    n: int
    tail: tuple[complex, ...]

    def __init__(self, z0: complex, n: int, tail: Sequence[complex]):
        if n < 1:
            raise ValueError("gap index n must be at least 1")
        tail = tuple(complex(c) for c in tail)
        if not tail or tail[0] == 0:
            raise ValueError("the first tail coefficient alpha_n must be nonzero")
        object.__setattr__(self, "z0", complex(z0))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "tail", tail)

    @property
    def highest_index(self) -> int:
        return self.n + len(self.tail) - 1


@dataclass(frozen=True)
class TwoGapMap:
    """w + z0 + alpha_m w^{-m} + sum_{j=n}^{M} tail[j-n] w^{-j}, with m < n - 1."""

    z0: complex
    m: int
    alpha_m: complex
    n: int
    tail: tuple[complex, ...]

    def __init__(self, z0: complex, m: int, alpha_m: complex, n: int, tail: Sequence[complex]):
        if m < 1:
            raise ValueError("first gap index m must be at least 1")
        if n <= m + 1:
            raise ValueError("second gap index must satisfy n > m + 1")
        if alpha_m == 0:
            raise ValueError("alpha_m must be nonzero")
        tail = tuple(complex(c) for c in tail)
        if not tail or tail[0] == 0:
            raise ValueError("the first tail coefficient alpha_n must be nonzero")
        object.__setattr__(self, "z0", complex(z0))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "alpha_m", complex(alpha_m))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "tail", tail)

    @property
    def highest_index(self) -> int:
        return self.n + len(self.tail) - 1


@dataclass(frozen=True)
class Hypocycloid:
    """w + 1/(m w^m), mapping |w| > 1 onto the exterior of an (m+1)-cusped hypocycloid."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("hypocycloid order m must be at least 1")

    @property
    def highest_index(self) -> int:
        return self.m


@dataclass(frozen=True)
class ExpMap:
    """eta + w exp(lam / w); univalent exactly when |lam| <= 1."""

    eta: complex
    lam: complex

    def __init__(self, eta: complex, lam: complex):
        object.__setattr__(self, "eta", complex(eta))
        object.__setattr__(self, "lam", complex(lam))


MapFamily = Union[Shift, GapMap, TwoGapMap, Hypocycloid, ExpMap]

#: every map family by its command-line name; the CLI reads names and options from here
FAMILIES = {"shift": Shift, "gap": GapMap, "twogap": TwoGapMap,
            "hypocycloid": Hypocycloid, "expmap": ExpMap}


def to_exterior_map(family: MapFamily, truncation: int) -> np.ndarray:
    """Coefficient array a (a[k] = a_k, read-only) of a family member, for
    the recurrence generator and the series oracles.

    The finite families fill zeros up to index max(truncation,
    ``highest_index``), so every structurally nonzero index is kept; the
    exponential family truncates its factorial tail after ``truncation``
    terms.
    """
    if not isinstance(family, tuple(FAMILIES.values())):
        raise TypeError(f"not a map family: {family!r}")
    if isinstance(family, ExpMap):
        return exp_map_exterior(family.eta, family.lam, truncation)
    a = np.zeros(max(truncation, getattr(family, "highest_index", 0)) + 1, dtype=complex)
    if isinstance(family, Shift):
        a[0] = family.alpha0
    elif isinstance(family, Hypocycloid):
        a[family.m] = 1.0 / family.m
    else:
        a[0] = family.z0
        if isinstance(family, TwoGapMap):
            a[family.m] = family.alpha_m
        a[family.n:family.highest_index + 1] = family.tail
    return _map_coefficients(a)


def evaluate_map(family: MapFamily, w: complex) -> complex:
    """Closed-form value of the map at w (exact tail, not the truncated form)."""
    w = complex(w)
    if w == 0:
        raise ValueError("the map is not defined at w = 0")
    if isinstance(family, ExpMap):
        return family.eta + w * cmath.exp(family.lam / w)
    a0, *tail = to_exterior_map(family, 0).tolist()   # every nonzero index of a finite family
    return w + a0 + sum(c * w ** -k for k, c in enumerate(tail, 1))


# ---------------------------------------------------------------------------
# closed-form Faber polynomials
# ---------------------------------------------------------------------------

def gap_faber_closed_form(family: GapMap, n_highest: int) -> np.ndarray:
    """F_0 ... F_N of a gap map, N <= n + 1: (z - z0)^j for j <= n, and the
    single corrected polynomial (z - z0)^{n+1} - (n+1) alpha_n at j = n + 1."""
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    if n_highest > family.n + 1:
        raise ValueError(f"no closed form beyond index {family.n + 1}; use the recurrence")
    table = _shifted_power_table(family.z0, n_highest)
    if n_highest == family.n + 1:
        table[-1, 0] -= (family.n + 1) * family.tail[0]
    return _finite_rows(table, "the gap closed form")


def two_gap_faber_system(family: TwoGapMap | Sequence[TwoGapMap], n_highest: int) -> np.ndarray:
    """F_0 ... F_N of a two-gap map by its four-branch piecewise recurrence:
    shifted monomials up to m, one corrected monomial at m + 1, a constant-
    coefficient three-term recurrence up to n, then the full-tail recurrence.
    Row j of the table holds F_j.  A sequence of B maps gives the
    (B, N+1, N+1) stack of their tables in one pass, and one map is a stack
    of one: past its head rows, row j + 1 of each map is z F_j less z0 F_j,
    less alpha_k F_{j-k} for each of its indices k = m, n .. top up to j in
    ascending order, less j alpha_j, each term an elementwise product
    written only into the maps that have it (``_terms``), so that every
    map's table is bit for bit its table alone.  Every map takes each step
    from the lowest head on, and a step into a map's own head rows is then
    undone from them.  Raises OverflowError naming the first F_j that
    float64 cannot hold, in a stack that of the first map with one,
    carrying both as ``map`` and ``row``.
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    maps = [family] if isinstance(family, TwoGapMap) else list(family)
    top = max((fam.highest_index for fam in maps), default=0)
    alphas = np.zeros((len(maps), top + 1), dtype=complex)     # alpha_k of each map
    taps = np.zeros((len(maps), top + 1), dtype=bool)          # its indices m, n .. top
    table = np.zeros((len(maps), n_highest + 1, n_highest + 1), dtype=complex)
    heads = []                                  # rows 0 .. min(m + 1, N) of each map
    for fam, coefficients, indices, rows in zip(maps, alphas, taps, table):
        coefficients[fam.m], coefficients[fam.n:fam.highest_index + 1] = fam.alpha_m, fam.tail
        indices[fam.m] = indices[fam.n:fam.highest_index + 1] = True
        head = _shifted_power_table(fam.z0, min(fam.m + 1, n_highest))
        if len(head) == fam.m + 2:
            head[-1, 0] -= (fam.m + 1) * fam.alpha_m
        rows[:len(head), :len(head)] = head
        heads.append(head)
    every = _terms(table, np.array([fam.z0 for fam in maps], dtype=complex),
                   np.ones(len(maps), dtype=bool))
    terms = [_terms(table, column, picked) for column, picked in zip(alphas.T, taps.T)]
    union = np.flatnonzero(taps.any(axis=0)).tolist()
    sizes = [len(head) for head in heads]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(min(sizes, default=n_highest + 1) - 1, n_highest):
            stack = every[0]
            stack[..., j + 1, 1:j + 2] = stack[..., j, :j + 1]          # z F_j
            _less(every, j, 0)
            for k in union:
                if k > j:
                    break
                _less(terms[k], j, k)
            if j <= top and terms[j] is not None:
                _less(terms[j], j, None)
            if j + 1 < max(sizes):                  # a map's head rows stay as they are
                for rows, head in zip(table, heads):
                    if j + 1 < len(head):
                        rows[j + 1, :j + 2] = head[j + 1, :j + 2]
    return _finite_rows(table[0] if isinstance(family, TwoGapMap) else table,
                        "the two-gap recurrence")


def _terms(table: np.ndarray, coefficients: np.ndarray, picked: np.ndarray):
    """How one term of a stacked recurrence reaches the maps that a boolean
    column picks, with each map's coefficient: one map's table and its
    coefficient alone, the stack of consecutive maps and their coefficients
    as a column, or otherwise the whole stack, every coefficient and the
    column as a (B, 1) mask.  None where the column picks no map."""
    at = np.flatnonzero(picked).tolist()
    if not at:
        return None
    if at[-1] - at[0] >= len(at):
        return table, coefficients[:, None], picked[:, None]
    if len(at) == 1:
        return table[at[0]], coefficients[at[0]], None
    return table[at[0]:at[-1] + 1], coefficients[at[0]:at[-1] + 1, None], None


def _less(term, j: int, k) -> None:
    """Row j + 1 of the tables of a ``_terms`` term less its coefficient
    times F_{j-k}, over the first j - k + 1 entries, or with k None less its
    coefficient times j in the constant entry; only in the masked maps where
    the term has a mask."""
    tables, coefficient, mask = term
    width = 1 if k is None else j - k + 1
    target = tables[..., j + 1, :width]
    product = coefficient * (j if k is None else tables[..., j - k, :width])
    if mask is None:
        target -= product
    else:
        np.subtract(target, product, out=target, where=mask)


def hypocycloid_faber_closed_form(m: int, n_highest: int) -> np.ndarray:
    """F_0 ... F_N of w + 1/(m w^m), N >= 1, with row j >= 1 from He's formula

        F_j(z) = j * sum_{k=0}^{floor(j/(m+1))}
                 (-1)^k (j-mk-1)! / ((j-(m+1)k)! m^k k!) * z^{j-(m+1)k}.

    The integer j (j-mk-1)! / ((j-(m+1)k)! k!) is carried exactly from k - 1
    to k, and each coefficient, that integer over m^k, is rounded to float
    once, so no gamma evaluation or overflow-prone floating product is
    involved.  An OverflowError names m and the first row float64 cannot hold.
    """
    if m < 1:
        raise ValueError("hypocycloid order m must be at least 1")
    if n_highest < 1:
        raise ValueError("the closed form starts at index 1")
    table = np.eye(n_highest + 1, dtype=complex)
    try:
        for j in range(1, n_highest + 1):
            numerator = 1           # j (j-mk-1)! / ((j-(m+1)k)! k!) at k = 0
            for k in range(1, j // (m + 1) + 1):
                power, low = j - (m + 1) * k, j - m * k
                numerator = (numerator * math.prod(range(power + 1, power + m + 2))
                             // (k * math.prod(range(low, low + m))))
                table[j, power] = (-1) ** k * numerator / m ** k
    except OverflowError:           # a coefficient of row j leaves float64
        table[j] = np.nan
    return _finite_rows(table, f"the hypocycloid closed form for m={m}")


def chebyshev_scaled(n_highest: int) -> np.ndarray:
    """Rows 0..N: T_0 = 1, then 2 T_j(z/2) for j >= 1, by the three-term
    recurrence C_{j+1} = z C_j - C_{j-1} seeded with C_0 = 2 and C_1 = z.
    An OverflowError names the first C_j that float64 cannot hold."""
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    table = np.eye(n_highest + 1, dtype=complex)
    table[0, 0] = 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n_highest):
            table[j + 1, 1:j + 2] = table[j, :j + 1]
            table[j + 1, :j] -= table[j - 1, :j]
    table[0, 0] = 1.0
    return _finite_rows(table, "the scaled Chebyshev recurrence", "C")


def exp_map_faber_closed_form(eta: complex, lam, n_highest: int) -> np.ndarray:
    """F_0 ... F_N of eta + w exp(lam/w), N >= 1, from the explicit sum

        F_j(z) = j sum_{k=0}^{j} (-lam)^{j-k} k^{j-k-1}/(j-k)! (z-eta)^k,   j >= 1,

    with the 0^0 = 1 convention (so F_1 = z - eta - lam, and lam = 0
    collapses to (z-eta)^j).  A 1-D array of B values of lam, with the one
    eta, gives the (B, N+1, N+1) stack of their tables.  Each rational
    coefficient in powers of z - eta, rounded once to float by an exact
    integer division by (j-k)! from one list of factorials, is formed once
    per call and multiplies each map's (-lam)^(j-k), one Python power per
    exponent and map; one stacked product with the binomial table of those
    powers, shared by the stack, gives the tables.  Raises OverflowError
    naming the first F_j that float64 cannot hold, in a stack that of the
    first map with one, carrying both as ``map`` and ``row``."""
    if n_highest < 1:
        raise ValueError("the closed form starts at index 1")
    lams = np.asarray(lam, dtype=complex)
    if lams.ndim > 1:
        raise ValueError(f"lam is one value or a 1-D array of them, got shape {lams.shape}")
    powers = _shifted_power_table(complex(eta), n_highest)
    held = int(np.isfinite(powers).all(axis=1).sum())   # NaN from the first overflow on
    signed = np.zeros((lams.size, held), dtype=complex)    # (-lam)^p of each map
    for row, value in zip(signed, (-lams.ravel()).tolist()):
        try:
            for p in range(1, held):
                row[p] = value ** p
        except OverflowError:               # (-lam)^p leaves float64, and F_p with it
            row[p:] = np.nan
    in_powers = np.zeros((lams.size, n_highest + 1, held), dtype=complex)
    in_powers[:, range(held), range(held)] = 1.0        # row j: F_j in powers of z - eta
    in_powers[:, held:] = np.nan
    factorials = [math.factorial(d) for d in range(held)]
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for j in range(1, held):
                rationals = [j * k ** (j - k - 1) / factorials[j - k] for k in range(j)]
                in_powers[:, j, :j] = np.multiply(rationals, signed[:, j:0:-1])
        except OverflowError:               # a coefficient of row j leaves float64
            in_powers[:, j:] = np.nan
        table = in_powers @ powers[:held]
    return _finite_rows(table if lams.ndim else table[0], "the exp-map closed form")


def _shifted_power_table(z0: complex, n_highest: int) -> np.ndarray:
    """Lower-triangular table whose row j holds the ascending coefficients of
    (z - z0)^j, j = 0..N, by the binomial theorem.  A power that is exactly
    zero is multiplied by 1 in place of its binomial, so only a nonzero term
    can overflow.  From the first row with a binomial or a power beyond
    float64 on, the rows are NaN, for the caller's ``_finite_rows`` to name.
    At z0 = 0 the table is the identity, returned as it is."""
    if z0 == 0:
        return np.eye(n_highest + 1, dtype=complex)
    table = np.zeros((n_highest + 1, n_highest + 1), dtype=complex)
    for j in range(n_highest + 1):
        try:
            powers = [(-z0) ** (j - k) for k in range(j + 1)]
            table[j, :j + 1] = [(math.comb(j, k) if power else 1) * power
                                for k, power in enumerate(powers)]
        except OverflowError:
            table[j:] = np.nan
            break
    return table


# ---------------------------------------------------------------------------
# Lambert W and the inverse of the exponential map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambertResult:
    """Principal-branch Lambert value plus convergence diagnostics."""

    value: complex
    converged: bool
    iterations: int
    residual: float


def lambert_w0(t: complex) -> LambertResult:
    """Principal branch of the Lambert W function (inverse of w -> w e^w).

    One Halley run from one seed chosen by the region of t: the branch-point
    expansion in p = sqrt(2 (e t + 1)) within 0.6 of -1/e, the power series
    t(1 - t) for |t| < 0.3, log(1 + t) for |t| <= 3 with |t + 1| > 0.8, and
    the asymptotic L1 - L2 + L2/L1 (L1 = log t, L2 = log L1) elsewhere.  Any
    finite t off the cut is accepted; real arguments left of the branch
    point raise :class:`BranchCutError`, and the branch point itself returns
    exactly -1.

    The result is converged exactly when the residual |W e^W - t| is at most
    ``LAMBERT_RESIDUAL_TOL`` (1 + |t|) and W lies on the principal sheet:
    |Im W| stays below pi and Im W carries the sign of Im t (W0 maps each
    open half-plane into itself and is real on (-1/e, inf)).  Otherwise the
    one iterate is reported with ``converged`` False.
    """
    t = complex(t)
    if t.imag == 0.0:
        if t.real < BRANCH_POINT:
            raise BranchCutError(f"{t.real} lies on the branch cut (-inf, -1/e)")
        if t.real == BRANCH_POINT:
            return LambertResult(complex(-1.0), True, 0,
                                 abs(-cmath.exp(-1.0) - t))
    w, iterations = _halley(t, _lambert_seed(t))
    residual = abs(w * cmath.exp(w) - t)
    converged = (residual <= LAMBERT_RESIDUAL_TOL * (1.0 + abs(t))
                 and _on_principal_branch(w, t))
    return LambertResult(w, converged, iterations, residual)


def _on_principal_branch(w: complex, t: complex) -> bool:
    if abs(w.imag) > math.pi:
        return False
    if t.imag > 0.0:
        return w.imag >= -1e-13
    if t.imag < 0.0:
        return w.imag <= 1e-13
    return abs(w.imag) <= 1e-10 * (1.0 + abs(w.real))


def _lambert_seed(t: complex) -> complex:
    if abs(t - BRANCH_POINT) < 0.6:
        p = cmath.sqrt(2.0 * (math.e * t + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    if abs(t) < 0.3:
        return t * (1.0 - t)
    if abs(t) <= 3.0 and abs(t + 1.0) > 0.8:
        return cmath.log(1.0 + t)
    log_t = cmath.log(t)
    log_log_t = cmath.log(log_t)
    return log_t - log_log_t + log_log_t / log_t


def _halley(t: complex, w: complex) -> tuple[complex, int]:
    iterations = 0
    for iterations in range(1, LAMBERT_MAX_ITER + 1):
        ew = cmath.exp(w)
        f = w * ew - t
        wp1 = w + 1.0
        if wp1 == 0:
            w += 1e-12
            continue
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (2.0 + abs(w)):
            break
    return w, iterations


def inverse_exp_map(z: complex, eta: complex, lam: complex) -> complex:
    """Value of the inverse of eta + w exp(lam/w) at an exterior point z:

        Phi(z) = -lam / W0(-lam / (z - eta)),

    reducing to z - eta when lam = 0.  Convergence failures of the Lambert
    evaluation propagate as ArithmeticError."""
    z = complex(z)
    eta = complex(eta)
    lam = complex(lam)
    if lam == 0:
        return z - eta
    if z == eta:
        raise ValueError("the inverse map is not defined at the common point eta")
    res = lambert_w0(-lam / (z - eta))
    if not res.converged:
        raise ArithmeticError(
            f"Lambert evaluation did not converge at t={-lam / (z - eta)} "
            f"(residual {res.residual:.3e})")
    return -lam / res.value


def lambert_w0_power_series(j: int, order: int) -> np.ndarray:
    """Coefficients 0..``order`` of the truncated power series of W0(t)^j, as
    a read-only complex array.

    Coefficient of t^k is -j (-k)^{k-j-1} / (k-j)! for k >= j, with the
    0/0 = 1 and 0^0 = 1 conventions.  For j >= 0 entry k holds the t^k
    coefficient (zeros below t^j).  For j < 0 the expansion is a Laurent
    series starting at t^j, so the regular factor t^{-j} W0(t)^j is
    returned instead: entry i holds the t^{i+j} coefficient.  Magnitudes
    are accumulated in log scale; an OverflowError names the first entry
    c_i that float64 cannot hold.
    """
    if order < max(j, 1):
        raise ValueError("order must cover the leading index")
    coeffs = np.zeros(order + 1, dtype=complex)
    if j == 0:
        coeffs[0] = 1.0
    else:
        try:
            for i in range(max(j, 0), order + 1):
                coeffs[i] = _w0_power_coefficient(j, i + min(j, 0))
        except OverflowError:       # the magnitude of entry i leaves float64
            coeffs[i] = np.nan
    return _finite_rows(coeffs[:, None], f"the W0^{j} power series", "c")[:, 0]


def _w0_power_coefficient(j: int, k: int) -> float:
    if k == j:
        return 1.0
    if k == 0:
        # only reachable for j < 0: -j * 0^{-j-1} / (-j)!
        return float(-j) / math.factorial(-j) if j == -1 else 0.0
    # (-k)^{k-j-1} alternates in sign for k > 0 and is |k|^{k-j-1} for k < 0
    magnitude = math.exp((k - j - 1) * math.log(abs(k)) - math.lgamma(k - j + 1))
    sign = -1.0 if k > 0 and (k - j - 1) % 2 else 1.0
    return -j * sign * magnitude


# ---------------------------------------------------------------------------
# geometry of the exponential map
# ---------------------------------------------------------------------------

def exp_map_boundary(lam: complex, theta):
    """Boundary-curve point e^{i theta} exp(lam e^{-i theta}); accepts arrays."""
    phase = np.exp(1j * np.asarray(theta))
    value = phase * np.exp(complex(lam) / phase)
    if np.ndim(theta) == 0:
        return complex(value)
    return value


def starlikeness_infimum(lam: complex) -> float:
    """inf over |w| > 1 of Re(w Psi'(w) / (Psi(w) - eta)) = Re((w - lam)/w) for
    the exponential map, in closed form: 1 - |lam|.  Nonnegative exactly when
    |lam| <= 1, which certifies starlikeness (hence univalence) about eta."""
    return 1.0 - abs(complex(lam))


def starlikeness_grid_infimum(lam: complex) -> float:
    """Grid infimum of Re((w - lam)/w) over 1 < |w| <= 1000, on 400 geometric
    radii by 720 angles.

    A verification aid, not a proof: the infimum is attained in the radial
    limit |w| -> 1, so the grid value is an upper bound converging to
    1 - |lam| as the grid refines.
    """
    lam = complex(lam)
    radii = np.geomspace(1.0 + 1e-6, 1e3, 400)
    thetas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    w = radii[:, None] * np.exp(1j * thetas[None, :])
    return float(np.min(1.0 - (lam / w).real))


def univalence_certificate_bound(lam: complex, r_grid) -> float:
    """Largest grid value of (R^2 - 1) |lam|^2 / (R |R - |lam||) over R > 1.

    The supremum of (|w|^2 - 1) |w Psi''(w)/Psi'(w)| is at most 6 for every
    univalent map and dominates this expression, so any grid value above 6
    certifies that the exponential map with this lam is not univalent.
    """
    a = abs(complex(lam))
    r = np.asarray(r_grid, dtype=float)
    if np.any(r <= 1.0):
        raise ValueError("grid radii must exceed 1")
    with np.errstate(divide="ignore"):
        values = (r * r - 1.0) * a * a / (r * np.abs(r - a))
    return float(np.max(values))
