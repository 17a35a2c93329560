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
path) and, where one exists, a closed form for its Faber polynomials: the
gap families produce shifted monomials with a single correction term, the
hypocycloid family has an explicit binomial-factorial formula (scaled
Chebyshev polynomials when m = 1), and the exponential family has the
explicit sum F_j(z) = j sum_k (-lam)^{j-k} k^{j-k-1}/(j-k)! (z-eta)^k.

The exponential family also carries its inverse map through the principal
branch of the Lambert W function, the power series of W^j, the starlikeness
and univalence-certificate functionals, and the boundary curve
e^{i theta} exp(lam e^{-i theta}).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .faber import ExteriorMap, FaberSystem, exp_map_exterior, faber_system_from_recurrence
from .poly import ComplexPolynomial
from .series import PowerSeries

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

    def alpha_n(self) -> complex:
        return self.tail[0]


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


def to_exterior_map(family: MapFamily, truncation: int) -> ExteriorMap:
    """Coefficient form of a family member, for the recurrence generator.

    ``truncation`` must cover every structurally nonzero index of the
    finite families (their ``highest_index``); the exponential family
    truncates its factorial tail.
    """
    if not isinstance(family, (Shift, GapMap, TwoGapMap, Hypocycloid, ExpMap)):
        raise TypeError(f"not a map family: {family!r}")
    top = getattr(family, "highest_index", 0)
    if truncation < top:
        raise ValueError(f"truncation {truncation} must be at least {top} "
                         f"for {type(family).__name__}")
    if isinstance(family, ExpMap):
        return exp_map_exterior(family.eta, family.lam, truncation)
    if isinstance(family, Shift):
        return ExteriorMap(family.alpha0, (0j,) * truncation)
    tail = [0j] * truncation
    if isinstance(family, Hypocycloid):
        tail[family.m - 1] = 1.0 / family.m
        return ExteriorMap(0.0, tail)
    if isinstance(family, TwoGapMap):
        tail[family.m - 1] = family.alpha_m
    tail[family.n - 1:top] = family.tail
    return ExteriorMap(family.z0, tail)


def evaluate_map(family: MapFamily, w: complex) -> complex:
    """Closed-form value of the map at w (exact tail, not the truncated form)."""
    w = complex(w)
    if w == 0:
        raise ValueError("the map is not defined at w = 0")
    if isinstance(family, Shift):
        return w + family.alpha0
    if isinstance(family, GapMap):
        return w + family.z0 + sum(c * w ** -(family.n + i) for i, c in enumerate(family.tail))
    if isinstance(family, TwoGapMap):
        return (w + family.z0 + family.alpha_m * w ** -family.m
                + sum(c * w ** -(family.n + i) for i, c in enumerate(family.tail)))
    if isinstance(family, Hypocycloid):
        return w + 1.0 / (family.m * w ** family.m)
    if isinstance(family, ExpMap):
        return family.eta + w * cmath.exp(family.lam / w)
    raise TypeError(f"not a map family: {family!r}")


# ---------------------------------------------------------------------------
# closed-form Faber polynomials
# ---------------------------------------------------------------------------

def gap_faber_closed_form(family: GapMap, j: int) -> ComplexPolynomial:
    """F_j of a gap map: (z - z0)^j for j <= n, and the single corrected
    polynomial (z - z0)^{n+1} - (n+1) alpha_n at j = n + 1."""
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j > family.n + 1:
        raise ValueError(f"no closed form beyond index {family.n + 1}; use the recurrence")
    coeffs = _shifted_power(family.z0, j)
    if j == family.n + 1:
        coeffs[0] -= (family.n + 1) * family.alpha_n()
    return ComplexPolynomial(coeffs, trim=False)


def two_gap_faber_system(family: TwoGapMap, n_highest: int) -> FaberSystem:
    """F_0 ... F_N of a two-gap map by its four-branch piecewise recurrence:
    shifted monomials up to m, one corrected monomial at m + 1, a constant-
    coefficient three-term recurrence up to n, then the full-tail recurrence.
    Row j of the system's own table holds F_j.
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    z0, m, am, n, top = family.z0, family.m, family.alpha_m, family.n, family.highest_index
    table = np.zeros((n_highest + 1, n_highest + 1), dtype=complex)
    table[0, 0] = 1.0
    for j in range(n_highest):
        row, prev = table[j + 1], table[j, :j + 1]
        if j <= m:
            row[:j + 2] = _shifted_power(z0, j + 1)
            if j == m:
                row[0] -= (m + 1) * am
        else:                                   # (z - z0) F_j - alpha_m F_{j-m}
            row[1:j + 2] = prev
            row[:j + 1] -= z0 * prev
            row[:j - m + 1] -= am * table[j - m, :j - m + 1]
        if j >= n:                              # the tail from index n on
            for k in range(n, min(j, top) + 1):
                row[:j - k + 1] -= family.tail[k - n] * table[j - k, :j - k + 1]
            if j <= top:
                row[0] -= j * family.tail[j - n]
    emap = to_exterior_map(family, max(top, n_highest))
    return FaberSystem(map=emap, coeffs=table, method="closed-form")


def hypocycloid_faber_closed_form(m: int, j: int) -> ComplexPolynomial:
    """Explicit F_j of w + 1/(m w^m):

        F_j(z) = j * sum_{k=0}^{floor(j/(m+1))}
                 (-1)^k (j-mk-1)! / ((j-(m+1)k)! m^k k!) * z^{j-(m+1)k}.

    The factorial ratio is an exact integer computation (the bracket is the
    integer floor); each coefficient is converted to float once, so no
    gamma evaluation or overflow-prone floating product is involved.
    """
    if m < 1:
        raise ValueError("hypocycloid order m must be at least 1")
    if j < 1:
        raise ValueError("the closed form starts at index 1")
    coeffs = [0j] * (j + 1)
    for k in range(j // (m + 1) + 1):
        power = j - (m + 1) * k
        ratio = Fraction(math.factorial(j - m * k - 1),
                         math.factorial(power) * m ** k * math.factorial(k))
        term = Fraction(j) * ratio
        coeffs[power] = complex((-1) ** k * float(term))
    return ComplexPolynomial(coeffs)


def chebyshev_scaled(j: int) -> ComplexPolynomial:
    """T_0 for j = 0 and 2 T_j(z/2) for j >= 1, from the three-term recurrence."""
    if j < 0:
        raise ValueError("index must be nonnegative")
    if j == 0:
        return ComplexPolynomial.one()
    t_prev = ComplexPolynomial.one()
    t_cur = ComplexPolynomial.monomial(1)
    two_x = ComplexPolynomial((0.0, 2.0))
    for _ in range(j - 1):
        t_prev, t_cur = t_cur, two_x * t_cur - t_prev
    return 2.0 * t_cur.compose_affine(0.5, 0.0)


def exp_map_faber_closed_form(eta: complex, lam: complex, j: int) -> ComplexPolynomial:
    """Explicit F_j of eta + w exp(lam/w):

        F_1(z) = z - eta - lam,
        F_j(z) = j sum_{k=1}^{j} (-lam)^{j-k} k^{j-k-1}/(j-k)! (z-eta)^k,

    with the 0^0 = 1 convention (so lam = 0 collapses to (z-eta)^j)."""
    if j < 1:
        raise ValueError("the closed form starts at index 1")
    eta = complex(eta)
    lam = complex(lam)
    if j == 1:
        return ComplexPolynomial((-eta - lam, 1.0))
    coeffs = [0j] * (j + 1)
    for k in range(1, j + 1):
        rational = Fraction(j) * Fraction(k) ** (j - k - 1) / math.factorial(j - k)
        coeffs[k] = float(rational) * (-lam) ** (j - k)
    return ComplexPolynomial(coeffs).compose_affine(1.0, -eta)


def _shifted_power(z0: complex, j: int) -> list[complex]:
    """Ascending coefficients of (z - z0)^j by the binomial theorem."""
    return [math.comb(j, k) * (-z0) ** (j - k) for k in range(j + 1)]


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

    Halley iteration, seeded by the power series t(1 - t) for small |t|,
    the asymptotic log t - log log t for large |t|, and the branch-point
    expansion in p = sqrt(2 (e t + 1)) near -1/e.  Real arguments left of
    the branch point raise :class:`BranchCutError`; the branch point itself
    returns exactly -1.

    Converged iterates are accepted only on the principal sheet: |Im W|
    stays below pi and Im W carries the sign of Im t (W0 maps each open
    half-plane into itself and is real on (-1/e, inf)).  A solution found
    on the conjugate side seeds one more Halley run, which lands on the
    principal value for arguments near the cut.

    On convergence the residual |W e^W - t| is at most 1e-12 (1 + |t|);
    otherwise ``converged`` is False and the best iterate is reported.
    """
    t = complex(t)
    if t.imag == 0.0:
        if t.real < BRANCH_POINT:
            raise BranchCutError(f"{t.real} lies on the branch cut (-inf, -1/e)")
        if t.real == BRANCH_POINT:
            return LambertResult(complex(-1.0), True, 0,
                                 abs(-cmath.exp(-1.0) - t))
    best_w = None
    best_resid = math.inf
    total = 0
    seeds = _lambert_seeds(t)
    tried = []
    while seeds:
        seed = seeds.pop(0)
        if any(abs(seed - u) <= 1e-9 for u in tried):
            continue
        tried.append(seed)
        w, iters = _halley(t, seed)
        total += iters
        resid = abs(w * cmath.exp(w) - t)
        on_branch = _on_principal_branch(w, t)
        if resid < best_resid and on_branch:
            best_w, best_resid = w, resid
        if resid <= LAMBERT_RESIDUAL_TOL * (1.0 + abs(t)):
            if on_branch:
                return LambertResult(w, True, total, resid)
            if abs(w.imag) < math.pi:
                # converged onto the reflected sheet; its conjugate is a
                # near-solution on the principal side
                seeds.append(w.conjugate())
    if best_w is None:
        best_w, best_resid = tried[0], abs(tried[0] * cmath.exp(tried[0]) - t)
    return LambertResult(best_w, False, total, best_resid)


def _on_principal_branch(w: complex, t: complex) -> bool:
    if abs(w.imag) > math.pi:
        return False
    if t.imag > 0.0:
        return w.imag >= -1e-13
    if t.imag < 0.0:
        return w.imag <= 1e-13
    return abs(w.imag) <= 1e-10 * (1.0 + abs(w.real))


def _lambert_seeds(t: complex) -> list[complex]:
    seeds = []
    if abs(t - BRANCH_POINT) < 0.4:
        seeds.append(_branch_point_seed(t))
    if abs(t) < 0.3:
        seeds.append(t * (1.0 - t))
    elif abs(t) > 3.0:
        seeds.append(_asymptotic_seed(t))
    elif t.real < 0.0 and abs(t.imag) < 1.0:
        # near the cut the branch-point expansion keeps the correct side
        seeds.append(_branch_point_seed(t))
    else:
        seeds.append(cmath.log(1.0 + t))
    # deterministic fallbacks for the awkward mid-range
    seeds.append(_branch_point_seed(t))
    seeds.append(_asymptotic_seed(t))
    if t != -1.0:
        seeds.append(cmath.log(1.0 + t))
    return seeds


def _branch_point_seed(t: complex) -> complex:
    p = cmath.sqrt(2.0 * (math.e * t + 1.0))
    return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3


def _asymptotic_seed(t: complex) -> complex:
    log_t = cmath.log(t) if t != 0 else complex(-700.0)
    if log_t == 0:
        return complex(0.5671432904097838)  # W(1)
    return log_t - cmath.log(log_t)


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


def lambert_w0_power_series(j: int, order: int) -> PowerSeries:
    """Truncated power series of W0(t)^j.

    Coefficient of t^k is -j (-k)^{k-j-1} / (k-j)! for k >= j, with the
    0/0 = 1 and 0^0 = 1 conventions.  For j >= 0 the series is returned
    directly (zeros below t^j).  For j < 0 the expansion is a Laurent
    series starting at t^j, so the regular factor t^{-j} W0(t)^j is
    returned instead: entry i holds the t^{i+j} coefficient.  Magnitudes
    are accumulated in log scale, so large orders cannot overflow.
    """
    if order < max(j, 1):
        raise ValueError("order must cover the leading index")
    if j == 0:
        return PowerSeries.one(order)
    offset = j if j < 0 else 0
    coeffs = [0j] * (order + 1)
    for i in range(order + 1):
        k = i + offset
        if k < j:
            continue
        coeffs[i] = complex(_w0_power_coefficient(j, k))
    return PowerSeries(coeffs)


def _w0_power_coefficient(j: int, k: int) -> float:
    if k == j:
        return 1.0
    if k == 0:
        # only reachable for j < 0: -j * 0^{-j-1} / (-j)!
        return float(-j) / math.factorial(-j) if j == -1 else 0.0
    magnitude = math.exp((k - j - 1) * math.log(k) - math.lgamma(k - j + 1))
    sign = -1.0 if (k - j - 1) % 2 else 1.0
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


def starlikeness_infimum(eta: complex, lam: complex) -> float:
    """inf over |w| > 1 of Re(w Psi'(w) / (Psi(w) - eta)) for the exponential
    map, in closed form: 1 - |lam|.  Nonnegative exactly when |lam| <= 1,
    which certifies starlikeness (hence univalence) about eta."""
    return 1.0 - abs(complex(lam))


def starlikeness_grid_infimum(eta: complex, lam: complex, r_max: float = 1e3,
                              n_radial: int = 400, n_theta: int = 720) -> float:
    """Grid infimum of Re((w - lam)/w) over 1 < |w| <= r_max.

    A verification aid, not a proof: the infimum is attained in the radial
    limit |w| -> 1, so the grid value is an upper bound converging to
    1 - |lam| as the grid refines.
    """
    lam = complex(lam)
    radii = np.geomspace(1.0 + 1e-6, r_max, n_radial)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    w = radii[:, None] * np.exp(1j * thetas[None, :])
    return float(np.min(1.0 - (lam / w).real))


def univalence_certificate_bound(eta: complex, lam: complex, r_grid) -> float:
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
