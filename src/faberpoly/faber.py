"""Faber systems of exterior maps.

An exterior map is w + a0 + a1/w + a2/w^2 + ... on |w| > 1.  Its Faber
polynomials F_j are monic of degree j and satisfy the coefficient
recurrence

    F_{j+1}(z) = (z - a0) F_j(z) - sum_{k=1}^{j} a_k F_{j-k}(z) - j a_j,

with F_0 = 1 and F_1 = z - a0 (empty sums are zero, a_k = 0 beyond the
truncation).  Independently of the recurrence, the values F_j(z) are the
coefficients of two generating series in t = 1/w,

    log((Psi(w) - z) / w)        = - sum_{j>=1} (F_j(z) / j) t^j,
    Psi'(w) w / (Psi(w) - z)     =   sum_{j>=0}  F_j(z)      t^j,
    1 / (Psi(w) - z)             =   sum_{j>=1} (F_j'(z) / j) t^j,

which this module evaluates with the truncated-series engine as numeric
oracles against the recurrence.  For the exponential map w*exp(lam/w) it
also builds the kernel polynomials P_j = sum_{k<=j} lam^{j-k} F_k and
checks the derivative identity z F_j'(z) = j P_j(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .poly import ComplexPolynomial
from .report import CheckReport
from .series import PowerSeries

#: allowed FaberSystem generation tags
GENERATION_METHODS = ("recurrence", "closed-form")


def default_series_order(n_highest: int) -> int:
    """Series truncation order used by the value oracles.

    The series operations are degree-exact, so order N yields the same
    coefficients 0..N as any higher order.
    """
    return n_highest


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


@dataclass(frozen=True, eq=False)
class FaberSystem:
    """The prefix F_0 ... F_N of the Faber polynomials of one map.

    ``coeffs`` is an (N+1) x (N+1) lower-triangular complex array whose
    row j holds the ascending coefficients of F_j; it is read-only.
    ``system[j]`` is F_j as an untrimmed ComplexPolynomial of degree j,
    built on first access.
    """

    map: ExteriorMap
    coeffs: np.ndarray
    method: str
    _polys: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.method not in GENERATION_METHODS:
            raise ValueError(f"unknown generation method {self.method!r}")
        self.coeffs.flags.writeable = False       # the cached views must stay valid

    @property
    def highest_index(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> ComplexPolynomial:
        j = range(len(self.coeffs))[j]
        if j not in self._polys:
            self._polys[j] = ComplexPolynomial(self.coeffs[j, :j + 1], trim=False)
        return self._polys[j]

    def __len__(self) -> int:
        return len(self.coeffs)


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


def faber_system_from_recurrence(emap: ExteriorMap, n_highest: int) -> FaberSystem:
    """Generate F_0 ... F_N by the coefficient recurrence, one table row per step.

    Row j+1 is (z - a0) times row j (a two-term convolution), minus the one
    contraction of a_1..a_j with rows j-1..0, minus j a_j in the constant
    term.  Deterministic: the same map always yields bit-identical systems.
    Raises OverflowError naming the first F_j that float64 cannot hold.
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    a = np.zeros(n_highest + 1, dtype=complex)
    a[:min(emap.truncation, n_highest) + 1] = (emap.alpha0,) + emap.tail[:n_highest]
    x_shift = np.array((-a[0], 1.0))
    f = np.eye(n_highest + 1, dtype=complex)     # every F_j is monic
    f[1:2, 0] = x_shift[0]                         # F_1 = z - a0, when N >= 1
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n_highest):
            f[j + 1, :j + 2] = np.convolve(x_shift, f[j, :j + 1])
            f[j + 1, :j] -= a[1:j + 1] @ f[j - 1::-1, :j]
            f[j + 1, 0] -= j * a[j]
    bad = np.flatnonzero(~np.isfinite(f).all(axis=1))
    if bad.size:
        raise OverflowError(f"the recurrence overflows float64 from F_{bad[0]} on")
    return FaberSystem(map=emap, coeffs=f, method="recurrence")


def _map_minus_z_over_w(emap: ExteriorMap, z: complex, order: int) -> PowerSeries:
    """(Psi(w) - z)/w as a series in t = 1/w: 1 + (a0 - z) t + sum a_k t^{k+1}."""
    coeffs = [0j] * (order + 1)
    coeffs[0] = 1.0
    if order >= 1:
        coeffs[1] = emap.alpha0 - z
    for k in range(1, min(emap.truncation, order - 1) + 1):
        coeffs[k + 1] = emap.alpha(k)
    return PowerSeries(coeffs)


def faber_values_from_log_series(emap: ExteriorMap, z: complex, n_highest: int,
                                 order: int | None = None) -> list[complex]:
    """Values (F_1(z), ..., F_N(z)) read off the log generating series.

    This path never touches the recurrence: it builds (Psi(w) - z)/w,
    takes the series log, and returns -j times the t^j coefficients.
    """
    if n_highest < 1:
        raise ValueError("need at least F_1")
    if order is None:
        order = default_series_order(n_highest)
    log_series = _map_minus_z_over_w(emap, z, order).log1()
    return [-j * log_series.coeffs[j] for j in range(1, n_highest + 1)]


def faber_values_from_ratio_series(emap: ExteriorMap, z: complex, n_highest: int,
                                   order: int | None = None) -> list[complex]:
    """Coefficients 0..N of Psi'(w) w / (Psi(w) - z) in t = 1/w.

    Coefficient j equals F_j(z); the numerator series is
    1 - sum_{k>=1} k a_k t^{k+1}.
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    if order is None:
        order = default_series_order(max(n_highest, 1))
    num = [0j] * (order + 1)
    num[0] = 1.0
    for k in range(1, min(emap.truncation, order - 1) + 1):
        num[k + 1] = -k * emap.alpha(k)
    denom = _map_minus_z_over_w(emap, z, order)
    ratio = PowerSeries(num) * denom.reciprocal()
    return list(ratio.coeffs[: n_highest + 1])


def faber_derivative_values_from_series(emap: ExteriorMap, z: complex, n_highest: int,
                                        order: int | None = None) -> list[complex]:
    """Coefficients 1..N of 1/(Psi(w) - z) in t = 1/w; entry j-1 equals F_j'(z)/j.

    Uses 1/(Psi(w) - z) = t * reciprocal((Psi(w) - z)/w), whose constant
    term is 1, so no division hazard arises.
    """
    if n_highest < 1:
        raise ValueError("need at least index 1")
    if order is None:
        order = default_series_order(n_highest)
    recip = _map_minus_z_over_w(emap, z, order).reciprocal()
    return list(recip.coeffs[:n_highest])


def kernel_polys(lam: complex, n_highest: int) -> list[ComplexPolynomial]:
    """P_0 ... P_N with P_j = sum_{k=0}^{j} lam^{j-k} F_k, for the map w*exp(lam/w).

    Built as the exact Horner combination P_j = lam * P_{j-1} + F_j.  These
    are the t-coefficients of the kernel 1/(1 - z t exp(-lam t)).
    """
    if n_highest < 0:
        raise ValueError("need a nonnegative highest index")
    lam = complex(lam)
    fs = faber_system_from_recurrence(exp_map_exterior(0.0, lam, n_highest), n_highest)
    out = [fs[0]]
    for j in range(1, n_highest + 1):
        out.append(lam * out[-1] + fs[j])
    return out


def check_derivative_identity(lam: complex, n_highest: int, tol: float = 1e-9) -> CheckReport:
    """Coefficientwise check of z F_j'(z) = j P_j(z) for j = 0..N (map w*exp(lam/w))."""
    lam = complex(lam)
    fs = faber_system_from_recurrence(exp_map_exterior(0.0, lam, n_highest), n_highest)
    ps = kernel_polys(lam, n_highest)
    z_poly = ComplexPolynomial.monomial(1)
    residuals = []
    for j in range(n_highest + 1):
        lhs = z_poly * fs[j].derivative()
        rhs = float(j) * ps[j]
        residuals.append(lhs.coefficient_deviation(rhs))
    worst = max(residuals, default=0.0)
    return CheckReport(
        name="derivative-identity",
        passed=worst <= tol,
        max_residual=worst,
        residuals=tuple(residuals),
    )


def check_inverse_power_decay(eta: complex, lam: complex, z_samples: Sequence[complex],
                              j: int, band: tuple[float, float] = (0.5, 2.0)) -> CheckReport:
    """Check that Phi(z)^j - F_j(z) decays like O(1/z) along one ray.

    ``z_samples`` are points of growing modulus outside the closed image of
    the map eta + w*exp(lam/w).  The principal part is never materialized:
    the check asserts only that consecutive magnitudes shrink like the
    radius ratio, up to the multiplicative ``band``.  Numerically the
    samples must keep |z|^j well below 1/eps times the principal-part
    size, otherwise cancellation swamps the signal.
    """
    from .maps import inverse_exp_map  # deferred: maps builds on this module

    if j < 0:
        raise ValueError("power must be nonnegative")
    pts = sorted((complex(z) for z in z_samples), key=abs)
    if len(pts) < 2:
        raise ValueError("need at least two sample moduli")
    if j == 0:
        return CheckReport(name="inverse-power-decay", passed=True, max_residual=0.0,
                           residuals=(0.0,) * len(pts), notes="trivial at j = 0")
    fs = faber_system_from_recurrence(exp_map_exterior(eta, lam, j), j)
    tails = []
    for z in pts:
        phi = inverse_exp_map(z, eta, lam)
        if abs(phi) <= 1.0:
            raise ValueError(f"sample {z} maps inside the unit disk; it is not exterior")
        tails.append(phi ** j - fs[j].evaluate(z))
    ok = True
    ratios = []
    for (z0, q0), (z1, q1) in zip(zip(pts, tails), zip(pts[1:], tails[1:])):
        expected = abs(z0) / abs(z1)
        actual = abs(q1) / abs(q0) if abs(q0) > 0 else math.inf
        ratios.append(actual)
        if not (band[0] * expected <= actual <= band[1] * expected):
            ok = False
    worst = max((abs(r / (abs(z0) / abs(z1)) - 1.0) for r, (z0, z1) in
                 zip(ratios, zip(pts, pts[1:]))), default=0.0)
    return CheckReport(
        name="inverse-power-decay",
        passed=ok,
        max_residual=worst,
        residuals=tuple(ratios),
    )
