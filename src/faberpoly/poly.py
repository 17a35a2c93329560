"""Dense complex polynomials: Aberth root finding, and Horner evaluation of
coefficient tables.

A Faber system is a coefficient table (see :mod:`faberpoly.faber`);
``evaluate_rows`` evaluates all its rows at once, and one row becomes a
:class:`ComplexPolynomial` only to find its roots.

Coefficients are stored in ascending order: ``coeffs[k]`` multiplies
``z**k``.  Trailing coefficients that are exactly zero are dropped and
nothing else is, so a polynomial with a nonzero leading coefficient keeps
its degree however small that coefficient is next to the others (every
monic Faber polynomial F_j has degree j).  The zero polynomial has an empty
coefficient tuple and ``degree == -1``.

All values are immutable and every operation is a pure function, so
polynomials can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Aberth-Ehrlich iteration limits
ROOT_MAX_ITER = 500
ROOT_STEP_TOL = 1e-13


class RootFindingError(ArithmeticError):
    """Simultaneous root iteration did not converge.

    Carries the last finite iterates (``roots``) and their residuals
    ``|p(r)|``, ``inf`` where that overflows and never NaN, so callers can
    inspect or retry.
    """

    def __init__(self, message: str, roots: Sequence[complex], residuals: Sequence[float]):
        super().__init__(message)
        self.roots = [complex(r) for r in roots]
        self.residuals = [float(r) for r in residuals]


def _trimmed(raw: Iterable[complex]) -> tuple[complex, ...]:
    coeffs = [complex(c) for c in raw]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense polynomial with complex coefficients, ascending by degree."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex] = ()):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation at a point."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    __call__ = evaluate

    def evaluation_magnitude(self, z: complex) -> float:
        """sum_k |c_k| |z|^k -- the working magnitude of Horner evaluation at z.

        Float round-off in evaluate() is proportional to this, so value
        comparisons are meaningful relative to it rather than to the
        (possibly heavily cancelled) value itself.
        """
        r = abs(z)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * r + abs(c)
        return acc

    def derivative(self) -> "ComplexPolynomial":
        return ComplexPolynomial((i + 1) * c for i, c in enumerate(self.coeffs[1:]))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ComplexPolynomial(out)

    def __sub__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        return self + (-other)

    def __neg__(self) -> "ComplexPolynomial":
        return ComplexPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            if self.is_zero() or other.is_zero():
                return ComplexPolynomial()
            prod = np.convolve(np.asarray(self.coeffs, dtype=complex),
                               np.asarray(other.coeffs, dtype=complex))
            return ComplexPolynomial(prod)
        return ComplexPolynomial(complex(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def compose_affine(self, a: complex, b: complex) -> "ComplexPolynomial":
        """The polynomial z -> p(a*z + b), expanded by Horner's scheme."""
        if self.is_zero():
            return ComplexPolynomial()
        affine = ComplexPolynomial((b, a))
        acc = ComplexPolynomial((self.coeffs[-1],))
        for c in reversed(self.coeffs[:-1]):
            acc = acc * affine + ComplexPolynomial((c,))
        return acc

    # -- root finding ---------------------------------------------------------

    def roots(self) -> list[complex]:
        """All degree-many roots with multiplicity, by Aberth-Ehrlich iteration.

        A factor z**r is split off first and gives r exact zeros.  The other
        initial guesses come from the Newton polygon (Bini 1996): for each
        edge from i to k of the upper convex hull of the points
        (k, log|c_k|), k - i guesses are spread over the circle of radius
        (|c_i| / |c_k|)**(1/(k-i)), so each starts near the size of the
        roots it should find.  Each sweep evaluates p, p' and the Horner
        magnitude sum_k |c_k| |x|^k in one pass.  An iterate is accepted once
        its correction step drops below ``ROOT_STEP_TOL`` (relative to its
        magnitude) or its residual reaches the Horner evaluation noise floor,
        beyond which float64 cannot distinguish it from a root; both the
        iterate and its noise floor must be finite.  A non-finite iterate,
        or ``ROOT_MAX_ITER`` sweeps without convergence, raises a
        :class:`RootFindingError` carrying the last finite iterates.
        """
        if self.degree < 1:
            raise ValueError("root finding needs degree >= 1")
        c = np.asarray(self.coeffs, dtype=complex)
        r = int(np.flatnonzero(c)[0])
        zeros = [0j] * r
        c = c[r:] / c[-1]
        n = len(c) - 1
        if n == 0:
            return zeros
        if n == 1:
            return zeros + [complex(-c[0])]
        abs_c = np.abs(c)
        dc = np.append(c[1:] * np.arange(1, n + 1), 0.0)
        # row k holds c_k, the z^k coefficient of p', and |c_k|, one row per
        # Horner step over the stacked points (x, x, |x|)
        stacked = np.stack((c, dc, abs_c), axis=-1)[..., None]
        eps = np.finfo(float).eps
        x = _newton_polygon_starts(abs_c)
        with np.errstate(all="ignore"):
            for sweep in range(ROOT_MAX_ITER):
                pv, dv, magnitude = _horner(stacked, np.stack((x, x, np.abs(x))))
                diff = x[:, None] - x[None, :]
                np.fill_diagonal(diff, np.inf)
                if np.any(diff == 0):
                    # split coinciding iterates deterministically and retry
                    x = x + (1e-12 + 1e-12j) * (1.0 + np.abs(x)) * (np.arange(n) + 1)
                    continue
                noise_floor = 4.0 * eps * magnitude.real
                settled = np.isfinite(noise_floor) & (np.abs(pv) <= noise_floor)
                newton = np.where(settled, 0j, pv / np.where(dv == 0, 1.0, dv))
                denom = 1.0 - newton * (1.0 / diff).sum(axis=1)
                step = np.where(settled, 0j, newton / np.where(denom == 0, 1.0, denom))
                x_next = x - step
                if not np.all(np.isfinite(x_next)):
                    message = f"Aberth iteration left the finite range in sweep {sweep + 1}"
                    break
                x = x_next
                if bool(np.all(settled | (np.abs(step) < ROOT_STEP_TOL * (1.0 + np.abs(x))))):
                    return zeros + [complex(z) for z in x]
            else:
                message = f"Aberth iteration did not converge in {ROOT_MAX_ITER} sweeps"
            residuals = np.abs(_horner(np.asarray(self.coeffs, dtype=complex), x))
        residuals[~np.isfinite(residuals)] = np.inf
        raise RootFindingError(message, zeros + list(x), [0.0] * r + list(residuals))


def _horner(coeffs_ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in coeffs_ascending[::-1]:
        acc = acc * x + c
    return acc


def _newton_polygon_starts(abs_c: np.ndarray) -> np.ndarray:
    """Aberth starting points from the Newton polygon of a polynomial with
    coefficient magnitudes ``abs_c`` (ascending, both ends nonzero)."""
    n = len(abs_c) - 1
    support = np.flatnonzero(abs_c)
    logs = np.log(np.where(abs_c > 0, abs_c, 1.0))  # read on the support only
    hull: list[int] = []
    for k in support:
        # drop hull points on or below the chord to k (upper hull only)
        while len(hull) >= 2 and ((logs[hull[-1]] - logs[hull[-2]]) * (k - hull[-2])
                                  <= (logs[k] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(int(k))
    starts = []
    for i, k in zip(hull, hull[1:]):
        radius = np.exp((logs[i] - logs[k]) / (k - i))
        angles = 2.0 * np.pi * (np.arange(k - i) / (k - i) + i / n) + 0.4
        starts.append(radius * np.exp(1j * angles))
    return np.concatenate(starts)


def evaluate_rows(table: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """Values at z of the polynomials whose ascending coefficients are the
    rows of ``table``, with each row's Horner magnitude sum_k |c_k| |z|^k.

    ``z`` is a point or an array of points; both results have shape
    (len(table), *z.shape), entry [j, ...] for row j at the point z[...].
    """
    z = np.asarray(z, dtype=complex)
    shape = table.T.shape + (1,) * z.ndim
    r = np.hypot(z.real, z.imag)   # abs() of a Python complex; np.abs(z) can differ by an ulp
    return _horner(table.T.reshape(shape), z), _horner(np.abs(table).T.reshape(shape), r)
