"""Dense complex polynomial arithmetic.

Coefficients are stored in ascending order: ``coeffs[k]`` multiplies
``z**k``.  Every polynomial is kept in canonical trimmed form -- trailing
coefficients whose magnitude is at most ``TRIM_REL`` times the largest
coefficient magnitude are dropped, so arithmetic round-off cannot silently
inflate the degree.  ``trim=False`` keeps every coefficient, for rows whose
leading coefficient is known to be nonzero (a monic Faber polynomial).  The
zero polynomial has an empty coefficient tuple and ``degree == -1``.

All values are immutable and every operation is a pure function, so
polynomials can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: relative magnitude under which a trailing coefficient counts as round-off noise
TRIM_REL = 1e-13

#: Aberth-Ehrlich iteration limits
ROOT_MAX_ITER = 500
ROOT_STEP_TOL = 1e-13


class RootFindingError(ArithmeticError):
    """Simultaneous root iteration did not converge.

    Carries the best iterates found (``roots``) and their residuals
    ``|p(r)|`` so callers can inspect or retry.
    """

    def __init__(self, message: str, roots: Sequence[complex], residuals: Sequence[float]):
        super().__init__(message)
        self.roots = [complex(r) for r in roots]
        self.residuals = [float(r) for r in residuals]


def _trimmed(raw: Iterable[complex]) -> tuple[complex, ...]:
    coeffs = [complex(c) for c in raw]
    if not coeffs:
        return ()
    top = max(abs(c) for c in coeffs)
    if top == 0.0:
        return ()
    cut = TRIM_REL * top
    end = len(coeffs)
    while end > 0 and abs(coeffs[end - 1]) <= cut:
        end -= 1
    return tuple(coeffs[:end])


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense polynomial with complex coefficients, ascending by degree."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex] = (), trim: bool = True):
        object.__setattr__(self, "coeffs", _trimmed(coeffs) if trim else tuple(map(complex, coeffs)))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "ComplexPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ComplexPolynomial":
        return cls((1.0,))

    @classmethod
    def monomial(cls, k: int, c: complex = 1.0) -> "ComplexPolynomial":
        """c * z**k"""
        return cls((0.0,) * k + (complex(c),))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_magnitude(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def coefficient(self, k: int) -> complex:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0j

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
                return ComplexPolynomial.zero()
            prod = np.convolve(np.asarray(self.coeffs, dtype=complex),
                               np.asarray(other.coeffs, dtype=complex))
            return ComplexPolynomial(prod)
        return ComplexPolynomial(complex(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def compose_affine(self, a: complex, b: complex) -> "ComplexPolynomial":
        """The polynomial z -> p(a*z + b), expanded by Horner's scheme."""
        if self.is_zero():
            return ComplexPolynomial.zero()
        affine = ComplexPolynomial((b, a))
        acc = ComplexPolynomial((self.coeffs[-1],))
        for c in reversed(self.coeffs[:-1]):
            acc = acc * affine + ComplexPolynomial((c,))
        return acc

    # -- comparisons ----------------------------------------------------------

    def coefficient_deviation(self, other: "ComplexPolynomial") -> float:
        """max_k |p_k - q_k| normalized by 1 + the larger coefficient magnitude."""
        n = max(len(self.coeffs), len(other.coeffs))
        dev = max((abs(self.coefficient(k) - other.coefficient(k)) for k in range(n)),
                  default=0.0)
        return dev / (1.0 + max(self.max_magnitude, other.max_magnitude))

    def equal_within(self, other: "ComplexPolynomial", tol: float) -> bool:
        """Coefficientwise equality up to tol * (1 + max coefficient magnitude)."""
        if tol < 0:
            raise ValueError("tolerance must be nonnegative")
        return self.coefficient_deviation(other) <= tol

    # -- root finding ---------------------------------------------------------

    def roots(self) -> list[complex]:
        """All degree-many roots with multiplicity, by Aberth-Ehrlich iteration.

        Initial guesses sit on a circle of radius 1 + max|c_k / c_deg| (the
        Cauchy bound).  An iterate is accepted once its correction step
        drops below ``ROOT_STEP_TOL`` (relative to its magnitude) or its
        residual reaches the Horner evaluation noise floor, beyond which
        float64 cannot distinguish it from a root.  After ``ROOT_MAX_ITER``
        sweeps a :class:`RootFindingError` carrying the best iterates is
        raised.
        """
        n = self.degree
        if n < 1:
            raise ValueError("root finding needs degree >= 1")
        c = np.asarray(self.coeffs, dtype=complex)
        c = c / c[-1]
        if n == 1:
            return [complex(-c[0])]
        dc = c[1:] * np.arange(1, n + 1)
        abs_c = np.abs(c)
        eps = np.finfo(float).eps
        radius = 1.0 + float(np.max(abs_c[:-1]))
        angles = 2.0 * np.pi * np.arange(n) / n + 0.4
        x = radius * np.exp(1j * angles)
        with np.errstate(all="ignore"):
            for _ in range(ROOT_MAX_ITER):
                pv = _horner(c, x)
                dv = _horner(dc, x)
                diff = x[:, None] - x[None, :]
                np.fill_diagonal(diff, np.inf)
                if np.any(diff == 0):
                    # split coinciding iterates deterministically and retry
                    x = x + (1e-12 + 1e-12j) * (1.0 + np.abs(x)) * (np.arange(n) + 1)
                    continue
                noise_floor = 4.0 * eps * _horner(abs_c, np.abs(x)).real
                settled = np.abs(pv) <= noise_floor
                newton = np.where(settled, 0j, pv / np.where(dv == 0, 1.0, dv))
                denom = 1.0 - newton * (1.0 / diff).sum(axis=1)
                step = np.where(settled, 0j, newton / np.where(denom == 0, 1.0, denom))
                x = x - step
                if bool(np.all(settled | (np.abs(step) < ROOT_STEP_TOL * (1.0 + np.abs(x))))):
                    return [complex(r) for r in x]
        residuals = np.abs(_horner(np.asarray(self.coeffs, dtype=complex), x))
        raise RootFindingError(
            f"Aberth iteration did not converge in {ROOT_MAX_ITER} sweeps",
            x, residuals)

    # -- misc -----------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c:g})z^{k}" if k else f"({c:g})")
        return " + ".join(parts)


def _horner(coeffs_ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for c in coeffs_ascending[::-1]:
        acc = acc * x + c
    return acc
