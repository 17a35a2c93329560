"""Dense complex polynomials: roots as eigenvalues, and Horner evaluation
of coefficient tables.

A Faber system is a coefficient table (see :mod:`faberpoly.faber`);
``evaluate_rows`` evaluates all its rows at once.  ``faber_roots`` finds
the roots of F_j as the eigenvalues of the leading j x j block of the map's
lower Hessenberg matrix H (``_hessenberg``), the coefficient recurrence in
matrix form, whose eigenvalues are backward stable in the map's
coefficients; for a map of rotational order s > 1, such as the
hypocycloid's m + 1, it solves the Z_s-reduced blocks of H^s instead and
takes each root one Newton step.  The ``roots`` command and the ``rays``
suite both use it.
:meth:`ComplexPolynomial.roots` finds the roots of monomial coefficients,
exponentially ill-conditioned in the degree, as the eigenvalues of a
companion matrix (Edelman and Murakami 1995), each taken one Newton step
further.  Both solve through ``_eigenvalues``, and one rule,
``_root_residuals``, accepts a root of a polynomial of degree n: its
residual within (64 + 2n) eps of its Horner scale 1 + sum_k |c_k| |x|^k.

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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .faber import _row_values


class RootFindingError(ArithmeticError):
    """The eigenvalue solver failed, or the roots cannot be judged in float64.

    Carries the finite roots found (``roots``, none where the solver
    failed) and their residuals ``|p(r)|``, ``inf`` where that overflows and
    never NaN, so callers can inspect or retry.  ``row`` is the index j of
    the failing F_j in ``faber_roots``, and None elsewhere.
    """

    def __init__(self, message: str, roots: Sequence[complex], residuals: Sequence[float],
                 row: int | None = None):
        super().__init__(message)
        self.roots = [complex(r) for r in roots]
        self.residuals = [float(r) for r in residuals]
        self.row = row


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
        """All degree-many roots with multiplicity.

        A factor z**r is split off first and gives r exact zeros, first.  The
        other roots are the eigenvalues of the companion matrix of the monic
        remainder q (``_eigenvalues``), each taken one Newton step x - q(x) /
        q'(x) further: their backward error, small in the matrix, can exceed
        the rule below in q's coefficients where q is ill-conditioned.  An
        eigenvalue stays as it is where q'(x) = 0 or the step is not finite.
        A root whose residual
        exceeds (64 + 2n) eps of its Horner scale (``_root_residuals``), or an
        eigenvalue solver that fails, raises a :class:`RootFindingError`.
        The rule bounds the backward error only: an accepted root can lie far
        from the exact one where q is ill-conditioned (0.38 for the Faber row
        F_73 of the hypocycloid m = 1).  For the roots of a Faber row use
        :func:`faber_roots`, the eigenvalues of the map's Hessenberg matrix.
        """
        if self.degree < 1:
            raise ValueError("root finding needs degree >= 1")
        row = np.asarray(self.coeffs, dtype=complex)
        r = int(np.flatnonzero(row)[0])
        c = row[r:] / row[-1]
        n = len(c) - 1
        where = f"roots of a degree-{self.degree} polynomial"
        x = np.zeros(self.degree, dtype=complex)
        if n:
            companion = np.eye(n, k=-1, dtype=complex)
            companion[:, -1] = -c[:-1]
            eigenvalues = _eigenvalues(companion, where, None)
            with np.errstate(all="ignore"):
                moved = eigenvalues - (_horner(c, eigenvalues)
                                       / _horner(c[1:] * np.arange(1, n + 1), eigenvalues))
            x[r:] = np.where(np.isfinite(moved), moved, eigenvalues)
        residuals, within = _root_residuals(row, x, self.degree)
        if not within.all():
            raise RootFindingError(f"{where}: a residual beyond (64 + 2n) eps of its Horner scale",
                                   x, residuals)
        return x.tolist()


def _eigenvalues(matrix: np.ndarray, where: str, row: int | None) -> np.ndarray:
    """The eigenvalues of ``matrix``, the roots of its characteristic
    polynomial.  An eigenvalue solver that does not converge, or an
    eigenvalue that is not finite, raises :class:`RootFindingError`
    "{where}: ..." carrying ``row``."""
    try:
        x = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(f"{where}: {exc}", [], [], row=row) from exc
    if not np.isfinite(x).all():
        raise RootFindingError(f"{where}: an eigenvalue is not finite in float64", [], [],
                               row=row)
    return x


def _root_residuals(coeffs: np.ndarray, x: np.ndarray, degree) -> tuple[np.ndarray, np.ndarray]:
    """Residuals |p(x)| at the points x of the polynomials whose ascending
    coefficients run along the first axis of ``coeffs``, inf where float64
    cannot hold them, and whether each lies within (64 + 2n) eps of its
    Horner scale 1 + sum_k |c_k| |x|^k, n the ``degree``: the rule that
    accepts a root.  64 eps allows a backward error, and 2n eps float
    Horner's own rounding."""
    with np.errstate(all="ignore"):
        values = np.abs(_horner(coeffs, x))
        scale = 1.0 + _horner(np.abs(coeffs), np.abs(x))
    values[np.isnan(values)] = np.inf
    return values, values <= (64 + 2 * degree) * np.finfo(float).eps * scale


def _hessenberg(a, n: int) -> np.ndarray:
    """The n x n lower Hessenberg matrix H of the map with coefficient array
    ``a`` (zero beyond its last entry), whose leading j x j block has
    characteristic polynomial F_j: H[j, j+1] = 1, H[j, i] = a_{j-i} for
    1 <= i <= j and H[j, 0] = (j+1) a_j, which is the coefficient recurrence
    of :mod:`faberpoly.faber` written as z (F_0, ..., F_{n-1}) = H (F_0, ...,
    F_{n-1}) + F_n e_{n-1}.  For m = 1 it is the colleague matrix (Good
    1961).  Complex even for a real map, so that one LAPACK solver, zgeev,
    serves every map whose rotational order is 1; ``faber_roots`` takes the
    real part of a real map's H for its reduced blocks."""
    coeffs = np.zeros(n, dtype=complex)
    given = np.asarray(a, dtype=complex)[:n]
    coeffs[:len(given)] = given
    h = np.zeros((n, n), dtype=complex)
    flat = h.reshape(-1)
    for k in np.flatnonzero(coeffs).tolist():
        flat[k * n::n + 1] = coeffs[k]                   # H[i + k, i] = a_k
    h[:, 0] = np.arange(1, n + 1) * coeffs
    flat[1::n + 1] = 1.0
    return h


def _rotational_order(a) -> int:
    """The map's rotational order s = gcd{k + 1 : a_k != 0}: Psi(omega w) =
    omega Psi(w) for omega^s = 1, so F_j = z^{j mod s} G(z^s).  It is 1 where
    a_0 != 0, and for the zero map; zeros past the last entry change nothing."""
    return math.gcd(*(np.flatnonzero(a) + 1).tolist()) or 1


def faber_roots(a, table: np.ndarray, indices: Sequence[int]) -> list[np.ndarray]:
    """Roots of F_j for each j in ``indices`` (all >= 1), with multiplicity,
    as eigenvalues of blocks of the map's ``_hessenberg`` matrix H, one
    matrix for the whole range.

    ``a`` is the map's coefficient array and ``table`` its Faber table (rows
    j in ``indices`` at least).  Eigenvalues are backward stable in the
    entries of H, which the roots of the monomial coefficients are not.  A
    map of rotational order s = 1 (``_rotational_order``) solves the leading
    j x j block of H.  A row with r leading zero coefficients has its r
    smallest eigenvalues set to exactly 0, first, then the others in
    LAPACK's order.  A map of order s > 1 solves the small blocks of
    ``_class_eigenvalues`` instead: row j holds its r exact zeros, then
    mu^{1/s} omega^k, k = 0..s-1, omega = e^{2 pi i/s}, for each other
    eigenvalue mu of its class block, each root taken one Newton step x -
    F_j(x) / F_j'(x) on the map's value recurrence (``_row_values``): an
    error d mu moves a small root by about d mu / (s x^{s-1}), beyond the
    residual rule, which the step mends.  A root stays as it is where the
    step is not finite.  An eigenvalue solver that does not converge, or an
    eigenvalue that is not finite, raises :class:`RootFindingError` naming
    F_j (``row`` is j), by ``_eigenvalues``.
    """
    s = _rotational_order(a)
    if s > 1:
        return _reduced_roots(a, table, indices, s)
    h = _hessenberg(a, max(indices))
    return [_zeros_first(_eigenvalues(h[:j, :j], f"roots of F_{j}", j), _leading_zeros(table, j))
            for j in indices]


def _leading_zeros(table: np.ndarray, j: int) -> int:
    """The number of leading zero coefficients of row j of ``table``."""
    return int(np.flatnonzero(table[j, :j + 1])[0])


def _zeros_first(x: np.ndarray, r: int) -> np.ndarray:
    """The roots x with their r smallest set to exactly 0, first, then the
    others in their order."""
    if not r:
        return x
    return np.concatenate((np.zeros(r, dtype=complex), x[np.sort(np.argsort(np.abs(x))[r:])]))


def _class_eigenvalues(h: np.ndarray, s: int, rows: Sequence[int]):
    """For each q >= 1: the rows j of the ascending ``rows`` with j // s = q,
    and the q eigenvalues mu of each one's class block, in one stacked solve.

    H (``_hessenberg``) steps an index by +1, or by -k for a_k != 0, and k + 1
    is a multiple of s, so every step moves the class of an index mod s by
    one, and P = H^s, formed once (real where H is), keeps each class.  An
    index of class r = j mod s below j is at most j - s, and a path of s
    steps from it never passes j - 1, so the leading q x q block of class r
    of P is that of H_j^s, H_j the leading j x j block; its eigenvalues are
    the roots of G in F_j = z^r G(z^s).  Where a stacked solve fails, each of
    its blocks is solved alone, so that the lowest failing row names the
    ``RootFindingError`` (``_eigenvalues``).
    """
    power = np.linalg.matrix_power(h if h.imag.any() else h.real, s)
    size = len(h) // s
    classes = np.stack([power[r::s, r::s][:size, :size] for r in range(s)])
    for q, group in itertools.groupby(rows, lambda j: j // s):
        if q:
            group = list(group)
            first = group[0] % s            # the classes of consecutive rows are one slice
            pick = (slice(first, first + len(group)) if group[-1] - group[0] < len(group)
                    else np.remainder(group, s))
            blocks = classes[pick, :q, :q]
            try:
                mu = _eigenvalues(blocks, "the class blocks", None)
            except RootFindingError:
                mu = np.array([_eigenvalues(block, f"roots of F_{j}", j)
                               for block, j in zip(blocks, group)])
            yield group, mu


def _reduced_roots(a, table: np.ndarray, indices: Sequence[int], s: int) -> list[np.ndarray]:
    """``faber_roots`` of a map of rotational order s > 1."""
    rows = sorted(set(indices))
    at = {j: i for i, j in enumerate(rows)}
    spokes = np.exp(2j * math.pi * np.arange(s) / s)
    roots = np.zeros((len(rows), rows[-1]), dtype=complex)
    for group, mu in _class_eigenvalues(_hessenberg(a, rows[-1]), s, rows):
        found = (np.power(mu.astype(complex), 1.0 / s)[..., None] * spokes).reshape(len(group), -1)
        for j, x in zip(group, found):
            roots[at[j], j - len(x):j] = x
    # j mod s exact zeros, and s more for each zero of G: as many as the row's leading zeros
    for i in np.flatnonzero(table[rows, np.remainder(rows, s)] == 0).tolist():
        j = rows[i]
        roots[i, :j] = _zeros_first(roots[i, :j], _leading_zeros(table, j))
    values, slopes = _row_values(a, roots, rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.divide(values, slopes, out=np.zeros_like(roots), where=roots != 0)
    roots = np.where(np.isfinite(step), roots - step, roots)
    return [roots[at[j], :j] for j in indices]


def _horner(coeffs_ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x) * x + coeffs_ascending[-1]   # the result's shape and dtype
    for c in coeffs_ascending[-2::-1]:
        acc *= x
        acc += c
    return acc


def evaluate_rows(table: np.ndarray, z) -> tuple[np.ndarray, np.ndarray]:
    """Values at z of the polynomials whose ascending coefficients are the
    rows of ``table``, with each row's Horner magnitude sum_k |c_k| |z|^k.

    ``z`` is a point or an array of points; both results have shape
    (len(table), *z.shape), entry [j, ...] for row j at the point z[...].
    A table that is not 2-D, such as a stack of tables, is a ValueError.
    """
    if np.ndim(table) != 2:
        raise ValueError(f"a table is 2-D, one polynomial per row, got shape {np.shape(table)}")
    z = np.asarray(z, dtype=complex)
    points = (...,) + (None,) * z.ndim             # coefficient axis first, then room for z
    return (_horner(np.moveaxis(table, -1, 0)[points], z),
            _horner(np.moveaxis(np.abs(table), -1, 0)[points], np.abs(z)))
