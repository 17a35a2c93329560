"""Dense complex polynomials: Aberth root finding, and Horner evaluation of
coefficient tables.

A Faber system is a coefficient table (see :mod:`faberpoly.faber`);
``evaluate_rows`` evaluates all its rows at once.  The private kernel
``_aberth`` finds the roots of many rows in one batched Aberth iteration
(the ``rays`` suite hands it a whole table), and
:meth:`ComplexPolynomial.roots` is a batch of one row.  Each block of rows
takes its starting points from the rows' Newton polygons in one array
pass (``_newton_polygon_starts``): a support point (k, log|c_k|) is a
vertex of the upper hull when its least slope from the left exceeds its
greatest slope to the right, and every hull edge places its starts on one
circle, with temporaries of (rows, n, n) reals, no larger than the block's
buffer of iterate differences.

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
    inspect or retry.  ``row`` is the failing row's position in the batch
    given to ``_aberth``.
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

        This is a batch of one row of the kernel ``_aberth``.
        """
        if self.degree < 1:
            raise ValueError("root finding needs degree >= 1")
        return _aberth([np.asarray(self.coeffs, dtype=complex)])[0].tolist()


#: most iterate pairs, rows times the square of their padded degree, that one
#: block of ``_aberth`` iterates at once; a larger row forms a block alone
_PAIR_BUDGET = 1 << 12


def _aberth(rows: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Roots of each ascending coefficient row (last entry nonzero, degree
    >= 1), by the rules of :meth:`ComplexPolynomial.roots`.

    Rows are iterated together in blocks, in ascending order, each under
    ``_PAIR_BUDGET``.  Aberth's iterates do not interact across polynomials,
    so every row follows its own rules and its own sweep count.  After the
    first block in which a row fails, a :class:`RootFindingError` names the
    lowest failing row by its position ``row`` in ``rows``.
    """
    found: list[np.ndarray | None] = []
    block: list[tuple[int, np.ndarray, np.ndarray]] = []   # (position, row, monic part)
    width = 0
    for i, raw in enumerate(rows):
        row = np.asarray(raw, dtype=complex)
        r = int(np.flatnonzero(row)[0])
        c = row[r:] / row[-1]
        n = len(c) - 1
        if n <= 1:
            found.append(np.concatenate((np.zeros(r, dtype=complex), -c[:n])))
            continue
        found.append(None)
        if block and (len(block) + 1) * max(width, n) ** 2 > _PAIR_BUDGET:
            _solve_block(block, found)
            block, width = [], 0
        block.append((i, row, c))
        width = max(width, n)
    if block:
        _solve_block(block, found)
    return found


def _solve_block(block: list[tuple[int, np.ndarray, np.ndarray]], found: list) -> None:
    """Iterate the rows of one block at once and store each row's roots in
    ``found``.  Rows are padded to the widest; a padded iterate sits at 0
    and counts as settled.  Its pairs and each iterate's pair with itself
    read +inf in the differences, so they drop out of the Aberth sums.
    Finished rows leave the working arrays; the differences are written
    into one buffer allocated per block."""
    ns = np.array([len(c) - 1 for _, _, c in block])
    n = int(ns.max())
    # row k holds c_k, the z^k coefficient of p', and |c_k|, one row per
    # Horner step over the stacked points (x, x, |x|) of each polynomial
    stacked = np.zeros((n + 1, 3, len(block), 1), dtype=complex)
    abs_c = np.zeros((len(block), n + 1))
    for p, (_, _, c) in enumerate(block):
        k = len(c) - 1
        abs_c[p, :k + 1] = np.abs(c)
        stacked[:k + 1, :, p, 0] = np.stack((c, np.append(c[1:] * np.arange(1, k + 1), 0.0),
                                             abs_c[p, :k + 1]), axis=-1)
    x = _newton_polygon_starts(abs_c)
    padded = np.arange(n) >= ns[:, None] if ns.min() < n else None
    blocked = np.eye(n, dtype=bool)[None]
    if padded is not None:
        blocked = blocked | padded[:, :, None] | padded[:, None, :]
    buffer = np.empty((len(block), n, n), dtype=complex)
    live = np.arange(len(block))          # block position of each working row
    failed: dict[int, tuple[str, np.ndarray]] = {}
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        for sweep in range(ROOT_MAX_ITER):
            pv, dv, magnitude = _horner(stacked, np.array((x, x, np.abs(x))))
            diff = np.subtract(x[:, :, None], x[:, None, :], out=buffer[:len(x)])
            np.copyto(diff, np.inf, where=blocked)
            coincide = diff == 0
            split = coincide.any(axis=(1, 2)) if coincide.any() else None
            noise_floor = 4.0 * eps * magnitude.real
            settled = np.isfinite(noise_floor) & (np.abs(pv) <= noise_floor)
            if padded is not None:
                settled |= padded
            newton = np.where(settled, 0j, pv / np.where(dv == 0, 1.0, dv))
            denom = 1.0 - newton * np.divide(1.0, diff, out=diff).sum(axis=-1)
            step = np.where(settled, 0j, newton / np.where(denom == 0, 1.0, denom))
            x_next = x - step
            if split is not None:
                # split coinciding iterates deterministically and retry
                xs = x[split]
                x_next[split] = xs + (1e-12 + 1e-12j) * (1.0 + np.abs(xs)) * (np.arange(n) + 1)
            finite = np.isfinite(x_next)
            leave = None
            if not finite.all():
                leave = ~finite.all(axis=-1)
                message = f"Aberth iteration left the finite range in sweep {sweep + 1}"
                for p in np.flatnonzero(leave):
                    failed[int(live[p])] = (message, x[p])
            x = x_next
            # a row that left the finite range is never done: its step is not finite
            done = (settled | (np.abs(step) < ROOT_STEP_TOL * (1.0 + np.abs(x)))).all(axis=-1)
            if split is not None:
                done &= ~split
            if not done.any() and leave is None:
                continue
            for p in np.flatnonzero(done):
                i, raw, c = block[live[p]]
                found[i] = np.concatenate((np.zeros(len(raw) - len(c), dtype=complex),
                                           x[p, :len(c) - 1]))
            keep = ~done if leave is None else ~(done | leave)
            if failed:
                keep &= live < min(failed)   # rows past a failure no longer count
            if not keep.any():
                break
            x, stacked, live = x[keep], stacked[:, :, keep], live[keep]
            if padded is not None:
                padded, blocked = padded[keep], blocked[keep]
        else:
            message = f"Aberth iteration did not converge in {ROOT_MAX_ITER} sweeps"
            for p, q in enumerate(live):
                failed.setdefault(int(q), (message, x[p]))
        if not failed:
            return
        q = min(failed)
        message, last = failed[q]
        i, raw, c = block[q]
        last = last[:len(c) - 1]
        residuals = np.abs(_horner(raw, last))
    residuals[~np.isfinite(residuals)] = np.inf
    r = len(raw) - len(c)
    raise RootFindingError(message, [0j] * r + list(last), [0.0] * r + list(residuals), row=i)


def _horner(coeffs_ascending: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x) * x + coeffs_ascending[-1]   # the result's shape and dtype
    for c in coeffs_ascending[-2::-1]:
        acc *= x
        acc += c
    return acc


def _newton_polygon_starts(abs_c: np.ndarray) -> np.ndarray:
    """Aberth starting points of a block of polynomials from their Newton
    polygons, one array pass for the block.

    Row p of ``abs_c`` holds the coefficient magnitudes of polynomial p,
    ascending, with its constant term nonzero and zeros past its degree d_p
    (its last nonzero entry); row p of the result holds its d_p starts, then
    zeros.  A support point (k, log|c_k|) is a vertex of the upper convex
    hull when its least slope from a support point on its left exceeds its
    greatest slope to one on its right (so collinear points are not
    vertices), and each hull edge from vertex i to vertex k places the
    starts i .. k - 1 on the circle of radius (|c_i| / |c_k|)**(1/(k-i)).
    The slopes are (rows, n, n) reals for the widest degree n.
    """
    rows, width = abs_c.shape
    n = width - 1
    support = abs_c > 0
    logs = np.log(np.where(support, abs_c, 1.0))    # read on the support only
    degree = n - np.argmax(support[:, ::-1], axis=1)
    index = np.arange(width)
    run = index[1:] - index[:-1, None]              # run[i, l - 1] = l - i
    outside = support[:, :-1, None] & support[:, None, 1:]
    outside &= run > 0
    np.logical_not(outside, out=outside)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.subtract(logs[:, None, 1:], logs[:, :-1, None])
        slope /= run                                # from point i to point l, where i < l
    left = np.full((rows, width), np.inf)
    right = np.full((rows, width), -np.inf)
    np.copyto(slope, np.inf, where=outside)
    left[:, 1:] = slope.min(axis=1)
    np.copyto(slope, -np.inf, where=outside)
    right[:, :-1] = slope.max(axis=2)
    del slope, outside
    vertex = support & (left > right)
    # start t lies on the edge from the last vertex i <= t to the first k > t
    i = np.maximum.accumulate(np.where(vertex, index, 0), axis=1)[:, :n]
    k = np.minimum.accumulate(np.where(vertex, index, n)[:, ::-1], axis=1)[:, -2::-1]
    k = np.where(index[:n] < degree[:, None], k, n)  # past the degree: any edge, zeroed below
    span = k - i
    radius = np.exp((np.take_along_axis(logs, i, 1) - np.take_along_axis(logs, k, 1)) / span)
    angles = 2.0 * np.pi * ((index[:n] - i) / span + i / degree[:, None]) + 0.4
    return np.where(index[:n] < degree[:, None], radius * np.exp(1j * angles), 0j)


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
    r = np.hypot(z.real, z.imag)   # abs() of a Python complex; np.abs(z) can differ by an ulp
    return (_horner(np.moveaxis(table, -1, 0)[points], z),
            _horner(np.moveaxis(np.abs(table), -1, 0)[points], r))
