"""Truncated formal power series in one variable t, batched over points.

A series carries exactly ``order + 1`` complex coefficients per batch
entry, in one read-only array of shape ``(order + 1, *batch)``: entry
``[k, ...]`` multiplies ``t**k``.  Arithmetic works along axis 0 and
broadcasts over the batch axes as numpy does (a series without batch axes
pairs with every entry of a batched one).  It never reads or fabricates
coefficients beyond the stated order, and binary operations truncate to
the shorter operand.  Every operation is degree-exact: coefficients up to
the result order depend only on input coefficients up to that order.
Products are direct O(N^2) convolutions, one ``np.convolve`` for a single
series and one contraction per coefficient for a batch.  The reciprocal
takes Newton doubling steps (Sieveking, Computing 10, 1972; Kung,
Numer. Math. 22, 1974), two such products per doubling of the order, and
the log one triangular pass of dot products.  The operations are those the
generating-series oracles need: the product of two series, the reciprocal
and the log of a series with unit constant term, and the table of the
powers of the reciprocal of a polynomial (``reciprocal_powers``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: absolute tolerance for the unit constant term that log1 requires
CONST_TERM_TOL = 1e-12


def _lift(c: np.ndarray, ndim: int) -> np.ndarray:
    """``c`` with unit axes inserted after axis 0 until it has ``ndim`` axes,
    so that batch shapes broadcast right-aligned."""
    return c.reshape(c.shape[:1] + (1,) * (ndim - c.ndim) + c.shape[1:])


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two coefficient arrays cut to their common order, with batch axes that broadcast."""
    n, ndim = min(len(a), len(b)), max(a.ndim, b.ndim)
    return _lift(a[:n], ndim), _lift(b[:n], ndim)


def _contract0(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x[i] * y[i] along axis 0, broadcast over the batch axes."""
    return (x * y).sum(0)


def _reversed(c: np.ndarray) -> np.ndarray:
    """``c`` reversed along axis 0, as a contiguous copy."""
    return np.ascontiguousarray(c[::-1])


def _product(x: np.ndarray, y: np.ndarray, lo: int = 0) -> np.ndarray:
    """Coefficients ``lo`` ... len(x) - 1 of the product of the series x and y,
    arrays with the same number of axes.  One ``np.convolve`` for single
    series; for batches one contraction per coefficient, over contiguous
    slices of y reversed."""
    y = y[:len(x)]
    if x.ndim == 1:
        if lo >= len(y) - 1:                  # only coefficients where y overlaps x in full
            return np.convolve(x, y, "valid")[lo - len(y) + 1:]
        return np.convolve(x, y)[lo:len(x)]
    n, backward = len(y), _reversed(y)                                 # y_j = backward[n-1-j]
    out = np.empty((len(x) - lo,) + np.broadcast_shapes(x.shape[1:], y.shape[1:]), dtype=complex)
    for k in range(lo, len(x)):
        i = max(0, k - n + 1)
        out[k - lo] = _contract0(x[i:k + 1], backward[n - 1 - k + i:])
    return out


@dataclass(frozen=True, eq=False)
class PowerSeries:
    coeffs: np.ndarray

    def __init__(self, coeffs):
        cs = np.array(coeffs, dtype=complex)
        if cs.ndim == 0 or len(cs) == 0:
            raise ValueError("a series needs at least its constant term")
        cs.flags.writeable = False
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries(_product(*_pair(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        """Series r with self * r = 1 + O(t^{order+1}), by Newton doubling
        (Sieveking, Computing 10, 1972; Kung, Numer. Math. 22, 1974): from r
        correct on [0, n), with a r = 1 + t^n e + O(t^{2n}),
        r[n:2n] = -(r e)[:n].  The steps double n from 1 whatever the order,
        and each reads coefficients below 2n only, so the result is
        degree-exact: a series cut after computing equals one cut before.
        Each step carries the rounding of r[:n] into all of r[n:2n], so the
        error can grow about linearly with the index, where a triangular
        recursion's grows more slowly."""
        a = self.coeffs
        if np.any(a[0] == 0):
            raise ZeroDivisionError("series with zero constant term is not invertible")
        r = np.empty(a.shape, dtype=complex)
        r[0] = 1.0 / a[0]
        n = 1
        while n < len(a):
            m = min(2 * n, len(a))
            e = _product(a[:m], r[:n], n)
            r[n:m] = -_product(e, r[:m - n])
            n = m
        return PowerSeries(r)

    def log1(self) -> "PowerSeries":
        """log b of a series a with unit constant term, in one triangular pass
        over (log a)' a = a' (Knuth, TAOCP vol. 2, 4.7): with c_k = k b_k,
        c_k a_0 = k a_k - sum_{0<i<k} c_i a_{k-i}, each sum one dot product
        with a contiguous slice of a reversed."""
        a = self.coeffs
        if np.any(np.abs(a[0] - 1.0) > CONST_TERM_TOL):
            raise ValueError("log needs constant term 1")
        n = len(a)
        ka, backward = _lift(np.arange(n), a.ndim) * a, _reversed(a)     # a_j = backward[n-1-j]
        dot = np.ndarray.dot if a.ndim == 1 else _contract0
        c = np.zeros(a.shape, dtype=complex)
        for k in range(1, n):
            c[k] = (ka[k] - dot(c[1:k], backward[n - k:n - 1])) / a[0]
        c[1:] /= _lift(np.arange(1, n), a.ndim)
        return PowerSeries(c)


def reciprocal_powers(d: np.ndarray, order: int) -> np.ndarray:
    """The Riordan array of r = 1/d (Shapiro et al., Discrete Appl. Math. 34,
    1991), entry [..., j, k] = [t^{j-k}] r^k for k <= j <= ``order`` and 0 above
    the diagonal, of the polynomials d = 1 + d_1 t + ... + d_L t^L given as
    d[..., i] = d_i.

    It is built in rows m = j - k of P[m, k] = [t^m] r^k: since d r^k = r^{k-1},
    P[m, k] - P[m, k-1] = -sum_{i=1}^{min(m, L)} d_i P[m-i, k], one banded
    product over the rows before m, then a running sum over k from
    P[m, 0] = 0.  O(order^2 L).
    """
    band = -d[..., None, 1:order + 1][..., ::-1]          # -d_L ... -d_1
    width = band.shape[-1]
    p = np.zeros(d.shape[:-1] + (order + 1, order + 1), dtype=complex)
    p[..., 0, :] = 1.0
    for m in range(1, order + 1):
        k = min(m, width)
        step = band[..., width - k:] @ p[..., m - k:m, 1:order - m + 1]
        np.cumsum(step[..., 0, :], axis=-1, out=p[..., m, 1:order - m + 1])
    j, k = np.tril_indices(order + 1)
    table = np.zeros_like(p)
    table[..., j, k] = p[..., j - k, k]
    return table
