"""Truncated formal power series in one variable t, batched over points.

A series carries exactly ``order + 1`` complex coefficients per batch
entry, in one read-only array of shape ``(order + 1, *batch)``: entry
``[k, ...]`` multiplies ``t**k``.  Arithmetic works along axis 0 and
broadcasts over the batch axes as numpy does (a series without batch axes
pairs with every entry of a batched one).  It never reads or fabricates
coefficients beyond the stated order, and binary operations truncate to
the shorter operand.  Multiplication is plain O(N^2) convolution, which is
degree-exact: coefficients up to the result order depend only on input
coefficients up to that order.  The operations are those the
generating-series oracles need: the product of two series, the reciprocal
and the log of a series with unit constant term, and the table of the
powers of the reciprocal of a polynomial (``reciprocal_powers``).
"""

from __future__ import annotations

import operator
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
    return np.einsum("i...,i...->...", x, y)


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
        a, b = _pair(self.coeffs, other.coeffs)
        if a.ndim == 1:
            return PowerSeries(np.convolve(a, b)[: len(a)])
        out = np.empty((len(a),) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=complex)
        for k in range(len(a)):
            out[k] = _contract0(a[:k + 1], b[k::-1])
        return PowerSeries(out)

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        """Series b with self * b = 1 + O(t^{order+1}), by triangular recursion."""
        a = self.coeffs
        if np.any(a[0] == 0):
            raise ZeroDivisionError("series with zero constant term is not invertible")
        dot = operator.matmul if a.ndim == 1 else _contract0
        r = np.zeros(a.shape, dtype=complex)
        r[0] = 1.0 / a[0]
        for k in range(1, len(a)):
            r[k] = -dot(a[1:k + 1], r[k - 1::-1]) * r[0]
        return PowerSeries(r)

    def log1(self) -> "PowerSeries":
        """log b of a series a with unit constant term, in one triangular pass
        over (log a)' a = a' (Knuth, TAOCP vol. 2, 4.7): with c_k = k b_k,
        c_k a_0 = k a_k - sum_{0<i<k} c_i a_{k-i}."""
        a = self.coeffs
        if np.any(np.abs(a[0] - 1.0) > CONST_TERM_TOL):
            raise ValueError("log needs constant term 1")
        dot = operator.matmul if a.ndim == 1 else _contract0
        c = np.zeros(a.shape, dtype=complex)
        for k in range(1, len(a)):
            c[k] = (k * a[k] - dot(c[1:k], a[k - 1:0:-1])) / a[0]
        c[1:] /= _lift(np.arange(1, len(a)), a.ndim)
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
