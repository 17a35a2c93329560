"""Truncated formal power series in one variable t, batched over points.

A series carries exactly ``order + 1`` complex coefficients per batch
entry, in one read-only array of shape ``(order + 1, *batch)``: entry
``[k, ...]`` multiplies ``t**k``.  Arithmetic works along axis 0 and
broadcasts over the batch axes as numpy does (a series without batch axes
pairs with every entry of a batched one).  It never reads or fabricates
coefficients beyond the stated order, and binary operations truncate to
the shorter operand.  Multiplication is plain O(N^2) convolution, which is
degree-exact: coefficients up to the result order depend only on input
coefficients up to that order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

#: absolute tolerance for constant-term preconditions of log/exp
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


def _dot0(ndim: int):
    """The axis-0 contraction for coefficient arrays of ``ndim`` axes: the
    ``@`` product without batch axes, an einsum with them."""
    return operator.matmul if ndim == 1 else _contract0


@dataclass(frozen=True, eq=False)
class PowerSeries:
    coeffs: np.ndarray

    def __init__(self, coeffs):
        cs = np.array(coeffs, dtype=complex)
        if cs.ndim == 0 or len(cs) == 0:
            raise ValueError("a series needs at least its constant term")
        cs.flags.writeable = False
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        value = np.asarray(value, dtype=complex)
        cs = np.zeros((order + 1,) + value.shape, dtype=complex)
        cs[0] = value
        return cls(cs)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.constant(1.0, order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond stated order {self.order}")
        return self.coeffs[k]

    def truncated(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError("cannot extend a series beyond its stated order")
        return PowerSeries(self.coeffs[: order + 1])

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            other = PowerSeries.constant(other, self.order)
        a, b = _pair(self.coeffs, other.coeffs)
        return PowerSeries(a + b)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            other = np.asarray(other, dtype=complex)
            return PowerSeries(_lift(self.coeffs, other.ndim + 1) * other)
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
        dot = _dot0(a.ndim)
        r = np.zeros(a.shape, dtype=complex)
        r[0] = 1.0 / a[0]
        for k in range(1, len(a)):
            r[k] = -dot(a[1:k + 1], r[k - 1::-1]) * r[0]
        return PowerSeries(r)

    # -- calculus --------------------------------------------------------------

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries(np.zeros_like(self.coeffs))
        k = _lift(np.arange(1, self.order + 1), self.coeffs.ndim)
        return PowerSeries(k * self.coeffs[1:])

    def integrate(self) -> "PowerSeries":
        c = self.coeffs
        out = np.zeros((len(c) + 1,) + c.shape[1:], dtype=complex)
        out[1:] = c / _lift(np.arange(1, len(c) + 1), c.ndim)
        return PowerSeries(out)

    def log1(self) -> "PowerSeries":
        """log of a series with unit constant term, via (log a)' = a'/a."""
        if np.any(np.abs(self.coeffs[0] - 1.0) > CONST_TERM_TOL):
            raise ValueError("log needs constant term 1")
        if self.order == 0:
            return PowerSeries(np.zeros_like(self.coeffs))
        return (self.derivative() * self.reciprocal()).integrate()

    def exp(self) -> "PowerSeries":
        """Exponential of a series with zero constant term, via (exp a)' = a' exp a."""
        if np.any(np.abs(self.coeffs[0]) > CONST_TERM_TOL):
            raise ValueError("exp needs constant term 0")
        w = _lift(np.arange(len(self.coeffs)), self.coeffs.ndim) * self.coeffs
        dot = _dot0(w.ndim)
        e = np.zeros(w.shape, dtype=complex)
        e[0] = 1.0
        for k in range(1, len(w)):
            e[k] = dot(w[1:k + 1], e[k - 1::-1]) / k
        return PowerSeries(e)

    def __pow__(self, j: int) -> "PowerSeries":
        """Integer power by repeated squaring; negative j goes through reciprocal."""
        if not isinstance(j, int):
            raise TypeError("series powers must be integers")
        if j < 0:
            return self.reciprocal() ** (-j)
        result = PowerSeries.one(self.order)
        base = self
        while j:
            if j & 1:
                result = result * base
            j >>= 1
            if j:
                base = base * base
        return result

    # -- comparison ------------------------------------------------------------

    def deviation(self, other: "PowerSeries") -> float:
        """max |a_k - b_k| over the shared order and every batch entry."""
        a, b = _pair(self.coeffs, other.coeffs)
        return float(np.max(np.abs(a - b)))
