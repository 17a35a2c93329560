import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberpoly.series import PowerSeries, reciprocal_powers


def series(*coeffs):
    return PowerSeries(coeffs)


class TestMul:
    def test_difference_of_squares(self):
        prod = series(1, 1, 0) * series(1, -1, 0)
        assert tuple(prod.coeffs) == (1 + 0j, 0j, -1 + 0j)

    def test_multiplicative_identity(self):
        a = series(2, -1j, 0.5, 3)
        assert tuple((a * series(1, 0, 0, 0)).coeffs) == tuple(a.coeffs)

    def test_truncates_to_shorter_operand(self):
        assert (series(1, 1, 1) * series(1, 1)).order == 1

    def test_geometric_times_values_gives_partial_sums(self):
        # (sum lam^k t^k)(sum f_k t^k) has coefficient j equal to
        # sum_{k<=j} lam^{j-k} f_k: the kernel-polynomial combination
        lam = 0.6 - 0.2j
        f = [1.0, 2.0 + 1j, -0.5, 3j, 0.25]
        geo = PowerSeries([lam ** k for k in range(5)])
        prod = geo * PowerSeries(f)
        for j in range(5):
            expected = sum(lam ** (j - k) * f[k] for k in range(j + 1))
            assert abs(prod.coeffs[j] - expected) < 1e-14


class TestReciprocal:
    def test_geometric_series(self):
        rec = series(1, -1, 0, 0, 0).reciprocal()
        assert tuple(rec.coeffs) == (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)

    def test_involution(self):
        rng = np.random.default_rng(0)
        a = PowerSeries([1.5] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                 for _ in range(20)])
        assert np.max(np.abs(a.reciprocal().reciprocal().coeffs - a.coeffs)) < 1e-12

    def test_kernel_at_origin_is_one(self):
        # 1 - z t e^{-lam t} with z = 0 is the constant 1
        lam = 0.7
        t_exp = PowerSeries([0, 1]) * PowerSeries([(-lam) ** k / math.factorial(k)
                                                   for k in range(2)])
        kernel = PowerSeries(series(1, 0).coeffs - 0.0 * t_exp.coeffs)
        assert tuple(kernel.reciprocal().coeffs) == (1 + 0j, 0j)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series(0, 1).reciprocal()


class TestReciprocalPowers:
    """The Riordan array of r = 1/d: entry [j, k] is [t^{j-k}] r^k, 0 above the diagonal."""

    D = np.array([1.0, 0.3 - 0.2j, -0.25, 0.1j])

    def test_columns_are_powers_of_the_reciprocal(self):
        order = 12
        table = reciprocal_powers(self.D, order)
        d = np.zeros(order + 1, dtype=complex)
        d[:len(self.D)] = self.D
        power, r = PowerSeries(np.eye(1, order + 1)[0]), PowerSeries(d).reciprocal()
        for k in range(order + 1):
            assert np.abs(table[k:, k] - power.coeffs[:order + 1 - k]).max() < 1e-14
            assert not table[:k, k].any() and table[k, k] == 1.0
            power = power * r

    def test_a_stack_gives_each_series_its_table(self):
        stack = np.array([self.D, [1.0, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])
        tables = reciprocal_powers(stack, 9)
        assert tables.shape == (3, 10, 10)
        for d, table in zip(stack, tables):
            assert np.abs(table - reciprocal_powers(d, 9)).max() < 1e-15
        assert np.array_equal(tables[2], np.eye(10))           # r = 1: every power is 1


class TestLogExp:
    def test_log_of_one(self):
        assert tuple(series(1, 0, 0, 0, 0).log1().coeffs) == (0j,) * 5

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            series(2, 1).log1()

    def test_mercator_series(self):
        # log(1 + c t) = sum (-1)^{k+1} c^k t^k / k
        c = -0.35 + 0.2j
        log = PowerSeries([1, c] + [0] * 18).log1()
        for k in range(1, 19):
            expected = -((-c) ** k) / k
            assert abs(log.coeffs[k] - expected) < 1e-13


class TestBatches:
    """A batched series computes entry by entry what unbatched ones do."""

    def setup_method(self):
        rng = np.random.default_rng(37)
        c = rng.uniform(-0.5, 0.5, (9, 3, 4)) + 1j * rng.uniform(-0.5, 0.5, (9, 3, 4))
        c[0] = 1.0
        self.batched = PowerSeries(c)
        self.entry = {(i, j): PowerSeries(c[:, i, j]) for i in range(3) for j in range(4)}

    def assert_entries(self, batched, expected):
        assert batched.coeffs.shape[1:] == (3, 4)
        for (i, j), s in self.entry.items():
            want = expected(s, i, j).coeffs
            bound = 64 * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
            assert np.max(np.abs(batched.coeffs[:, i, j] - want)) <= bound

    def test_reciprocal_and_log(self):
        self.assert_entries(self.batched.reciprocal(), lambda s, i, j: s.reciprocal())
        self.assert_entries(self.batched.log1(), lambda s, i, j: s.log1())

    def test_products_broadcast_batch_axes(self):
        plain = series(1, 2j, -0.5, 0.25, 0, 1, 0, 0, 3)
        first_row = PowerSeries(self.batched.coeffs[:, :1, :])      # batch shape (1, 4)
        self.assert_entries(self.batched * self.batched, lambda s, i, j: s * s)
        self.assert_entries(plain * self.batched, lambda s, i, j: plain * s)
        self.assert_entries(self.batched * self.batched * self.batched,
                            lambda s, i, j: s * s * s)
        self.assert_entries(first_row * self.batched,
                            lambda s, i, j: self.entry[0, j] * s)

    def test_product_with_a_non_series_is_refused(self):
        z = np.arange(4) * 0.5j
        for product in (lambda s: s * z, lambda s: z * s, lambda s: s * 2.0, lambda s: 2.0 * s):
            with pytest.raises(TypeError):
                product(series(1, 1, 1))


class TestBookkeeping:
    def test_order_counts_coefficients(self):
        assert series(1, 2, 3).order == 2


@pytest.mark.parametrize("batch", [(), (2, 3)], ids=["unbatched", "batched"])
def test_truncating_first_or_last_is_bit_identical(batch):
    # coefficient k of reciprocal and log1 reads coefficients 0..k only, so a
    # series computed to order 2N + 4 and cut to N is the one computed at N
    rng = np.random.default_rng(47)
    n = 30
    for _ in range(20):
        shape = (2 * n + 5,) + batch
        coeffs = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        coeffs[0] = 1.0
        wide = PowerSeries(coeffs)
        for op in (PowerSeries.reciprocal, PowerSeries.log1):
            assert np.array_equal(op(wide).coeffs[:n + 1],
                                  op(PowerSeries(coeffs[:n + 1])).coeffs)


def _mpmath_reciprocal(a):
    """r = 1/a for the series a (a list of mpc) with a_0 = 1, at mpmath's working precision."""
    r = [mpmath.mpc(1)]
    for k in range(1, len(a)):
        r.append(-mpmath.fdot(a[1:k + 1], r[::-1]))
    return r


def _mpmath_log(coeffs):
    """b = the integral of a'/a for the series a with a_0 = 1, in 50-digit mpmath."""
    with mpmath.workdps(50):
        a = [mpmath.mpc(c) for c in coeffs]
        r = _mpmath_reciprocal(a)
        da = [k * a[k] for k in range(1, len(a))]
        return np.array([0j] + [complex(mpmath.fdot(da[:k], r[k - 1::-1]) / k)
                                for k in range(1, len(a))])


def test_log_at_order_200_stays_within_eight_eps():
    # six unit-constant series, alone and as one batch, against 50 digits;
    # their log coefficients grow geometrically, so the error is relative
    # to 1 + max |b_k|
    rng = np.random.default_rng(53)
    shape = (201, 6)
    coeffs = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) / math.sqrt(2)
    coeffs[0] = 1.0
    batched = PowerSeries(coeffs).log1().coeffs
    for i in range(shape[1]):
        want = _mpmath_log(coeffs[:, i])
        bound = 8 * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
        assert np.max(np.abs(PowerSeries(coeffs[:, i]).log1().coeffs - want)) <= bound
        assert np.max(np.abs(batched[:, i] - want)) <= bound


def test_reciprocal_at_order_200_stays_within_32_eps():
    # the six series of the log test above, alone and as one batch, against
    # 50 digits; a Newton doubling step carries the rounding of r[:n] into
    # every later coefficient, so the bound is wider than the log's
    rng = np.random.default_rng(53)
    shape = (201, 6)
    coeffs = (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) / math.sqrt(2)
    coeffs[0] = 1.0
    batched = PowerSeries(coeffs).reciprocal().coeffs
    for i in range(shape[1]):
        with mpmath.workdps(50):
            want = np.array([complex(r) for r in _mpmath_reciprocal(
                [mpmath.mpc(c) for c in coeffs[:, i]])])
        bound = 32 * np.finfo(float).eps * (1.0 + np.max(np.abs(want)))
        assert np.max(np.abs(PowerSeries(coeffs[:, i]).reciprocal().coeffs - want)) <= bound
        assert np.max(np.abs(batched[:, i] - want)) <= bound


# -- property tests -----------------------------------------------------------

def _deviation(a, b):
    """max |a_k - b_k| over two series of one order."""
    return np.max(np.abs(a.coeffs - b.coeffs))


def bounded_series(order=30, scale=1.0):
    return st.lists(
        st.complex_numbers(max_magnitude=scale, allow_nan=False, allow_infinity=False),
        min_size=order + 1, max_size=order + 1).map(PowerSeries)


@settings(max_examples=40, deadline=None)
@given(bounded_series(), bounded_series())
def test_mul_commutes(a, b):
    assert _deviation(a * b, b * a) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(bounded_series(), bounded_series(), bounded_series())
def test_mul_associates(a, b, c):
    assert _deviation((a * b) * c, a * (b * c)) <= 1e-12


def _unit_constant(s):
    return PowerSeries((1.0,) + tuple(s.coeffs[1:]))


@settings(max_examples=30, deadline=None)
@given(bounded_series(scale=0.8), bounded_series(scale=0.8))
def test_reciprocal_is_multiplicative(a, b):
    a, b = _unit_constant(a), _unit_constant(b)
    lhs = (a * b).reciprocal()
    rhs = a.reciprocal() * b.reciprocal()
    assert _deviation(lhs, rhs) <= 1e-9 * (1.0 + max(abs(c) for c in lhs.coeffs))


@settings(max_examples=30, deadline=None)
@given(bounded_series(scale=0.8), bounded_series(scale=0.8))
def test_log_of_product_is_sum_of_logs(a, b):
    a, b = _unit_constant(a), _unit_constant(b)
    lhs = (a * b).log1().coeffs
    rhs = a.log1().coeffs + b.log1().coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(lhs)))


def _derivative(s):
    """The series s' to order s.order - 1."""
    return PowerSeries(np.arange(1, len(s.coeffs)) * s.coeffs[1:])


def _assert_log_derivative(a):
    # (log a)' a = a'; the product's round-off scales with the coefficients
    # of (log a)', which can grow geometrically for unit-magnitude inputs
    log_derivative = _derivative(a.log1())
    scale = 1.0 + np.max(np.abs(log_derivative.coeffs))
    assert _deviation(log_derivative * a, _derivative(a)) <= 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(bounded_series())
def test_log_derivative_recovers_series(a):
    _assert_log_derivative(_unit_constant(a))


def test_log_derivative_recovers_series_seeded_unit_draws():
    rng = np.random.default_rng(19)
    for _ in range(60):
        coeffs = [1.0] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2)
                          for _ in range(30)]
        _assert_log_derivative(PowerSeries(coeffs))
