import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberpoly.series import PowerSeries


def series(*coeffs):
    return PowerSeries(coeffs)


class TestMul:
    def test_difference_of_squares(self):
        prod = series(1, 1, 0) * series(1, -1, 0)
        assert tuple(prod.coeffs) == (1 + 0j, 0j, -1 + 0j)

    def test_multiplicative_identity(self):
        a = series(2, -1j, 0.5, 3)
        assert tuple((a * PowerSeries.one(a.order)).coeffs) == tuple(a.coeffs)

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
        assert a.reciprocal().reciprocal().deviation(a) < 1e-12

    def test_kernel_at_origin_is_one(self):
        # 1 - z t e^{-lam t} with z = 0 is the constant 1
        lam = 0.7
        t_exp = PowerSeries([0, 1]) * PowerSeries([(-lam) ** k / math.factorial(k)
                                                   for k in range(2)])
        kernel = PowerSeries.one(1) - 0.0 * t_exp
        assert tuple(kernel.reciprocal().coeffs) == (1 + 0j, 0j)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series(0, 1).reciprocal()


class TestLogExp:
    def test_log_of_one(self):
        assert tuple(PowerSeries.one(4).log1().coeffs) == (0j,) * 5

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            series(2, 1).log1()

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            series(1, 1).exp()

    def test_exp_of_zero(self):
        assert tuple(PowerSeries.constant(0, 3).exp().coeffs) == (1 + 0j, 0j, 0j, 0j)

    def test_exp_of_scalar_multiple(self):
        lam = 0.3 + 0.4j
        e = PowerSeries([0, lam] + [0] * 8).exp()
        for k in range(9):
            assert abs(e.coeffs[k] - lam ** k / math.factorial(k)) < 1e-14

    def test_exp_coefficients_match_exterior_map_tail(self):
        # coefficient of t^{j+1} in exp(lam t) is lam^{j+1}/(j+1)!, which is
        # exactly the j-th tail coefficient of the exponential exterior map
        from faberpoly.faber import exp_map_exterior

        lam = 0.8 - 0.1j
        e = PowerSeries([0, lam] + [0] * 9).exp()
        emap = exp_map_exterior(0.0, lam, 9)
        for j in range(1, 10):
            expected = lam ** (j + 1) / math.factorial(j + 1)
            assert abs(e.coeffs[j + 1] - expected) < 1e-14
            assert abs(emap.alpha(j) - expected) < 1e-14

    def test_mercator_series(self):
        # log(1 + c t) = sum (-1)^{k+1} c^k t^k / k
        c = -0.35 + 0.2j
        log = PowerSeries([1, c] + [0] * 18).log1()
        for k in range(1, 19):
            expected = -((-c) ** k) / k
            assert abs(log.coeffs[k] - expected) < 1e-13


class TestPow:
    def test_first_power(self):
        a = series(1, 2, 3)
        assert tuple((a ** 1).coeffs) == tuple(a.coeffs)

    def test_square(self):
        assert tuple((series(1, 1, 0) ** 2).coeffs) == (1 + 0j, 2 + 0j, 1 + 0j)

    def test_zeroth_power(self):
        assert tuple((series(2, 5) ** 0).coeffs) == (1 + 0j, 0j)

    def test_negative_power_via_reciprocal(self):
        a = series(1, -1, 0, 0)
        assert (a ** -1).deviation(a.reciprocal()) == 0.0

    def test_negative_power_of_noninvertible_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series(0, 1) ** -2


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

    def test_reciprocal_log_exp(self):
        self.assert_entries(self.batched.reciprocal(), lambda s, i, j: s.reciprocal())
        self.assert_entries(self.batched.log1(), lambda s, i, j: s.log1())
        self.assert_entries((self.batched - 1.0).exp(), lambda s, i, j: (s - 1.0).exp())

    def test_products_broadcast_batch_axes(self):
        plain = series(1, 2j, -0.5, 0.25, 0, 1, 0, 0, 3)
        first_row = PowerSeries(self.batched.coeffs[:, :1, :])      # batch shape (1, 4)
        self.assert_entries(self.batched * self.batched, lambda s, i, j: s * s)
        self.assert_entries(plain * self.batched, lambda s, i, j: plain * s)
        self.assert_entries(self.batched ** 3, lambda s, i, j: s ** 3)
        self.assert_entries(first_row * self.batched,
                            lambda s, i, j: self.entry[0, j] * s)

    def test_array_constant_goes_to_each_entry(self):
        z = np.arange(4) * 0.5j
        row = PowerSeries(self.batched.coeffs[:, 0, :])
        assert np.array_equal((row + z).coeffs[0], row.coeffs[0] + z)
        assert np.array_equal((row + z).coeffs[1:], row.coeffs[1:])
        scaled = series(1, 1, 1) * z
        assert scaled.coeffs.shape == (3, 4)
        assert np.array_equal(scaled.coeffs[2], z)


class TestBookkeeping:
    def test_order_counts_coefficients(self):
        assert series(1, 2, 3).order == 2

    def test_cannot_read_beyond_order(self):
        with pytest.raises(IndexError):
            series(1, 2).coefficient(2)

    def test_cannot_extend(self):
        with pytest.raises(ValueError):
            series(1, 2).truncated(5)


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
            assert np.array_equal(op(wide).truncated(n).coeffs, op(wide.truncated(n)).coeffs)


# -- property tests -----------------------------------------------------------

def bounded_series(order=30, scale=1.0):
    return st.lists(
        st.complex_numbers(max_magnitude=scale, allow_nan=False, allow_infinity=False),
        min_size=order + 1, max_size=order + 1).map(PowerSeries)


@settings(max_examples=40, deadline=None)
@given(bounded_series(), bounded_series())
def test_mul_commutes(a, b):
    assert (a * b).deviation(b * a) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(bounded_series(), bounded_series(), bounded_series())
def test_mul_associates(a, b, c):
    assert ((a * b) * c).deviation(a * (b * c)) <= 1e-12


def _unit_constant(s):
    return PowerSeries((1.0,) + tuple(s.coeffs[1:]))


@settings(max_examples=30, deadline=None)
@given(bounded_series(scale=0.8), bounded_series(scale=0.8))
def test_reciprocal_is_multiplicative(a, b):
    a, b = _unit_constant(a), _unit_constant(b)
    lhs = (a * b).reciprocal()
    rhs = a.reciprocal() * b.reciprocal()
    assert lhs.deviation(rhs) <= 1e-9 * (1.0 + max(abs(c) for c in lhs.coeffs))


@settings(max_examples=30, deadline=None)
@given(bounded_series(scale=0.8), bounded_series(scale=0.8))
def test_log_of_product_is_sum_of_logs(a, b):
    a, b = _unit_constant(a), _unit_constant(b)
    lhs = (a * b).log1()
    rhs = a.log1() + b.log1()
    assert lhs.deviation(rhs) <= 1e-9 * (1.0 + max(abs(c) for c in lhs.coeffs))


@settings(max_examples=40, deadline=None)
@given(bounded_series())
def test_exp_log_round_trip(a):
    # round-trip error scales with the intermediate log coefficients, which
    # can grow geometrically for unit-magnitude inputs
    a = _unit_constant(a)
    log = a.log1()
    scale = 1.0 + max(abs(c) for c in log.coeffs)
    assert log.exp().deviation(a) <= 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(bounded_series(scale=0.9))
def test_log_exp_round_trip(a):
    a = PowerSeries((0j,) + tuple(a.coeffs[1:]))
    e = a.exp()
    scale = 1.0 + max(abs(c) for c in e.coeffs)
    assert e.log1().deviation(a) <= 1e-11 * scale


def test_exp_log_round_trip_seeded_unit_draws():
    rng = np.random.default_rng(19)
    for _ in range(60):
        coeffs = [1.0] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2)
                          for _ in range(30)]
        a = PowerSeries(coeffs)
        log = a.log1()
        scale = 1.0 + max(abs(c) for c in log.coeffs)
        assert log.exp().deviation(a) <= 1e-11 * scale
