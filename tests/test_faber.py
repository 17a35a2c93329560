import cmath
import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberpoly.faber import (ExteriorMap, FaberSystem, check_derivative_identity,
                             check_inverse_power_decay, exp_map_exterior,
                             faber_derivative_values_from_series,
                             faber_system_from_recurrence,
                             faber_values_from_log_series,
                             faber_values_from_ratio_series, kernel_polys)
from faberpoly.maps import ExpMap, Hypocycloid, Shift, to_exterior_map
from faberpoly.poly import ComplexPolynomial
from faberpoly.series import PowerSeries
from faberpoly.suites import draw_disk, draw_exterior_map


class TestExteriorMap:
    def test_truncation_counts_tail(self):
        emap = ExteriorMap(1j, (0.5, 0.25))
        assert emap.truncation == 2
        assert emap.alpha(0) == 1j
        assert emap.alpha(2) == 0.25
        assert emap.alpha(7) == 0j

    def test_method_tag_is_validated(self):
        with pytest.raises(ValueError):
            FaberSystem(ExteriorMap(0), np.ones((1, 1), dtype=complex), "guesswork")


class TestRecurrence:
    def test_shift_map_gives_shifted_monomials(self):
        a0 = 0.3 - 0.7j
        fs = faber_system_from_recurrence(ExteriorMap(a0, ()), 5)
        expected = ComplexPolynomial.one()
        shift = ComplexPolynomial((-a0, 1))
        for j in range(6):
            assert fs[j].coefficient_deviation(expected) < 1e-15
            expected = expected * shift

    def test_single_cusp_hand_unroll(self):
        emap = to_exterior_map(Hypocycloid(1), 3)
        fs = faber_system_from_recurrence(emap, 3)
        assert fs[2].coeffs == (-2 + 0j, 0j, 1 + 0j)
        assert fs[3].coeffs == (0j, -3 + 0j, 0j, 1 + 0j)

    def test_exponential_map_hand_unroll(self):
        # lam = 0.5, eta = 0: F_2 = z^2 - 2*lam*z = z^2 - z
        emap = exp_map_exterior(0.0, 0.5, 2)
        fs = faber_system_from_recurrence(emap, 2)
        assert fs[2].coefficient_deviation(ComplexPolynomial((0, -1, 1))) < 1e-15

    def test_first_two_polynomials_exact(self):
        emap = ExteriorMap(0.25 + 1j, (0.4, -0.2j, 0.1))
        fs = faber_system_from_recurrence(emap, 8)
        assert fs[0].coeffs == (1 + 0j,)
        assert fs[1].coeffs == (-(0.25 + 1j), 1 + 0j)

    def test_monic_of_full_degree(self):
        rng = np.random.default_rng(9)
        emap = draw_exterior_map(rng, 12)
        fs = faber_system_from_recurrence(emap, 12)
        for j, p in enumerate(fs):
            assert p.degree == j
            assert abs(p.coeffs[-1] - 1.0) <= 1e-12

    def test_regeneration_is_bit_identical(self):
        rng = np.random.default_rng(4)
        emap = draw_exterior_map(rng, 10)
        a = faber_system_from_recurrence(emap, 10)
        b = faber_system_from_recurrence(emap, 10)
        assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            faber_system_from_recurrence(ExteriorMap(0), -1)

    def test_matches_term_by_term_recurrence(self):
        # the recurrence on ComplexPolynomial values, one tail term at a time; the
        # table sums the tail terms in another order, so they agree to round-off
        rng = np.random.default_rng(5)
        for _ in range(5):
            emap = draw_exterior_map(rng, 30)
            fs = faber_system_from_recurrence(emap, 30)
            polys = [ComplexPolynomial.one(), ComplexPolynomial((-emap.alpha0, 1.0))]
            for j in range(1, 30):
                nxt = polys[1] * polys[j]
                for k in range(1, j + 1):
                    nxt = nxt - emap.alpha(k) * polys[j - k]
                polys.append(nxt - ComplexPolynomial((j * emap.alpha(j),)))
            for j, p in enumerate(polys):
                assert fs[j].coefficient_deviation(p) <= 64 * np.finfo(float).eps

    def test_large_constant_term_keeps_degree(self):
        # coefficients of F_200 reach 1e264, far past the 1e13 trim ratio
        fs = faber_system_from_recurrence(to_exterior_map(Shift(20), 200), 200)
        assert len(fs[200].coeffs) == 201
        assert fs[200].coeffs[-1] == 1.0

    def test_overflow_raises_naming_the_first_index(self):
        emap = to_exterior_map(Shift(20), 240)
        with pytest.raises(OverflowError, match="F_234"):
            faber_system_from_recurrence(emap, 240)

    def test_views_are_built_once(self):
        fs = faber_system_from_recurrence(to_exterior_map(Hypocycloid(2), 6), 6)
        assert fs[4] is fs[4]
        assert fs[-1] is fs[6]
        with pytest.raises(IndexError):
            fs[7]


def bounded_complex(radius):
    return st.complex_numbers(max_magnitude=radius, allow_nan=False, allow_infinity=False)


def assert_monic_table(fs):
    table = fs.coeffs
    for j in range(len(fs)):
        assert fs[j].degree == j
        assert table[j, j] == 1.0
    assert not np.triu(table, 1).any()


@settings(max_examples=40, deadline=None)
@given(bounded_complex(50.0), st.integers(0, 60))
def test_shift_systems_are_monic_of_full_degree(alpha0, n):
    assert_monic_table(faber_system_from_recurrence(to_exterior_map(Shift(alpha0), n), n))


@settings(max_examples=40, deadline=None)
@given(bounded_complex(50.0), bounded_complex(1.0), st.integers(0, 60))
def test_exp_map_systems_are_monic_of_full_degree(eta, lam, n):
    emap = to_exterior_map(ExpMap(eta, lam), n)
    assert_monic_table(faber_system_from_recurrence(emap, n))


class TestLogSeriesOracle:
    def test_shift_map_values(self):
        a0 = 0.4 + 0.1j
        z = 1.3 - 0.2j
        values = faber_values_from_log_series(ExteriorMap(a0, ()), z, 8)
        for j in range(1, 9):
            assert abs(values[j - 1] - (z - a0) ** j) < 1e-12 * (1 + abs(z - a0) ** j)

    def test_single_cusp_values_at_one(self):
        emap = to_exterior_map(Hypocycloid(1), 3)
        values = faber_values_from_log_series(emap, 1.0, 3)
        assert abs(values[1] + 1.0) < 1e-13   # F_2(1) = -1
        assert abs(values[2] + 2.0) < 1e-13   # F_3(1) = -2

    def test_matches_recurrence_on_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            emap = draw_exterior_map(rng, 30)
            fs = faber_system_from_recurrence(emap, 30)
            for _ in range(4):
                z = draw_disk(rng, 3.0)
                values = faber_values_from_log_series(emap, z, 30)
                for j in range(1, 31):
                    scale = 1.0 + fs[j].evaluation_magnitude(z)
                    assert abs(values[j - 1] - fs[j].evaluate(z)) <= 1e-9 * scale

    def test_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            faber_values_from_log_series(ExteriorMap(0), 1.0, 0)


class TestSeriesOrder:
    """The oracles' default order N gives the same values as the former 2N + 4."""

    ORACLES = (faber_values_from_log_series, faber_values_from_ratio_series,
               faber_derivative_values_from_series)

    def test_order_n_is_bit_identical_on_random_maps(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            emap = draw_exterior_map(rng, 30)
            z = draw_disk(rng, 3.0)
            for oracle in self.ORACLES:
                assert oracle(emap, z, 30) == oracle(emap, z, 30, order=2 * 30 + 4)

    def test_order_n_stays_clear_of_overflow(self):
        emap = exp_map_exterior(0.2, 0.6 + 0.3j, 400)
        for oracle in self.ORACLES:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                values = oracle(emap, -2.0, 400)
            with np.errstate(over="ignore", invalid="ignore"):
                wide = oracle(emap, -2.0, 400, order=2 * 400 + 4)
            assert np.all(np.isfinite(values))
            assert values == wide


class TestRatioSeries:
    def test_zeroth_coefficient_is_one(self):
        emap = ExteriorMap(0.2, (0.3,))
        assert abs(faber_values_from_ratio_series(emap, 0.7j, 4)[0] - 1.0) < 1e-14

    def test_shift_map_is_geometric(self):
        a0 = 0.15 - 0.25j
        z = 0.8 + 0.6j
        coeffs = faber_values_from_ratio_series(ExteriorMap(a0, ()), z, 10)
        for j in range(11):
            assert abs(coeffs[j] - (z - a0) ** j) < 1e-11 * (1 + abs(z - a0) ** j)

    def test_single_cusp_value(self):
        emap = to_exterior_map(Hypocycloid(1), 4)
        coeffs = faber_values_from_ratio_series(emap, 1.0, 3)
        assert abs(coeffs[3] + 2.0) < 1e-13  # F_3(1) = -2


class TestDerivativeSeries:
    def test_first_coefficient(self):
        emap = ExteriorMap(0.5 + 0.1j, (0.2,))
        values = faber_derivative_values_from_series(emap, 1.7 - 0.4j, 3)
        assert abs(values[0] - 1.0) < 1e-14  # F_1' = 1

    def test_single_cusp_second_index(self):
        emap = to_exterior_map(Hypocycloid(1), 4)
        values = faber_derivative_values_from_series(emap, 1.0, 2)
        assert abs(values[1] - 1.0) < 1e-13  # F_2' = 2z, at 1, over 2

    def test_exponential_map_cross_path(self):
        from faberpoly.maps import exp_map_faber_closed_form

        lam, z = 0.5, 2.0
        emap = exp_map_exterior(0.0, lam, 6)
        values = faber_derivative_values_from_series(emap, z, 3)
        f3 = exp_map_faber_closed_form(0.0, lam, 3)
        assert abs(values[2] - f3.derivative().evaluate(z) / 3.0) < 1e-12


class TestKernelPolys:
    def test_first_two(self):
        lam = 0.45 - 0.3j
        ps = kernel_polys(lam, 3)
        assert ps[0].coeffs == (1 + 0j,)
        # P_1 = lam*F_0 + F_1 = lam + (z - lam) = z
        assert ps[1].coefficient_deviation(ComplexPolynomial.monomial(1)) < 1e-15

    def test_matches_kernel_series_expansion(self):
        # coefficients of 1/(1 - z t e^{-lam t}) at fixed z equal P_j(z)
        lam = 0.6
        order = 15
        ps = kernel_polys(lam, order)
        rng = np.random.default_rng(3)
        for _ in range(6):
            theta = rng.uniform(0, 2 * math.pi)
            z = 0.5 * cmath.exp(1j * theta) * cmath.exp(lam * cmath.exp(-1j * theta))
            t_series = PowerSeries([0, 1] + [0] * (order - 1))
            exp_part = PowerSeries([0, -lam] + [0] * (order - 1)).exp()
            kernel = (PowerSeries.one(order) - z * (t_series * exp_part)).reciprocal()
            for j in range(order + 1):
                assert abs(kernel.coeffs[j] - ps[j].evaluate(z)) <= 1e-10 * (
                    1.0 + abs(ps[j].evaluate(z)))

    def test_explicit_sum_definition(self):
        lam = 0.35 + 0.2j
        n = 12
        ps = kernel_polys(lam, n)
        fs = faber_system_from_recurrence(exp_map_exterior(0.0, lam, n), n)
        for j in range(n + 1):
            direct = ComplexPolynomial.zero()
            for k in range(j + 1):
                direct = direct + (lam ** (j - k)) * fs[k]
            assert ps[j].coefficient_deviation(direct) < 1e-13


class TestDerivativeIdentity:
    def test_degenerate_indices(self):
        report = check_derivative_identity(0.3, 1)
        assert report.passed
        assert report.residuals[0] == 0.0  # j = 0: both sides vanish

    def test_hand_expansion_j1(self):
        # z * F_1' = z and 1 * P_1 = z
        report = check_derivative_identity(0.9 - 0.1j, 1)
        assert report.residuals[1] < 1e-15

    def test_full_run(self):
        report = check_derivative_identity(0.7, 20, tol=1e-9)
        assert report.passed and report.max_residual <= 1e-9


class TestInversePowerDecay:
    def test_trivial_at_j0(self):
        report = check_inverse_power_decay(0.0, 0.5, [10.0, 100.0], 0)
        assert report.passed

    def test_linear_term(self):
        report = check_inverse_power_decay(0.0, 0.5, [10.0, 100.0, 1000.0], 1)
        assert report.passed

    def test_mid_power_decade_pair(self):
        # at j = 5 the leading Laurent coefficient is small, so only some
        # parameter/ray combinations are inside the asymptotic regime at
        # |z| = 10; lam = 0.6 on the imaginary ray is
        report = check_inverse_power_decay(0.0, 0.6, [10.0 * 1j, 100.0 * 1j], 5)
        assert report.passed
        assert 0.05 <= report.residuals[0] <= 0.2

    def test_cubed_three_decades(self):
        ray = cmath.exp(0.3j)
        report = check_inverse_power_decay(0.1, 0.4, [10 * ray, 100 * ray, 1000 * ray], 3)
        assert report.passed

    def test_interior_point_rejected(self):
        with pytest.raises(ValueError):
            check_inverse_power_decay(0.0, 0.5, [0.1, 0.2], 2)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            check_inverse_power_decay(0.0, 0.5, [10.0], 1)
