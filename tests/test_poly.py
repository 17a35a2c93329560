import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faberpoly.poly import ComplexPolynomial, RootFindingError, evaluate_rows
from faberpoly.verify import _row_deviation


def poly(*coeffs):
    return ComplexPolynomial(coeffs)


class TestEvaluate:
    def test_monomial(self):
        assert poly(0, 0, 0, 1).evaluate(2.0) == 8.0

    def test_constant_term(self):
        assert poly(-2, 0, 1).evaluate(0.0) == -2.0

    def test_hand_value(self):
        # z^3 - 3z at 1: 1 - 3 = -2
        assert poly(0, -3, 0, 1).evaluate(1.0) == -2.0

    def test_zero_poly(self):
        assert ComplexPolynomial().evaluate(3.7 + 1j) == 0.0


class TestStructure:
    def test_degree_and_sentinel(self):
        assert poly(1, 2, 3).degree == 2
        assert ComplexPolynomial().degree == -1
        assert ComplexPolynomial().is_zero()

    def test_only_exact_trailing_zeros_are_trimmed(self):
        # a tiny leading coefficient is kept: monic rows never lose degree
        assert ComplexPolynomial((1.0, 1e-20)).degree == 1
        assert ComplexPolynomial((1.0, 2.0, 0.0, -0.0)).coeffs == (1 + 0j, 2 + 0j)

    def test_small_leading_coefficient_survives_when_dominant(self):
        p = ComplexPolynomial((0.0, 0.0, 1e-20))
        assert p.degree == 2

    def test_all_zero_trims_to_zero(self):
        assert ComplexPolynomial((0.0, 0.0)).is_zero()


class TestCalculusAndArithmetic:
    def test_derivative_examples(self):
        assert poly(-2, 0, 1).derivative().coeffs == (0j, 2 + 0j)
        assert poly(5).derivative().is_zero()
        assert poly(0, -3, 0, 1).derivative().coeffs == (-3 + 0j, 0j, 3 + 0j)

    def test_product_of_conjugate_factors(self):
        assert (poly(-1, 1) * poly(1, 1)).coeffs == (-1 + 0j, 0j, 1 + 0j)

    def test_chebyshev_rescale_by_hand(self):
        # 2*T3(z/2) with T3(x) = 4x^3 - 3x expands to z^3 - 3z
        t3 = poly(0, -3, 0, 4)
        assert (2.0 * t3.compose_affine(0.5, 0.0)).coeffs == (0j, -3 + 0j, 0j, 1 + 0j)

    def test_additive_identity(self):
        p = poly(1 + 2j, 0, 3)
        assert (p + ComplexPolynomial()).coeffs == p.coeffs

    def test_scalar_multiplication(self):
        assert (2j * poly(1, 1)).coeffs == (2j, 2j)


class TestRoots:
    def test_quadratic_closed_form(self):
        rts = sorted(poly(-2, 0, 1).roots(), key=lambda r: r.real)
        assert abs(rts[0] + math.sqrt(2)) < 1e-12
        assert abs(rts[1] - math.sqrt(2)) < 1e-12

    def test_factored_quadratic(self):
        # z(z - 0.6), the common-root polynomial of the exponential map
        rts = sorted(poly(0, -0.6, 1).roots(), key=lambda r: r.real)
        assert abs(rts[0]) < 1e-12 and abs(rts[1] - 0.6) < 1e-12

    def test_triple_root(self):
        for r in poly(0, 0, 0, 1).roots():
            assert abs(r) < 1e-8

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            poly(3).roots()

    def test_linear(self):
        assert poly(-4, 2).roots() == [2.0 + 0j]

    def test_zero_factor_gives_exact_zeros(self):
        q = poly(2 - 1j, 0.5, 1)
        for r in range(1, 5):
            found = ComplexPolynomial((0j,) * r + q.coeffs).roots()
            assert len(found) == r + 2
            assert sum(z == 0 for z in found) == r
            for e in q.roots():
                assert min(abs(e - z) for z in found) < 1e-12

    @pytest.mark.parametrize("coeffs", [(1, 0, 1e305, 0, 1), (1e307, 1e307, 1e307, 1)],
                             ids=["quartic", "cubic"])
    def test_overflow_raises_without_nan(self, coeffs):
        # z^4 + 1e305 z^2 + 1: p overflows near its large roots (about 3e152);
        # z^3 + 1e307 (z^2 + z + 1): near its root -1e307, and its companion
        # eigenvalues 0, 0 and -1e307 miss the cube roots of unity
        with pytest.raises(RootFindingError) as info:
            poly(*coeffs).roots()
        assert all(np.isfinite(info.value.roots))
        assert not any(math.isnan(v) for v in info.value.residuals)

    def test_failure_carries_diagnostics(self):
        err = RootFindingError("x", [1j], [0.5])
        assert err.roots == [1j] and err.residuals == [0.5]


class TestEvaluateRows:
    def test_matches_per_row_horner(self):
        # the per-polynomial loop is the reference; the row-wise sum order is the
        # same, so only complex-multiply rounding may differ
        rng = np.random.default_rng(7)
        table = np.tril(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        for z in (0.0, 0.3 - 1.2j, 2.5):
            values, magnitudes = evaluate_rows(table, z)
            for row, value, magnitude in zip(table, values, magnitudes):
                p = ComplexPolynomial(row)
                scale = p.evaluation_magnitude(z)
                assert abs(value - p.evaluate(z)) <= 8 * np.finfo(float).eps * scale
                assert abs(magnitude - scale) <= 8 * np.finfo(float).eps * scale

    def test_array_of_points_gives_the_per_point_results(self):
        rng = np.random.default_rng(8)
        table = np.tril(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        z = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) * 2.0
        values, magnitudes = evaluate_rows(table, z)
        assert values.shape == magnitudes.shape == (9, 2, 3)
        for index in np.ndindex(z.shape):
            one_values, one_magnitudes = evaluate_rows(table, complex(z[index]))
            assert np.array_equal(values[(slice(None),) + index], one_values)
            assert np.array_equal(magnitudes[(slice(None),) + index], one_magnitudes)

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 4)], ids=["row", "stack"])
    def test_a_table_that_is_not_2d_is_refused(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            evaluate_rows(np.ones(shape, dtype=complex), np.array([0.5, 1.0j]))


# -- property tests -----------------------------------------------------------

complex_coeffs = st.lists(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=21)


@settings(max_examples=50, deadline=None)
@given(complex_coeffs, complex_coeffs)
def test_product_rule(a, b):
    p, q = ComplexPolynomial(a), ComplexPolynomial(b)
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    table = np.zeros((2, max(len(lhs.coeffs), len(rhs.coeffs)) + 1), dtype=complex)
    table[0, :len(lhs.coeffs)] = lhs.coeffs
    table[1, :len(rhs.coeffs)] = rhs.coeffs
    assert _row_deviation(table[:1], table[1:]) <= 1e-12


@settings(max_examples=50, deadline=None)
@given(complex_coeffs,
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_affine_composition_matches_pointwise(a, aa, bb):
    p = ComplexPolynomial(a)
    composed = p.compose_affine(aa, bb)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        direct = p.evaluate(aa * z + bb)
        scale = 1.0 + p.evaluation_magnitude(aa * z + bb) + composed.evaluation_magnitude(z)
        assert abs(composed.evaluate(z) - direct) <= 1e-10 * scale


def test_affine_composition_at_100_points():
    rng = np.random.default_rng(42)
    p = ComplexPolynomial([complex(rng.standard_normal(), rng.standard_normal())
                           for _ in range(12)])
    a, b = 0.7 - 0.3j, 1.1 + 0.2j
    composed = p.compose_affine(a, b)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = p.evaluate(a * z + b)
        assert abs(composed.evaluate(z) - direct) <= 1e-10 * (1.0 + abs(direct))


def test_roots_of_znc_are_nth_roots():
    rng = np.random.default_rng(1)
    for n in range(2, 9):
        for _ in range(3):
            c = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(c) < 0.1 or abs(c) > 4:
                continue
            p = ComplexPolynomial((-c,) + (0j,) * (n - 1) + (1 + 0j,))
            found = p.roots()
            expected = [abs(c) ** (1.0 / n) * np.exp(1j * (np.angle(c) + 2 * np.pi * k) / n)
                        for k in range(n)]
            for e in expected:
                assert min(abs(e - r) for r in found) < 1e-9

    # cross-check against the eigenvalue-based finder on general polynomials
    for _ in range(10):
        coeffs = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(7)]
        p = ComplexPolynomial(coeffs)
        if p.degree < 2:
            continue
        mine = p.roots()
        ref = np.roots(list(p.coeffs)[::-1])
        for e in ref:
            assert min(abs(e - r) for r in mine) < 1e-7


def test_root_residual_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        coeffs = [complex(rng.standard_normal(), rng.standard_normal())
                  for _ in range(rng.integers(2, 20))]
        p = ComplexPolynomial(coeffs)
        if p.degree < 1:
            continue
        budget = 1e-8 * (1.0 + sum(abs(c) for c in p.coeffs))
        for r in p.roots():
            assert abs(p.evaluate(r)) <= budget
