import ast
import cmath
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faberpoly import poly, suites
from faberpoly.faber import (_derivative_table, _log_table, _ratio_table, _row_values,
                             exp_map_exterior, faber_derivative_values_from_series,
                             faber_system_from_recurrence,
                             faber_values_from_log_series,
                             faber_values_from_ratio_series, kernel_polys)
from faberpoly.maps import (ExpMap, GapMap, Hypocycloid, Shift, TwoGapMap,
                            exp_map_faber_closed_form, hypocycloid_faber_closed_form,
                            to_exterior_map)
from faberpoly.poly import ComplexPolynomial, evaluate_rows
from faberpoly.series import PowerSeries
from faberpoly.suites import draw_disk, draw_exterior_map, suite_theorem3
from faberpoly.verify import (_row_deviation, check_derivative_identity,
                              exponential_map_characterization)


class TestMapCoefficients:
    """A map is its coefficient array a, a[k] = a_k, checked once on the way in."""

    @pytest.mark.parametrize("as_given", [list, tuple, np.array], ids=["list", "tuple", "ndarray"])
    def test_any_sequence_gives_the_same_bytes(self, as_given):
        coeffs = [0.25 + 1j, 0.4, -0.2j, 0.1]
        given, reference = as_given(coeffs), np.array(coeffs, dtype=complex)
        assert (faber_system_from_recurrence(given, 12).tobytes()
                == faber_system_from_recurrence(reference, 12).tobytes())
        z = np.array([0.5, -1.0 + 0.3j, 2.0j])
        for oracle in ORACLES:
            assert oracle(given, z, 12).tobytes() == oracle(reference, z, 12).tobytes()
            assert oracle(given, 0.7j, 12) == oracle(reference, 0.7j, 12)

    @pytest.mark.parametrize("coeffs", [0.5, [[[0.5, 0.1]]], []], ids=["0-d", "3-D", "empty"])
    def test_not_one_dimensional_or_empty_is_refused(self, coeffs):
        # a 2-D array is a stack of maps (see TestStackedMaps)
        with pytest.raises(ValueError, match="1-D array"):
            faber_system_from_recurrence(coeffs, 4)
        for oracle in ORACLES:
            with pytest.raises(ValueError, match="1-D array"):
                oracle(coeffs, 0.5, 4)

    def test_a_pointwise_oracle_refuses_a_stack_of_maps(self):
        # the table oracles take a stack (see TestStackedMaps); the pointwise ones one map
        for oracle in ORACLES:
            with pytest.raises(ValueError, match="1-D array"):
                oracle([[0.3, 0.1j], [-0.2, 0.05]], np.array([0.5, -1.0j]), 6)

    @pytest.mark.parametrize("build", [
        lambda: exp_map_exterior(0.1, 0.5j, 6),
        lambda: to_exterior_map(Hypocycloid(3), 6),
        lambda: to_exterior_map(Shift(0.5), 0),
        lambda: draw_exterior_map(np.random.default_rng(2), 6),
    ], ids=["exp_map_exterior", "to_exterior_map", "to_exterior_map-shift", "draw_exterior_map"])
    def test_every_map_is_a_read_only_array(self, build):
        a = build()
        assert isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype == complex
        assert not a.flags.writeable

    def test_theorem3_never_writes_into_a_map(self, monkeypatch):
        handed = []

        def writable_map(*args):
            a = exp_map_exterior(*args).copy()
            handed.append((a, a.tobytes()))
            return a

        monkeypatch.setattr(suites, "exp_map_exterior", writable_map)
        assert suite_theorem3(seed=0).passed
        assert len(handed) == 10
        assert all(a.tobytes() == before for a, before in handed)


class TestRecurrence:
    def test_shift_map_gives_shifted_monomials(self):
        a0 = 0.3 - 0.7j
        fs = faber_system_from_recurrence([a0], 5)
        expected = np.eye(6, dtype=complex)
        for j in range(1, 6):
            expected[j, :j + 1] = np.convolve(expected[j - 1, :j], (-a0, 1))
        assert _row_deviation(fs, expected).max() < 1e-15

    def test_single_cusp_hand_unroll(self):
        emap = to_exterior_map(Hypocycloid(1), 3)
        fs = faber_system_from_recurrence(emap, 3)
        assert fs[2].tolist() == [-2, 0, 1, 0]
        assert fs[3].tolist() == [0, -3, 0, 1]

    def test_exponential_map_hand_unroll(self):
        # lam = 0.5, eta = 0: F_2 = z^2 - 2*lam*z = z^2 - z
        emap = exp_map_exterior(0.0, 0.5, 2)
        fs = faber_system_from_recurrence(emap, 2)
        assert _row_deviation(fs[2:], np.array([[0, -1, 1]])).max() < 1e-15

    def test_first_two_polynomials_exact(self):
        emap = [0.25 + 1j, 0.4, -0.2j, 0.1]
        fs = faber_system_from_recurrence(emap, 8)
        assert fs[0, :1].tolist() == [1]
        assert fs[1, :2].tolist() == [-(0.25 + 1j), 1]

    def test_monic_of_full_degree(self):
        rng = np.random.default_rng(9)
        emap = draw_exterior_map(rng, 12)
        fs = faber_system_from_recurrence(emap, 12)
        assert np.all(np.abs(np.diagonal(fs) - 1.0) <= 1e-12)
        assert not np.triu(fs, 1).any()

    def test_regeneration_is_bit_identical(self):
        rng = np.random.default_rng(4)
        emap = draw_exterior_map(rng, 10)
        a = faber_system_from_recurrence(emap, 10)
        b = faber_system_from_recurrence(emap, 10)
        assert a.tobytes() == b.tobytes()

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            faber_system_from_recurrence([0], -1)

    def test_matches_term_by_term_recurrence(self):
        # the recurrence row by row, one tail term at a time; the table sums
        # the tail terms in another order, so they agree to round-off
        rng = np.random.default_rng(5)
        for _ in range(5):
            emap = draw_exterior_map(rng, 30)
            fs = faber_system_from_recurrence(emap, 30)
            rows = np.eye(31, dtype=complex)
            rows[1, 0] = -emap[0]
            for j in range(1, 30):
                rows[j + 1, :j + 2] = np.convolve(rows[1, :2], rows[j, :j + 1])
                for k in range(1, j + 1):
                    rows[j + 1] -= emap[k] * rows[j - k]
                rows[j + 1, 0] -= j * emap[j]
            assert _row_deviation(fs, rows).max() <= 64 * np.finfo(float).eps

    def test_large_constant_term_keeps_degree(self):
        # coefficients of F_200 reach 1e264; the leading 1 survives, also as a polynomial
        fs = faber_system_from_recurrence(to_exterior_map(Shift(20), 200), 200)
        assert fs[200, 200] == 1.0
        assert ComplexPolynomial(fs[200]).degree == 200

    def test_overflow_raises_naming_the_first_index(self):
        emap = to_exterior_map(Shift(20), 240)
        with pytest.raises(OverflowError, match="F_234"):
            faber_system_from_recurrence(emap, 240)

    def test_overflowing_map_coefficients_raise_without_a_warning(self):
        # alpha_1 = lam^2/2 is inf; the first row it enters is F_2, and no
        # RuntimeWarning (an error under this test suite) escapes on the way
        with pytest.raises(OverflowError, match="F_2 on"):
            faber_system_from_recurrence(exp_map_exterior(0, 1e308, 3), 3)


def mpmath_recurrence_rows(emap, n_highest):
    """Rows F_0..F_N of the row recurrence in 60-digit arithmetic, rounded to complex."""
    with mpmath.workdps(60):
        a = [mpmath.mpc(complex(c)) for c in emap[:n_highest + 1]]
        a += [mpmath.mpc(0)] * (n_highest + 1 - len(a))
        rows = [[mpmath.mpc(1)], [-a[0], mpmath.mpc(1)]]
        for j in range(1, n_highest):
            nxt = [mpmath.mpc(0)] + rows[j]
            for i, c in enumerate(rows[j]):
                nxt[i] -= a[0] * c
            for k in range(1, j + 1):
                for i, c in enumerate(rows[j - k]):
                    nxt[i] -= a[k] * c
            nxt[0] -= j * a[j]
            rows.append(nxt)
        return [np.array([complex(c) for c in row]) for row in rows[:n_highest + 1]]


@pytest.mark.parametrize("emap", [
    *(pytest.param([2 * r, r * r], id=f"double-zero-r={r}")      # g = (1 + r t)^2
      for r in (0.5, 2.0, 0.9 + 0.4j)),
    *(pytest.param([3 * r, 3 * r * r, r ** 3], id=f"triple-zero-r={r}")
      for r in (0.5, 2.0, -1.5j)),                                             # g = (1 + r t)^3
    *(pytest.param(exp_map_exterior(eta, lam, 60), id=f"expmap-eta={eta}-lam={lam}")
      for eta, lam in ((0.3 - 0.2j, 0.5), (0.0, 2.0), (0.1j, 1 + 1j), (0.0, 5.0))),
    # sparse maps, zero-filled to N and cut after their last nonzero entry:
    # the band of a step is as wide as the map given, not as the table
    *(pytest.param(a[:len(np.trim_zeros(a, "b"))] if cut else a,
                   id=f"{name}-{'cut' if cut else 'zero-filled'}")
      for name, a in (("hypocycloid-m=2", to_exterior_map(Hypocycloid(2), 60)),
                      ("shift", to_exterior_map(Shift(0.6 - 0.5j), 60)),
                      ("gap", to_exterior_map(GapMap(0.4j, 3, (0.5, -0.2j)), 60)),
                      ("two-gap", to_exterior_map(TwoGapMap(-0.3, 1, 0.4j, 4, (0.3,)), 60)))
      for cut in (False, True)),
])
def test_recurrence_matches_60_digit_rows(emap):
    # each row stays within 64 eps of its scale, also where g = 1 + a0 t + ...
    # has a double or triple zero and where the band is narrower than the row
    table = faber_system_from_recurrence(emap, 60)
    for j, ref in enumerate(mpmath_recurrence_rows(emap, 60)):
        scale = 1.0 + np.abs(ref).max()
        assert np.abs(table[j, :j + 1] - ref).max() <= 64 * np.finfo(float).eps * scale, j


class TestRowValues:
    """F_j and F_j' at the points of row j - 1, by the recurrence on values."""

    @pytest.mark.parametrize("a", [
        draw_exterior_map(np.random.default_rng(1), 8), to_exterior_map(Hypocycloid(3), 3),
        exp_map_exterior(0.2 - 0.1j, 0.7, 20), to_exterior_map(Shift(0.3 + 0.2j), 1)],
        ids=["random", "hypocycloid-3", "expmap", "shift"])
    @pytest.mark.parametrize("n", (1, 5, 20))
    def test_matches_horner_on_the_recurrence_rows(self, a, n):
        # within 64 eps of 1 + the Horner magnitude of F_j and of F_j' (7.4 measured)
        rng = np.random.default_rng(n)
        x = 1.5 * np.sqrt(rng.uniform(size=(n, 4))) * np.exp(2j * np.pi * rng.uniform(size=(n, 4)))
        table = faber_system_from_recurrence(a, n)[1:]
        row = np.arange(n)
        for got, rows in zip(_row_values(a, x), (table, table[:, 1:] * np.arange(1, n + 1))):
            values, magnitudes = evaluate_rows(rows, x)
            expected, scale = values[row, row], 1.0 + magnitudes[row, row]
            assert np.all(np.abs(got - expected) <= 64 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("a, points", [
        (to_exterior_map(Hypocycloid(2), 2), [0.3, 0.9 * cmath.exp(2j * math.pi / 3), 1.2,
                                              0.5 + 0.4j, 1.6 - 0.3j, -0.7]),
        (to_exterior_map(Hypocycloid(4), 4), [0.2, 1.2, 0.6 * cmath.exp(0.4j * math.pi),
                                              1.3 + 0.2j, -0.3]),
        (exp_map_exterior(0.1, 0.5, 30), [0.3 + 0.1j, 1.6 - 0.8j, -0.5, 0.9j])],
        ids=["hypocycloid-2", "hypocycloid-4", "expmap"])
    def test_matches_a_50_digit_recurrence_at_n_200(self, a, points):
        """Every row at the same points, inside and outside the curve, against
        the recurrence in 50 digits: F_j within 2 j eps of 1 + max_{k<=j}
        |F_k|, F_j' of 1 + max_{k<=j} |F_k'| (0.56 j eps measured)."""
        n = 200
        exact = np.zeros((2, n, len(points)), dtype=complex)
        with mpmath.workdps(50):
            coeffs = [mpmath.mpc(complex(c)) for c in a]
            for p, z in enumerate(points):
                f, d, shift = [mpmath.mpc(1)], [mpmath.mpc(0)], mpmath.mpc(z) - coeffs[0]
                for j in range(n):
                    value, slope = shift * f[j], f[j] + shift * d[j]
                    for k in range(1, min(j, len(coeffs) - 1) + 1):
                        value -= coeffs[k] * f[j - k]
                        slope -= coeffs[k] * d[j - k]
                    if j < len(coeffs):
                        value -= j * coeffs[j]
                    f.append(value)
                    d.append(slope)
                exact[:, :, p] = [[complex(v) for v in f[1:]], [complex(v) for v in d[1:]]]
        got = _row_values(a, np.tile(np.array(points, dtype=complex), (n, 1)))
        j = np.arange(1, n + 1)[:, None]
        for computed, reference in zip(got, exact):
            scale = 1.0 + np.maximum.accumulate(np.abs(reference), axis=0)
            assert np.all(np.abs(computed - reference) <= 2 * j * np.finfo(float).eps * scale)

    def test_memory_on_rays_is_linear_in_the_map_not_cubic(self, monkeypatch):
        """On ``rays --N 150`` each pass over the N x N roots peaks below
        8 len(a) N^2 complex numbers (3.4 to 5.5 len(a) N^2 measured): every
        row's values kept, N^3 numbers, would not fit."""
        peaks = []

        def traced(a, x, rows):
            tracemalloc.start()
            try:
                found = _row_values(a, x, rows)
                peaks.append((len(a), x.size, tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return found

        monkeypatch.setattr(poly, "_row_values", traced)
        assert suites.suite_rays(150).passed
        assert [width for width, _, _ in peaks] == [2, 3, 4, 5]
        assert all(size == 150 * 150 and peak <= 8 * width * size * 16
                   for width, size, peak in peaks)

    def test_a_map_of_a_0_alone_gives_powers(self):
        # one slot of values: F_j = (x - a_0)^j and F_j' = j (x - a_0)^{j-1}
        x = np.array([[0.5, 2.0j], [1.0, -1.0], [0.25 + 0.5j, 3.0]])
        values, slopes = _row_values([0.5 - 0.25j], x)
        j = np.arange(1, 4)[:, None]
        assert np.allclose(values, (x - (0.5 - 0.25j)) ** j, rtol=1e-15, atol=0)
        assert np.allclose(slopes, j * (x - (0.5 - 0.25j)) ** (j - 1), rtol=1e-15, atol=0)


def bounded_complex(radius):
    return st.complex_numbers(max_magnitude=radius, allow_nan=False, allow_infinity=False)


def assert_monic_table(table):
    assert np.all(np.diagonal(table) == 1.0)
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
        values = faber_values_from_log_series([a0], z, 8)
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
                direct, magnitude = evaluate_rows(fs[1:], z)
                assert np.all(np.abs(values - direct) <= 1e-9 * (1.0 + magnitude))

    def test_needs_at_least_one_index(self):
        with pytest.raises(ValueError):
            faber_values_from_log_series([0], 1.0, 0)


class TestSeriesOrder:
    """The oracles work at order N, where the former order 2N + 4 overflowed."""

    ORACLES = (faber_values_from_log_series, faber_values_from_ratio_series,
               faber_derivative_values_from_series)

    def test_order_n_stays_clear_of_overflow(self):
        emap = exp_map_exterior(0.2, 0.6 + 0.3j, 400)
        for oracle in self.ORACLES:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                values = oracle(emap, -2.0, 400)
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("radius", [0.9, 1.5])
    def test_shift_map_gives_powers_at_order_400(self, radius):
        # Psi(w) = w + a0 has F_j(z) = (z - a0)^j and F_j'(z)/j = (z - a0)^(j-1),
        # here powers of the float64 difference the oracles see, taken in 40
        # digits; the rounding of a series step grows about linearly with the
        # index, so the power p is allowed p eps of 1 + |value|
        a0, n, eps = 0.4 + 0.1j, 400, np.finfo(float).eps
        for angle in (0.7, 2.9, 4.4):
            z = a0 + radius * cmath.exp(1j * angle)
            with mpmath.workdps(40):
                u = mpmath.mpc(z - a0)
                powers = np.array([complex(u ** p) for p in range(n + 1)])
            for oracle, first in zip(self.ORACLES, (1, 0, 0)):
                got = np.array(oracle([a0], z, n))
                want = powers[first:first + len(got)]
                power = np.maximum(np.arange(first, first + len(got)), 1)
                assert np.all(np.abs(got - want) <= power * eps * (1.0 + np.abs(want)))

    def test_points_at_order_300_match_single_point_calls(self):
        # order 300 cuts the last doubling step short (256 -> 300); the batched
        # and single-point products round apart, and a Newton step carries that
        # into every later coefficient, so they may part by about N eps
        a0, n, eps = 0.4 + 0.1j, 300, np.finfo(float).eps
        rng = np.random.default_rng(41)
        z = a0 + np.repeat([0.9, 1.5], 6) * np.exp(2j * np.pi * rng.uniform(size=12))
        for emap in ([a0], exp_map_exterior(0.0, 0.5, n)):
            for oracle in self.ORACLES:
                batched = oracle(emap, z, n)
                for i in range(len(z)):
                    scalar = oracle(emap, complex(z[i]), n)
                    bound = n * eps * (1.0 + np.max(np.abs(scalar)))
                    assert np.max(np.abs(batched[:, i] - scalar)) <= bound


ORACLES = TestSeriesOrder.ORACLES
#: the table oracles: the log and ratio tables of F_0 ... F_N, and the table of F_j'/j
TABLE_ORACLES = (_log_table, _ratio_table, _derivative_table)
#: each oracle with the length of its result at N = 8
ORACLE_LENGTHS = list(zip(ORACLES, (8, 9, 8)))


class TestBatchedOracles:
    """An array of points gives one result column per point."""

    @pytest.mark.parametrize("oracle, length", ORACLE_LENGTHS)
    def test_array_z_adds_its_shape(self, oracle, length):
        emap = [0.3 - 0.1j, 0.2, 0.05j]
        assert oracle(emap, np.linspace(-1.0, 1.0, 5), 8).shape == (length, 5)
        assert oracle(emap, np.full((3, 4), 0.5j), 8).shape == (length, 3, 4)

    @pytest.mark.parametrize("oracle, length", ORACLE_LENGTHS)
    def test_scalar_z_still_gives_a_list(self, oracle, length):
        emap = [0.3 - 0.1j, 0.2, 0.05j]
        for z in (0.5j, np.complex128(0.5j), np.asarray(0.5j)):
            values = oracle(emap, z, 8)
            assert isinstance(values, list) and len(values) == length
            assert all(type(v) is complex for v in values)

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_columns_match_scalar_calls(self, oracle):
        rng = np.random.default_rng(29)
        eps = np.finfo(float).eps
        for _ in range(50):
            emap = draw_exterior_map(rng, 30)
            z = np.array([draw_disk(rng, 3.0) for _ in range(20)])
            batched = oracle(emap, z, 30)
            for i in range(20):
                scalar = oracle(emap, complex(z[i]), 30)
                bound = 64 * eps * (1.0 + np.max(np.abs(scalar)))
                assert np.max(np.abs(batched[:, i] - scalar)) <= bound

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_order_keyword_is_bit_identical_with_array_z(self, oracle):
        # the oracles take no order keyword: the series order follows N, and
        # a wider series (asked for through N = 2N + 4) leaves the values at N
        # unchanged, bit for bit
        rng = np.random.default_rng(31)
        for _ in range(10):
            emap = draw_exterior_map(rng, 30)
            z = np.array([draw_disk(rng, 3.0) for _ in range(6)]).reshape(2, 3)
            narrow = oracle(emap, z, 30)
            assert np.array_equal(narrow, oracle(emap, z, 2 * 30 + 4)[:len(narrow)])


@st.composite
def map_stacks(draw, max_maps=8, max_n=60):
    """A (B, t+1) stack of maps with |a_k| <= 2/(k+1), and an N up to ``max_n``."""
    maps, length = draw(st.integers(1, max_maps)), draw(st.integers(1, 13))
    stack = [[draw(bounded_complex(2.0 / (k + 1))) for k in range(length)] for _ in range(maps)]
    return np.array(stack, dtype=complex), draw(st.integers(0, max_n))


class TestStackedMaps:
    """A (B, n+1) stack of maps gives what each map gives alone, with a map axis first.

    The stack is computed in one pass, so its products are stacked BLAS
    calls where a map alone makes 2-D ones.  The two need not round alike,
    so each map is held to its 1-D result within 4 eps of the row scale,
    not bit for bit.
    """

    EPS = np.finfo(float).eps

    @settings(max_examples=25, deadline=None)
    @given(map_stacks())
    def test_each_table_of_a_stack_is_its_table_alone(self, drawn):
        stack, n = drawn
        tables = faber_system_from_recurrence(stack, n)
        assert tables.shape == (len(stack), n + 1, n + 1) and not tables.flags.writeable
        for a, table in zip(stack, tables):
            alone = faber_system_from_recurrence(a, n)
            assert table.shape == alone.shape and table.dtype == alone.dtype
            assert table.flags.writeable == alone.flags.writeable
            assert np.all(_row_deviation(table, alone) <= 4 * self.EPS)

    @settings(max_examples=15, deadline=None)
    @given(map_stacks(max_n=40))
    def test_each_map_of_a_stack_gets_its_oracle_table_alone(self, drawn):
        stack, n = drawn
        n = max(n, 1)
        for oracle in TABLE_ORACLES:
            tables = oracle(stack, n)
            assert not tables.flags.writeable
            for a, table in zip(stack, tables):
                alone = oracle(a, n)
                assert table.shape == alone.shape
                assert np.all(_row_deviation(table, alone) <= 4 * self.EPS)

    def test_a_stack_of_no_maps_gives_no_tables_and_no_values(self):
        stack = np.zeros((0, 4), dtype=complex)
        tables = faber_system_from_recurrence(stack, 6)
        assert tables.shape == (0, 7, 7) and not tables.flags.writeable
        assert _log_table(stack, 6).shape == _ratio_table(stack, 6).shape == (0, 7, 7)
        assert _derivative_table(stack, 6).shape == (0, 6, 6)
        assert exponential_map_characterization(tables, stack).shape == (0,)
        # a map of no coefficients is still refused, alone or in a stack
        for empty in (np.zeros(0), np.zeros((2, 0)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="at least one coefficient"):
                faber_system_from_recurrence(empty, 6)

    def test_a_stack_names_its_first_overflowing_map_and_row(self):
        # map 1 (a shift by 20) overflows from F_234 and map 2 from F_2; the
        # stack names map 1, at the row it names alone
        stack = np.array([[0.1, 0.05], [20.0, 0.0], [1e200, 0.0]])
        with pytest.raises(OverflowError, match="^the recurrence overflows float64 in map 1 "
                                                "from F_234 on$") as raised:
            faber_system_from_recurrence(stack, 240)
        assert (raised.value.map, raised.value.row) == (1, 234)
        with pytest.raises(OverflowError, match="^the recurrence overflows float64 from F_234 on$"):
            faber_system_from_recurrence(stack[1], 240)

    @pytest.mark.parametrize("lam, row", [(20.0, 319), (50.0, 247)])
    def test_the_named_row_is_the_first_float64_cannot_hold(self, lam, row):
        # a row depends only on the rows before it, so the rows after the first
        # one that leaves float64 may be inf or NaN; the row named is that
        # first one, at any N past it, and the table up to it is finite
        a = exp_map_exterior(0.1, lam, 400)
        for n in (400, row):
            with pytest.raises(OverflowError, match=f"from F_{row} on"):
                faber_system_from_recurrence(a, n)
        assert np.isfinite(faber_system_from_recurrence(a, row - 1)).all()


@pytest.mark.parametrize("a, closed", [
    (exp_map_exterior(0.0, lam, 60), exp_map_faber_closed_form(0.0, lam, 60))
    for lam in (0.7, 0.45 - 0.2j)] + [
    (to_exterior_map(Hypocycloid(m), 60), hypocycloid_faber_closed_form(m, 60))
    for m in range(1, 5)], ids=["expmap-0.7", "expmap-complex"] + [f"hypocycloid-{m}"
                                                                   for m in range(1, 5)])
def test_each_oracle_table_is_the_exact_closed_form(a, closed):
    # the derivative table's row j - 1 is F_j'/j: coefficient k is (k+1) c_{k+1}/j
    index = np.arange(1, 61)
    eps = np.finfo(float).eps
    for table, exact in ((_log_table(a, 60), closed), (_ratio_table(a, 60), closed),
                         (_derivative_table(a, 60), closed[1:, 1:] * index / index[:, None])):
        assert np.all(np.diag(table) == 1.0) and not np.triu(table, 1).any()
        assert np.all(_row_deviation(table, exact) <= 8 * eps)


def test_series_engine_and_oracles_stay_off_the_recurrence(monkeypatch):
    import faberpoly.faber as faber
    import faberpoly.maps as maps
    import faberpoly.series as series_module

    # faber.py generates only: no checker, no maps, no import deferred into a
    # function; the series engine serves the oracles alone, not maps.py
    for module, allowed in ((series_module, {"numpy"}), (faber, {"numpy", ".poly", ".series"}),
                            (maps, {"numpy", ".faber"})):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or "").split(".")[0])
        assert imported
        assert all(name in allowed or name in sys.stdlib_module_names
                   for name in imported), (module.__name__, imported)
        assert not any(isinstance(inner, (ast.Import, ast.ImportFrom))
                       for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                       for inner in ast.walk(node)), module.__name__

    # the recurrence and the kernel polynomials never call the series engine
    def refuse_series(*args, **kwargs):
        raise AssertionError("the recurrence used the series engine")

    with monkeypatch.context() as patch:
        patch.setattr(series_module, "PowerSeries", refuse_series)
        patch.setattr(faber, "PowerSeries", refuse_series)
        faber_system_from_recurrence(exp_map_exterior(0.1, 0.6j, 30), 30)
        kernel_polys(0.7 - 0.2j, 30)

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle ran the recurrence")

    monkeypatch.setattr(faber, "faber_system_from_recurrence", refuse)
    emap = [0.2, 0.1, 0.05j, -0.02]
    z = np.array([[0.5, -1.0 + 0.3j], [2.0j, 1.5]])
    for oracle in ORACLES:
        assert np.all(np.isfinite(oracle(emap, z, 12)))
    for oracle in TABLE_ORACLES:
        assert np.all(np.isfinite(oracle(emap, 12)))


def test_log_oracle_takes_no_reciprocal_and_no_product(monkeypatch):
    # the log is one triangular pass of its own, so it shares no series
    # operation with the ratio and derivative oracles
    def refuse(*args, **kwargs):
        raise AssertionError("the log oracle used a series product or reciprocal")

    monkeypatch.setattr(PowerSeries, "reciprocal", refuse)
    monkeypatch.setattr(PowerSeries, "__mul__", refuse)
    emap = [0.2, 0.1, 0.05j, -0.02]
    z = np.array([[0.5, -1.0 + 0.3j], [2.0j, 1.5]])
    for values in (faber_values_from_log_series(emap, 0.7j, 12),
                   faber_values_from_log_series(emap, z, 12)):
        assert np.all(np.isfinite(values))


def value_recurrence(a, z, n):
    """F_j(z) and F_j'(z), j = 0..n, at the points z, by the recurrence on
    values, one step per index over the map's entries up to its last nonzero:
    F_{j+1} = (z - a_0) F_j - sum_{k=1}^{j} a_k F_{j-k} - j a_j and
    F'_{j+1} = F_j + (z - a_0) F'_j - sum_{k=1}^{j} a_k F'_{j-k}."""
    a = np.asarray(a)[:np.flatnonzero(a)[-1] + 1]
    f = np.zeros((2, n + 1, len(z)), dtype=complex)
    f[0, 0] = 1.0
    for j in range(n):
        k = min(j, len(a) - 1)
        tail = a[1:k + 1] @ f[:, j - k:j][:, ::-1]         # F_{j-1} ... F_{j-k}, both rows
        f[0, j + 1] = (z - a[0]) * f[0, j] - tail[0] - (j * a[j] if j < len(a) else 0)
        f[1, j + 1] = f[0, j] + (z - a[0]) * f[1, j] - tail[1]
    return f


def oracle_gaps(a, n=1000):
    """The worst gap of each point oracle from ``value_recurrence`` at 8
    seeded points Psi(rho e^{i theta}), four on rho = 1.05 and four on 1.5:
    F_j(z) relative to 1 + |F_j(z)|, and the derivative oracle's F_j'(z)/j
    relative to 1 + |F_j'(z)/j|, j = 1..n."""
    w = np.repeat([1.05, 1.5], 4) * np.exp(2j * np.pi * np.random.default_rng(0).random(8))
    z = w + np.polynomial.polynomial.polyval(1 / w, a)
    f, d = value_recurrence(a, z, n)[:, 1:]
    pairs = {"log": (faber_values_from_log_series(a, z, n), f),
             "ratio": (faber_values_from_ratio_series(a, z, n)[1:], f),
             "derivative": (faber_derivative_values_from_series(a, z, n),
                            d / np.arange(1, n + 1)[:, None])}
    return {name: float(np.max(np.abs(got - want) / (1 + np.abs(want))))
            for name, (got, want) in pairs.items()}


class TestPointOraclesAgainstTheValueRecurrence:
    """The three public point oracles at N = 1000 against the recurrence on
    values, which reads only map coefficients.  Worst gaps measured over
    the three maps: log 2.5e-14, ratio 1.0e-12 and derivative 8.8e-13, all
    at the exp map with lam = 0.9; the bounds sit 4 to 11 times above them.
    A planted fault reads 1.0e-3 to 1.1e-3 in the oracles that use the
    faulty operation.  The three maps take 0.43 s and the two faults 0.30 s."""

    BOUNDS = {"log": 1e-13, "ratio": 1e-11, "derivative": 1e-11}
    MAPS = {"expmap-0.5": exp_map_exterior(0.1, 0.5, 1000),
            "expmap-0.9": exp_map_exterior(0.1, 0.9, 1000),
            "gap": to_exterior_map(GapMap(0.1 + 0.1j, 3, [0.15, 0.05j]), 1000)}

    @pytest.mark.parametrize("a", MAPS.values(), ids=MAPS)
    def test_each_oracle_is_the_value_recurrence_at_n_1000(self, a):
        gaps = oracle_gaps(a)
        assert all(gaps[name] <= bound for name, bound in self.BOUNDS.items()), gaps

    @pytest.mark.parametrize("method", ["reciprocal", "__mul__"])
    def test_a_planted_series_fault_fails_the_check(self, monkeypatch, method):
        # coefficient 5 of every reciprocal or product moved by 1e-3 of 1 + its magnitude
        honest = getattr(PowerSeries, method)

        def planted(*args):
            coeffs = np.array(honest(*args).coeffs)
            coeffs[5] += 1e-3 * (1 + np.abs(coeffs[5]))
            return PowerSeries(coeffs)

        monkeypatch.setattr(PowerSeries, method, planted)
        gaps = oracle_gaps(self.MAPS["expmap-0.5"])
        assert any(gaps[name] > bound for name, bound in self.BOUNDS.items()), gaps


class TestRatioSeries:
    def test_zeroth_coefficient_is_one(self):
        emap = [0.2, 0.3]
        assert abs(faber_values_from_ratio_series(emap, 0.7j, 4)[0] - 1.0) < 1e-14

    def test_shift_map_is_geometric(self):
        a0 = 0.15 - 0.25j
        z = 0.8 + 0.6j
        coeffs = faber_values_from_ratio_series([a0], z, 10)
        for j in range(11):
            assert abs(coeffs[j] - (z - a0) ** j) < 1e-11 * (1 + abs(z - a0) ** j)

    def test_single_cusp_value(self):
        emap = to_exterior_map(Hypocycloid(1), 4)
        coeffs = faber_values_from_ratio_series(emap, 1.0, 3)
        assert abs(coeffs[3] + 2.0) < 1e-13  # F_3(1) = -2


class TestDerivativeSeries:
    def test_first_coefficient(self):
        emap = [0.5 + 0.1j, 0.2]
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
        f3_prime = exp_map_faber_closed_form(0.0, lam, 3)[3:, 1:] * np.arange(1, 4)
        assert abs(values[2] - evaluate_rows(f3_prime, z)[0][0] / 3.0) < 1e-12


class TestKernelPolys:
    def test_first_two(self):
        lam = 0.45 - 0.3j
        ps = kernel_polys(lam, 3)
        assert ps[0].tolist() == [1, 0, 0, 0]
        # P_1 = lam*F_0 + F_1 = lam + (z - lam) = z
        assert np.abs(ps[1, :2] - (0, 1)).max() < 1e-15

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
            exp_part = PowerSeries([(-lam) ** k / math.factorial(k) for k in range(order + 1)])
            kernel = PowerSeries(PowerSeries([1] + [0] * order).coeffs
                                 - z * (t_series * exp_part).coeffs).reciprocal()
            values = evaluate_rows(ps, z)[0]
            assert np.all(np.abs(kernel.coeffs - values) <= 1e-10 * (1.0 + np.abs(values)))

    def test_explicit_sum_definition(self):
        lam = 0.35 + 0.2j
        n = 12
        ps = kernel_polys(lam, n)
        fs = faber_system_from_recurrence(exp_map_exterior(0.0, lam, n), n)
        direct = np.array([sum(lam ** (j - k) * fs[k] for k in range(j + 1))
                           for j in range(n + 1)])
        assert _row_deviation(ps, direct).max() < 1e-13

    @pytest.mark.parametrize("lam, n", [(0.9, 200), (5.0, 40)])
    def test_every_kernel_polynomial_is_monic_of_full_degree(self, lam, n):
        # the coefficients of P_j reach far past 1e13 here; none may drop the leading 1
        assert_monic_table(kernel_polys(lam, n))


class TestDerivativeIdentity:
    def test_runs_the_recurrence_once(self, monkeypatch):
        import faberpoly.faber as faber_module

        calls = []
        original = faber_module.faber_system_from_recurrence

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(faber_module, "faber_system_from_recurrence", counted)
        assert check_derivative_identity(0.7, 20).passed
        assert len(calls) == 1

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
