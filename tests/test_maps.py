import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from faberpoly.faber import exp_map_exterior, faber_system_from_recurrence, kernel_polys
from faberpoly.maps import (BRANCH_POINT, BranchCutError, ExpMap, GapMap, Hypocycloid,
                            Shift, TwoGapMap, chebyshev_scaled, evaluate_map,
                            exp_map_boundary, exp_map_faber_closed_form,
                            gap_faber_closed_form, hypocycloid_faber_closed_form,
                            inverse_exp_map, lambert_w0, lambert_w0_power_series,
                            starlikeness_grid_infimum, starlikeness_infimum,
                            to_exterior_map, two_gap_faber_system,
                            univalence_certificate_bound, _shifted_power_table)
from faberpoly.poly import ComplexPolynomial, evaluate_rows
from faberpoly.series import PowerSeries
from faberpoly.suites import _stacked_tables, draw_two_gap_map
from faberpoly.verify import _row_deviation

try:
    from scipy.special import lambertw as scipy_lambertw
    HAVE_SCIPY = True
except ImportError:  # pragma: no cover
    HAVE_SCIPY = False


class TestFamilyInvariants:
    def test_gap_map_needs_nonzero_leading_tail(self):
        with pytest.raises(ValueError):
            GapMap(0.0, 2, (0.0, 0.1))

    def test_gap_map_needs_positive_n(self):
        with pytest.raises(ValueError):
            GapMap(0.0, 0, (0.1,))

    def test_two_gap_rejects_adjacent_gaps(self):
        # m = n - 1 is outside the family
        with pytest.raises(ValueError):
            TwoGapMap(0.0, 2, 0.1, 3, (0.1,))

    def test_two_gap_rejects_zero_alpha_m(self):
        with pytest.raises(ValueError):
            TwoGapMap(0.0, 1, 0.0, 3, (0.1,))

    def test_hypocycloid_needs_positive_order(self):
        with pytest.raises(ValueError):
            Hypocycloid(0)


class TestToExteriorMap:
    def test_single_cusp(self):
        assert to_exterior_map(Hypocycloid(1), 5).tolist() == [0j, 1 + 0j, 0j, 0j, 0j, 0j]

    def test_exponential_factorial_tail(self):
        lam = 0.5
        a = to_exterior_map(ExpMap(0.0, lam), 3)
        assert len(a) == 4 and abs(a[0] - lam) < 1e-15
        expected = (lam ** 2 / 2, lam ** 3 / 6, lam ** 4 / 24)
        for got, want in zip(a[1:], expected):
            assert abs(got - want) < 1e-15

    def test_gap_layout(self):
        assert to_exterior_map(GapMap(1.0, 3, (0.2,)), 3).tolist() == [1.0, 0j, 0j, 0.2 + 0j]

    def test_short_truncation_is_padded(self):
        # a truncation below highest_index keeps every structurally nonzero index
        assert to_exterior_map(GapMap(1.0, 3, (0.2,)), 2).tolist() == [1.0, 0j, 0j, 0.2 + 0j]
        assert to_exterior_map(Hypocycloid(4), 0).tolist() == [0j, 0j, 0j, 0j, 0.25 + 0j]
        two_gap = to_exterior_map(TwoGapMap(0.5, 1, 0.3, 3, (0.1, 0.2)), 1)
        assert two_gap.tolist() == [0.5, 0.3 + 0j, 0j, 0.1 + 0j, 0.2 + 0j]

    def test_shift_has_zero_tail(self):
        a = to_exterior_map(Shift(2j), 4)
        assert len(a) == 5 and a[0] == 2j and not a[1:].any()


class TestEvaluateMap:
    def test_shift(self):
        assert evaluate_map(Shift(0.5j), 2.0) == 2.0 + 0.5j

    def test_exponential_at_one(self):
        assert abs(evaluate_map(ExpMap(0.0, 1.0), 1.0) - math.e) < 1e-15

    def test_single_cusp_at_two(self):
        assert evaluate_map(Hypocycloid(1), 2.0) == 2.5

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            evaluate_map(Shift(0.0), 0.0)

    def test_gap_value_matches_truncated_series(self):
        fam = GapMap(0.3, 2, (0.1, 0.05j))
        w = 1.7 - 0.4j
        direct = w + 0.3 + 0.1 * w ** -2 + 0.05j * w ** -3
        assert abs(evaluate_map(fam, w) - direct) < 1e-15


class TestGapClosedForm:
    def test_low_indices_are_shifted_monomials(self):
        fam = GapMap(1.0, 3, (0.2,))
        assert gap_faber_closed_form(fam, 0).tolist() == [[1]]
        assert gap_faber_closed_form(fam, 3)[3].tolist() == [-1, 3, -3, 1]    # (z - 1)^3

    def test_corrected_index(self):
        # (z-1)^4 - 0.8
        p = gap_faber_closed_form(GapMap(1.0, 3, (0.2,)), 4)[4:]
        assert abs(p[0, 0] - (1.0 - 0.8)) < 1e-15
        assert abs(evaluate_rows(p, 1.0)[0][0] + 0.8) < 1e-15

    def test_monomial_root_structure(self):
        fam = GapMap(0.5 + 0.5j, 2, (0.3,))
        for r in ComplexPolynomial(gap_faber_closed_form(fam, 2)[2]).roots():
            assert abs(r - (0.5 + 0.5j)) < 1e-7

    def test_beyond_closed_range_rejected(self):
        with pytest.raises(ValueError):
            gap_faber_closed_form(GapMap(0.0, 2, (0.1,)), 4)

    def test_matches_recurrence(self):
        fam = GapMap(0.4 - 0.2j, 3, (0.15, 0.05))
        emap = to_exterior_map(fam, 8)
        fs = faber_system_from_recurrence(emap, 4)
        closed = gap_faber_closed_form(fam, 4)
        assert _row_deviation(closed, fs).max() < 1e-12


class TestTwoGapSystem:
    def test_branch_monomials_and_correction(self):
        fam = TwoGapMap(0.2, 2, 0.3, 5, (0.1,))
        system = two_gap_faber_system(fam, 8)
        # branch 1: F_2 = (z - z0)^2
        assert np.abs(system[2, :3] - (0.04, -0.4, 1)).max() < 1e-14
        # branch 2: F_3 = (z - z0)^3 - 3 alpha_m
        assert abs(evaluate_rows(system[3:4], 0.2)[0][0] + 3 * 0.3) < 1e-14

    def test_matches_generic_recurrence(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            fam = draw_two_gap_map(rng)
            system = two_gap_faber_system(fam, 20)
            emap = to_exterior_map(fam, max(fam.highest_index, 20))
            generic = faber_system_from_recurrence(emap, 20)
            assert _row_deviation(system, generic).max() <= 1e-10


def one_map_two_gap_table(fam, n_highest):
    """The two-gap table of one map, its piecewise recurrence written out one
    row and one term at a time: the reference of the stacked form."""
    z0, m, am, n, top = fam.z0, fam.m, fam.alpha_m, fam.n, fam.highest_index
    head = min(m + 1, n_highest)
    table = np.zeros((n_highest + 1, n_highest + 1), dtype=complex)
    table[:head + 1, :head + 1] = _shifted_power_table(z0, head)
    if head == m + 1:
        table[head, 0] -= (m + 1) * am
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(head, n_highest):
            row, prev = table[j + 1], table[j, :j + 1]
            row[1:j + 2] = prev
            row[:j + 1] -= z0 * prev
            row[:j - m + 1] -= am * table[j - m, :j - m + 1]
            if j >= n:
                for k in range(n, min(j, top) + 1):
                    row[:j - k + 1] -= fam.tail[k - n] * table[j - k, :j - k + 1]
                if j <= top:
                    row[0] -= j * fam.tail[j - n]
    return table


def mixed_two_gap_maps(seed, count):
    """Two-gap maps of m = 1..4, n = m + 2 .. m + 5 and tails of 1 to 4
    entries, a quarter of the later tail entries and of the z0 exactly 0,
    every other map real (its tables then hold signed zero imaginary parts)."""
    rng = np.random.default_rng(seed)

    def point(i, zero_share=0.0):       # of map i: real, imaginary part +-0, for even i
        if rng.uniform() < zero_share:
            return 0j
        return complex(*rng.normal(scale=0.4, size=2) * (1, i % 2))
    maps = []
    for i in range(count):
        m = int(rng.integers(1, 5))
        n = m + 2 + int(rng.integers(0, 4))
        tail = [point(i)] + [point(i, 0.25) for _ in range(int(rng.integers(0, 4)))]
        maps.append(TwoGapMap(point(i, 0.25), m, point(i), n, tail))
    return maps


class TestTwoGapStack:
    """A stack of two-gap maps is each map's table alone, bit for bit, and
    refuses as its first map that overflows refuses alone."""

    @pytest.mark.parametrize("n_highest", [3, 24, 60, 200])
    def test_each_table_is_the_one_map_table_bit_for_bit(self, n_highest):
        maps = mixed_two_gap_maps(n_highest, 12)
        stack = two_gap_faber_system(maps, n_highest)
        assert stack.shape == (12, n_highest + 1, n_highest + 1) and not stack.flags.writeable
        for fam, table in zip(maps, stack):       # bit for bit, signed zeros too
            assert table.tobytes() == one_map_two_gap_table(fam, n_highest).tobytes()
            assert table.tobytes() == two_gap_faber_system(fam, n_highest).tobytes()
        assert two_gap_faber_system(maps[:0], n_highest).shape == (0, n_highest + 1,
                                                                   n_highest + 1)

    @pytest.mark.parametrize("middle", [
        TwoGapMap(1e6, 1, 0.3, 3, [0.1]),           # overflows in the recurrence
        TwoGapMap(1e6, 55, 0.3, 57, [0.1]),         # and in its head rows
    ], ids=["recurrence", "head"])
    def test_an_overflowing_map_refuses_the_stack_as_it_refuses_alone(self, middle):
        maps = mixed_two_gap_maps(5, 6)
        maps[3:3] = [middle, TwoGapMap(1e7, 2, 0.1, 5, [0.2])]
        with pytest.raises(OverflowError) as alone:
            two_gap_faber_system(middle, 60)
        assert alone.value.map is None
        with pytest.raises(OverflowError) as stacked:
            two_gap_faber_system(maps, 60)
        row = alone.value.row
        assert (stacked.value.map, stacked.value.row) == (3, row)
        assert str(stacked.value) == (f"the two-gap recurrence overflows float64 in map 3 "
                                      f"from F_{row} on")
        # the suites' reading of a stack: the tables before map 3, then its own error
        tables, error = _stacked_tables(two_gap_faber_system, maps, 60, "the two-gap recurrence")
        assert len(tables) == 3
        assert (str(error), error.map, error.row) == (str(alone.value), None, row)
        for fam, table in zip(maps, tables):
            assert table.tobytes() == one_map_two_gap_table(fam, 60).tobytes()


class TestHypocycloidClosedForm:
    def test_single_cusp_hand_values(self):
        system = hypocycloid_faber_closed_form(1, 3)
        assert system[3].tolist() == [0, -3, 0, 1]
        assert system[2].tolist() == [-2, 0, 1, 0]

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            hypocycloid_faber_closed_form(1, 0)

    def test_bracket_floor_sets_lowest_power(self):
        # the lowest surviving power of z is j mod (m+1)
        for m in (2, 3):
            system = hypocycloid_faber_closed_form(m, 9)
            for j in (4, 7, 9):
                assert np.flatnonzero(system[j])[0] == j % (m + 1)

    def test_matches_recurrence_m2(self):
        emap = to_exterior_map(Hypocycloid(2), 24)
        fs = faber_system_from_recurrence(emap, 24)
        closed = hypocycloid_faber_closed_form(2, 24)
        assert _row_deviation(closed, fs).max() <= 1e-9

    def test_tenth_polynomial_equal_within(self):
        # two independently computed F_10 compared within a tolerance
        emap = to_exterior_map(Hypocycloid(2), 10)
        fs = faber_system_from_recurrence(emap, 10)
        assert _row_deviation(hypocycloid_faber_closed_form(2, 10)[10:], fs[10:]).max() <= 1e-10


class TestChebyshevScaled:
    def test_low_indices(self):
        system = chebyshev_scaled(4)
        assert system[0].tolist() == [1, 0, 0, 0, 0]
        assert system[1].tolist() == [0, 1, 0, 0, 0]
        assert system[4].tolist() == [2, 0, -4, 0, 1]

    def test_equals_single_cusp_closed_form(self):
        closed, cheb = hypocycloid_faber_closed_form(1, 24), chebyshev_scaled(24)
        assert _row_deviation(closed, cheb)[1:].max() <= 1e-12


def fraction_closed_form(eta, lam, n_highest):
    """The exp-map closed form with each coefficient an exact Fraction,
    rounded by float(), as the reference for the integer-division form."""
    lam = complex(lam)
    in_powers = np.eye(n_highest + 1, dtype=complex)
    for j in range(1, n_highest + 1):
        for k in range(j):
            rational = Fraction(j) * Fraction(k) ** (j - k - 1) / math.factorial(j - k)
            in_powers[j, k] = float(rational) * (-lam) ** (j - k)
    return in_powers @ _shifted_power_table(complex(eta), n_highest)


class TestExpMapClosedForm:
    @pytest.mark.parametrize("eta", [0.0, 0.3 - 0.2j, -1.2 + 0.7j])
    @pytest.mark.parametrize("lam", [0.0, 1e-3j, 0.45, -0.8 + 0.3j, 1.7, -3.0 - 2.0j])
    def test_bit_identical_to_the_fraction_form(self, eta, lam):
        for n in (1, 2, 7, 20, 33, 60):
            table = exp_map_faber_closed_form(eta, lam, n)
            assert table.tobytes() == fraction_closed_form(eta, lam, n).tobytes()

    @pytest.mark.parametrize("n", [171, 300])
    @pytest.mark.parametrize("lam, overflows", [(0.45, False), (-5.0 + 1.0j, False),
                                                (100.0, True), (-1e3j, True)])
    def test_past_the_float_factorials_same_table_or_same_overflow(self, n, lam, overflows):
        # (j - k)! leaves the float range from 171 on; the division stays exact
        if not overflows:
            table = exp_map_faber_closed_form(0.2, lam, n)
            assert table.tobytes() == fraction_closed_form(0.2, lam, n).tobytes()
            return
        # the reference's (-lam)^(j - k) leaves float64 and raises bare; the
        # closed form names itself and the row that overflows first
        with pytest.raises(OverflowError, match="complex exponentiation"):
            fraction_closed_form(0.2, lam, n)
        with pytest.raises(OverflowError) as raised:
            exp_map_faber_closed_form(0.2, lam, n)
        first = {100.0: 155, -1e3j: 103}[lam]
        assert str(raised.value) == f"the exp-map closed form overflows float64 from F_{first} on"

    @pytest.mark.parametrize("eta", [0.0, 0.2])
    @pytest.mark.parametrize("n", [20, 60])
    def test_a_stack_is_each_lambda_alone_bit_for_bit(self, eta, n):
        lams = [0.0, 1e-3j, 0.45, -0.8 + 0.3j, 1.7, -3.0 - 2.0j]
        stack = exp_map_faber_closed_form(eta, np.array(lams), n)
        assert stack.shape == (len(lams), n + 1, n + 1) and not stack.flags.writeable
        for lam, table in zip(lams, stack):       # bit for bit, signed zeros too
            assert table.tobytes() == exp_map_faber_closed_form(eta, lam, n).tobytes()
        assert exp_map_faber_closed_form(eta, [], n).shape == (0, n + 1, n + 1)

    @pytest.mark.parametrize("eta, n", [(0.0, 171), (0.2, 171), (1e3, 110), (-50.0, 200),
                                        (10.0, 250)])
    def test_a_stack_fails_as_its_first_failing_map(self, eta, n):
        # (-lam)^p of 100 leaves float64 from p = 155 and of -1e3j from 103, the
        # shifted powers from F_103 at eta = 1e3 and the products before them
        # at -50 and 10: the stack names the first map that fails alone, with
        # its row, and the maps before it are the same tables alone
        lams = [0.45, 1.7, 100.0, -1e3j]
        alone = []
        for lam in lams:
            try:
                alone.append(exp_map_faber_closed_form(eta, lam, n))
            except OverflowError as exc:
                alone.append(exc)
        first = next(i for i, table in enumerate(alone) if isinstance(table, OverflowError))
        with pytest.raises(OverflowError) as raised:
            exp_map_faber_closed_form(eta, np.array(lams), n)
        row = alone[first].row
        assert (raised.value.map, raised.value.row) == (first, row)
        assert str(raised.value) == (f"the exp-map closed form overflows float64 "
                                     f"in map {first} from F_{row} on")
        head = exp_map_faber_closed_form(eta, np.array(lams[:first]), n)
        assert all(np.array_equal(table, alone[i]) for i, table in enumerate(head))

    def test_a_stack_is_one_dimensional(self):
        with pytest.raises(ValueError, match=r"1-D array .* shape \(2, 1\)"):
            exp_map_faber_closed_form(0.0, [[0.1], [0.2]], 4)

    def test_first_index(self):
        p = exp_map_faber_closed_form(0.3, 0.2j, 1)[1]
        assert np.abs(p - (-0.3 - 0.2j, 1)).max() < 1e-15

    def test_second_index_hand_sum(self):
        eta, lam = 0.5, 0.25
        p = exp_map_faber_closed_form(eta, lam, 2)[2]
        expected = np.convolve((-eta, 1), (-eta, 1)) - 2 * lam * np.array((-eta, 1, 0))
        assert np.abs(p - expected).max() < 1e-14

    def test_zero_parameter_collapses_to_monomials(self):
        # 0^0 = 1 convention: lam = 0 must give (z - eta)^j
        eta = 0.7 - 0.1j
        p = exp_map_faber_closed_form(eta, 0.0, 6)[6]
        expected = [math.comb(6, k) * (-eta) ** (6 - k) for k in range(7)]
        assert np.abs(p - expected).max() < 1e-13

    def test_common_root_at_center(self):
        for lam in (0.3, 0.9j, -0.5 + 0.5j, 1.0):
            eta = 0.2 - 0.4j
            system = exp_map_faber_closed_form(eta, lam, 20)[2:]
            values = evaluate_rows(system, eta)[0]
            assert np.all(np.abs(values) <= 1e-10 * (1.0 + np.abs(system).max(axis=1)))

    def test_second_root_is_reflected_point(self):
        eta, lam = 0.1, 0.45
        roots = ComplexPolynomial(exp_map_faber_closed_form(eta, lam, 2)[2]).roots()
        for expected in (eta, eta + 2 * lam):
            assert min(abs(r - expected) for r in roots) < 1e-9

    def test_third_polynomial_rejects_reflected_point(self):
        # F_3(eta + 2 lam) = -lam^3, nonzero whenever lam is
        for lam in (0.3, 0.8j, -0.6):
            p = exp_map_faber_closed_form(0.0, lam, 3)[3:]
            assert abs(evaluate_rows(p, 2 * lam)[0][0] + lam ** 3) < 1e-12

    def test_matches_recurrence(self):
        eta, lam = 0.35 - 0.2j, 0.7 * cmath.exp(0.5j)
        fs = faber_system_from_recurrence(exp_map_exterior(eta, lam, 20), 20)
        closed = exp_map_faber_closed_form(eta, lam, 20)
        assert _row_deviation(closed, fs).max() <= 1e-9


# every generator of a Faber or kernel system: coefficients reach 1e20 at
# j = 100 (single cusp), so a relative trim would drop the leading 1
@pytest.mark.parametrize("build", [
    lambda: gap_faber_closed_form(GapMap(0.9 - 0.4j, 99, (0.3,)), 100),
    lambda: two_gap_faber_system(TwoGapMap(0.9 - 0.4j, 2, 0.3, 5, (0.2, 0.1)), 100),
    lambda: hypocycloid_faber_closed_form(1, 100),
    lambda: chebyshev_scaled(100),
    lambda: exp_map_faber_closed_form(0.3, 0.5, 60),
    lambda: faber_system_from_recurrence(to_exterior_map(ExpMap(0.3, 0.9), 100), 100),
    lambda: kernel_polys(0.9, 100),
], ids=["gap", "twogap", "hypocycloid", "chebyshev", "expmap", "recurrence", "kernel"])
def test_closed_form_table_is_read_only_and_monic(build):
    table = build()
    assert table.shape == (len(table), len(table)) and table.dtype == complex
    assert not table.flags.writeable
    assert np.all(np.diagonal(table) == 1.0)
    assert np.all(np.triu(table, 1) == 0.0)


# each closed form names itself and the first row float64 cannot hold, as the
# recurrence does, and warns about nothing on the way
@pytest.mark.parametrize("build, message", [
    (lambda: two_gap_faber_system(TwoGapMap(0.9, 1, 0.4, 3, [0.2, 0.1]), 1500),
     "the two-gap recurrence overflows float64 from F_1429 on"),
    (lambda: two_gap_faber_system(TwoGapMap(1e3, 150, 0.4, 153, [0.2]), 160),
     "the two-gap recurrence overflows float64 from F_103 on"),
    # (-z0)^103 leaves float64 in the binomial table of the shifted powers
    (lambda: gap_faber_closed_form(GapMap(1e3, 200, [0.1]), 201),
     "the gap closed form overflows float64 from F_103 on"),
    (lambda: exp_map_faber_closed_form(1e3, 0.1, 110),
     "the exp-map closed form overflows float64 from F_103 on"),
    # the product with the shifted powers overflows before the powers do (F_182)
    (lambda: exp_map_faber_closed_form(-50.0, 10.0, 200),
     "the exp-map closed form overflows float64 from F_175 on"),
    (lambda: exp_map_faber_closed_form(10.0, 10.0, 250),
     "the exp-map closed form overflows float64 from F_243 on"),
    # (-lam)^(j - k) of one coefficient leaves float64 while the row is formed
    (lambda: exp_map_faber_closed_form(0.2, 100.0, 171),
     "the exp-map closed form overflows float64 from F_155 on"),
    (lambda: exp_map_faber_closed_form(0.0, 5.0, 450),
     "the exp-map closed form overflows float64 from F_442 on"),
    (lambda: hypocycloid_faber_closed_form(1, 1500),
     "the hypocycloid closed form for m=1 overflows float64 from F_1482 on"),
    (lambda: chebyshev_scaled(1500),
     "the scaled Chebyshev recurrence overflows float64 from C_1482 on"),
    # entry k of the W0 series is k^(k-2)/(k-1)!, past float64 from k = 721 on
    (lambda: lambert_w0_power_series(1, 721),
     "the W0^1 power series overflows float64 from c_721 on"),
], ids=["twogap-recurrence", "twogap-head", "gap", "expmap-powers", "expmap-early-row",
        "expmap-product", "expmap-coefficient", "expmap-coefficient-eta0", "hypocycloid",
        "chebyshev", "lambert-series"])
def test_closed_form_overflow_names_the_form_and_the_first_row(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as raised:
            build()
    assert str(raised.value) == message


def test_shifted_powers_are_nan_from_the_first_row_float64_cannot_hold():
    table = _shifted_power_table(1e3, 105)
    assert np.isfinite(table[:103]).all() and np.isnan(table[103:]).all()


def test_a_zero_power_never_overflows_the_binomial_table():
    # math.comb(j, k) leaves float64 from j = 1030 on; at z0 = 0 every power
    # but the leading one is exactly 0, so the rows are the monomials z^j
    table = gap_faber_closed_form(GapMap(0.0, 1100, [0.1]), 1101)
    expected = np.eye(1102, dtype=complex)
    expected[-1, 0] = -1101 * 0.1
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", (0, 1, 24))
def test_shifted_powers_at_zero_are_the_entry_by_entry_table(n):
    """At z0 = 0 the identity comes back as it is: the table the binomial
    loop fills entry by entry, (-z0)^(j-k) times its binomial, zero signs
    included."""
    loop = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        powers = [(-0j) ** (j - k) for k in range(j + 1)]
        loop[j, :j + 1] = [(math.comb(j, k) if power else 1) * power
                           for k, power in enumerate(powers)]
    table = _shifted_power_table(0j, n)
    assert np.array_equal(table, loop)
    assert np.array_equal(np.signbit(table.view(float)), np.signbit(loop.view(float)))


class TestLambert:
    def test_at_zero(self):
        res = lambert_w0(0.0)
        assert res.converged and res.value == 0

    def test_at_e(self):
        res = lambert_w0(complex(math.e))
        assert res.converged and abs(res.value - 1.0) < 1e-15

    def test_branch_point_exact(self):
        res = lambert_w0(BRANCH_POINT)
        assert res.value == -1.0 and res.converged

    def test_open_cut_rejected(self):
        with pytest.raises(BranchCutError):
            lambert_w0(-1.0)
        with pytest.raises(BranchCutError):
            lambert_w0(BRANCH_POINT - 1e-9)

    def test_defining_identity_round_trip(self):
        # 200 principal-region points with Re w > -1; complex draws are
        # kept inside the principal range Re w > -Im w cot(Im w), outside
        # which w e^w leaves the branch and the identity cannot hold
        rng = np.random.default_rng(23)
        count = 0
        while count < 200:
            w = complex(rng.uniform(-1.0, 2.5), rng.uniform(-2.5, 2.5))
            eta = w.imag
            if abs(eta) >= math.pi:
                continue
            boundary = -1.0 if abs(eta) < 1e-9 else -eta / math.tan(eta)
            if w.real <= boundary + 0.05:
                continue
            count += 1
            res = lambert_w0(w * cmath.exp(w))
            assert res.converged
            assert abs(res.value - w) <= 1e-11 * (1.0 + abs(w))

    def test_residual_contract(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            t = complex(rng.uniform(-2, 4), rng.uniform(-3, 3))
            if abs(t.imag) < 1e-9 and t.real < BRANCH_POINT:
                continue
            res = lambert_w0(t)
            assert res.converged
            assert res.residual <= 1e-12 * (1.0 + abs(t))

    def test_real_arguments_give_real_values(self):
        for x in np.linspace(BRANCH_POINT + 1e-6, 10.0, 50):
            res = lambert_w0(complex(x))
            assert res.converged and res.value.imag == 0.0

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    def test_against_scipy(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            t = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(t.imag) < 1e-9 and t.real <= BRANCH_POINT:
                continue
            mine = lambert_w0(t).value
            ref = complex(scipy_lambertw(t, 0))
            assert abs(mine - ref) <= 1e-10 * (1.0 + abs(ref))

    @pytest.mark.skipif(not HAVE_SCIPY, reason="scipy unavailable")
    def test_against_scipy_near_cut(self):
        for re in np.linspace(-5.0, -0.4, 40):
            for im in (1e-8, -1e-8, 1e-3, -1e-3):
                t = complex(re, im)
                mine = lambert_w0(t).value
                ref = complex(scipy_lambertw(t, 0))
                assert abs(mine - ref) <= 1e-9 * (1.0 + abs(ref))


def _mpmath_w0(t: complex) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.lambertw(mpmath.mpc(t.real, t.imag)))


#: arguments on rays of moduli 1e-12..1e300, on both sides of the cut, on a
#: ring around -1/e, and three moduli that overflowed a cubed branch-point seed
LAMBERT_SWEEP = (
    [r * cmath.exp(1j * math.pi * (k + 0.5) / 6) for k in range(12)
     for r in np.geomspace(1e-12, 1e300, 32)]
    + [complex(-x, side * im) for x in np.geomspace(0.37, 1e6, 24)
       for im in (1e-12, 1e-3) for side in (1, -1)]
    + [BRANCH_POINT + r * cmath.exp(1j * math.pi * (k + 0.25) / 8) for k in range(16)
       for r in np.geomspace(1e-14, 0.5, 14)]
    + [1e210 + 0j, 1e300 + 0j, -1e250j])


class TestLambertAgainstMpmath:
    def test_sweep(self):
        for t in LAMBERT_SWEEP:
            res = lambert_w0(t)
            ref = _mpmath_w0(t)
            bound = 1e-9 if abs(t - BRANCH_POINT) < 1e-6 else 1e-10
            assert res.converged, t
            assert abs(res.value - ref) <= bound * (1.0 + abs(ref)), t

    def test_one_halley_run_per_argument(self, monkeypatch):
        import faberpoly.maps as maps
        import faberpoly.suites as suites

        counts = {"lambert": 0, "halley": 0}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(maps, "_halley", counting("halley", maps._halley))
        for module in (maps, suites):
            monkeypatch.setattr(module, "lambert_w0", counting("lambert", module.lambert_w0))
        assert suites.suite_lambert(0).passed
        assert counts["lambert"] > 1000
        assert counts["halley"] == counts["lambert"]


class TestInverseExpMap:
    def test_zero_parameter_is_shift_inverse(self):
        assert inverse_exp_map(3.0 + 1j, 0.5, 0.0) == 2.5 + 1j

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        eta, lam = 0.0, 0.8
        fam = ExpMap(eta, lam)
        for _ in range(100):
            radius = 1.1 + 8.9 * rng.uniform()
            w = radius * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            z = evaluate_map(fam, w)
            assert abs(inverse_exp_map(z, eta, lam) - w) <= 1e-10

    def test_exterior_modulus(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            w = (1.05 + 3 * rng.uniform()) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            z = evaluate_map(ExpMap(0.1, 0.6), w)
            assert abs(inverse_exp_map(z, 0.1, 0.6)) > 1.0

    def test_center_rejected(self):
        with pytest.raises(ValueError):
            inverse_exp_map(0.5, 0.5, 0.3)


class TestLambertPowerSeries:
    def test_leading_coefficients(self):
        s = lambert_w0_power_series(1, 4)
        assert abs(s[1] - 1.0) < 1e-15
        assert abs(s[2] + 1.0) < 1e-15
        assert abs(s[3] - 1.5) < 1e-15
        assert s[0] == 0

    def test_zeroth_power_is_one(self):
        s = lambert_w0_power_series(0, 5)
        assert tuple(s) == (1 + 0j,) + (0j,) * 5
        assert isinstance(s, np.ndarray) and not s.flags.writeable

    def test_square_matches_serial_power(self):
        # coefficients grow like e^k, so agreement is relative to their scale
        direct = lambert_w0_power_series(2, 20)
        w1 = PowerSeries(lambert_w0_power_series(1, 20))
        scale = 1.0 + max(abs(c) for c in direct)
        assert np.max(np.abs(direct - (w1 * w1).coeffs)) <= 1e-11 * scale

    def test_negative_power_against_reciprocal(self):
        # both sides normalized to start at t^0: W0^{-1} * t against
        # reciprocal of W0 / t
        n = 18
        w1 = lambert_w0_power_series(1, n)
        regular = PowerSeries(w1[1:])                        # W0(t)/t
        inv = PowerSeries(lambert_w0_power_series(-1, n))    # t * W0(t)^{-1}
        recip = regular.reciprocal()
        scale = 1.0 + max(abs(c) for c in recip.coeffs)
        assert np.max(np.abs(inv.coeffs[:n] - recip.coeffs)) <= 1e-10 * scale
        prod = regular * inv
        assert abs(prod.coeffs[0] - 1.0) < 1e-12
        assert max(abs(c) for c in prod.coeffs[1:prod.order]) < 1e-10 * scale

    def test_summed_series_matches_halley(self):
        s = lambert_w0_power_series(1, 20)
        for k in range(12):
            t = 0.1 * cmath.exp(2j * math.pi * k / 12)
            total = sum(c * t ** i for i, c in enumerate(s))
            assert abs(total - lambert_w0(t).value) <= 1e-10

    @pytest.mark.parametrize("j", [-2, -3])
    def test_lower_negative_powers_against_mpmath(self, j):
        # entry i is the t^i coefficient of (W0(t)/t)^j, regular at t = 0
        order = 12
        with mpmath.workdps(40):
            ref = mpmath.taylor(lambda t: (mpmath.lambertw(t) / t) ** j if t else mpmath.mpf(1),
                                0, order)
            ref = np.array([complex(c) for c in ref])
        s = lambert_w0_power_series(j, order)
        assert np.max(np.abs(s - ref) / (1.0 + np.abs(ref))) <= 1e-14

    def test_large_order_does_not_overflow(self):
        s = lambert_w0_power_series(1, 400)
        assert all(math.isfinite(c.real) and math.isfinite(c.imag) for c in s)


class TestGeometryFunctionals:
    def test_boundary_reduces_to_circle(self):
        for theta in (0.0, 1.0, 2.5):
            assert abs(exp_map_boundary(0.0, theta) - cmath.exp(1j * theta)) < 1e-15

    def test_boundary_at_zero_angle(self):
        assert abs(exp_map_boundary(1.0, 0.0) - math.e) < 1e-15

    def test_boundary_is_radial_limit_of_map(self):
        lam = 0.6 - 0.3j
        for theta in np.linspace(0, 2 * math.pi, 9):
            gamma = exp_map_boundary(lam, theta)
            for eps in (1e-4, 1e-6):
                psi = evaluate_map(ExpMap(0.0, lam), (1 + eps) * cmath.exp(1j * theta))
                assert abs(psi - gamma) < 10 * eps + 1e-12

    def test_starlikeness_closed_form(self):
        assert starlikeness_infimum(0.0) == 1.0
        assert starlikeness_infimum(0.5) == 0.5
        assert starlikeness_infimum(-0.5j) == 0.5

    def test_grid_infimum_tracks_closed_form(self):
        for lam in (0.0, 0.25, 0.75):
            grid = starlikeness_grid_infimum(lam)
            assert abs(grid - (1.0 - lam)) <= 1e-6 + 2 * math.pi / 720

    def test_certificate_bound_flags_large_parameters(self):
        r_grid = np.linspace(1.0005, 3.0, 20000)
        for lam in (1.05, 1.3, 2.0):
            assert univalence_certificate_bound(lam, r_grid) > 6.0
        # univalent side stays uncertifiable
        assert univalence_certificate_bound(0.9, r_grid) <= 6.0

    def test_certificate_grid_must_be_exterior(self):
        with pytest.raises(ValueError):
            univalence_certificate_bound(1.2, [0.9, 1.5])


class TestRootRays:
    def test_roots_on_cusp_rays(self):
        for m in (1, 2, 3, 4):
            directions = [2 * math.pi * v / (m + 1) for v in range(m + 1)]
            system = hypocycloid_faber_closed_form(m, 24)
            for j in (5, 11, 24):
                for r in ComplexPolynomial(system[j]).roots():
                    if abs(r) <= 1e-8:
                        continue
                    angle = math.atan2(r.imag, r.real) % (2 * math.pi)
                    dist = min(min(abs(angle - phi), 2 * math.pi - abs(angle - phi))
                               for phi in directions)
                    assert dist <= 1e-6
