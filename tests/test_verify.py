import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import faberpoly.suites as suites
from faberpoly.faber import exp_map_exterior, faber_system_from_recurrence
from faberpoly.maps import GapMap, Hypocycloid, to_exterior_map
from faberpoly.poly import evaluate_rows
from faberpoly.suites import draw_gap_map, draw_two_gap_map
from faberpoly.verify import (CheckReport, _row_deviation, check_gap_coefficient_recovery,
                              exponential_map_characterization,
                              leading_common_root_order)


def gap_table(gap, n_highest):
    """The recurrence table F_0 ... F_N of a gap map."""
    return faber_system_from_recurrence(to_exterior_map(gap, n_highest), n_highest)


def characterize(emap, z0, n_highest, tol):
    """The characterization of a map on its own recurrence table."""
    return exponential_map_characterization(faber_system_from_recurrence(emap, n_highest),
                                            emap, z0, tol)


class TestLeadingCommonRootOrder:
    def test_shift_map_never_rises(self):
        a0 = 0.4 - 0.6j
        system = faber_system_from_recurrence([a0], 10)
        profile = leading_common_root_order(system, a0, 1e-10)
        assert profile.first_nonvanishing is None
        assert profile.horizon == 10
        assert all(v <= 1e-9 for v in profile.values)

    def test_gap_map_rises_at_n_plus_one(self):
        gap = GapMap(1.0, 3, (0.2,))
        system = faber_system_from_recurrence(to_exterior_map(gap, 10), 10)
        profile = leading_common_root_order(system, 1.0, 1e-10)
        assert profile.first_nonvanishing == 4
        assert abs(profile.values[3] - 0.8) < 1e-12   # (n+1) |alpha_n|

    def test_exponential_map_rises_immediately_then_vanishes(self):
        eta, lam = 0.3, 0.45 - 0.2j
        system = faber_system_from_recurrence(exp_map_exterior(eta, lam, 12), 12)
        profile = leading_common_root_order(system, eta, 1e-10)
        assert profile.first_nonvanishing == 1
        assert abs(profile.values[0] - abs(lam)) < 1e-13
        assert all(v <= 1e-10 * 50 for v in profile.values[1:])

    def test_needs_two_polynomials(self):
        system = faber_system_from_recurrence([0.0], 1)
        with pytest.raises(ValueError):
            leading_common_root_order(system, 0.0, 1e-10)


class TestGapCoefficientRecovery:
    def test_hand_instance(self):
        # z0 = 0, n = 2, tail (0.3, 0.1): alpha_2 = -F_3(0)/3, alpha_3 = -F_4(0)/4
        gap = GapMap(0.0, 2, (0.3, 0.1, 0.05))
        report = check_gap_coefficient_recovery(gap_table(gap, 6), gap, 1e-12)
        assert report.passed

    def test_values_recover_coefficients_directly(self):
        gap = GapMap(0.0, 2, (0.3, 0.1))
        values = evaluate_rows(faber_system_from_recurrence(to_exterior_map(gap, 6), 6), 0.0)[0]
        assert abs(-values[3] / 3 - 0.3) < 1e-14
        assert abs(-values[4] / 4 - 0.1) < 1e-14

    def test_random_batch(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gap = draw_gap_map(rng)
            report = check_gap_coefficient_recovery(gap_table(gap, 2 * gap.n + 2), gap, 1e-10)
            assert report.passed
            assert report.max_residual <= 1e-10

    @pytest.mark.parametrize("n_highest", [1, 2, 3])
    def test_refuses_n_with_nothing_to_recover(self, n_highest):
        # alpha_n first shows in F_{n+1}(z0), so N <= n leaves nothing to judge
        with pytest.raises(ValueError, match="N >= 4"):
            gap = GapMap(0.3, 3, [0.2, 0.1])
            check_gap_coefficient_recovery(gap_table(gap, n_highest), gap)

    def test_smallest_useful_n(self):
        gap = GapMap(0.3, 3, [0.2, 0.1])
        report = check_gap_coefficient_recovery(gap_table(gap, 4), gap)
        assert report.passed and len(report.residuals) == 1

    def test_bound_satisfied_by_construction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            gap = draw_gap_map(rng)
            for offset, alpha in enumerate(gap.tail):
                j = gap.n + offset
                assert abs(alpha) <= 2.0 / (j + 1) + 1e-15


class TestRowDeviation:
    def test_equal_to_itself(self):
        table = np.array([[1, 0, 0], [2, 1, 0], [0, 3j, 1]])
        assert np.all(_row_deviation(table, table) == 0.0)

    def test_detects_offset(self):
        # relative to 1 + the larger max |c| of the two rows: 1e-7 / 2 here
        tol = 1e-8
        a = np.array([[1, 0, 0], [0, 0, 1]], dtype=complex)
        b = a.copy()
        b[1, 0] = 10 * tol
        assert _row_deviation(a, b).tolist() == [0.0, 10 * tol / 2]
        assert not _row_deviation(a, b).max() <= tol


class TestJudged:
    def test_worst_residual_decides(self):
        assert CheckReport.judged("c", [1e-12, 3e-10], 1e-9) == \
            CheckReport("c", True, 3e-10, (1e-12, 3e-10))
        assert not CheckReport.judged("c", [1e-12, 3e-9], 1e-9).passed

    def test_non_finite_residual_raises(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ArithmeticError, match="'c'.*not finite"):
                CheckReport.judged("c", [0.0, bad], 1e-9)

    def test_refuses_an_empty_verdict(self):
        with pytest.raises(ValueError, match="'c'"):
            CheckReport.judged("c", [], 1e-9)


class TestVerdict:
    def test_keeps_every_case_residual_and_the_worst(self):
        report = CheckReport.verdict("c", [(True, 0.1), (False, 0.05), (True, 0.0)])
        assert report == CheckReport("c", False, 0.1, (0.1, 0.05, 0.0))

    def test_residuals_are_python_floats(self):
        # the CSV report writes repr(max_residual)
        report = CheckReport.verdict("c", [(np.True_, np.float64(0.25))])
        assert type(report.max_residual) is float and report.passed is True

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_the_first_non_finite_case_before_taking_the_next(self, bad):
        taken = []

        def cases():
            for r in (0.5, bad, 0.2):
                taken.append(r)
                yield True, r
        with pytest.raises(ArithmeticError, match="'c'.*not finite.*case 1"):
            CheckReport.verdict("c", cases())
        assert taken == [0.5, bad]

    def test_a_nan_after_a_larger_residual_is_refused(self):
        # max(1.0, nan) is 1.0: a verdict that took the max first would pass
        with pytest.raises(ArithmeticError, match="not finite"):
            CheckReport.verdict("c", [(True, 1.0), (True, math.nan)])

    def test_refuses_an_empty_verdict(self):
        with pytest.raises(ValueError, match="'c'"):
            CheckReport.verdict("c", [])

    def test_judged_is_the_verdict_at_one_tolerance(self):
        residuals = [1e-12, 3e-9, 5e-10]
        assert CheckReport.judged("c", residuals, 1e-9) == \
            CheckReport.verdict("c", [(r <= 1e-9, r) for r in residuals])


def test_suites_build_no_report_literal():
    # every suite report comes from CheckReport.verdict or CheckReport.judged
    tree = ast.parse(Path(suites.__file__).read_text())
    literals = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckReport"]
    assert literals == []


@pytest.mark.parametrize("suite, calls", [("theorem1", 20), ("theorem3", 20)])
def test_one_recurrence_table_per_map(monkeypatch, suite, calls):
    # theorem1 builds one table per gap map; theorem3 one per exponential map
    # and one per bumped map, and the checkers read the tables they are given
    counted = []
    original = suites.faber_system_from_recurrence

    def counting(emap, n_highest):
        counted.append(n_highest)
        return original(emap, n_highest)
    for name, module in list(sys.modules.items()):
        if name.startswith("faberpoly") and \
                getattr(module, "faber_system_from_recurrence", None) is original:
            monkeypatch.setattr(module, "faber_system_from_recurrence", counting)
    report, = suites.run_suite(suite)
    assert report.passed and len(counted) == calls


class TestExponentialCharacterization:
    def test_detects_generated_map(self):
        emap = exp_map_exterior(0.4 - 0.1j, 0.6, 20)
        assert characterize(emap, 0.4 - 0.1j, 20, 1e-9)

    def test_rejects_single_cusp_map(self):
        # F_2 = z^2 - 2 and F_3 = z^3 - 3z share no root: F_3(+-sqrt 2) != 0
        emap = to_exterior_map(Hypocycloid(1), 20)
        for z0 in (0.0, 1.0, 2 ** 0.5, -(2 ** 0.5), 1j):
            assert not characterize(emap, z0, 20, 1e-9)

    def test_rejects_shift_center(self):
        # lam = 0 means z0 = a_0, excluded by the characterization
        emap = exp_map_exterior(0.5, 0.0, 12)
        assert not characterize(emap, 0.5, 12, 1e-9)

    def test_perturbed_tail_rejected(self):
        eta, lam = 0.1, 0.7
        base = exp_map_exterior(eta, lam, 16)
        for k in (1, 5, 12):
            bumped = base.copy()
            bumped[k] += 1e-3
            assert not characterize(bumped, eta, 16, 1e-9)

    def test_needs_enough_polynomials(self):
        with pytest.raises(ValueError):
            characterize(exp_map_exterior(0, 0.5, 4), 0.0, 2, 1e-9)


class TestTwoGapValuePattern:
    def test_single_extra_root_pattern(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            fam = draw_two_gap_map(rng, pattern_valid=True)
            emap = to_exterior_map(fam, max(fam.highest_index, 2 * fam.n))
            system = faber_system_from_recurrence(emap, 2 * fam.n)
            values = np.abs(evaluate_rows(system, fam.z0)[0])
            for j in range(1, fam.n + 1):
                if j == fam.m + 1:
                    expected = (fam.m + 1) * abs(fam.alpha_m)
                    assert abs(values[j] - expected) <= 1e-10 * (1 + expected)
                else:
                    assert values[j] <= 1e-10 * (1.0 + np.abs(system[j]).max())
            # both singled-out values are nonzero
            assert values[fam.m + 1] > 1e-6 and values[fam.n + 1] > 1e-8
