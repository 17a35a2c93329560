import ast
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import faberpoly.suites as suites
from faberpoly.faber import exp_map_exterior, faber_system_from_recurrence
from faberpoly.maps import (GapMap, Hypocycloid, exp_map_faber_closed_form,
                            gap_faber_closed_form, to_exterior_map, two_gap_faber_system)
from faberpoly.poly import evaluate_rows
from faberpoly.suites import draw_disk, draw_gap_map, draw_polar, draw_two_gap_map
from faberpoly.verify import (CheckReport, _row_deviation, check_gap_coefficient_recovery,
                              exponential_map_characterization, leading_common_root_order)


def gap_table(gap, n_highest):
    """The recurrence table F_0 ... F_N of a gap map."""
    return faber_system_from_recurrence(to_exterior_map(gap, n_highest), n_highest)


def characterize(emap, z0, n_highest, tol):
    """The characterization at z0 of a map, centered there (a_0 less z0), on
    the recurrence table of the centered map."""
    centered = np.array(emap, dtype=complex)
    centered[0] -= z0
    return exponential_map_characterization(faber_system_from_recurrence(centered, n_highest),
                                            centered, tol=tol)


EPS = np.finfo(float).eps

#: gap maps centered at z0 = 0, each with the N of its table
RECOVERY_CASES = {
    "tail-shorter-than-n+1": (GapMap(0.0, 3, (0.2 - 0.1j, 0.05)), 8),   # alpha_5, alpha_6 = 0
    "tail-longer-than-n+1": (GapMap(0.0, 2, (0.3, 0.1j, 0.05, -0.02, 0.01)), 7),
    "N-below-2n+1": (GapMap(0.0, 4, (0.15, 0.1 + 0.05j, 0.02)), 6),      # j = 4..N-1
}


def recovery_by_index(table, gap):
    """The residuals of alpha_j = -F_{j+1}(0)/(j+1), one index at a time in
    Python complex arithmetic: the reference of the array form."""
    n_highest = len(table) - 1
    residuals = []
    for j in range(gap.n, min(2 * gap.n, n_highest - 1) + 1):
        expected = gap.tail[j - gap.n] if j <= gap.highest_index else 0j
        recovered = -complex(table[j + 1, 0]) / (j + 1)
        residuals.append(abs(recovered - expected) / (1.0 + abs(expected)))
    return residuals


def bump_recovery_value(table, gap, bumped):
    """A writable copy of the table, with F_{n+2}(0) moved by 1e-8 if ``bumped``:
    alpha_{n+1} then reads 1e-8/(n+2) off."""
    table = table.copy()
    table[gap.n + 2, 0] += 1e-8 if bumped else 0.0
    return table


class TestLeadingCommonRootOrder:
    def test_shift_map_never_rises(self):
        # the shift by a0, centered at a0
        system = faber_system_from_recurrence([0.0], 10)
        profile = leading_common_root_order(system, tol=1e-10)
        assert profile.first_nonvanishing is None
        assert profile.horizon == 10
        assert all(v <= 1e-9 for v in profile.values)

    def test_gap_map_rises_at_n_plus_one(self):
        gap = GapMap(0.0, 3, (0.2,))                      # z0 = 1.0, centered
        system = faber_system_from_recurrence(to_exterior_map(gap, 10), 10)
        profile = leading_common_root_order(system, tol=1e-10)
        assert profile.first_nonvanishing == 4
        assert abs(profile.values[3] - 0.8) < 1e-12   # (n+1) |alpha_n|

    def test_exponential_map_rises_immediately_then_vanishes(self):
        eta, lam = 0.3, 0.45 - 0.2j
        a = exp_map_exterior(eta, lam, 12).copy()
        a[0] -= eta
        profile = leading_common_root_order(faber_system_from_recurrence(a, 12), tol=1e-10)
        assert profile.first_nonvanishing == 1
        assert abs(profile.values[0] - abs(lam)) < 1e-13
        assert all(v <= 1e-10 * 50 for v in profile.values[1:])

    def test_needs_two_polynomials(self):
        system = faber_system_from_recurrence([0.0], 1)
        with pytest.raises(ValueError):
            leading_common_root_order(system, tol=1e-10)


class TestGapCoefficientRecovery:
    def test_hand_instance(self):
        # z0 = 0, n = 2, tail (0.3, 0.1): alpha_2 = -F_3(0)/3, alpha_3 = -F_4(0)/4
        gap = GapMap(0.0, 2, (0.3, 0.1, 0.05))
        report = check_gap_coefficient_recovery(gap_table(gap, 6), gap, tol=1e-12)
        assert report.passed

    def test_values_recover_coefficients_directly(self):
        gap = GapMap(0.0, 2, (0.3, 0.1))
        values = evaluate_rows(faber_system_from_recurrence(to_exterior_map(gap, 6), 6), 0.0)[0]
        assert abs(-values[3] / 3 - 0.3) < 1e-14
        assert abs(-values[4] / 4 - 0.1) < 1e-14

    def test_random_batch(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gap = replace(draw_gap_map(rng), z0=0.0)
            report = check_gap_coefficient_recovery(gap_table(gap, 2 * gap.n + 2), gap,
                                                    tol=1e-10)
            assert report.passed
            assert report.max_residual <= 1e-10

    @pytest.mark.parametrize("n_highest", [1, 2, 3])
    def test_refuses_n_with_nothing_to_recover(self, n_highest):
        # alpha_n first shows in F_{n+1}(z0), so N <= n leaves nothing to judge
        with pytest.raises(ValueError, match="N >= 4"):
            gap = GapMap(0.3, 3, [0.2, 0.1])
            check_gap_coefficient_recovery(gap_table(gap, n_highest), gap)

    def test_smallest_useful_n(self):
        gap = GapMap(0.0, 3, [0.2, 0.1])
        report = check_gap_coefficient_recovery(gap_table(gap, 4), gap)
        assert report.passed and len(report.residuals) == 1

    @pytest.mark.parametrize("bumped", [False, True], ids=["exact", "bumped"])
    @pytest.mark.parametrize("case", RECOVERY_CASES)
    def test_matches_the_per_index_loop(self, case, bumped):
        gap, n_highest = RECOVERY_CASES[case]
        table = bump_recovery_value(gap_table(gap, n_highest), gap, bumped)
        reference = recovery_by_index(table, gap)
        report = check_gap_coefficient_recovery(table, gap, tol=1e-10)
        assert len(report.residuals) == len(reference)
        assert np.abs(np.subtract(report.residuals, reference)).max() <= 4 * EPS
        assert report.passed == (max(reference) <= 1e-10) == (not bumped)

    def test_a_stack_matches_the_per_index_loop(self):
        # every case at N = 6, which cuts the range of the gap at n = 4
        gaps = [gap for gap, _ in RECOVERY_CASES.values()]
        tables = np.array([bump_recovery_value(gap_table(gap, 6), gap, k == 1)
                           for k, gap in enumerate(gaps)])
        reports = check_gap_coefficient_recovery(tables, gaps, tol=1e-10)
        for report, table, gap in zip(reports, tables, gaps):
            reference = recovery_by_index(table, gap)
            assert len(report.residuals) == len(reference)
            assert np.abs(np.subtract(report.residuals, reference)).max() <= 4 * EPS
            assert report.passed == (max(reference) <= 1e-10)
        assert [report.passed for report in reports] == [True, False, True]

    def test_refuses_a_gap_count_unlike_the_stack(self):
        # 12 values of column 0 must not be read as 3 rows of 4
        gaps = [GapMap(0.0, 2, (0.3, 0.1))] * 3
        tables = np.array([gap_table(gap, 5) for gap in gaps[:2]])
        with pytest.raises(ValueError, match="2 tables need one gap map each, got 3"):
            check_gap_coefficient_recovery(tables, gaps)

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


@pytest.mark.parametrize("suite, highest", [("theorem1", [12]),
                                            ("theorem2", [24, 24]), ("theorem3", [20, 20])])
def test_one_recurrence_table_per_map(monkeypatch, suite, highest):
    # one stacked recurrence per block and map set: theorem1 one at the block's
    # largest N = 2n + 2 (n = 5 occurs at seed 0), theorem2 its maps and its pattern maps,
    # theorem3 its exponential maps and its bumped maps; the checkers read the
    # tables they are given, and each map's table is its own table bit for bit
    counted = []
    original = suites.faber_system_from_recurrence

    def counting(a, n_highest):
        tables = original(a, n_highest)
        counted.append((np.array(a), n_highest, tables))
        return tables
    for name, module in list(sys.modules.items()):
        if name.startswith("faberpoly") and \
                getattr(module, "faber_system_from_recurrence", None) is original:
            monkeypatch.setattr(module, "faber_system_from_recurrence", counting)
    report, = suites.run_suite(suite)
    assert report.passed
    assert sorted(n for _, n, _ in counted) == highest
    assert sum(len(a) for a, _, _ in counted) == 20
    for a, n_highest, tables in counted:
        assert a.ndim == 2 and tables.shape == (len(a), n_highest + 1, n_highest + 1)
        for emap, table in zip(a, tables):
            assert original(emap, n_highest).tobytes() == table.tobytes()


@pytest.mark.parametrize("n_highest, blocks", [(20, [10]), (60, [4, 4, 2])])
def test_one_closed_form_call_per_theorem3_block(monkeypatch, n_highest, blocks):
    # at N = 60 a block holds 4 maps under the budget of table entries; each
    # case's closed form is its table in the block's stack
    calls = []
    original = suites.exp_map_faber_closed_form

    def counting(eta, lam, n):
        tables = original(eta, lam, n)
        calls.append((eta, np.array(lam), tables))
        return tables
    monkeypatch.setattr(suites, "exp_map_faber_closed_form", counting)
    report, = suites.run_suite("theorem3", n_highest=n_highest)
    assert report.passed
    assert [len(lam) for _, lam, _ in calls] == blocks
    for eta, lams, tables in calls:
        assert eta == 0.0 and lams.ndim == 1
        for lam, table in zip(lams, tables):
            assert original(0.0, lam, n_highest).tobytes() == table.tobytes()


def overflow_theorem3(monkeypatch, recurrence_case, closed_case):
    """theorem3 at N = 12 with the stacked recurrence failing at map
    ``recurrence_case`` (F_9) and the stacked closed form at ``closed_case``
    (F_7), the stacks' errors as the generators raise them."""
    for name, source, case, row in (
            ("faber_system_from_recurrence", "the recurrence", recurrence_case, 9),
            ("exp_map_faber_closed_form", "the exp-map closed form", closed_case, 7)):
        original = getattr(suites, name)

        def failing(*args, _original=original, _source=source, _case=case, _row=row):
            if len(args[-2]) > _case:               # the stack comes before N
                error = OverflowError(f"{_source} overflows float64 in map {_case} "
                                      f"from F_{_row} on")
                error.map, error.row = _case, _row
                raise error
            return _original(*args)
        monkeypatch.setattr(suites, name, failing)


@pytest.mark.parametrize("recurrence_case, closed_case, message", [
    (3, 3, "theorem3 case 3, N=12: the recurrence overflows float64 from F_9 on"),
    (5, 2, "theorem3 case 2, N=12: the exp-map closed form overflows float64 from F_7 on"),
    (2, 5, "theorem3 case 2, N=12: the recurrence overflows float64 from F_9 on"),
], ids=["recurrence-before-closed-form", "earlier-closed-form", "earlier-recurrence"])
def test_theorem3_refuses_in_case_order_within_a_block(monkeypatch, recurrence_case,
                                                        closed_case, message):
    # all ten maps share one block at N = 12: a case's recurrence is refused
    # before its closed form, and an earlier case before a later one
    overflow_theorem3(monkeypatch, recurrence_case, closed_case)
    with pytest.raises(OverflowError, match=f"^{message}$"):
        suites.run_suite("theorem3", n_highest=12)


SERIES_SUITES = [("recurrence-vs-oracle", "_log_table"), ("eq13", "_ratio_table"),
                 ("eq16", "_derivative_table")]


@pytest.mark.parametrize("suite, oracle", SERIES_SUITES)
def test_one_recurrence_and_one_oracle_call_per_block(monkeypatch, suite, oracle):
    # at the default N the 30 maps of eq13 and eq16 form one block; the 50
    # maps of recurrence-vs-oracle (N = 30) form three, 17 + 17 + 16 under
    # the budget of table entries
    stacks = {"recurrence": [], "oracle": []}
    for kind, name in (("recurrence", "faber_system_from_recurrence"), ("oracle", oracle)):
        original = getattr(suites, name)

        def counting(a, *args, _original=original, _calls=stacks[kind]):
            _calls.append(np.shape(a))
            return _original(a, *args)
        monkeypatch.setattr(suites, name, counting)
    report, = suites.run_suite(suite)
    maps = {"recurrence-vs-oracle": [17, 17, 16]}.get(suite, [30])
    assert report.passed and len(report.residuals) == sum(maps)
    for shapes in stacks.values():
        assert [shape[0] for shape in shapes] == maps
        assert all(len(shape) == 2 for shape in shapes)


def overflow_case_7(monkeypatch, nan_case=None):
    """eq13 with the map of case 7 replaced by one whose F_2 leaves float64
    (a_0 = 1e200), and an entry of the oracle table of case ``nan_case`` NaN."""
    original_draw = suites.draw_exterior_map

    def draw(rng, truncation, maps):
        a = original_draw(rng, truncation, maps).copy()     # the same draws, in the same order
        a[7] = [1e200] + [0.0] * truncation
        return a
    monkeypatch.setattr(suites, "draw_exterior_map", draw)
    original_oracle = suites._ratio_table

    def oracle(a, n_highest):
        tables = original_oracle(a, n_highest).copy()
        if nan_case is not None and len(tables) > nan_case:
            tables[nan_case, 3, 1] = np.nan
        return tables
    monkeypatch.setattr(suites, "_ratio_table", oracle)


def test_a_block_refuses_its_first_non_finite_case_before_a_later_overflow(monkeypatch):
    overflow_case_7(monkeypatch, nan_case=3)
    with pytest.raises(ArithmeticError, match="residual not finite in float64 at case 3$"):
        suites.run_suite("eq13")


def test_a_block_refuses_its_overflowing_case(monkeypatch):
    overflow_case_7(monkeypatch)
    with pytest.raises(OverflowError, match="^eq13 case 7, N=20: the recurrence overflows "
                                            "float64 from F_2 on$"):
        suites.run_suite("eq13")


@pytest.mark.parametrize("suite, oracle", SERIES_SUITES)
def test_n_above_the_map_truncation_pads_the_tail_with_zeros(suite, oracle):
    # maps of truncation 30 (recurrence-vs-oracle) and 24 at N = 40: each map
    # judged alone, its tail padded with zeros, gives the suite's residual
    report, = suites.run_suite(suite, n_highest=40)
    rng = np.random.default_rng(0)
    maps, truncation = {"recurrence-vs-oracle": (50, 30)}.get(suite, (30, 24))
    index = np.arange(1, 41)
    expected = []
    for _ in range(maps):
        a = np.concatenate((suites.draw_exterior_map(rng, truncation), np.zeros(40 - truncation)))
        table = faber_system_from_recurrence(a, 40)
        if suite == "eq16":
            table = table[1:, 1:] * index / index[:, None]
        expected.append(_row_deviation(getattr(suites, oracle)(a, 40), table).max())
    assert report.passed
    assert np.allclose(report.residuals, expected, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("suite", [suite for suite, _ in SERIES_SUITES])
def test_a_coefficient_wrong_by_1e_9_of_its_row_scale_fails(monkeypatch, suite):
    # coefficient 30 of F_60 in every recurrence table the suite receives at
    # N = 100; value residuals at points of |z| <= 3, relative to the Horner
    # magnitude, read only 3.5e-10, 2.6e-10 and 4.1e-12 on this plant.  Each
    # map's residual reads 1e-9 up to round-off (eq16 scales the coefficient
    # by 30/60 and its row by up to 1), so some exceed the tolerance 1e-9 and
    # none is near the round-off level.
    original = suites.faber_system_from_recurrence

    def planted(a, n_highest):
        tables = original(a, n_highest).copy()
        tables[:, 60, 30] += 1e-9 * (1.0 + np.abs(tables[:, 60]).max(axis=-1))
        return tables
    monkeypatch.setattr(suites, "faber_system_from_recurrence", planted)
    report, = suites.run_suite(suite, n_highest=100)
    assert not report.passed
    assert min(report.residuals) > 5e-10


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

    def test_refuses_a_map_count_unlike_the_stack(self):
        # one map must not be read as the map of all three tables
        a = exp_map_exterior(0.0, 0.6, 8)
        tables = np.array([faber_system_from_recurrence(a, 8)] * 3)
        for maps in (a, a[None]):
            with pytest.raises(ValueError, match="3 tables need one map each, got 1"):
                exponential_map_characterization(tables, maps)

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


# ---------------------------------------------------------------------------
# theorems 1-3 judged over stacks: the same reports as one case at a time
# ---------------------------------------------------------------------------

def per_case_theorem1(seed, tol=1e-10):
    """Theorem 1 one gap map at a time, each drawn as it came, centered at its
    point z0 and judged at 0 on its own table of F_0 ... F_{2n+2}."""
    rng = np.random.default_rng(seed)

    def cases():
        for _ in range(20):
            drawn = draw_gap_map(rng)
            gap = GapMap(0.0, drawn.n, drawn.tail)
            n_highest = 2 * gap.n + 2
            table = gap_table(gap, n_highest)
            profile = leading_common_root_order(table, tol=tol)
            expected = (gap.n + 1) * abs(gap.tail[0])
            value_resid = abs(profile.values[gap.n] - expected) / (1.0 + expected)
            head = gap.n + 2
            closed_resid = _row_deviation(gap_faber_closed_form(gap, gap.n + 1),
                                          table[:head, :head]).max()
            recovery = check_gap_coefficient_recovery(table, gap, tol=tol)
            worst = np.max((value_resid, closed_resid, recovery.max_residual))
            yield profile.first_nonvanishing == gap.n + 1 and worst <= tol, worst
    return CheckReport.verdict("theorem1", cases())


def per_case_theorem2(seed, n_highest=24, tol=1e-9):
    """Theorem 2 one pair at a time, each pattern map centered at its point z0
    and judged at 0, as the suite judges it."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(10):
            try:
                fam = draw_two_gap_map(rng)
                closed = two_gap_faber_system(fam, n_highest)
                generic = generic_two_gap_table(fam, n_highest)
                pat = replace(draw_two_gap_map(rng, pattern_valid=True), z0=0.0)
                rows = faber_system_from_recurrence(to_exterior_map(pat, n_highest),
                                                    n_highest)[1:pat.n + 1]
            except OverflowError as exc:
                raise OverflowError(f"theorem2 case {i}, N={n_highest}: {exc}") from exc
            values = np.abs(evaluate_rows(rows, pat.z0)[0])
            pattern = values / (1.0 + np.abs(rows).max(axis=1))
            if pat.m < len(rows):
                expected = (pat.m + 1) * abs(pat.alpha_m)
                pattern[pat.m] = abs(values[pat.m] - expected) / (1.0 + expected)
            yield np.max((_row_deviation(closed, generic).max(), pattern.max(initial=0.0)))
    return CheckReport.judged("theorem2", cases(), tol)


def generic_two_gap_table(fam, n_highest):
    """The generic recurrence table of a two-gap map."""
    return faber_system_from_recurrence(to_exterior_map(fam, n_highest), n_highest)


def per_case_theorem3(seed, n_highest=20, tol=1e-9):
    """Theorem 3 one exponential map at a time, centered at its point eta
    (a_0 less eta) and judged at 0 against the closed form at eta = 0; the
    bumped map is judged at min(tol, 1e-4), as the suite judges it."""
    rng = np.random.default_rng(seed)

    def cases():
        for i in range(10):
            eta = draw_disk(rng, 1.5)
            lam = draw_polar(rng, 0.2 + 0.8 * rng.uniform())
            where = f"theorem3 case {i}, N={n_highest}"
            try:
                a = exp_map_exterior(eta, lam, n_highest).copy()
                a[0] -= eta
                recurrence = faber_system_from_recurrence(a, n_highest)
                detected = exponential_map_characterization(recurrence, a, tol=tol)
                closed = exp_map_faber_closed_form(0.0, lam, n_highest)
                closed_resid = _row_deviation(closed, recurrence).max()
                bumped = a.copy()
                bumped[int(rng.integers(1, len(a)))] += 1e-3
                broken = not exponential_map_characterization(
                    faber_system_from_recurrence(bumped, n_highest), bumped,
                    tol=min(tol, 1e-4))
            except OverflowError as exc:
                raise OverflowError(f"{where}: {exc}") from exc
            yield detected and broken and closed_resid <= tol, closed_resid
    return CheckReport.verdict("theorem3", cases())


def outcome(check, *args, **kwargs):
    """A check's report, or the type and message of what it raised."""
    try:
        return check(*args, **kwargs)
    except (ArithmeticError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("suite, per_case, options", [
    ("theorem1", per_case_theorem1, {}), ("theorem2", per_case_theorem2, {}),
    ("theorem3", per_case_theorem3, {}), ("theorem3", per_case_theorem3, {"n_highest": 30})],
    ids=["theorem1", "theorem2", "theorem3", "theorem3-N30"])
def test_stacked_theorem_suites_match_the_per_case_loop(suite, per_case, options, seed):
    stacked = outcome(getattr(suites, "suite_" + suite), seed=seed, **options)
    expected = outcome(per_case, seed, **options)
    assert stacked == expected
    if isinstance(stacked, CheckReport):          # bit for bit, signed zeros too
        assert [r.hex() for r in stacked.residuals] == [r.hex() for r in expected.residuals]


@pytest.mark.parametrize("seed", range(10))
def test_theorem2_pattern_term_matches_the_per_case_loop(monkeypatch, seed):
    # the piecewise form replaced by the generic table deviates by nothing, so
    # every residual is the pattern term of the centered pattern map
    monkeypatch.setattr(suites, "two_gap_faber_system", generic_two_gap_table)
    monkeypatch.setitem(globals(), "two_gap_faber_system", generic_two_gap_table)
    stacked, expected = suites.suite_theorem2(seed=seed), per_case_theorem2(seed)
    assert any(stacked.residuals)
    assert [r.hex() for r in stacked.residuals] == [r.hex() for r in expected.residuals]


class TestStackedCheckers:
    """A stack of tables of centered maps, with one map per table where the
    checker takes one, gives what each table gives alone."""

    def test_common_root_profiles(self):
        rng = np.random.default_rng(3)
        gaps = [replace(draw_gap_map(rng), z0=0.0) for _ in range(8)]
        tables = np.array([gap_table(gap, 12) for gap in gaps])
        stacked = leading_common_root_order(tables, tol=1e-10)
        assert stacked == [leading_common_root_order(table, tol=1e-10) for table in tables]

    def test_gap_coefficient_recovery(self):
        rng = np.random.default_rng(4)
        gaps = [replace(draw_gap_map(rng), z0=0.0) for _ in range(8)]
        tables = np.array([gap_table(gap, 12) for gap in gaps])
        stacked = check_gap_coefficient_recovery(tables, gaps, tol=1e-10)
        assert stacked == [check_gap_coefficient_recovery(table, gap, tol=1e-10)
                           for table, gap in zip(tables, gaps)]
        with pytest.raises(ValueError, match="alpha_5 needs N >= 6"):
            check_gap_coefficient_recovery(tables[:, :6, :6], [GapMap(0.0, 5, [0.1])] * 8)

    def test_exponential_map_characterization(self):
        etas = [0.4 - 0.1j, 0.1, -0.3j, 0.5]
        a = np.array([exp_map_exterior(eta, lam, 16)
                      for eta, lam in zip(etas, (0.6, 0.7, 0.3 + 0.2j, 0.0))])
        a[1, 5] += 1e-3                                 # a perturbed tail
        centered = a.copy()
        centered[:, 0] -= etas
        tables = faber_system_from_recurrence(centered, 16)
        stacked = exponential_map_characterization(tables, centered, tol=1e-9)
        assert stacked.tolist() == [True, False, True, False]
        assert stacked.tolist() == [characterize(row, eta, 16, 1e-9)
                                    for row, eta in zip(a, etas)]


def test_checkers_take_no_point():
    # an old-style call that passes a point must fail, never read the point as tol
    gap = GapMap(0.0, 2, (0.3, 0.1))
    table = gap_table(gap, 6)
    a = exp_map_exterior(0.0, 0.6, 6)
    for call in (lambda: leading_common_root_order(table, 0.3, 1e-10),
                 lambda: leading_common_root_order(table, 1e-10),
                 lambda: check_gap_coefficient_recovery(table, gap, 1e-10),
                 lambda: exponential_map_characterization(table, a, 0.4, 1e-9),
                 lambda: exponential_map_characterization(table, a, 1e-9)):
        with pytest.raises(TypeError):
            call()
