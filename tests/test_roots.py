"""Root finding on Faber polynomials at the degrees the CLI reaches: the
companion eigenvalues of ``ComplexPolynomial.roots``, each taken one Newton
step, and the Hessenberg eigenvalues of ``faber_roots``.

A root is judged by its residual, evaluated in mpmath at 50 digits on the
float coefficients, against 64 eps of the Horner scale
1 + sum_k |c_k| |r|^k: the scale float64 round-off in p(r) is proportional
to, so no float64 root finder can promise more than a small multiple of it.
"""

import cmath
import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from faberpoly import cli, poly, suites
from faberpoly.faber import _cut_map, faber_system_from_recurrence
from faberpoly.maps import (ExpMap, GapMap, Hypocycloid, Shift, TwoGapMap,
                            exp_map_faber_closed_form, hypocycloid_faber_closed_form,
                            to_exterior_map)
from faberpoly.suites import draw_disk, suite_rays

EPS = np.finfo(float).eps
FAMILIES = ("shift", "expmap", "gap")


def draw(rng, family):
    """One map from the documented parameter range of its family: |alpha0| <= 0.5,
    |eta|, |lam| <= 0.5, or |z0| <= 0.5 with tail terms |alpha_k| <= 0.5/(k+1)."""
    if family == "shift":
        return Shift(draw_disk(rng, 0.5))
    if family == "expmap":
        return ExpMap(draw_disk(rng, 0.5), draw_disk(rng, 0.5))
    n = int(rng.integers(1, 6))
    tail = [draw_disk(rng, 0.5 / (n + 1 + i)) for i in range(int(rng.integers(1, 4)))]
    return GapMap(draw_disk(rng, 0.5), n, tail)


def faber(family, j):
    return poly.ComplexPolynomial(faber_system_from_recurrence(to_exterior_map(family, j), j)[j])


def assert_roots_within_residual_bound(p, roots):
    assert len(roots) == p.degree
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(c) for c in reversed(p.coeffs)]
        for r in roots:
            assert cmath.isfinite(r)
            scale = 1.0 + sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))
            assert abs(mpmath.polyval(coeffs, mpmath.mpc(r))) <= 64 * EPS * scale


@pytest.mark.parametrize("j", (48, 60))
@pytest.mark.parametrize("family", FAMILIES)
def test_documented_range_roots(family, j):
    rng = np.random.default_rng([FAMILIES.index(family), j])
    for _ in range(10):
        p = faber(draw(rng, family), j)
        assert_roots_within_residual_bound(p, p.roots())


def test_shift_cluster_with_overflowing_start():
    # (z - alpha0)^48: from the Cauchy circle one iterate's noise floor
    # overflowed to inf, so a root near 3e6 counted as settled
    p = faber(Shift(0.375 - 0.211j), 48)
    assert_roots_within_residual_bound(p, p.roots())


@pytest.mark.parametrize("j", (10, 16))
@pytest.mark.parametrize("eta, lam", [(0.2, 0.3 + 0.1j), (-0.1 + 0.3j, 0.45j), (0.4j, -0.35)])
def test_exp_map_roots_match_mpmath(eta, lam, j):
    """Every 50-digit root q has a computed root within 64 eps times its
    condition number sum_k |c_k| |q|^k / |p'(q)| (the first-order effect of a
    64-eps backward error); these roots are simple and far apart on that scale."""
    p = poly.ComplexPolynomial(exp_map_faber_closed_form(eta, lam, j)[j])
    found = p.roots()
    assert len(found) == j
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(c) for c in reversed(p.coeffs)]
        derivative = [k * c for k, c in zip(range(j, 0, -1), coeffs)]
        for q in mpmath.polyroots(coeffs, maxsteps=100, extraprec=60):
            qc = complex(q)
            scale = sum(abs(c) * abs(qc) ** k for k, c in enumerate(p.coeffs))
            bound = 64 * EPS * scale / float(abs(mpmath.polyval(derivative, q)))
            assert min(abs(r - qc) for r in found) <= bound


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_table_rows_within_residual_bound(m):
    table = hypocycloid_faber_closed_form(m, 24)
    for j in range(1, 25):
        p = poly.ComplexPolynomial(table[j, :j + 1])
        assert_roots_within_residual_bound(p, p.roots())


@pytest.mark.parametrize("m, j", [(1, 60), (1, 100), (4, 80)])
def test_newton_step_brings_ill_conditioned_rows_within_the_bound(m, j):
    """Companion eigenvalues of these closed-form rows read 3.3e2 to 2.4e3 eps
    of their Horner scale, beyond the (64 + 2j) eps that accepts a root; one
    Newton step from each brings it within 64 eps of the mpmath residual."""
    p = poly.ComplexPolynomial(hypocycloid_faber_closed_form(m, j)[j])
    assert_roots_within_residual_bound(p, p.roots())


def test_an_eigenvalue_where_the_derivative_vanishes_stays_as_it_is(monkeypatch):
    """(z - 1)^2 (z + 2) with its companion eigenvalues exactly 1, 1 and -2:
    q'(1) = 0 makes the Newton step 0/0, so 1 is kept, and q(-2) = 0 moves
    -2 by nothing; the roots are the eigenvalues, bit for bit."""
    monkeypatch.setattr(np.linalg, "eigvals", lambda h: np.array([1, 1, -2], dtype=complex))
    assert poly.ComplexPolynomial([2, -3, 0, 1]).roots() == [1, 1, -2]


@pytest.mark.parametrize("lam, j", [(0.5, 24), (0.4, 60)])
def test_exp_map_common_root_at_eta_zero_lies_at_zero(lam, j):
    """The recurrence leaves c_0 of these rows at 5.8e-40 and -1.6e-104, not
    exactly 0, so no zero is split off.  The companion eigenvalue still lies
    within 1e-10 of the common root 0 (5.2e-12 and 1.7e-12 measured), where
    the Hessenberg eigenvalue of ``faber_roots`` lies 4.9e-4 and 1.1e-4 off."""
    a = _cut_map(to_exterior_map(ExpMap(0, lam), j))
    found = poly.ComplexPolynomial(faber_system_from_recurrence(a, j)[j]).roots()
    assert min(map(abs, found)) <= 1e-10


def test_rays_suite_matches_the_per_root_loop():
    """``suite_rays`` takes the angles of all roots with numpy; the per-root
    loop over the eigenvalues of each H_j, built entry by entry here, gives
    each m's worst angle off the cusp rays within round-off (1e-13 rad)."""
    report = suite_rays()
    for m, batched in zip(range(1, 5), report.residuals):
        directions = [2.0 * math.pi * v / (m + 1) for v in range(m + 1)]
        a = [0.0] * m + [1.0 / m]
        worst = 0.0
        for j in range(1, 25):
            h = np.zeros((j, j), dtype=complex)
            for row in range(j):
                if row + 1 < j:
                    h[row, row + 1] = 1.0
                for col in range(1, row + 1):
                    h[row, col] = a[row - col] if row - col <= m else 0.0
                h[row, 0] = (row + 1) * a[row] if row <= m else 0.0
            # F_j has the factor z^r, r = j mod (m + 1): its r smallest are zeros
            for r in sorted(np.linalg.eigvals(h).tolist(), key=abs)[j % (m + 1):]:
                angle = math.atan2(r.imag, r.real) % (2.0 * math.pi)
                worst = max(worst, min(min(abs(angle - phi), 2.0 * math.pi - abs(angle - phi))
                                       for phi in directions))
        assert abs(batched - worst) <= 1e-13


# ---------------------------------------------------------------------------
# roots as eigenvalues of the map's Faber Hessenberg matrix
# ---------------------------------------------------------------------------

def rays_command(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", "--suite", "rays", *argv])
    return code, out.getvalue(), err.getvalue()


def roots_command(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["roots", *argv, "--format", "json"])
    assert code == 0
    (entry,) = json.loads(out.getvalue())["results"]
    return [complex(re, im) for re, im in entry["roots"]]


def exact_hypocycloid_row(m, j):
    """He's formula, each coefficient one 50-digit division."""
    f = math.factorial
    row = [mpmath.mpf(0)] * (j + 1)
    for k in range(j // (m + 1) + 1):
        power = j - (m + 1) * k
        row[power] = (-1) ** k * mpmath.mpf(j * f(j - m * k - 1)) / (f(power) * m ** k * f(k))
    return row


def exact_exp_row(lam, j):
    """F_j of w exp(lam/w), j >= 2: j sum_{k=1}^{j} (-lam)^{j-k} k^{j-k-1} / (j-k)! z^k."""
    neg = -mpmath.mpf(lam)
    return [mpmath.mpf(0)] + [j * neg ** (j - k) * mpmath.mpf(k) ** (j - k - 1)
                              / math.factorial(j - k) for k in range(1, j + 1)]


def hypocycloid_case(m, j):
    argv = ("--family", "hypocycloid", "--m", str(m), "--j-min", str(j), "--j-max", str(j))
    return argv, lambda: exact_hypocycloid_row(m, j), m + 1


@pytest.mark.parametrize("argv, exact, cusps", [
    hypocycloid_case(1, 40), hypocycloid_case(1, 60), hypocycloid_case(2, 60),
    hypocycloid_case(1, 100),
    (("--family", "expmap", "--eta", "0", "--lambda", "0.1", "--j-min", "200", "--j-max", "200"),
     lambda: exact_exp_row(0.1, 200), None),
], ids=["hypocycloid-m1-j40", "hypocycloid-m1-j60", "hypocycloid-m2-j60",
        "hypocycloid-m1-j100", "expmap-lam0.1-j200"])
def test_roots_command_within_residual_bound_of_the_exact_row(argv, exact, cusps):
    """Rows Aberth failed on: hypocycloid roots 1e-6 to 3.3e-5 rad off their
    cusp rays, and exp-map coefficients down to 2.8e-315 at lam = 0.1 (exit
    3).  Each root's 50-digit residual on the exact row stays within 64 eps
    of 1 + sum_k |c_k| |x|^k, and a hypocycloid root (|x| > 1e-8) within
    1e-6 rad of a cusp ray."""
    found = roots_command(*argv)
    with mpmath.workdps(50):
        row = exact()
        assert len(found) == len(row) - 1
        for x in found:
            assert cmath.isfinite(x)
            scale = 1 + mpmath.polyval([abs(c) for c in reversed(row)], abs(mpmath.mpc(x)))
            assert abs(mpmath.polyval(row[::-1], mpmath.mpc(x))) <= 64 * EPS * scale
    for x in found if cusps else ():
        if abs(x) > 1e-8:
            angle = math.atan2(x.imag, x.real) % (2.0 * math.pi)
            assert min(min(abs(angle - phi), 2.0 * math.pi - abs(angle - phi))
                       for phi in 2.0 * math.pi * np.arange(cusps) / cusps) <= 1e-6


def test_shift_roots_are_exactly_alpha0():
    """(z - alpha0)^48, where Aberth kept a root near 3e6: H is alpha0 on the
    diagonal and 1 above it, triangular, so every eigenvalue is alpha0."""
    found = roots_command("--family", "shift", "--alpha0", "0.375-0.211j",
                          "--j-min", "48", "--j-max", "48")
    assert found == [0.375 - 0.211j] * 48


@pytest.mark.parametrize("family", [
    Shift(0.375 - 0.211j), GapMap(0.2 + 0.1j, 3, [0.2]),
    TwoGapMap(0.1j, 1, 0.25, 3, [0.2, 0.1]), Hypocycloid(1), Hypocycloid(4),
    ExpMap(0.1 + 0.2j, 0.5), ExpMap(0, 0.9j)], ids=repr)
def test_characteristic_polynomial_of_h_is_the_recurrence_row(family):
    """np.poly of the leading j x j block of H is row j of the recurrence
    table within 256 j eps of 1 + max_k |c_k| for j <= 30; these maps read
    at most 81 j eps (the two-gap map at j = 30), mostly np.poly's own
    expansion of the eigenvalues."""
    a = _cut_map(to_exterior_map(family, 30))
    table = faber_system_from_recurrence(a, 30)
    h = poly._hessenberg(a, 30)
    for j in range(1, 31):
        row = table[j, :j + 1]
        deviation = np.abs(np.poly(h[:j, :j])[::-1] - row).max() / (1 + np.abs(row).max())
        assert deviation <= 256 * j * EPS, j


def test_leading_zero_coefficients_give_exact_zeros_first():
    # F_9 of w + 1/(4 w^4) is z^4 times a quintic: its four zero eigenvalues
    # come out as large as 1.3e-9 and are set to exactly 0
    table = hypocycloid_faber_closed_form(4, 9)
    (found,) = poly.faber_roots(to_exterior_map(Hypocycloid(4), 4), table, range(9, 10))
    assert found[:4].tolist() == [0j] * 4
    assert np.abs(found[4:]).min() > 1.0


def hypocycloid_rows(m, n):
    """Rows 1..n of the hypocycloid's closed-form table, solved by one
    ``faber_roots`` call, with the map and the table."""
    a = to_exterior_map(Hypocycloid(m), m)
    table = hypocycloid_faber_closed_form(m, n)
    return a, table, poly.faber_roots(a, table, range(1, n + 1))


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_batched_rows_agree_with_each_row_alone(m):
    # one H for the whole range: each row's leading block is the block of
    # that row alone, so its roots are the same bits
    a, table, batched = hypocycloid_rows(m, 24)
    for j, found in enumerate(batched, start=1):
        assert len(found) == j
        assert np.array_equal(found, poly.faber_roots(a, table, [j])[0])


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_batched_roots_within_residual_bound(m):
    # the bare eigenvalues, no Newton step, read at most 27 eps here
    _, table, batched = hypocycloid_rows(m, 24)
    for j, found in enumerate(batched, start=1):
        assert_roots_within_residual_bound(poly.ComplexPolynomial(table[j, :j + 1]),
                                           found.tolist())


def gap_rows(n):
    """A gap map with z0 != 0, of rotational order 1, and its recurrence table."""
    a = to_exterior_map(GapMap(0.2 + 0.1j, 3, [0.2]), n)
    return a, faber_system_from_recurrence(a, n)


def test_batch_failure_names_the_lowest_failing_row(monkeypatch):
    """Rows are solved in ascending order: of F_7 and F_9, which both fail,
    the error names F_7, as F_7 alone does."""
    eigvals = np.linalg.eigvals

    def failing_at_7_and_9(h):
        if len(h) in (7, 9):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(h)

    monkeypatch.setattr(np.linalg, "eigvals", failing_at_7_and_9)
    a, table = gap_rows(9)
    with pytest.raises(poly.RootFindingError) as batched:
        poly.faber_roots(a, table, range(5, 10))
    with pytest.raises(poly.RootFindingError) as alone:
        poly.faber_roots(a, table, [7])
    assert batched.value.row == alone.value.row == 7
    assert str(batched.value) == str(alone.value) == "roots of F_7: Eigenvalues did not converge"


def test_reduced_batch_failure_names_the_lowest_failing_row(monkeypatch):
    """The m = 2 hypocycloid solves q x q class blocks, one stacked solve per
    q: of the blocks of F_6, F_7, F_8 (q = 2) and F_9 (q = 3), which all
    fail, the error names F_6, as F_6 alone does."""
    eigvals = np.linalg.eigvals

    def failing_from_2(blocks):
        if blocks.shape[-1] >= 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(blocks)

    monkeypatch.setattr(np.linalg, "eigvals", failing_from_2)
    a = to_exterior_map(Hypocycloid(2), 2)
    table = hypocycloid_faber_closed_form(2, 9)
    with pytest.raises(poly.RootFindingError) as batched:
        poly.faber_roots(a, table, range(5, 10))
    with pytest.raises(poly.RootFindingError) as alone:
        poly.faber_roots(a, table, [6])
    assert batched.value.row == alone.value.row == 6
    assert str(batched.value) == str(alone.value) == "roots of F_6: Eigenvalues did not converge"


def peak_memory(solve):
    tracemalloc.start()
    try:
        found = solve()
        return tracemalloc.get_traced_memory()[1], found
    finally:
        tracemalloc.stop()


def test_batch_memory_is_bounded_by_the_largest_row():
    """One H of the largest row serves the whole range, and each block is
    solved and dropped in turn, so rows 1..80 of a map of order 1 together
    take little more memory than row 80 alone (2.4 times, measured)."""
    n = 80
    a, table = gap_rows(n)
    peaks = []
    for indices in ([n], range(1, n + 1)):
        peak, found = peak_memory(lambda: poly.faber_roots(a, table, indices))
        peaks.append(peak)
        assert len(found[-1]) == n
    assert peaks[1] <= 4 * peaks[0]


@pytest.mark.parametrize("m", (1, 4))
def test_reduced_batch_memory_is_linear_in_the_map(m):
    """Rows 1..n of the hypocycloid share one P = H^s and one pass of the
    value recurrence over an n x n array of roots, so they peak below
    8 len(a) n^2 complex numbers at n = 240 (6.2 and 3.6 measured): a block
    of P kept per row, n^3 / (3 s^2) numbers, would not fit."""
    n = 240
    a = to_exterior_map(Hypocycloid(m), m)
    table = hypocycloid_faber_closed_form(m, n)
    peak, found = peak_memory(lambda: poly.faber_roots(a, table, range(1, n + 1)))
    assert [len(x) for x in found] == list(range(1, n + 1))
    assert peak <= 8 * len(a) * n * n * 16


def solve_table_rows():
    return poly.faber_roots(*gap_rows(9), range(5, 10))


def solve_one_polynomial():
    return poly.ComplexPolynomial([-1, 0, 0, 0, 0, 0, 0, 1]).roots()


# both root finders solve through one eigenvalue helper, which names F_j
# (``row`` j) for ``faber_roots`` and the degree (``row`` None) for ``roots``
@pytest.mark.parametrize("solve, where, row", [
    (solve_table_rows, "roots of F_7", 7),
    (solve_one_polynomial, "roots of a degree-7 polynomial", None)], ids=["table", "polynomial"])
def test_a_solver_failure_names_the_row(monkeypatch, solve, where, row):
    eigvals = np.linalg.eigvals

    def failing_at_7(h):
        if len(h) == 7:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(h)

    monkeypatch.setattr(np.linalg, "eigvals", failing_at_7)
    with pytest.raises(poly.RootFindingError) as caught:
        solve()
    assert str(caught.value) == f"{where}: Eigenvalues did not converge"
    assert caught.value.row == row


@pytest.mark.parametrize("solve, where, row", [
    (solve_table_rows, "roots of F_5", 5),
    (solve_one_polynomial, "roots of a degree-7 polynomial", None)], ids=["table", "polynomial"])
def test_a_non_finite_eigenvalue_names_the_row(monkeypatch, solve, where, row):
    monkeypatch.setattr(np.linalg, "eigvals", lambda h: np.full(len(h), complex("inf")))
    with pytest.raises(poly.RootFindingError) as caught:
        solve()
    assert str(caught.value) == f"{where}: an eigenvalue is not finite in float64"
    assert caught.value.row == row


def test_a_residual_beyond_its_bound_refuses_the_roots(monkeypatch):
    """Eigenvalues moved 0.1 off the cube roots of unity are still about
    1e-2 off after their Newton step, far beyond (64 + 2n) eps: refused,
    with the roots and their residuals, all finite."""
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda h: eigvals(h) + 0.1)
    with pytest.raises(poly.RootFindingError) as caught:
        poly.ComplexPolynomial([-1, 0, 0, 1]).roots()
    err = caught.value
    assert str(err) == ("roots of a degree-3 polynomial: "
                        "a residual beyond (64 + 2n) eps of its Horner scale")
    assert err.row is None and len(err.roots) == len(err.residuals) == 3
    assert all(cmath.isfinite(r) for r in err.roots)
    assert all(math.isfinite(v) and v > 1e-3 for v in err.residuals)


@pytest.mark.parametrize("n", (34, 40, 100, 150))
def test_rays_decides_through_n_150(n):
    # the roots of every row stay within 1e-13 rad of their rays
    report = suite_rays(n)
    assert report.passed and report.max_residual <= 1e-13


def test_rays_at_n_200_is_undecided_at_m_3():
    """G of F_184, m = 3, shows a negative reduced eigenvalue (-1.7e-5): its
    roots lie pi / 4 off the rays, within the bound of their condition
    numbers, so the row is undecided, not failed."""
    code, out, err = rays_command("--N", "200")
    assert code == 3 and out == ""
    assert json.loads(err)["message"].startswith("rays at N=200, m=3, F_184 ill-conditioned "
                                                 "in float64: root ")


def test_rays_residual_beyond_its_bound_is_undecided(monkeypatch):
    """A closed-form row moved by 1e-9 no longer holds the eigenvalues of H
    as roots: their residuals exceed (64 + 2j) eps, so F_5 is undecided."""
    closed_form = suites.hypocycloid_faber_closed_form

    def moved(m, n):
        table = closed_form(m, n).copy()
        table[5, 1] += 1e-9
        return table

    monkeypatch.setattr(suites, "hypocycloid_faber_closed_form", moved)
    with pytest.raises(poly.RootFindingError) as caught:
        suite_rays()
    assert str(caught.value) == ("rays at N=24, m=1, F_5 ill-conditioned in float64: "
                                 "a residual beyond (64 + 2j) eps of its Horner scale")
    assert len(caught.value.roots) == len(caught.value.residuals) == 5


def test_rays_row_without_an_eigenvector_bound_is_undecided(monkeypatch):
    # a singular eigenvector matrix (a defective H_j) gives no condition
    # numbers: the bound reaches the origin, pi / 2, and the row stays undecided
    def singular(v):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(poly.RootFindingError, match=r"m=2, F_3 ill-conditioned in float64: "
                                                    r".* within tol plus its bound 1\.6e\+00 rad"):
        suite_rays(24, 1e-30)


def test_rays_map_moved_by_1e_7_is_not_passed(monkeypatch):
    """a_m moved by 1e-7 of the map that ``suite_rays`` reads: its roots,
    Newton step included, are the moved map's, whose residuals on the
    closed-form rows reach far beyond (64 + 2j) eps, so rays exits 3."""
    to_map = suites.to_exterior_map

    def moved(family, n):
        a = np.array(to_map(family, n))
        a[family.m] += 1e-7
        return a

    monkeypatch.setattr(suites, "to_exterior_map", moved)
    code, out, err = rays_command()
    assert code == 3 and out == ""
    assert "a residual beyond (64 + 2j) eps" in json.loads(err)["message"]


def test_rays_class_solve_failure_names_the_lowest_row(monkeypatch):
    """The class blocks of one q share a solve; where it fails, each block is
    solved alone, and the lowest failing row names the error: for m = 1 the
    3 x 3 blocks of F_6 and F_7 both fail, and F_6 is named."""
    eigvals = np.linalg.eigvals

    def failing_at_3(blocks):
        if blocks.shape[-1] == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(blocks)

    monkeypatch.setattr(np.linalg, "eigvals", failing_at_3)
    with pytest.raises(poly.RootFindingError) as caught:
        suite_rays()
    assert str(caught.value) == "rays at N=24, m=1: roots of F_6: Eigenvalues did not converge"
    assert caught.value.row == 6


# ---------------------------------------------------------------------------
# the Z_{m+1} reduction of rays, against exact arithmetic
# ---------------------------------------------------------------------------

def exact_hessenberg_rows(m, n):
    """The rows of the n x n Hessenberg matrix of w + 1/(m w^m) as
    {column: Fraction}: H[i, i+1] = 1, H[i, i-m] = 1/m for i > m and
    H[m, 0] = (m + 1)/m."""
    rows = [{} for _ in range(n)]
    for i in range(n):
        if i + 1 < n:
            rows[i][i + 1] = Fraction(1)
        if i > m:
            rows[i][i - m] = Fraction(1, m)
    if m < n:
        rows[m][0] = Fraction(m + 1, m)
    return rows


def exact_power(rows, exponent, n):
    """The leading n x n block of the matrix ``rows``, raised to ``exponent``,
    as {column: Fraction} rows, every entry exact."""
    power = [{i: Fraction(1)} for i in range(n)]
    for _ in range(exponent):
        stepped = []
        for row in power:
            out = {}
            for k, value in row.items():
                for col, entry in rows[k].items():
                    if col < n:
                        out[col] = out.get(col, 0) + value * entry
            stepped.append({col: total for col, total in out.items() if total})
        power = stepped
    return power


def he_g(m, j):
    """G of F_j = z^r G(z^{m+1}) by He's formula, highest power first: the
    coefficient of z^{j-(m+1)k} is (-1)^k j (j-mk-1)! / ((j-(m+1)k)! k!), an
    integer, over m^k."""
    f = math.factorial
    coeffs = []
    for k in range(j // (m + 1) + 1):
        numerator, denominator = j * f(j - m * k - 1), f(j - (m + 1) * k) * f(k)
        assert numerator % denominator == 0
        coeffs.append(Fraction((-1) ** k * (numerator // denominator), m ** k))
    return coeffs


def characteristic_polynomial(block):
    """det(y I - B) of a square Fraction matrix, highest power first, by the
    Faddeev-LeVerrier recursion."""
    q = len(block)
    coeffs, product = [Fraction(1)], [[Fraction(0)] * q for _ in range(q)]
    for k in range(1, q + 1):
        for i in range(q):
            product[i][i] += coeffs[-1]
        product = [[sum(block[i][t] * product[t][c] for t in range(q) if block[i][t])
                    for c in range(q)] for i in range(q)]
        coeffs.append(-sum(product[i][i] for i in range(q)) / k)
    return coeffs


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_class_block_of_the_power_is_that_of_each_leading_block(m):
    """In exact rationals at N = 30: the leading q x q block of class r of
    H_N^{m+1} is the class-r block of H_j^{m+1} for every j = q (m+1) + r
    <= N, and P = H_N^{m+1} has no entry between two classes; for the top
    row of each class its characteristic polynomial is He's G."""
    n, span = 30, m + 1
    h = exact_hessenberg_rows(m, n)
    power = exact_power(h, span, n)
    assert all((col - i) % span == 0 for i, row in enumerate(power) for col in row)
    for j in range(1, n + 1):
        q, r = divmod(j, span)
        leading = exact_power(h, span, j)
        index = range(r, j, span)
        block = [[power[i].get(c, 0) for c in index] for i in index]
        assert block == [[leading[i].get(c, 0) for c in index] for i in index], j
        if j > n - span:
            assert characteristic_polynomial(block) == he_g(m, j), j


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_class_eigenvalues_are_the_roots_of_he_g(m):
    """The reduced eigenvalues of rows up to j = 100 against the roots of He's
    G, found by mpmath.polyroots (Durand-Kerner) at 50 digits from its exact
    coefficients: each mu is real, lies in (0, ((m+1)/m)^{m+1}], and is
    within 1e-5 of its root, relative (4.9e-7 measured, at m = 4, j = 100).
    The iteration starts from the eigenvalues moved off the real axis by
    1e-9 of their modulus.  Converged, its q distinct points are all the
    roots of G, whatever its start, so the start only sets the number of its
    steps.  The rows are the top m + 1, one per class, up to j = 25, 50 and
    100, where q is largest."""
    a = to_exterior_map(Hypocycloid(m), m)
    cusp = ((m + 1) / m) ** (m + 1)
    found = {j: mu for rows, mu in poly._class_eigenvalues(poly._hessenberg(a, 100), m + 1,
                                                           range(1, 101))
             for j, mu in zip(rows, mu)}
    for top in (25, 50, 100):
        for j in range(top - m, top + 1):
            mu = found[j]
            assert np.isrealobj(mu) and len(mu) == j // (m + 1)
            assert np.all((mu > 0) & (mu <= cusp)), j
            with mpmath.workdps(50):
                exact = mpmath.polyroots(he_g(m, j), maxsteps=50, extraprec=200,
                                         roots_init=(mu * (1 + 1e-9j)).tolist())
                assert all(mpmath.im(x) == 0 and 0 < x <= cusp for x in exact), j
                exact = np.array(sorted(float(x) for x in exact))
            assert np.all(np.diff(exact) > 0), j
            assert np.all(np.abs(np.sort(mu) - exact) <= 1e-5 * exact), j


# ---------------------------------------------------------------------------
# maps of rotational order s > 1: faber_roots on the Z_s-reduced blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, order", [
    (Hypocycloid(1), 2), (Hypocycloid(2), 3), (Hypocycloid(3), 4), (Hypocycloid(4), 5),
    (GapMap(0, 3, [0.2]), 4),                                   # gap --z0 0 --n 3
    (GapMap(0, 3, [0.2, 0, 0, 0, 0.1j]), 4),                    # a_3 and a_7: gcd(4, 8)
    (TwoGapMap(0, 1, 0.25, 5, [0.1]), 2),                       # gcd(2, 6)
    (TwoGapMap(0, 2, 0.25, 5, [0.1]), 3),                       # gcd(3, 6)
    (TwoGapMap(0, 2, 0.25, 4, [0.1]), 1),                       # gcd(3, 5)
    (GapMap(0.1, 3, [0.2]), 1), (Shift(0.3), 1), (Shift(0), 1), (ExpMap(0, 0.5), 1)],
    ids=repr)
def test_rotational_order_is_the_gcd_of_the_nonzero_indices_plus_one(family, order):
    # zeros past the last entry change nothing; a_0 != 0 and the zero map give 1
    for truncation in (0, 12, 40):
        assert poly._rotational_order(to_exterior_map(family, truncation)) == order


def test_the_zero_map_gives_only_exact_zeros():
    # shift --alpha0 0 is z^j: H is nilpotent, and every root exactly 0
    found = roots_command("--family", "shift", "--alpha0", "0", "--j-min", "30", "--j-max", "30")
    assert found == [0j] * 30


def test_a_zero_of_g_gives_exact_zeros_first():
    """w + 0.5/w + 0.125/w^3 has order 2, and F_4 = z^4 - 2 z^2: G(y) = y^2 - 2y
    vanishes at 0, as G does for F_7 and F_12.  Each row's roots open with
    as many exact zeros as its leading zero coefficients (2, 3 and 2 there),
    and no other root is 0."""
    a = _cut_map(to_exterior_map(TwoGapMap(0, 1, 0.5, 3, [0.125]), 12))
    table = faber_system_from_recurrence(a, 12)
    lead = [poly._leading_zeros(table, j) for j in range(1, 13)]
    assert [lead[j - 1] for j in (4, 7, 12)] == [2, 3, 2]
    for j, r, x in zip(range(1, 13), lead, poly.faber_roots(a, table, range(1, 13))):
        assert len(x) == j and not x[:r].any() and x[r:].all(), j


@pytest.mark.parametrize("family", [
    GapMap(0, 3, [0.3 + 0.2j]), GapMap(0, 2, [0.25 - 0.1j]),
    GapMap(0, 3, [0.2 - 0.1j, 0, 0, 0, 0.05j]),
    TwoGapMap(0, 1, 0.2 + 0.1j, 3, [0.15j]), TwoGapMap(0, 2, -0.1 + 0.25j, 5, [0.1 - 0.05j])],
    ids=repr)
def test_complex_symmetric_maps_match_the_full_blocks(monkeypatch, family):
    """Complex maps of order s = 2 to 4: the roots of the reduced blocks are
    those of the leading j x j blocks of H (the path of order 1), j <= 40,
    as multisets: the same exact zeros, and each other root, paired by
    ``linear_sum_assignment``, within 64 kappa eps ||H_j||_F of its
    partner, kappa the condition number of the eigenvalue of H_j nearest
    it (7.8 kappa eps ||H_j||_F measured)."""
    n = 40
    a = _cut_map(to_exterior_map(family, n))
    table = faber_system_from_recurrence(a, n)
    assert poly._rotational_order(a) > 1
    reduced = poly.faber_roots(a, table, range(1, n + 1))
    monkeypatch.setattr(poly, "_rotational_order", lambda a: 1)
    full = poly.faber_roots(a, table, range(1, n + 1))
    for j, x, y in zip(range(1, n + 1), reduced, full):
        assert len(x) == len(y) == j
        assert np.count_nonzero(x == 0) == np.count_nonzero(y == 0), j
        x, y = x[x != 0], y[y != 0]
        if not len(x):
            continue
        h = poly._hessenberg(a, j)
        w, left, right = scipy.linalg.eig(h, left=True, right=True)
        kappa = 1.0 / np.abs(np.sum(left.conj() * right, axis=0))     # unit eigenvectors
        gap = np.abs(x[:, None] - y)
        rows, cols = linear_sum_assignment(gap)
        near = np.abs(y[cols][:, None] - w).argmin(axis=1)
        assert np.all(gap[rows, cols] <= 64 * kappa[near] * EPS * np.linalg.norm(h)), j


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_roots_command_on_the_hypocycloid_within_64_eps_at_60_digits(m):
    """Every root of F_j, j = 120, 150, 200 and 240, has a 60-digit residual
    on He's exact row within 64 eps of 1 + sum_k |c_k| |x|^k, the rule of
    the benchmark's root check (0.85 eps measured, at m = 1, j = 240); at
    j <= 150 every root (|x| > 1e-8) also lies within 1e-12 rad of a cusp
    ray (8.9e-16 measured).  Each row is evaluated as x^r G(x^{m+1})."""
    s = m + 1
    for j in (120, 150, 200, 240):
        found = roots_command("--family", "hypocycloid", "--m", str(m),
                              "--j-min", str(j), "--j-max", str(j))
        assert len(found) == j
        with mpmath.workdps(60):
            g = exact_hypocycloid_row(m, j)[j % s::s][::-1]
            scale = [abs(c) for c in g]
            for x in found:
                point = mpmath.mpc(x)
                value = point ** (j % s) * mpmath.polyval(g, point ** s)
                bound = 1 + abs(point) ** (j % s) * mpmath.polyval(scale, abs(point) ** s)
                assert abs(value) <= 64 * EPS * bound, (j, x)
        if j <= 150:
            nonzero = np.array([x for x in found if abs(x) > 1e-8])
            assert suites._off_ray(nonzero, m).max() <= 1e-12, j
