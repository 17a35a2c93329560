"""Aberth root finding on Faber polynomials at the degrees the CLI reaches.

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
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest

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


@pytest.mark.parametrize("build", [lambda: hypocycloid_faber_closed_form(1, 24)[24],
                                   lambda: exp_map_faber_closed_form(0.2, 0.3 + 0.1j, 30)[30]],
                         ids=["hypocycloid-m1-j24", "expmap-j30"])
def test_sweep_count_ceiling(monkeypatch, build):
    """Each Aberth sweep is one Horner pass.  Started on the Cauchy circle,
    these took about 128 and 176 sweeps; from the Newton polygon, about 14 and 22."""
    p = poly.ComplexPolynomial(build())
    passes = []
    horner = poly._horner

    def counting(*args):
        passes.append(1)
        return horner(*args)

    monkeypatch.setattr(poly, "_horner", counting)
    p.roots()
    assert len(passes) <= 30


def test_coinciding_iterates_are_split(monkeypatch):
    """Every iterate starts at one point, so the first sweep finds them all
    coinciding and spreads them apart before iterating on."""
    monkeypatch.setattr(poly, "_newton_polygon_starts",
                        lambda abs_c: np.full((len(abs_c), abs_c.shape[1] - 1), 0.5 + 0.5j))
    for coeffs in ([-1, 0, 1], [2, -3, 0, 1]):          # z^2 - 1 and (z - 1)^2 (z + 2)
        found = poly._aberth([np.array(coeffs, dtype=complex)])[0]
        assert_roots_within_residual_bound(poly.ComplexPolynomial(coeffs), found.tolist())


def test_a_non_finite_start_fails_in_the_first_sweep_though_others_coincide(monkeypatch):
    """A row whose starts are partly non-finite and partly coinciding is
    split, but splitting leaves the non-finite iterate where it is, so the
    row fails in the sweep it starts, not one sweep later."""
    monkeypatch.setattr(poly, "_newton_polygon_starts",
                        lambda abs_c: np.array([[complex("inf"), 0.5 + 0.5j, 0.5 + 0.5j]]))
    with pytest.raises(poly.RootFindingError) as caught:
        poly._aberth([np.array([2, -3, 0, 1], dtype=complex)])
    assert str(caught.value) == "Aberth iteration left the finite range in sweep 1"
    assert caught.value.row == 0


def test_sweep_limit_raises_with_the_last_iterates(monkeypatch):
    monkeypatch.setattr(poly, "ROOT_MAX_ITER", 1)
    with pytest.raises(poly.RootFindingError) as caught:
        poly.ComplexPolynomial([-1, 0, 0, 1]).roots()
    err = caught.value
    assert str(err) == "Aberth iteration did not converge in 1 sweeps"
    assert err.row == 0 and len(err.roots) == len(err.residuals) == 3
    assert all(cmath.isfinite(r) for r in err.roots)
    assert all(math.isfinite(r) for r in err.residuals)


# ---------------------------------------------------------------------------
# the batched kernel: a table's rows solved in one call
# ---------------------------------------------------------------------------

def table_rows(table):
    return [table[j, :j + 1] for j in range(1, len(table))]


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_batched_rows_agree_with_each_row_alone(m):
    rows = table_rows(hypocycloid_faber_closed_form(m, 24))
    for row, batched in zip(rows, poly._aberth(rows)):
        alone = poly._aberth([row])[0]
        assert len(batched) == len(row) - 1
        assert np.abs(batched - alone).max() <= 1e-9 * (1.0 + np.abs(alone).max())


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_batched_roots_within_residual_bound(m):
    rows = table_rows(hypocycloid_faber_closed_form(m, 24))
    for row, found in zip(rows, poly._aberth(rows)):
        assert_roots_within_residual_bound(poly.ComplexPolynomial(row), found.tolist())


def test_batch_failure_names_the_lowest_failing_row():
    """Rows are padded to degree 4 in one block; the middle row fails as it
    does alone (p overflows at its start radius 1e307), and so does the last."""
    overflowing = np.array([1e307, 1e307, 1e307, 1], dtype=complex)
    rows = [np.array([-2, 0, 1], dtype=complex), overflowing,
            np.array([1, 0, 1e305, 0, 1], dtype=complex)]
    with pytest.raises(poly.RootFindingError) as batched:
        poly._aberth(rows)
    with pytest.raises(poly.RootFindingError) as alone:
        poly.ComplexPolynomial(overflowing).roots()
    err = batched.value
    assert err.row == 1
    assert str(err) == str(alone.value) and "Aberth" in str(err)
    assert err.roots == alone.value.roots and len(err.roots) == 3
    assert all(cmath.isfinite(r) for r in err.roots)
    assert err.residuals == alone.value.residuals
    assert not any(np.isnan(err.residuals))


def test_batch_memory_is_bounded_by_the_largest_row():
    """Blocks stay under a fixed budget of iterate pairs, so solving rows
    1..200 together takes little more memory than row 200 alone.  The rows
    are z^j - 1, whose roots Aberth finds in a few sweeps."""
    n = 200
    table = np.eye(n + 1, dtype=complex)
    table[1:, 0] = -1.0
    rows = table_rows(table)
    peaks = []
    for batch in (rows[-1:], rows):
        tracemalloc.start()
        try:
            found = poly._aberth(batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert all(np.allclose(np.abs(r), 1.0) for r in found)
    assert peaks[1] <= 4 * peaks[0]


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
# Newton-polygon starts: one array pass per block
# ---------------------------------------------------------------------------

def per_row_starts(abs_c):
    """The per-row monotone chain the block starts replaced: upper hull of
    the points (k, log|c_k|) on the support, popping a point on or below the
    chord, then k - i starts per edge from i to k."""
    n = len(abs_c) - 1
    support = np.flatnonzero(abs_c)
    logs = np.log(np.where(abs_c > 0, abs_c, 1.0))
    hull = []
    for k in support:
        while len(hull) >= 2 and ((logs[hull[-1]] - logs[hull[-2]]) * (k - hull[-2])
                                  <= (logs[k] - logs[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(int(k))
    starts = []
    for i, k in zip(hull, hull[1:]):
        radius = np.exp((logs[i] - logs[k]) / (k - i))
        angles = 2.0 * np.pi * (np.arange(k - i) / (k - i) + i / n) + 0.4
        starts.append(radius * np.exp(1j * angles))
    return np.concatenate(starts)


def assert_block_starts_match_each_row(rows):
    """The block starts of the zero-padded rows are, bit for bit, each row's
    own starts followed by zeros."""
    width = max(len(row) for row in rows)
    abs_c = np.zeros((len(rows), width))
    for p, row in enumerate(rows):
        abs_c[p, :len(row)] = row
    block = poly._newton_polygon_starts(abs_c)
    assert block.shape == (len(rows), width - 1)
    for row, starts in zip(rows, block):
        alone = per_row_starts(np.asarray(row, dtype=float))
        assert starts[:len(alone)].tobytes() == alone.tobytes()
        assert not starts[len(alone):].any()


def monic_magnitudes(table):
    """|c| of the monic part of every row of degree >= 2 that ``_aberth``
    iterates, after it splits off the factor z^r."""
    rows = []
    for j in range(1, len(table)):
        row = table[j, :j + 1]
        c = row[np.flatnonzero(row)[0]:] / row[-1]
        if len(c) > 2:
            rows.append(np.abs(c))
    return rows


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_block_starts_match_each_rays_row(m):
    # every row the rays suite iterates, 86 over m = 1..4, as one block
    assert_block_starts_match_each_row(monic_magnitudes(hypocycloid_faber_closed_form(m, 24)))


def test_block_starts_match_rows_with_gaps():
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(200):
        n = int(rng.integers(2, 40))
        row = np.exp(rng.normal(0.0, 5.0, n + 1))
        row[rng.uniform(size=n + 1) < 0.4] = 0.0
        row[0], row[-1] = row[0] + 0.5, 1.0
        rows.append(row)
    assert_block_starts_match_each_row(rows)


def test_block_starts_match_a_single_edge():
    # only c_0 and c_n nonzero: one edge, n starts on one circle
    assert_block_starts_match_each_row([np.array([3.0, 0, 0, 0, 1.0]), np.array([1e-5, 0, 1.0]),
                                        np.array([7.0] + [0.0] * 12 + [1.0])])


def test_block_starts_match_exactly_collinear_log_magnitudes():
    # log|c_k| exactly on one line (slopes 0, 0.5 and -0.25, each exact in float64),
    # so no inner point is a vertex and each row is a single edge
    k = np.arange(12)
    assert np.array_equal(np.log(np.exp(0.5 * k)), 0.5 * k)
    rows = [np.ones(n) for n in range(3, 13)]
    rows += [np.exp(0.5 * k[:n]) for n in range(3, 13)]
    rows += [np.exp(-0.25 * k[:n]) for n in range(3, 13)]
    rows += [np.array([1.0, 0.0, 1.0, 0.0, 1.0]), np.array([2.0, 1.0, 0.5])]
    assert_block_starts_match_each_row(rows)


def test_block_starts_stay_within_the_difference_buffer():
    """The block's largest temporaries are (rows, n, n) reals, within the
    (rows, n, n) complex buffer the sweeps write their differences into."""
    rows = monic_magnitudes(hypocycloid_faber_closed_form(2, 60))
    width = max(len(row) for row in rows)
    abs_c = np.zeros((len(rows), width))
    for p, row in enumerate(rows):
        abs_c[p, :len(row)] = row
    tracemalloc.start()
    try:
        poly._newton_polygon_starts(abs_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(rows) * (width - 1) ** 2


# ---------------------------------------------------------------------------
# roots as eigenvalues of the map's Faber Hessenberg matrix
# ---------------------------------------------------------------------------

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


def test_a_solver_failure_names_the_row(monkeypatch):
    eigvals = np.linalg.eigvals

    def failing_at_7(h):
        if len(h) == 7:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(h)

    monkeypatch.setattr(np.linalg, "eigvals", failing_at_7)
    table = hypocycloid_faber_closed_form(2, 9)
    with pytest.raises(poly.RootFindingError) as caught:
        poly.faber_roots(to_exterior_map(Hypocycloid(2), 2), table, range(5, 10))
    assert str(caught.value) == "roots of F_7: Eigenvalues did not converge"
    assert caught.value.row == 7


def test_a_non_finite_eigenvalue_names_the_row(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvals", lambda h: np.full(len(h), complex("inf")))
    table = hypocycloid_faber_closed_form(2, 9)
    with pytest.raises(poly.RootFindingError) as caught:
        poly.faber_roots(to_exterior_map(Hypocycloid(2), 2), table, range(5, 10))
    assert str(caught.value) == "roots of F_5: an eigenvalue is not finite in float64"
    assert caught.value.row == 5


@pytest.mark.parametrize("n", (34, 40))
def test_rays_decides_where_aberth_stopped(n):
    # Aberth's rays exited 1 from N = 34; the eigenvalues stay within 1e-13 rad
    report = suite_rays(n)
    assert report.passed and report.max_residual <= 1e-13


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
