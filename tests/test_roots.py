"""Aberth root finding on Faber polynomials at the degrees the CLI reaches.

A root is judged by its residual, evaluated in mpmath at 50 digits on the
float coefficients, against 64 eps of the Horner scale
1 + sum_k |c_k| |r|^k: the scale float64 round-off in p(r) is proportional
to, so no float64 root finder can promise more than a small multiple of it.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from faberpoly import poly
from faberpoly.faber import faber_system_from_recurrence
from faberpoly.maps import (ExpMap, GapMap, Shift, exp_map_faber_closed_form,
                            hypocycloid_faber_closed_form, to_exterior_map)
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
                        lambda abs_c: np.full(len(abs_c) - 1, 0.5 + 0.5j))
    for coeffs in ([-1, 0, 1], [2, -3, 0, 1]):          # z^2 - 1 and (z - 1)^2 (z + 2)
        found = poly._aberth([np.array(coeffs, dtype=complex)])[0]
        assert_roots_within_residual_bound(poly.ComplexPolynomial(coeffs), found.tolist())


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
    """``suite_rays`` solves each table in one batch and takes the angles
    with numpy; the per-root loop over rows solved one at a time gives
    each m's worst angle off the cusp rays within round-off (1e-13 rad)."""
    report = suite_rays()
    for m, batched in zip(range(1, 5), report.residuals):
        directions = [2.0 * math.pi * v / (m + 1) for v in range(m + 1)]
        table = hypocycloid_faber_closed_form(m, 24)
        worst = 0.0
        for j in range(1, 25):
            for r in poly.ComplexPolynomial(table[j, :j + 1]).roots():
                if abs(r) <= 1e-8:
                    continue
                a = math.atan2(r.imag, r.real) % (2.0 * math.pi)
                worst = max(worst, min(min(abs(a - phi), 2.0 * math.pi - abs(a - phi))
                                       for phi in directions))
        assert abs(batched - worst) <= 1e-13
