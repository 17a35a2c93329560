"""The suites' seeded draws against scalar references that take each uniform
from the generator in its own call: a disk point draws its radius, then its
angle, and the block draws of the suites must use the stream the same way."""

import cmath
import math

import numpy as np
import pytest

from faberpoly import suites
from faberpoly.maps import ExpMap, evaluate_map, inverse_exp_map, lambert_w0
from faberpoly.suites import (draw_disk, draw_disks, draw_exterior_map, draw_gap_map,
                              draw_two_gap_map, suite_lambert)

SEEDS = (0, 1, 17, 2024)


def scalar_polar(rng, r):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def scalar_disk(rng, radius):
    return scalar_polar(rng, radius * math.sqrt(rng.uniform()))


def scalar_exterior_map(rng, truncation):
    return [scalar_disk(rng, 1.0 / (k + 1)) for k in range(truncation + 1)]


def scalar_gap_map(rng):
    n = int(rng.integers(1, 6))
    z0 = scalar_disk(rng, 1.0)
    lead = scalar_polar(rng, 2.0 / (n + 1) * (0.4 + 0.6 * rng.uniform()))
    return z0, n, [lead] + [scalar_disk(rng, 2.0 / (j + 1)) for j in range(n + 1, 2 * n + 1)]


def scalar_two_gap_map(rng, pattern_valid):
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m + 2, 2 * m + 2)) if pattern_valid else m + 2 + int(rng.integers(0, 4))
    z0 = scalar_disk(rng, 1.0)
    alpha_m = scalar_polar(rng, (0.3 + 0.7 * rng.uniform()) / (m + 1))
    lead = scalar_polar(rng, 1.0 / (n + 1) * (0.4 + 0.6 * rng.uniform()))
    return z0, m, alpha_m, n, [lead] + [scalar_disk(rng, 1.0 / (j + 1)) for j in (n + 1, n + 2)]


def same_stream(a, b):
    return a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("radii", [[], [3.0], [1.0 / (k + 1) for k in range(31)]],
                         ids=["empty", "one", "31"])
def test_disks_match_the_scalar_draws(seed, radii):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert draw_disks(rng, radii) == [scalar_disk(ref, r) for r in radii]
    assert same_stream(rng, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_disk_is_a_block_of_one(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [draw_disk(rng, 1.5) for _ in range(5)] == [scalar_disk(ref, 1.5) for _ in range(5)]
    assert same_stream(rng, ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_maps_match_the_scalar_draws(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for truncation in (0, 1, 24, 30):
        assert draw_exterior_map(rng, truncation).tolist() == scalar_exterior_map(ref, truncation)
    for _ in range(6):
        gap = draw_gap_map(rng)
        assert (gap.z0, gap.n, list(gap.tail)) == scalar_gap_map(ref)
    for pattern_valid in (False, True) * 3:
        fam = draw_two_gap_map(rng, pattern_valid)
        assert ((fam.z0, fam.m, fam.alpha_m, fam.n, list(fam.tail))
                == scalar_two_gap_map(ref, pattern_valid))
    assert same_stream(rng, ref)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("maps, truncation", [(50, 30), (30, 24)], ids=["50x31", "30x25"])
def test_a_stack_of_maps_is_the_scalar_draws_in_turn(seed, maps, truncation):
    # the one draw of recurrence-vs-oracle and of eq13 and eq16
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = draw_exterior_map(rng, truncation, maps)
    assert stack.shape == (maps, truncation + 1) and not stack.flags.writeable
    assert [a.tolist() for a in stack] == [scalar_exterior_map(ref, truncation)
                                           for _ in range(maps)]
    assert same_stream(rng, ref)


def scalar_lambert(rng):
    """The grid and round-trip residuals of suite_lambert, one uniform per call."""
    worst_grid = 0.0
    count = 0
    while count < 1000:
        t = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        if abs(t.imag) < 1e-9 and t.real < -0.2:
            continue
        count += 1
        worst_grid = max(worst_grid, lambert_w0(t).residual / (1.0 + abs(t)))
    eta, lam = 0.3 - 0.2j, 0.8
    worst_round = 0.0
    for _ in range(100):
        radius = 1.1 + 8.9 * rng.uniform()
        w = radius * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        worst_round = max(worst_round,
                          abs(inverse_exp_map(evaluate_map(ExpMap(eta, lam), w), eta, lam) - w))
    return worst_grid, worst_round


class ListedUniforms:
    """A generator stand-in that hands out a fixed list of uniforms in order."""

    def __init__(self, values):
        self.values = values
        self.taken = 0

    def uniform(self, low=0.0, high=1.0, size=None):
        count = 1 if size is None else math.prod(size)
        u = np.array(self.values[self.taken:self.taken + count])
        assert len(u) == count, "the list of uniforms ran out"
        self.taken += count
        out = low + (high - low) * u
        return float(out[0]) if size is None else out.reshape(size)


@pytest.mark.parametrize("seed", [0, 3])
def test_lambert_matches_the_scalar_draws(seed):
    ref = np.random.default_rng(seed)
    assert suite_lambert(seed).residuals[:2] == scalar_lambert(ref)


def test_lambert_top_up_draws_what_the_scalar_loop_draws(monkeypatch):
    # every third pair lands on the cut (t = -2 + 0j), so the grid is refilled
    # in blocks of 334, 112, 38, ... pairs; 1000 accepted pairs take 1500
    values = np.random.default_rng(5).uniform(size=4000)
    values[0:3000:6], values[1:3000:6] = 0.25, 0.5
    values = values.tolist()
    ref = ListedUniforms(values)
    expected = scalar_lambert(ref)
    assert ref.taken == 2 * 1500 + 200
    stub = ListedUniforms(values)
    monkeypatch.setattr(suites.np.random, "default_rng", lambda seed: stub)
    assert suite_lambert(0).residuals[:2] == expected
    assert stub.taken == ref.taken
