"""Seeding, permutation, and multiplier distribution tests.

The distribution checks are seeded Monte Carlo with generous z-score
bounds (no flakes at the frozen seeds); the permutation uniformity test
is exhaustive over all 5! = 120 permutations.
"""

import math

import numpy as np
import pytest
from scipy import stats

from oporp.projection import (
    ProjectionDistribution,
    ProjectionKind,
    check_seed,
    derive_seed,
    draw_multipliers,
    gaussian,
    generate_permutation,
    generate_projection_vector,
    generator,
    rademacher,
    scaled_uniform,
    sparse,
)


def test_fourth_moments_exact():
    assert rademacher().fourth_moment == 1.0
    assert gaussian().fourth_moment == 3.0
    assert scaled_uniform().fourth_moment == 9.0 / 5.0
    assert sparse(7.0).fourth_moment == 7.0
    assert sparse(2.5).fourth_moment == 2.5


def test_sparse_parameter_below_one_rejected():
    with pytest.raises(ValueError):
        sparse(0.5)
    # s = 1 is the Rademacher boundary case and is allowed
    assert sparse(1.0).fourth_moment == 1.0


@pytest.mark.parametrize("s", [math.inf, math.nan])
def test_sparse_parameter_must_be_finite(s):
    with pytest.raises(ValueError):
        sparse(s)


def test_seed_validation():
    assert check_seed(0) == 0
    assert check_seed(2**64 - 1) == 2**64 - 1
    with pytest.raises(ValueError):
        check_seed(-1)
    with pytest.raises(ValueError):
        check_seed(2**64)


def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert 0 <= derive_seed(7, 1, 2) < 2**64
    seen = {
        derive_seed(7),
        derive_seed(7, 0),
        derive_seed(7, 1),
        derive_seed(7, 0, 0),
        derive_seed(7, 0, 1),
        derive_seed(8, 0, 0),
    }
    assert len(seen) == 6


def test_generator_reproducible():
    a = generator(123).standard_normal(8)
    b = generator(123).standard_normal(8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("D", [1, 2, 5, 33, 256])
def test_permutation_is_bijective(D):
    for seed in range(5):
        perm = generate_permutation(D, seed)
        assert np.array_equal(np.sort(perm), np.arange(D))


def test_permutation_deterministic():
    assert np.array_equal(generate_permutation(64, 11), generate_permutation(64, 11))
    assert not np.array_equal(generate_permutation(64, 11), generate_permutation(64, 12))


def test_permutation_uniform_over_all_120():
    """Chi-square against the uniform law on S_5, counting every permutation."""
    D, n = 5, 120_000
    counts = {}
    for seed in range(n):
        key = tuple(generate_permutation(D, derive_seed(91, seed)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 120
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001, f"permutation frequencies non-uniform (p={p:.2e})"


def test_dimension_validation():
    with pytest.raises(ValueError):
        generate_permutation(0, 0)
    with pytest.raises(ValueError):
        generate_projection_vector(-3, rademacher(), 0)


DISTS = [rademacher(), gaussian(), scaled_uniform(), sparse(5.0)]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind.value)
def test_multiplier_moments(dist):
    """Sample moments match E(r)=0, E(r^2)=1, E(r^3)=0, E(r^4)=s."""
    n = 400_000
    r = generate_projection_vector(n, dist, 2024)
    s = dist.fourth_moment
    # standard errors from the next even moment of each family; 5 sigma bounds
    se1 = 1.0 / np.sqrt(n)
    se2 = np.sqrt(max(s - 1.0, 0.0) / n) + 1e-9
    assert abs(r.mean()) < 5 * se1
    assert abs((r**2).mean() - 1.0) < 5 * se2 + 5e-3
    assert abs((r**3).mean()) < 5 * np.sqrt(np.mean(r**6) / n)
    assert abs((r**4).mean() - s) < 5 * np.sqrt(np.var(r**4) / n) + 5e-3


def test_rademacher_support():
    r = generate_projection_vector(10_000, rademacher(), 3)
    assert set(np.unique(r)) == {-1.0, 1.0}


@pytest.mark.parametrize("shape", [1, 7, 1001, (3, 5), (9, 3, 7)])
def test_rademacher_draw_keeps_the_int64_stream(shape):
    # the draw is made as int32; values and the stream position after it
    # must equal those of the plain int64 draw 2*integers(0, 2) - 1
    a, b = generator(77), generator(77)
    got = draw_multipliers(a, shape, rademacher())
    want = 2 * b.integers(0, 2, size=shape) - 1
    assert got.dtype == np.float64
    assert np.array_equal(got, want)
    assert a.random() == b.random()


def test_sparse_support_and_zero_fraction():
    s = 10.0
    r = generate_projection_vector(200_000, sparse(s), 4)
    root = np.sqrt(s)
    assert set(np.unique(r)) == {-root, 0.0, root}
    zero_frac = np.mean(r == 0.0)
    # P(zero) = 1 - 1/s; binomial 5-sigma band
    assert abs(zero_frac - 0.9) < 5 * np.sqrt(0.9 * 0.1 / 200_000)
    # signs split evenly among the nonzeros
    nz = r[r != 0.0]
    assert abs(np.mean(nz > 0) - 0.5) < 5 * np.sqrt(0.25 / nz.size)


def test_scaled_uniform_range():
    r = generate_projection_vector(50_000, scaled_uniform(), 5)
    assert np.all(np.abs(r) <= np.sqrt(3.0) + 1e-12)


def test_projection_vector_deterministic():
    for dist in DISTS:
        a = generate_projection_vector(100, dist, 42)
        b = generate_projection_vector(100, dist, 42)
        assert np.array_equal(a, b)


def test_distribution_equality_and_kinds():
    assert sparse(4.0) == ProjectionDistribution(ProjectionKind.SPARSE, 4.0)
    assert rademacher() != gaussian()
