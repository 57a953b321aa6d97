"""Seeding, permutation, and multiplier distribution tests.

The distribution checks are seeded Monte Carlo with generous z-score
bounds (no flakes at the frozen seeds); the permutation uniformity test
is exhaustive over all 5! = 120 permutations. Permutations and
multipliers are drawn through the samplers a plan and a sweep chunk share:
``oporp.sketch._oporp_draws`` and ``draw_multipliers``.
"""

import math

import numpy as np
import pytest
from scipy import stats

from oporp.projection import (
    _STREAMS,
    ProjectionDistribution,
    ProjectionKind,
    check_seed,
    derive_seed,
    draw_multipliers,
    gaussian,
    generator,
    rademacher,
    scaled_uniform,
    sparse,
)
from oporp.sketch import _FLAVOR_CODES, Binning, SketchConfig, _oporp_draws


def permutation_rows(rng, c, D):
    """The c permutations of a fixed-binning draw, (c, D) rows.

    Gaussian multipliers keep the signs out of them.
    """
    index, _ = _oporp_draws(rng, c, D, 1, gaussian(), fixed=True)
    return index


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


def test_seed_must_be_an_integer():
    # int() would truncate 5.5 to seed 5's stream
    for seed in (5.5, 5.0, "5"):
        with pytest.raises(TypeError):
            check_seed(seed)
    assert type(check_seed(np.uint64(2**64 - 1))) is int
    assert check_seed(np.int64(5)) == 5


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


def test_stream_tags_are_distinct():
    # Two purposes on one tag would draw the same stream.
    assert len(set(_STREAMS.values())) == len(_STREAMS)
    assert set(_FLAVOR_CODES) <= set(_STREAMS)


def test_generator_reproducible():
    a = generator(123).standard_normal(8)
    b = generator(123).standard_normal(8)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("D", [1, 2, 5, 33, 256])
def test_permutation_is_bijective(D):
    for seed in range(5):
        index = permutation_rows(generator(seed), 3, D)
        assert index.dtype == np.uint16
        assert np.array_equal(np.sort(index, axis=1), np.tile(np.arange(D), (3, 1)))


def test_permutation_deterministic():
    def rows(seed):
        return permutation_rows(generator(seed), 4, 64)

    assert np.array_equal(rows(11), rows(11))
    assert not np.array_equal(rows(11), rows(12))
    # the rows of one draw are independent, not copies
    assert not np.array_equal(rows(11)[0], rows(11)[1])


def test_permutation_uniform_over_all_120():
    """Chi-square against the uniform law on S_5, counting every permutation."""
    D, n = 5, 120_000
    counts = {}
    for row in permutation_rows(generator(derive_seed(91)), n, D):
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 120
    _, p = stats.chisquare(list(counts.values()))
    assert p > 0.001, f"permutation frequencies non-uniform (p={p:.2e})"


def test_variable_bins_are_int32_rows_in_range():
    index, _ = _oporp_draws(generator(6), 4, 200, 7, gaussian(), fixed=False)
    # drawn as int32, stored as uint16 since k <= 65536
    assert index.dtype == np.uint16 and index.shape == (4, 200)
    assert index.min() == 0 and index.max() == 6
    # the index rows come first on the stream, then the multiplier rows
    rng = generator(6)
    assert np.array_equal(index, rng.integers(0, 7, size=(4, 200), dtype=np.int32))
    assert np.array_equal(_, draw_multipliers(rng, (4, 200), gaussian()))


def test_dimension_validation():
    # a plan's dimension is checked by its config; the samplers refuse
    # negative shapes themselves
    with pytest.raises(ValueError):
        SketchConfig(dim=0, k=1, binning=Binning.FIXED, dist=rademacher())
    for dist in DISTS + [sparse(200.0)]:
        with pytest.raises(ValueError):
            draw_multipliers(generator(0), -3, dist)


DISTS = [rademacher(), gaussian(), scaled_uniform(), sparse(5.0)]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind.value)
def test_multiplier_moments(dist):
    """Sample moments match E(r)=0, E(r^2)=1, E(r^3)=0, E(r^4)=s."""
    check_moments(draw_multipliers(generator(2024), 400_000, dist), dist.fourth_moment)


# s = 1 has no zeros, s = 200 (above 128) draws every nonzero from a tie
SPARSE_S = (1.0, 3.0, 30.0, 200.0)


@pytest.mark.parametrize("s", SPARSE_S)
def test_sparse_multiplier_moments(s):
    check_moments(draw_multipliers(generator(2025), 400_000, sparse(s)), s)


def check_moments(r, s):
    n = r.shape[0]
    # standard errors from the next even moment of each family; 5 sigma bounds
    se1 = 1.0 / np.sqrt(n)
    se2 = np.sqrt(max(s - 1.0, 0.0) / n) + 1e-9
    assert abs(r.mean()) < 5 * se1
    assert abs((r**2).mean() - 1.0) < 5 * se2 + 5e-3
    assert abs((r**3).mean()) < 5 * np.sqrt(np.mean(r**6) / n)
    assert abs((r**4).mean() - s) < 5 * np.sqrt(np.var(r**4) / n) + 5e-3


def test_rademacher_support():
    r = draw_multipliers(generator(3), 10_000, rademacher())
    assert set(np.unique(r)) == {-1.0, 1.0}


@pytest.mark.parametrize("shape", [1, 7, 1001, (3, 5), (9, 3, 7), 63, 64, 65])
def test_rademacher_draw_keeps_the_int64_stream(shape):
    # pins the stream: one bit per sign, entry j is 1 - 2 * (bit j of the
    # raw 64-bit words read little-endian), and the draw takes ceil(n/64)
    # whole words, so the generator after it is where the raw words leave it
    a, b = generator(77), generator(77)
    got = draw_multipliers(a, shape, rademacher())
    n = math.prod(np.shape(got))
    words = b.bit_generator.random_raw(-(-n // 64))
    bits = [(int(words[j // 64]) >> (j % 64)) & 1 for j in range(n)]
    assert got.dtype == np.int8
    assert got.shape == np.empty(shape).shape
    assert np.array_equal(got.ravel(), 1.0 - 2.0 * np.array(bits))
    assert a.random() == b.random()


def test_sparse_support_and_zero_fraction():
    n = 200_000
    for s in (10.0, *SPARSE_S):
        r = draw_multipliers(generator(4), n, sparse(s))
        root = np.sqrt(s)
        assert set(np.unique(r)) == ({-root, root} if s == 1.0 else {-root, 0.0, root})
        zero_frac = np.mean(r == 0.0)
        # P(zero) = 1 - 1/s; binomial 5-sigma band
        p = 1.0 - 1.0 / s
        assert abs(zero_frac - p) <= 5 * np.sqrt(p * (1.0 - p) / n)
        # signs split evenly among the nonzeros
        nz = r[r != 0.0]
        assert abs(np.mean(nz > 0) - 0.5) < 5 * np.sqrt(0.25 / nz.size)


def test_scaled_uniform_range():
    r = draw_multipliers(generator(5), 50_000, scaled_uniform())
    assert np.all(np.abs(r) <= np.sqrt(3.0) + 1e-12)


def test_projection_vector_deterministic():
    for dist in DISTS:
        a = draw_multipliers(generator(42), 100, dist)
        b = draw_multipliers(generator(42), 100, dist)
        assert np.array_equal(a, b)


def test_distribution_equality_and_kinds():
    assert sparse(4.0) == ProjectionDistribution(ProjectionKind.SPARSE, 4.0)
    assert rademacher() != gaussian()


@pytest.mark.parametrize("kind", [
    ProjectionKind.RADEMACHER, ProjectionKind.GAUSSIAN, ProjectionKind.SCALED_UNIFORM,
])
def test_dense_kinds_refuse_a_sparse_parameter(kind):
    # (GAUSSIAN, 3.0) used to draw exactly as gaussian() yet compare unequal to it
    with pytest.raises(ValueError, match="sparse parameter"):
        ProjectionDistribution(kind, 3.0)
    with pytest.raises(ValueError, match="sparse parameter"):
        ProjectionDistribution(kind, math.nan)
    assert ProjectionDistribution(kind, 1.0) == ProjectionDistribution(kind)
