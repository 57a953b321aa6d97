"""Sketch construction, binning structure, and the file format.

The reconstruction tests rebuild sketches from the plan's one draw on its
documented stream, so any change to how randomness is wired breaks here
rather than silently shifting results. The VSRP tests rebuild the
projection matrix from their own byte-by-byte copy of the sparse rule.
"""

import math
import struct
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oporp.projection
import oporp.sketch
from oporp import cli
from oporp.experiment import _oporp_chunk, similarity_matrix
from oporp.privacy import PrivacySpec, dp_oporp, dp_sign_oporp_rr, dp_sign_oporp_rr_smooth
from oporp.projection import (
    ProjectionDistribution,
    ProjectionKind,
    _sparse_signs,
    derive_seed,
    draw_multipliers,
    gaussian,
    generator,
    rademacher,
    scaled_uniform,
    sparse,
)
from oporp.sketch import (
    _STREAMS,
    Binning,
    Sketch,
    SketchConfig,
    SketchFileError,
    SketchMismatchError,
    SketchPlan,
    _bin_sums,
    _cached_plan,
    _oporp_draws,
    _plan,
    _plan_bytes,
    check_compatible,
    load_sign_sketch,
    load_sketch,
    oporp_sketch,
    save_sign_sketch,
    row_norms,
    save_sketch,
    vsrp_config,
    vsrp_sketch,
)


def plan_rng(seed):
    """The one generator a plan of this seed draws from."""
    return generator(derive_seed(seed, _STREAMS["oporp"]))


def row_draws(rng, c, Dp, k, dist, fixed):
    """c OPORP draws as (c, Dp) rows, from numpy's own calls on ``rng``.

    One int32 tile of range(Dp) shuffled along its rows (fixed binning) or
    one bounded int32 draw of bin indices (variable binning), then the
    multipliers: the stream a plan's and a sweep chunk's draw reads.
    """
    if fixed:
        index = rng.permuted(np.tile(np.arange(Dp, dtype=np.int32), (c, 1)), axis=1)
    else:
        index = rng.integers(0, k, size=(c, Dp), dtype=np.int32)
    return index, draw_multipliers(rng, (c, Dp), dist)


def cfg(**kw):
    base = dict(dim=16, k=4, binning=Binning.FIXED, dist=rademacher(), m=1, seed=0)
    base.update(kw)
    return SketchConfig(**base)


# --- config and binning structure --------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(k=0)
    with pytest.raises(ValueError):
        cfg(m=0)
    with pytest.raises(ValueError):
        cfg(dim=0)
    with pytest.raises(ValueError):
        cfg(k=17)  # fixed binning needs k <= dim
    with pytest.raises(ValueError):
        cfg(seed=-1)
    # variable binning is allowed to have more bins than coordinates
    c = cfg(k=32, binning=Binning.VARIABLE)
    assert c.padded_dim == 16


@pytest.mark.parametrize("field, value", [
    ("binning", "fixed"), ("binning", "variable"), ("dist", "rademacher"), ("dist", None),
])
def test_config_rejects_untyped_binning_and_dist(field, value):
    # a string binning used to pass and sketch with the variable-length scheme
    with pytest.raises(TypeError):
        cfg(**{field: value})


def bin_of_each_coordinate(c: SketchConfig) -> np.ndarray:
    """(m, dim) bin index of every coordinate, read off the sketches of the unit vectors.

    Under Rademacher multipliers coordinate i puts +-1 into its bin and 0
    into every other one.
    """
    reps = SketchPlan(c).apply(np.eye(c.dim)).reshape(c.dim, c.m, c.k)
    assert np.all(np.count_nonzero(reps, axis=2) == 1)
    return np.argmax(np.abs(reps), axis=2).T


def test_padded_dim_and_block_length():
    # dim 10 pads to 12: each of the 4 bins has 3 slots, 2 of them padding
    c = SketchConfig(dim=10, k=4, binning=Binning.FIXED, dist=rademacher())
    assert c.padded_dim == 12
    counts = np.bincount(bin_of_each_coordinate(c)[0], minlength=4)
    assert counts.sum() == 10 and counts.max() <= 3
    assert np.all(np.bincount(bin_of_each_coordinate(cfg(dim=16, k=4))[0]) == 4)


def test_fixed_bin_assignment_is_balanced():
    for D, k, seed in [(16, 4, 0), (12, 3, 5), (64, 64, 9)]:
        c = SketchConfig(dim=D, k=k, binning=Binning.FIXED, dist=rademacher(), seed=seed)
        bins = bin_of_each_coordinate(c)[0]
        assert np.all(np.bincount(bins, minlength=k) == D // k)


def test_variable_bin_assignment_range_and_determinism():
    c = cfg(binning=Binning.VARIABLE, k=6, dim=200, seed=3)
    bins = bin_of_each_coordinate(c)[0]
    assert bins.shape == (200,)
    assert bins.min() >= 0 and bins.max() < 6
    assert np.array_equal(bins, bin_of_each_coordinate(c)[0])


def test_bin_assignment_differs_across_repetitions():
    assignments = bin_of_each_coordinate(cfg(m=3, seed=8))
    assert not np.array_equal(assignments[0], assignments[1])
    assert not np.array_equal(assignments[1], assignments[2])


# --- sketch values ------------------------------------------------------------


def test_oporp_matches_reconstruction_fixed():
    """Recompute from the primitives: coordinate i contributes u_i * r[pos(i)]
    to the bin of its post-permutation block."""
    rng = np.random.default_rng(1)
    u = rng.standard_normal(16)
    c = cfg(m=3, seed=21, dist=gaussian())
    sk = oporp_sketch(u, c)
    perms, R = row_draws(plan_rng(21), 3, 16, 4, gaussian(), True)
    for t, (perm, r) in enumerate(zip(perms, R)):
        positions = np.empty(16, dtype=np.int64)
        positions[perm] = np.arange(16)
        # consecutive blocks of Dp / k = 4 positions form the bins
        expected = np.bincount(positions // 4, weights=u * r[positions], minlength=4)
        assert np.allclose(sk.reps[t], expected, rtol=0, atol=1e-12)


def test_oporp_matches_reconstruction_variable():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(30)
    c = SketchConfig(dim=30, k=7, binning=Binning.VARIABLE, dist=rademacher(), m=2, seed=5)
    sk = oporp_sketch(u, c)
    bins, R = row_draws(plan_rng(5), 2, 30, 7, rademacher(), False)
    for t, (index, r) in enumerate(zip(bins, R)):
        expected = np.bincount(index, weights=u * r, minlength=7)
        assert np.allclose(sk.reps[t], expected, rtol=0, atol=1e-12)


def test_oporp_linearity():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(20), rng.standard_normal(20)
    for binning in Binning:
        c = SketchConfig(dim=20, k=5, binning=binning, dist=gaussian(), m=2, seed=7)
        su = oporp_sketch(u, c).values
        sv = oporp_sketch(v, c).values
        sw = oporp_sketch(2.0 * u - 0.5 * v, c).values
        assert np.allclose(sw, 2.0 * su - 0.5 * sv, atol=1e-10)


def test_padding_equals_explicit_zero_padding():
    """dim=5, k=2 pads to 6; sketching the explicitly padded vector under
    dim=6 must give identical values (same derived streams)."""
    u = np.array([0.3, -1.2, 0.5, 2.0, -0.7])
    a = oporp_sketch(u, SketchConfig(dim=5, k=2, binning=Binning.FIXED, dist=rademacher(), seed=4))
    b = oporp_sketch(
        np.concatenate([u, [0.0]]),
        SketchConfig(dim=6, k=2, binning=Binning.FIXED, dist=rademacher(), seed=4),
    )
    assert np.array_equal(a.values, b.values)


def test_sketch_at_k_equals_dim_is_signed_shuffle():
    u = np.random.default_rng(6).standard_normal(32)
    sk = oporp_sketch(u, cfg(dim=32, k=32, seed=13))
    assert np.allclose(np.sort(np.abs(sk.values)), np.sort(np.abs(u)), atol=1e-12)


def test_repetition_layout():
    u = np.random.default_rng(7).standard_normal(16)
    sk = oporp_sketch(u, cfg(m=3, seed=2))
    assert sk.values.shape == (12,)
    assert sk.reps.shape == (3, 4)
    for t in range(3):
        assert np.array_equal(sk.reps[t], sk.values[t * 4 : (t + 1) * 4])


def test_sketch_stores_data_norm():
    u = np.array([3.0, 4.0] + [0.0] * 14)
    assert oporp_sketch(u, cfg()).stored_norm == pytest.approx(5.0, abs=1e-12)


def test_oporp_rejects_wrong_shape():
    with pytest.raises(ValueError):
        oporp_sketch(np.zeros((4, 4)), cfg())
    with pytest.raises(ValueError):
        oporp_sketch(np.zeros(15), cfg())


def test_sketch_rejects_non_finite_input():
    for bad in (np.inf, -np.inf, np.nan):
        u = np.ones(16)
        u[3] = bad
        with pytest.raises(ValueError):
            oporp_sketch(u, cfg())
        with pytest.raises(ValueError):
            vsrp_sketch(u, 16, 4, 2.0, 0)
        M = np.ones((5, 16))
        M[4, 7] = bad
        with pytest.raises(ValueError):
            SketchPlan(cfg()).apply(M)
        with pytest.raises(ValueError):
            SketchPlan(vsrp_config(16, 4, 2.0, 0)).apply(M)


def test_extreme_norms_neither_overflow_nor_underflow():
    # squared, 1e200 is inf and 1e-200 is 0; scaled by the largest entry
    # both norms are 4 times the entry
    assert row_norms(np.full((1, 16), 1e200))[0] == pytest.approx(4e200, rel=1e-15)
    assert oporp_sketch(np.full(16, 1e-200), cfg()).stored_norm == pytest.approx(4e-200, rel=1e-15)
    assert oporp_sketch(np.full(16, 1e300), cfg()).stored_norm == pytest.approx(4e300, rel=1e-15)
    assert row_norms(np.array([[5e-324, 0.0], [0.0, -0.0]])).tolist() == [5e-324, 0.0]
    # one entry per bin keeps every value finite, but the norm is 4e308
    assert row_norms(np.full((1, 16), 1e308))[0] == math.inf
    with pytest.raises(ValueError, match="norm overflows"):
        oporp_sketch(np.full(16, 1e308), cfg(k=16))


def test_overflowing_sketch_values_name_the_input_rows():
    M = np.ones((4, 16))
    M[[1, 3]] = 1e308
    for plan in (SketchPlan(cfg()), SketchPlan(vsrp_config(16, 4, 1.0, 0))):
        with pytest.raises(ValueError, match=r"input rows 1, 3$"):
            plan.apply(M)
    with pytest.raises(ValueError, match="input rows 0"):
        oporp_sketch(np.full(16, 1e308), cfg())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-330, 308), n=st.integers(1, 40))
def test_row_norms_are_accurate_at_every_scale(seed, exponent, n):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, (3, n)) * 10.0**exponent
    M[2, ::2] = 0.0
    norms = row_norms(M)
    for row, norm in zip(M, norms):
        exact = math.hypot(*row)
        if 1e-300 < exact < math.inf:
            assert norm == pytest.approx(exact, rel=1e-14)
        with np.errstate(over="ignore"):
            squares = float(np.dot(row, row))
        if np.finfo(np.float64).tiny <= squares < math.inf:
            # an ordinary row keeps np.linalg.norm's bits
            assert norm == np.linalg.norm(row)
        assert (norm > 0.0) == bool(row.any())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(300, 308),
       binning=st.sampled_from(list(Binning)),
       dist=st.sampled_from((rademacher(), gaussian(), scaled_uniform(), sparse(3.0))))
def test_sketch_values_are_finite_or_refused_by_row(seed, exponent, binning, dist):
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1.0, 1.0, (5, 24)) * 10.0 ** rng.integers(exponent - 2, exponent + 1, (5, 1))
    config = SketchConfig(dim=24, k=4, binning=binning, dist=dist, m=2, seed=seed % 7)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_apply(config, M)
    bad = np.flatnonzero(~np.isfinite(want).all(axis=1))
    if bad.size:
        with pytest.raises(ValueError, match="input rows " + ", ".join(map(str, bad)) + "$"):
            SketchPlan(config).apply(M)
    else:
        assert np.array_equal(SketchPlan(config).apply(M), want)


def test_sketch_requires_k_times_m_values():
    with pytest.raises(ValueError):
        Sketch(np.zeros(5), cfg(dim=8, k=8))
    with pytest.raises(ValueError):
        Sketch(np.zeros((2, 4)), cfg(dim=8, k=4, m=2))
    assert Sketch(np.zeros(8), cfg(dim=8, k=4, m=2)).reps.shape == (2, 4)


# --- batch plans ----------------------------------------------------------------


PLAN_DISTS = (rademacher(), gaussian(), scaled_uniform(), sparse(3.0))


@pytest.mark.parametrize("dist", PLAN_DISTS, ids=lambda d: d.kind.value)
@pytest.mark.parametrize("m", (1, 3))
@pytest.mark.parametrize(
    "dim, k, binning",
    [(24, 6, Binning.FIXED), (23, 6, Binning.FIXED), (12, 1, Binning.FIXED),
     (260, 2, Binning.FIXED), (23, 6, Binning.VARIABLE), (12, 1, Binning.VARIABLE)],
    ids=["fixed", "fixed-padded", "fixed-k1", "fixed-130-per-bin", "variable", "variable-k1"],
)
def test_plan_is_bit_identical_to_per_row_sketches(monkeypatch, dim, k, binning, m, dist):
    # 30 elements per block: one row per block, so 7 rows span 7 blocks;
    # at k = 1 the plan takes one matrix product per row, as a lone row does
    monkeypatch.setattr(oporp.projection, "_BLOCK_ELEMENTS", 30)
    M = np.random.default_rng(15).standard_normal((7, dim))
    config = SketchConfig(dim=dim, k=k, binning=binning, dist=dist, m=m, seed=41)
    rows = [oporp_sketch(u, config) for u in M]
    assert np.array_equal(SketchPlan(config).apply(M), np.stack([sk.values for sk in rows]))
    assert np.array_equal(row_norms(M), [sk.stored_norm for sk in rows])
    assert np.array_equal(row_norms(M), [np.linalg.norm(u) for u in M])


@pytest.mark.parametrize("dist", PLAN_DISTS, ids=lambda d: d.kind.value)
@pytest.mark.parametrize("binning", list(Binning), ids=lambda b: b.value)
def test_plan_repetitions_are_one_sweep_chunk(binning, dist):
    # a plan's m repetitions are the sweep's draw of c = m trials on the
    # plan's generator, so its sketch rows equal the chunk's X bit for bit
    dim, k, m, seed = 23, 6, 5, 44
    config = SketchConfig(dim=dim, k=k, binning=binning, dist=dist, m=m, seed=seed)
    u = np.random.default_rng(17).standard_normal(dim)
    X, _ = _oporp_chunk(u, u, k, dist, binning, m, plan_rng(seed))
    assert np.array_equal(SketchPlan(config).sketch(u).reps, X)


def reference_apply(config, M):
    """Gather x multiply -> left-to-right bin sums (or per-row bincount) of every repetition.

    The draw is the plan's one draw on its documented stream. A fixed bin
    is the last running sum of its products in bin order, plus +0.0: the
    sum from +0.0 one product at a time, as ``bincount`` sums a variable bin.
    At k = 1 the draw is the (dim, m) float64 multiplier matrix alone, and
    each row's sketch is its vector-matrix product with it.
    """
    dim, k, m, Dp = config.dim, config.k, config.m, config.padded_dim
    if k == 1:
        R = draw_multipliers(plan_rng(config.seed), (dim, m), config.dist).astype(np.float64)
        return np.stack([u @ R for u in M]).reshape(M.shape[0], m)
    fixed = config.binning is Binning.FIXED
    index, R = row_draws(plan_rng(config.seed), m, Dp, k, config.dist, fixed)
    W = np.pad(M, ((0, 0), (0, Dp - dim)))
    out = np.empty((M.shape[0], m, k))
    for t, (idx, r) in enumerate(zip(index, R)):
        if fixed:
            products = (W[:, idx] * r).reshape(-1, k, Dp // k)
            out[:, t] = np.add.accumulate(products, axis=-1)[..., -1] + 0.0
        else:
            out[:, t] = [np.bincount(idx, weights=r * w, minlength=k) for w in W]
    return out.reshape(M.shape[0], m * k)


@pytest.mark.parametrize("block", [None, 100], ids=["default-tiles", "small-tiles"])
@pytest.mark.parametrize("dist", PLAN_DISTS, ids=lambda d: d.kind.value)
@pytest.mark.parametrize("N", (1, 7))
@pytest.mark.parametrize("m", (1, 3, 16))
@pytest.mark.parametrize(
    "dim, k, binning",
    [(24, 6, Binning.FIXED), (23, 6, Binning.FIXED), (70, 4, Binning.FIXED),
     (130, 1, Binning.FIXED), (260, 2, Binning.FIXED), (23, 6, Binning.VARIABLE),
     (23, 1, Binning.VARIABLE)],
    ids=["fixed", "fixed-padded", "fixed-18-per-bin", "fixed-k1", "fixed-130-per-bin",
         "variable", "variable-k1"],
)
def test_plan_apply_equals_the_reshape_sum_reference(monkeypatch, dim, k, binning, m, N, dist,
                                                     block):
    # 100 entries per tile at Dp = 24: 4 repetitions of one row, or 4 rows,
    # and at Dp = 260 one row and one repetition; k = 1 takes no tiles
    if block is not None:
        monkeypatch.setattr(oporp.projection, "_BLOCK_ELEMENTS", block)
    M = np.random.default_rng(18).standard_normal((N, dim))
    if N > 1:
        M[-1] = -0.0  # every bin sums to +0.0, as add.reduce gives
        M[-2, ::2] = 0.0
    config = SketchConfig(dim=dim, k=k, binning=binning, dist=dist, m=m, seed=45)
    got, want = SketchPlan(config).apply(M), reference_apply(config, M)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


SPECIAL_SUMMANDS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300])


@settings(max_examples=200, deadline=None)
@given(L=st.one_of(st.integers(1, 300), st.just(16)), k=st.integers(2, 3), n=st.integers(1, 3),
       dist=st.sampled_from([rademacher(), gaussian()]), seed=st.integers(0, 2**32 - 1),
       special=st.floats(0.0, 1.0))
def test_fixed_bins_are_left_to_right_sums_bit_for_bit(L, k, n, dist, seed, special):
    # n rows of summands over the whole float range, a share of them signed
    # zeros, subnormals or +-1e300, in bins of L under folded signs and
    # float multipliers (k = 1 is one matrix product, not bin sums)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, L * k)) * 10.0 ** rng.integers(-320, 308, (n, L * k))
    mask = rng.random(M.shape) < special
    M[mask] = rng.choice(SPECIAL_SUMMANDS, mask.sum())
    config = SketchConfig(dim=L * k, k=k, binning=Binning.FIXED, dist=dist, seed=seed % 1000)
    plan = SketchPlan(config)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _bin_sums(M, plan._indices, plan._multipliers, k, True)
        want = reference_apply(config, M)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def sparse_matrix_reference(seed, D, k, s):
    """The D x k VSRP matrix of ``seed``, one byte at a time by the documented rule.

    Byte j of the little-endian uint64 draws is entry j in row-major order.
    Its top 7 bits t make a nonzero when t < T = floor(128/s); a tie t = T
    is one when the next of the uniforms drawn after all bytes falls below
    128/s - T. An odd byte is negative.
    """
    rng = plan_rng(seed)
    n = D * k
    words = rng.integers(0, 1 << 64, size=-(-n // 8), dtype=np.uint64)
    data = [(int(w) >> (8 * j)) & 0xFF for w in words for j in range(8)][:n]
    T = math.floor(128 / s)
    nonzero = [b >> 1 < T for b in data]
    ties = [j for j, b in enumerate(data) if b >> 1 == T]
    for j, x in zip(ties, rng.random(len(ties))):
        nonzero[j] = x < 128 / s - T
    values = [(-1.0 if b & 1 else 1.0) if nz else 0.0 for b, nz in zip(data, nonzero)]
    return math.sqrt(s) * np.array(values).reshape(D, k)


@pytest.mark.parametrize("block", [1, 7])
def test_sparse_signs_do_not_depend_on_the_block_size(monkeypatch, block):
    # the sampler's pass runs over blocks of bytes; the signs, the ties'
    # uniforms and the stream position after the draw must not see them
    shapes = [(40, 12), 1, 9, 1000]

    def draw_all():
        out = []
        for s in (1.0, 1.5, 3.0, 30.0, 128.0, 200.0):
            for seed, shape in enumerate(shapes):
                rng = generator(seed)
                out.append((_sparse_signs(rng, shape, s), rng.random()))
        return out
    want = draw_all()
    monkeypatch.setattr(oporp.projection, "_SIGN_BLOCK", block)
    for (a, x), (b, y) in zip(want, draw_all()):
        assert a.dtype == b.dtype == np.int8
        assert np.array_equal(a, b)
        assert x == y
    for s in (1.0, 3.0, 200.0):
        plan = SketchPlan(vsrp_config(40, 12, s, 8))
        assert np.array_equal(plan._multipliers, sparse_matrix_reference(8, 40, 12, s))


@pytest.mark.parametrize("s", (1.0, 3.0))
def test_vsrp_plan_is_bit_identical_to_per_row_sketches(s):
    M = np.random.default_rng(16).standard_normal((9, 40))
    rows = [vsrp_sketch(u, 40, 12, s, 8) for u in M]
    plan = SketchPlan(vsrp_config(40, 12, s, 8))
    assert np.array_equal(plan.apply(M), np.stack([sk.values for sk in rows]))
    assert np.array_equal(row_norms(M), [sk.stored_norm for sk in rows])
    # the one-vector path is the plain matrix product u @ R on the sketch stream
    R = sparse_matrix_reference(8, 40, 12, s)
    assert np.array_equal(np.stack([u @ R for u in M]), plan.apply(M))


def test_plan_validation():
    with pytest.raises(TypeError):
        SketchPlan(cfg(), "vsrp")  # one family: a VSRP plan is the plan of vsrp_config
    with pytest.raises(ValueError):
        SketchPlan(cfg()).apply(np.zeros((3, 15)))
    with pytest.raises(ValueError):
        SketchPlan(cfg()).apply(np.zeros(16))
    assert SketchPlan(cfg(m=2)).apply(np.zeros((0, 16))).shape == (0, 8)


# --- the plan cache -------------------------------------------------------------


def plan_arrays(plan):
    return [a for a in (plan._indices, plan._multipliers) if a is not None]


def plan_draws(plan):
    """The (m, Dp) index and multiplier rows a plan stores, its folded signs taken out.

    A fixed-binning Rademacher plan keeps no multipliers: an index p + Dp
    reads -x_p.
    """
    index, r = plan._indices, plan._multipliers
    if r is not None:
        return index, r
    Dp = plan.config.padded_dim
    return index % Dp, np.where(index < Dp, 1, -1).astype(np.int8)


CACHE_CASES = [
    cfg(),
    cfg(dim=23, k=6, binning=Binning.VARIABLE, dist=gaussian(), m=3, seed=4),
    vsrp_config(16, 8, 3.0, 2),
]


@pytest.mark.parametrize("config", CACHE_CASES, ids=["fixed", "variable", "vsrp"])
def test_warm_cache_sketch_equals_cold_one(config):
    u = np.random.default_rng(21).standard_normal(config.dim)
    _cached_plan.cache_clear()
    cold = oporp_sketch(u, config)
    warm = oporp_sketch(u, config)
    assert _cached_plan.cache_info()[:2] == (1, 1)
    assert np.array_equal(cold.values, warm.values)
    assert np.array_equal(warm.values, SketchPlan(config).sketch(u).values)


def test_equal_configs_hit_and_others_miss():
    u = np.random.default_rng(22).standard_normal(16)
    _cached_plan.cache_clear()
    a = oporp_sketch(u, cfg(dist=sparse(3)))
    b = oporp_sketch(u, cfg(dist=ProjectionDistribution(ProjectionKind.SPARSE, 3)))
    assert _cached_plan.cache_info()[:2] == (1, 1)
    assert np.array_equal(a.values, b.values)
    oporp_sketch(u, cfg(dist=sparse(3.0), seed=1))
    assert _cached_plan.cache_info()[:2] == (1, 2)
    # a VSRP sketch is the k = 1 sketch of vsrp_config: one plan serves both
    a = vsrp_sketch(u, 16, 4, 3.0, 0)
    b = oporp_sketch(u, vsrp_config(16, 4, 3.0, 0))
    assert _cached_plan.cache_info()[:2] == (2, 3)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("field, value", [("seed", 5.5), ("dim", 16.0), ("k", 4.0), ("m", 1.0)])
def test_config_rejects_non_integral_fields(field, value):
    # seed 5.5 once drew seed 5's randomness, and dim 16.0 could not be saved
    with pytest.raises(TypeError):
        cfg(**{field: value})


def test_config_stores_numpy_integers_as_plain_ints(tmp_path):
    config = cfg(dim=np.int64(16), k=np.int32(4), m=np.uint8(2), seed=np.uint64(2**63))
    for field in ("dim", "k", "m", "seed"):
        assert type(getattr(config, field)) is int
    assert config == cfg(m=2, seed=2**63) and hash(config) == hash(cfg(m=2, seed=2**63))
    u = np.random.default_rng(23).standard_normal(16)
    _cached_plan.cache_clear()
    sk = oporp_sketch(u, config)
    assert oporp_sketch(u, cfg(m=2, seed=2**63)).config == sk.config == config
    assert _cached_plan.cache_info().hits == 1
    path = str(tmp_path / "n.sk")
    save_sketch(path, sk)
    assert load_sketch(path).config == config


def test_cache_never_exceeds_its_size():
    assert _cached_plan.cache_info().maxsize == oporp.sketch._PLAN_CACHE_SIZE == 2
    u = np.ones(16)
    for seed in range(5):
        oporp_sketch(u, cfg(seed=seed))
        vsrp_sketch(u, 16, 4, 1.0, seed)
        assert _cached_plan.cache_info().currsize <= 2


def test_plans_above_the_byte_bound_are_not_kept(monkeypatch):
    u = np.ones(16)
    # cfg(m=2): 2 x 16 entries of uint16 index with the signs folded in,
    # 64 bytes; Gaussian multipliers are float64, 320 bytes;
    # vsrp_config(16, 4, ...): a 16 x 4 float64 matrix, 512 bytes
    cases = ((cfg(m=2), 64), (cfg(m=2, dist=gaussian()), 320), (vsrp_config(16, 4, 3.0, 0), 512))
    for config, size in cases:
        for bound, kept in ((size - 1, 0), (size, 1)):
            monkeypatch.setattr(oporp.sketch, "_PLAN_CACHE_BYTES", bound)
            _cached_plan.cache_clear()
            a = oporp_sketch(u, config)
            assert _cached_plan.cache_info().currsize == kept
            assert np.array_equal(a.values, SketchPlan(config).sketch(u).values)


def test_a_large_plan_leaves_nothing_held():
    # D = 2^18, k = 256, m = 20 holds 20 MiB (int32 indices with the signs
    # folded in), above the 16 MiB bound; a 48 MiB float draw once stayed cached
    config = SketchConfig(dim=1 << 18, k=256, binning=Binning.FIXED, dist=rademacher(), m=20)
    u = np.random.default_rng(27).standard_normal(config.dim)
    _cached_plan.cache_clear()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sk = oporp_sketch(u, config)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert _cached_plan.cache_info().currsize == 0
    # only the 5120 sketch values (40 KiB) and small objects remain
    assert held < 2**20, f"{held / 2**20:.1f} MiB held"
    assert sk.values.shape == (5120,)


@pytest.mark.parametrize("dim, m, dist", [
    (1 << 18, 20, rademacher()), (1 << 17, 4, gaussian()), (1 << 17, 4, scaled_uniform()),
    (1 << 17, 4, sparse(3.0)),
], ids=["rademacher", "gaussian", "scaled_uniform", "sparse"])
@pytest.mark.parametrize("binning", list(Binning), ids=lambda b: b.value)
def test_building_a_fixed_plan_peaks_near_the_arrays_it_holds(dim, m, dist, binning):
    # a fixed plan's bin-major index was once a contiguous copy of the
    # drawn rows, made while they were alive, and so were unfolded
    # multipliers: a peak of twice what the plan holds (40 MiB for 20 MiB
    # at the fixed Rademacher shape); scaled-uniform multipliers were once
    # scaled into a second array (1.8x for a variable plan)
    config = SketchConfig(dim=dim, k=256, binning=binning, dist=dist, m=m)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plan = SketchPlan(config)
        held, peak = (x - before for x in tracemalloc.get_traced_memory())
    finally:
        if not was_tracing:
            tracemalloc.stop()
    arrays = sum(a.nbytes for a in plan_arrays(plan))
    # fixed plans have int32 indices, variable ones uint16 bin indices
    fixed = binning is Binning.FIXED
    assert plan._indices.dtype == (np.int32 if fixed else np.uint16)
    assert held >= arrays == _plan_bytes(config)
    assert peak <= 1.5 * arrays, f"{peak / 2**20:.1f} MiB peak for {arrays / 2**20:.1f} MiB"


@pytest.mark.parametrize("Dp, c, k, dist, folded", [
    (16, 3, 4, rademacher(), True),
    (23 * 6, 5, 6, gaussian(), False),
    (40_000, 2, 8, rademacher(), True),  # the 2 Dp-valued index is int32
    (70_000, 2, 7, rademacher(), True),
    (30, 4, 30, scaled_uniform(), False),
    (40, 9, 8, sparse(3.0), False),
    (42, 9, 6, sparse(1.0), False),  # 42 bytes a row: row blocks would draw other bytes
], ids=["rademacher", "gaussian", "rademacher-40000", "rademacher-int32", "one-per-bin",
        "sparse", "sparse-1"])
@pytest.mark.parametrize("block", [None, 50], ids=["default-blocks", "row-blocks"])
def test_fixed_draws_are_the_row_draws(monkeypatch, Dp, c, k, dist, folded, block):
    # 50 entries per block: one row per block, so the permutations are
    # shuffled and the signs folded row by row
    if block is not None:
        monkeypatch.setattr(oporp.projection, "_BLOCK_ELEMENTS", block)
    index, r = _oporp_draws(generator(3), c, Dp, k, dist, True)
    want_index, want_r = row_draws(generator(3), c, Dp, k, dist, True)
    assert index.shape == (c, Dp) and (r is None) == folded
    if folded:
        # a negative sign reads row p + Dp of the kernel's signed block
        want_index = want_index + Dp * (want_r < 0)
        assert index.dtype == (np.uint16 if 2 * Dp <= 1 << 16 else np.int32)
    else:
        assert r.dtype == want_r.dtype and np.array_equal(r, want_r)
    assert np.array_equal(index, want_index)


@pytest.mark.parametrize("binning", list(Binning), ids=lambda b: b.value)
def test_rademacher_plan_holds_int8_signs_and_16_bit_indices(binning):
    config = cfg(m=3, binning=binning, seed=8)
    plan = SketchPlan(config)
    fixed = binning is Binning.FIXED
    assert plan._indices.dtype == np.uint16
    # a fixed plan folds its int8 signs into the index (2 bytes per entry),
    # a variable one keeps them next to it (3 bytes per entry)
    if fixed:
        assert plan._multipliers is None and plan._indices.shape == (3, 16)
    else:
        assert plan._multipliers.dtype == np.int8
    index, signs = plan_draws(plan)
    assert set(np.unique(signs)) == {-1, 1}
    # the arrays hold the values of the one int32 and float draw they narrow
    want_index, R = row_draws(plan_rng(8), 3, 16, 4, rademacher(), fixed)
    assert np.array_equal(index, want_index) and np.array_equal(signs, R)
    assert sum(a.nbytes for a in plan_arrays(plan)) == (2 if fixed else 3) * 3 * 16


@pytest.mark.parametrize("config, dtype", [
    (cfg(dim=1 << 15, k=2), np.uint16),
    (cfg(dim=(1 << 15) + 1, k=2), np.int32),
    (cfg(dim=1 << 16, k=2), np.int32),
    (cfg(dim=(1 << 16) + 1, k=2), np.int32),
    (cfg(dim=1 << 16, k=2, dist=gaussian()), np.uint16),
    (cfg(dim=(1 << 16) + 1, k=2, dist=gaussian()), np.int32),
    (cfg(dim=3, k=1 << 16, binning=Binning.VARIABLE), np.uint16),
    (cfg(dim=3, k=(1 << 16) + 1, binning=Binning.VARIABLE), np.int32),
], ids=["fixed-32768", "fixed-32769", "fixed-65536", "fixed-65537", "fixed-gaussian-65536",
        "fixed-gaussian-65537", "variable-65536", "variable-65537"])
def test_plan_indices_are_int32_beyond_65536_values(config, dtype):
    # a permutation of range(Dp) takes Dp values, a bin index k; Rademacher
    # signs always fold into a fixed plan's index, which then takes 2 Dp
    plan = SketchPlan(config)
    assert plan._indices.dtype == dtype
    index, _ = plan_draws(plan)
    top = config.padded_dim if config.binning is Binning.FIXED else config.k
    assert 0 <= index.min() and index.max() < top
    if config.binning is Binning.FIXED:
        assert np.array_equal(np.sort(index[0]), np.arange(top))
        rademacher_kind = config.dist.kind is ProjectionKind.RADEMACHER
        assert (plan._multipliers is None) == rademacher_kind


@pytest.mark.parametrize("dist", PLAN_DISTS, ids=lambda d: d.kind.value)
@pytest.mark.parametrize("dim, k, binning", [
    (23, 6, Binning.FIXED), (23, 6, Binning.VARIABLE),
    ((1 << 16) + 1, 2, Binning.FIXED), (5, (1 << 16) + 1, Binning.VARIABLE),
    (23, 1, Binning.FIXED), (23, 1, Binning.VARIABLE),
], ids=["fixed", "variable", "fixed-int32", "variable-int32", "fixed-k1", "variable-k1"])
def test_plan_bytes_are_the_drawn_arrays_nbytes(dist, dim, k, binning):
    # the cache bound is checked before the draw, from the dtypes it will
    # have; a k = 1 plan holds only its float64 multiplier matrix
    config = SketchConfig(dim=dim, k=k, binning=binning, dist=dist, m=2, seed=3)
    plan = SketchPlan(config)
    assert _plan_bytes(config) == sum(a.nbytes for a in plan_arrays(plan))
    if k == 1:
        assert plan._indices is None and _plan_bytes(config) == 8 * dim * 2


@pytest.mark.parametrize("config", CACHE_CASES, ids=["fixed", "variable", "vsrp"])
def test_plan_arrays_are_read_only(config):
    for plan in (_plan(config), SketchPlan(config)):
        for array in plan_arrays(plan):
            with pytest.raises(ValueError):
                array[0] = 1


def test_threads_sketching_through_one_cached_plan_get_their_own_results():
    # the kernels keep their buffers per thread; six threads on two cores,
    # switching often, must each get the single-threaded bits every time
    configs = [cfg(dim=200, k=10, m=3, seed=9),
               cfg(dim=200, k=10, m=3, seed=9, binning=Binning.VARIABLE)]
    rng = np.random.default_rng(28)
    inputs = [rng.standard_normal((n, 200)) for n in (1, 5, 40, 1, 5, 40)]
    want = [[_plan(c).apply(M) for c in configs] for M in inputs]
    failures, done = [], []

    def work(i):
        for _ in range(30):
            for c, expected in zip(configs, want[i]):
                if not np.array_equal(_plan(c).apply(inputs[i]), expected):
                    failures.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(len(inputs))) and failures == []


def test_sketches_from_one_cached_plan_do_not_alias():
    u = np.random.default_rng(24).standard_normal(16)
    _cached_plan.cache_clear()
    a = oporp_sketch(u, cfg(m=2))
    b = oporp_sketch(u, cfg(m=2))
    assert not np.shares_memory(a.values, b.values)
    a.values[:] = 0.0
    assert np.array_equal(b.values, SketchPlan(cfg(m=2)).sketch(u).values)
    assert np.array_equal(oporp_sketch(u, cfg(m=2)).values, b.values)


def test_every_entry_point_shares_the_cached_plan():
    u = np.random.default_rng(25).uniform(-1.0, 1.0, 16)
    config = cfg()
    _cached_plan.cache_clear()
    oporp_sketch(u, config)
    dp_oporp(u, config, PrivacySpec(1.0, 1e-6, 1.0))
    dp_sign_oporp_rr(u, config, 1.0)
    dp_sign_oporp_rr_smooth(u, config, 1.0, 0.5)
    similarity_matrix(u[None, :], u[None, :], config, "cosine")
    assert _cached_plan.cache_info()[:2] == (4, 1)


def test_default_dp_noise_is_fresh_on_a_cached_plan(tmp_path, capsys):
    path = tmp_path / "bounded.csv"
    np.savetxt(path, np.random.default_rng(26).uniform(-1.0, 1.0, (2, 64)), delimiter=",")
    _cached_plan.cache_clear()
    releases = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.sk"
        assert cli.run([
            "dp", "--input", str(path), "--k", "16", "--mechanism", "gaussian",
            "--epsilon", "1.0", "--delta", "1e-6", "--out", str(out),
        ]) == 0
        releases.append(out.read_bytes())
    capsys.readouterr()
    assert _cached_plan.cache_info()[:2] == (1, 1)
    assert releases[0] != releases[1]


def test_vsrp_matches_manual_matrix():
    u = np.random.default_rng(8).standard_normal(24)
    s, k, seed = 4.0, 6, 31
    sk = vsrp_sketch(u, 24, k, s, seed)
    assert sk.config.k == 1 and sk.config.m == k
    R = sparse_matrix_reference(seed, 24, k, s)
    assert np.allclose(sk.values, u @ R, atol=1e-12)


def test_vsrp_s1_columns_are_dense_signs():
    # at s=1 the sparse family degenerates to pure signs, so every sample
    # is a full +-1 projection of u
    u = np.ones(10)
    sk = vsrp_sketch(u, 10, 50, 1.0, 3)
    assert np.all(np.abs(sk.values) <= 10.0)
    assert np.all(sk.values % 2 == 0)  # sum of ten odd signs is even


def test_vsrp_shares_randomness_across_vectors():
    rng = np.random.default_rng(9)
    u, v = rng.standard_normal(16), rng.standard_normal(16)
    su = vsrp_sketch(u, 16, 8, 2.0, 5)
    sv = vsrp_sketch(v, 16, 8, 2.0, 5)
    sw = vsrp_sketch(u + v, 16, 8, 2.0, 5)
    assert np.allclose(sw.values, su.values + sv.values, atol=1e-10)


def test_check_compatible():
    u = np.random.default_rng(11).standard_normal(16)
    a = oporp_sketch(u, cfg(seed=1))
    b = oporp_sketch(u, cfg(seed=2))
    with pytest.raises(SketchMismatchError):
        check_compatible(a, b)
    check_compatible(a, oporp_sketch(2 * u, cfg(seed=1)))
    # one family: a VSRP sketch is compatible with any sketch of its config
    c = vsrp_sketch(u, 16, 4, 3.0, 1)
    check_compatible(c, oporp_sketch(2 * u, vsrp_config(16, 4, 3.0, 1)))
    with pytest.raises(SketchMismatchError):
        check_compatible(c, oporp_sketch(u, replace(vsrp_config(16, 4, 3.0, 1), dist=gaussian())))


def test_replace_changes_only_the_seed():
    c = replace(cfg(seed=1), seed=99)
    assert c.seed == 99 and c.k == 4


# --- file format --------------------------------------------------------------


def test_value_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    u = rng.standard_normal(20)
    for sk in [
        oporp_sketch(u, SketchConfig(dim=20, k=5, binning=Binning.VARIABLE, dist=sparse(3.0), m=2, seed=17)),
        vsrp_sketch(u, 20, 9, 5.0, 23),
        Sketch(rng.standard_normal(4), cfg(dim=8, k=4, seed=2), None),
    ]:
        path = tmp_path / "sk.bin"
        save_sketch(str(path), sk)
        back = load_sketch(str(path))
        assert np.array_equal(back.values, sk.values)
        assert back.config == sk.config
        if sk.stored_norm is None:
            assert back.stored_norm is None
        else:
            assert back.stored_norm == sk.stored_norm


def test_sign_round_trip(tmp_path):
    bits = np.array([1, -1, -1, 1], dtype=np.int8)
    path = tmp_path / "signs.bin"
    save_sign_sketch(str(path), bits, cfg(dim=8, k=4))
    back, config = load_sign_sketch(str(path))
    assert np.array_equal(back, bits)
    assert config == cfg(dim=8, k=4)


@st.composite
def _configs(draw):
    """Any config: every distribution and binning, m >= 1, header fields to their edges."""
    kind = draw(st.sampled_from(list(ProjectionKind)))
    s = draw(st.floats(1.0, 1e300)) if kind is ProjectionKind.SPARSE else 1.0
    binning = draw(st.sampled_from(list(Binning)))
    dim = draw(st.integers(1, 2**64 - 1))
    k = draw(st.integers(1, min(dim, 40) if binning is Binning.FIXED else 40))
    return SketchConfig(dim=dim, k=k, binning=binning, dist=ProjectionDistribution(kind, s),
                        m=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**64 - 1)))


def _bits(x):
    """The float64 bits of x, which tell -0.0 from 0.0."""
    return np.asarray(x, dtype="<f8").tobytes()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs(), data=st.data())
def test_value_files_round_trip_bit_for_bit(tmp_path, config, data):
    n = config.k * config.m
    values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=n, max_size=n)), dtype=np.float64)
    norm = data.draw(st.none() | st.just(-0.0)
                     | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    path = tmp_path / "sk.bin"
    save_sketch(str(path), Sketch(values, config, norm))
    back = load_sketch(str(path))
    assert back.config == config
    assert back.values.dtype == np.float64 and _bits(back.values) == _bits(values)
    assert (back.stored_norm is None) == (norm is None)
    if norm is not None:
        assert _bits(back.stored_norm) == _bits(norm)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs(), data=st.data())
def test_sign_files_round_trip_bit_for_bit(tmp_path, config, data):
    n = config.k * config.m
    bits = np.array(data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)),
                    dtype=np.int8)
    path = tmp_path / "signs.bin"
    save_sign_sketch(str(path), bits, config)
    back, back_config = load_sign_sketch(str(path))
    assert back_config == config
    assert back.dtype == np.int8 and np.array_equal(back, bits)


def test_byte_7_is_zero_padding(tmp_path):
    # it held the sketch flavor (1 = vsrp) up to version 4; a VSRP sketch is
    # now told by its config alone, and its file header is that of any sketch
    u = np.random.default_rng(29).standard_normal(16)
    vpath, spath = tmp_path / "v.bin", tmp_path / "s.bin"
    config = vsrp_config(16, 4, 3.0, 0)
    save_sketch(str(vpath), vsrp_sketch(u, 16, 4, 3.0, 0))
    save_sign_sketch(str(spath), np.array([1, -1, 1, -1], dtype=np.int8), config)
    for path in (vpath, spath):
        raw = path.read_bytes()
        assert raw[7] == 0 and raw[11:16] == bytes(5)
        path.write_bytes(raw[:7] + b"\x01" + raw[8:])
    assert load_sketch(str(vpath)).config == load_sign_sketch(str(spath))[1] == config


def test_sign_save_rejects_non_sign_values(tmp_path):
    with pytest.raises(ValueError):
        save_sign_sketch(str(tmp_path / "x"), np.array([1, 0, -1]), cfg(dim=8, k=3))


@pytest.mark.parametrize("bits, k, m", [
    (np.ones(5, np.int8), 8, 1),
    (np.ones(9, np.int8), 8, 1),
    (np.ones((2, 4), np.int8), 8, 1),
    (np.ones(0), 8, 1),
    (np.ones(4, np.int8), 4, 2),
])
def test_sign_save_needs_k_times_m_bits(tmp_path, bits, k, m):
    # 5 bits under k = 8 used to be written, and then refused on loading
    path = tmp_path / "x"
    with pytest.raises(ValueError, match=f"needs {k * m} bits"):
        save_sign_sketch(str(path), bits, cfg(dim=8, k=k, m=m))
    assert not path.exists()


def test_sign_save_refuses_booleans(tmp_path):
    # True == 1, so an all-True array used to pass as all +1 signs
    for bits in (np.ones(4, bool), np.array([True, False, True, False])):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            save_sign_sketch(str(tmp_path / "x"), bits, cfg(dim=8, k=4))


def test_file_error_cases(tmp_path):
    u = np.random.default_rng(13).standard_normal(16)
    good = tmp_path / "good.bin"
    save_sketch(str(good), oporp_sketch(u, cfg(seed=3)))
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(SketchFileError):
        load_sketch(str(bad_magic))

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:40])
    with pytest.raises(SketchFileError):
        load_sketch(str(truncated))

    short_payload = tmp_path / "short.bin"
    short_payload.write_bytes(raw[:-8])
    with pytest.raises(SketchFileError):
        load_sketch(str(short_payload))

    bad_version = tmp_path / "ver.bin"
    bad_version.write_bytes(raw[:4] + b"\x63\x00" + raw[6:])
    with pytest.raises(SketchFileError):
        load_sketch(str(bad_version))


def _refuses_version(tmp_path, version):
    u = np.random.default_rng(28).standard_normal(16)
    vpath, spath = tmp_path / "v.bin", tmp_path / "s.bin"
    save_sketch(str(vpath), oporp_sketch(u, cfg(seed=6)))
    save_sign_sketch(str(spath), np.array([1, -1, 1, -1], dtype=np.int8), cfg(seed=6))
    assert vpath.read_bytes()[4:6] == b"\x05\x00"
    for path, load in ((vpath, load_sketch), (spath, load_sign_sketch)):
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + version.to_bytes(2, "little") + raw[6:])
        with pytest.raises(SketchFileError, match=f"version {version}"):
            load(str(path))


def test_version_1_files_are_refused(tmp_path):
    # v1 files hold sketches of the per-repetition streams, which this
    # version cannot rebuild; comparing them with v5 sketches would be wrong
    _refuses_version(tmp_path, 1)


def test_version_2_files_are_refused(tmp_path):
    # v2 files hold sketches of Philox streams with one int32 draw per
    # Rademacher sign; v3 to v5 draw SFC64 streams with one bit per sign
    _refuses_version(tmp_path, 2)


def test_version_3_files_are_refused(tmp_path):
    # v3 files share v4's draws but summed fixed bins in numpy's pairwise
    # order, so their values can differ from v4 sketches in the last bits
    _refuses_version(tmp_path, 3)


def test_version_4_files_are_refused(tmp_path):
    # v4 files share v5's k > 1 sketches, but drew k = 1 sketches in
    # another layout, and VSRP's on a stream of its own
    _refuses_version(tmp_path, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sketch_file_is_rejected(tmp_path, bad):
    # save_sketch refuses such sketches, so a valid file is patched
    u = np.random.default_rng(15).standard_normal(16)
    sk = oporp_sketch(u, cfg(seed=5))
    path = tmp_path / "bad.bin"
    save_sketch(str(path), sk)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 64 + 8, bad)  # value 1 of the payload
    path.write_bytes(bytes(raw))
    with pytest.raises(SketchFileError):
        load_sketch(str(path))
    save_sketch(str(path), sk)
    _patch_f64(path, 56, bad)
    with pytest.raises(SketchFileError):
        load_sketch(str(path))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_sketch_refuses_non_finite_values_before_writing(tmp_path, bad):
    # such files were written, and load_sketch then refused them
    sk = oporp_sketch(np.ones(16), cfg(seed=5))
    values = sk.values.copy()
    values[1] = bad
    path = tmp_path / "bad.bin"
    with pytest.raises(ValueError, match="inf or NaN"):
        save_sketch(str(path), Sketch(values, sk.config, sk.stored_norm))
    assert not path.exists()


@pytest.mark.parametrize("norm", [-2.0, -5e-324, math.nan, math.inf, -math.inf])
def test_sketch_refuses_a_norm_load_sketch_would_refuse(norm):
    # save_sketch(p, Sketch(values, config, -2.0)) used to write a
    # file that load_sketch refused
    sk = oporp_sketch(np.ones(16), cfg(seed=5))
    with pytest.raises(ValueError, match="norm"):
        Sketch(sk.values, sk.config, norm)
    assert Sketch(sk.values, sk.config, 0.0).stored_norm == 0.0


@pytest.mark.parametrize("bad", [7, 0, -128])
def test_sign_file_with_a_non_sign_byte_is_rejected(tmp_path, bad):
    path = tmp_path / "signs.bin"
    save_sign_sketch(str(path), np.array([1, -1, -1, 1], dtype=np.int8), cfg(dim=8, k=4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + np.int8(bad).tobytes())
    with pytest.raises(SketchFileError):
        load_sign_sketch(str(path))


def test_payload_kind_is_enforced(tmp_path):
    u = np.random.default_rng(14).standard_normal(16)
    vpath, spath = tmp_path / "v.bin", tmp_path / "s.bin"
    save_sketch(str(vpath), oporp_sketch(u, cfg(seed=4)))
    save_sign_sketch(str(spath), np.array([1, -1, 1, -1], dtype=np.int8), cfg(seed=4))
    with pytest.raises(SketchFileError):
        load_sign_sketch(str(vpath))
    with pytest.raises(SketchFileError):
        load_sketch(str(spath))


@pytest.mark.parametrize("cut", range(1, 8))
def test_value_file_cut_inside_an_entry_is_a_file_error(tmp_path, cut):
    # numpy's frombuffer used to refuse the ragged payload with a bare ValueError
    path = tmp_path / "v.bin"
    save_sketch(str(path), oporp_sketch(np.ones(16), cfg(seed=4)))
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(SketchFileError, match="payload"):
        load_sketch(str(path))


@pytest.mark.parametrize("extra", [b"\x01", b"\x01" * 8])
def test_payload_longer_than_the_header_says_is_a_file_error(tmp_path, extra):
    vpath, spath = tmp_path / "v.bin", tmp_path / "s.bin"
    save_sketch(str(vpath), oporp_sketch(np.ones(16), cfg(seed=4)))
    save_sign_sketch(str(spath), np.array([1, -1, 1, -1], dtype=np.int8), cfg(seed=4))
    for path, load in ((vpath, load_sketch), (spath, load_sign_sketch)):
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(SketchFileError, match="payload"):
            load(str(path))


def _patch_f64(path, offset, value):
    """Overwrite one float64 header field (48 = sparsity, 56 = stored norm)."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("norm", [-2.0, -5e-324, -math.inf])
def test_negative_stored_norm_is_a_file_error(tmp_path, norm):
    # a norm of -2 used to load, and mle_inner then used its square
    sk = oporp_sketch(np.ones(16), cfg(seed=4))
    path = tmp_path / "v.bin"
    save_sketch(str(path), Sketch(sk.values, sk.config, 2.0))
    _patch_f64(path, 56, norm)
    with pytest.raises(SketchFileError, match="norm"):
        load_sketch(str(path))


@pytest.mark.parametrize("dist", [rademacher(), gaussian(), scaled_uniform()])
@pytest.mark.parametrize("sparsity", [3.0, 0.0, math.nan])
def test_stray_sparsity_under_a_dense_kind_is_a_file_error(tmp_path, dist, sparsity):
    # used to load as sparsity 1, so no stored sparsity was ever checked
    vpath, spath = tmp_path / "v.bin", tmp_path / "s.bin"
    save_sketch(str(vpath), oporp_sketch(np.ones(16), cfg(dist=dist, seed=4)))
    save_sign_sketch(str(spath), np.array([1, -1, 1, -1], dtype=np.int8), cfg(dist=dist, seed=4))
    for path, load in ((vpath, load_sketch), (spath, load_sign_sketch)):
        _patch_f64(path, 48, sparsity)
        with pytest.raises(SketchFileError, match="sparse parameter"):
            load(str(path))


def _fuzz_seeds():
    """Well-formed files of every payload, binning and distribution, VSRP's among them."""
    u = np.random.default_rng(29).uniform(-1.0, 1.0, 16)
    sparse_cfg = cfg(dist=sparse(3.0), binning=Binning.VARIABLE, k=5, m=2, seed=7)
    files = []
    for sk in (
        oporp_sketch(u, cfg(seed=4)),
        oporp_sketch(u, cfg(dist=gaussian(), m=2, seed=5)),
        oporp_sketch(u, sparse_cfg),
        vsrp_sketch(u, 16, 6, 4.0, seed=8),
    ):
        files.append(oporp.sketch._pack_header(sk.config, 0, sk.stored_norm)
                     + sk.values.astype("<f8").tobytes())
    signs = np.where(np.arange(10) % 3 == 0, 1, -1).astype(np.int8)
    files.append(oporp.sketch._pack_header(sparse_cfg, 1, None) + signs.tobytes())
    return files


_FUZZ_SEEDS = _fuzz_seeds()
# Header fields by (offset, struct format), and values at or beyond their edges.
_FUZZ_FIELDS = [(4, "<H"), (6, "B"), (7, "B"), (8, "B"), (9, "B"), (10, "B"),
                (16, "<Q"), (24, "<Q"), (32, "<Q"), (40, "<Q"), (48, "<d"), (56, "<d")]
_EXTREME_INTS = [0, 1, 2, 3, 4, 255, 2**16 - 1, 2**32, 2**63, 2**64 - 1]
_EXTREME_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e308, -1e308, 5e-324, -5e-324,
                   math.inf, -math.inf, math.nan]


@st.composite
def _mutated_files(draw):
    raw = bytearray(draw(st.sampled_from(_FUZZ_SEEDS)))
    for _ in range(draw(st.integers(0, 3))):
        offset, fmt = draw(st.sampled_from(_FUZZ_FIELDS))
        if fmt == "<d":
            value = draw(st.sampled_from(_EXTREME_FLOATS) | st.floats())
        else:
            top = 2 ** (8 * struct.calcsize(fmt))
            value = draw(st.sampled_from([v for v in _EXTREME_INTS if v < top])
                         | st.integers(0, top - 1))
        struct.pack_into(fmt, raw, offset, value)
    for _ in range(draw(st.integers(0, 3))):
        raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
    tail = draw(st.sampled_from(["keep", "cut", "append"]))
    if tail == "cut":
        return bytes(raw[: draw(st.integers(0, len(raw) - 1))])
    if tail == "append":
        return bytes(raw) + draw(st.binary(min_size=1, max_size=9))
    return bytes(raw)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_mutated_files())
def test_fuzzed_files_load_or_raise_file_errors(tmp_path, data):
    path = tmp_path / "fuzz.bin"
    path.write_bytes(data)
    for load in (load_sketch, load_sign_sketch):
        try:
            load(str(path))
        except SketchFileError:
            pass
