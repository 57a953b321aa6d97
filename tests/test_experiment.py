"""Monte-Carlo sweep and retrieval harness tests.

The sweep's batch kernels are cross-checked against the per-call sketch
path (independent streams, so agreement is statistical at 4-5 sigma), and
determinism is asserted bit-for-bit. Retrieval checks use cases with known
exact answers.
"""

import math

import numpy as np
import pytest

from oporp.estimate import (
    _REGISTRY,
    Estimator,
    _estimate,
    cosine_hat,
    distance_hat,
    inner_product_hat,
    vsrp_cosine_hat,
    vsrp_inner_product_hat,
)
from oporp.experiment import (
    ConvergenceError,
    _cell_draws,
    _ranked,
    PRPoint,
    area_under_pr,
    distribution_for_moment,
    generate_pair_with_cosine,
    knn_eval,
    make_clusters,
    mse_sweep,
    retrieval_eval,
    similarity_matrix,
)
import oporp.projection
from oporp.projection import (
    ProjectionKind,
    _bin_rows,
    derive_seed,
    gaussian,
    generator,
    rademacher,
    sparse,
)
from oporp.sketch import (
    Binning,
    SketchConfig,
    ZeroNormError,
    _oporp_draws,
    oporp_sketch,
    vsrp_sketch,
)
from oporp.variance import pair_statistics, var_inner


def vsrp_pairs(u, v, k, s, c, rng):
    """c k-sample VSRP pairs from the kernel a sweep cell picks for s."""
    return _cell_draws(True, u, v, k, s, None, Binning.VARIABLE)[1](c, rng)


# --- synthetic pairs -----------------------------------------------------------


def test_generate_pair_postconditions():
    u, v = generate_pair_with_cosine(128, 0.9, 0.005, seed=0)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(float(u @ v) - 0.9) <= 0.005
    u2, v2 = generate_pair_with_cosine(128, 0.9, 0.005, seed=0)
    assert np.array_equal(u, u2) and np.array_equal(v, v2)


def test_generate_pair_validation_and_convergence():
    with pytest.raises(ValueError):
        generate_pair_with_cosine(1, 0.5, 0.01, 0)
    with pytest.raises(ValueError):
        generate_pair_with_cosine(16, 1.5, 0.01, 0)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol"):
            generate_pair_with_cosine(16, 0.5, tol, 0)
    with pytest.raises(ConvergenceError):
        generate_pair_with_cosine(16, 0.5, 1e-9, 0, max_attempts=5)


def test_distribution_for_moment_mapping():
    assert distribution_for_moment(1.0).kind is ProjectionKind.RADEMACHER
    assert distribution_for_moment(3.0).kind is ProjectionKind.GAUSSIAN
    assert distribution_for_moment(1.8).kind is ProjectionKind.SCALED_UNIFORM
    d = distribution_for_moment(25.0)
    assert d.kind is ProjectionKind.SPARSE and d.sparsity == 25.0


# --- the sweep -------------------------------------------------------------------


def test_sweep_is_bit_deterministic():
    u, v = generate_pair_with_cosine(48, 0.7, 0.01, seed=1)
    args = (u, v, [4, 8], 1.0, Binning.FIXED, ["inner", "cosine"], 500, 42)
    assert mse_sweep(*args) == mse_sweep(*args)
    other = mse_sweep(u, v, [4, 8], 1.0, Binning.FIXED, ["inner", "cosine"], 500, 43)
    assert other != mse_sweep(*args)


def test_sweep_matches_per_call_sketch_path():
    """Independent streams, same distribution: MSEs agree within MC noise."""
    u, v = generate_pair_with_cosine(32, 0.6, 0.01, seed=2)
    trials = 4000
    row = mse_sweep(u, v, [8], 1.0, Binning.FIXED, ["inner"], trials, 7)[0]
    per_call = np.empty(trials)
    a = float(u @ v)
    for t in range(trials):
        config = SketchConfig(
            dim=32, k=8, binning=Binning.FIXED, dist=rademacher(),
            seed=derive_seed(1000, t),
        )
        per_call[t] = inner_product_hat(oporp_sketch(u, config), oporp_sketch(v, config))
    mse_per_call = float(np.mean((per_call - a) ** 2))
    assert row.empirical_mse == pytest.approx(mse_per_call, rel=0.15)
    # and both near the oracle
    assert row.empirical_mse == pytest.approx(row.theoretical_var, rel=0.15)


def test_sweep_tracks_oracles_both_schemes():
    u, v = generate_pair_with_cosine(32, 0.5, 0.01, seed=3)
    for scheme in Binning:
        rows = mse_sweep(u, v, [2, 8], 1.0, scheme, ["inner", "distance"], 30_000, 11)
        for row in rows:
            assert row.empirical_mse == pytest.approx(row.theoretical_var, rel=0.1)
            assert row.scheme == scheme.value


def test_sweep_exact_recovery_row():
    u, v = generate_pair_with_cosine(16, 0.4, 0.01, seed=4)
    row = mse_sweep(u, v, [16], 1.0, Binning.FIXED, ["inner"], 200, 0)[0]
    assert row.theoretical_var == 0.0
    assert row.empirical_mse <= 1e-25
    assert abs(row.empirical_bias) <= 1e-13


def test_sweep_vsrp_and_mle_rows():
    u, v = generate_pair_with_cosine(32, 0.8, 0.01, seed=5)
    rows = mse_sweep(
        u, v, [64], 5.0, Binning.VARIABLE, ["vsrp_inner", "vsrp_cosine", "mle_inner"],
        8000, 3,
    )
    by_name = {r.estimator: r for r in rows}
    assert by_name["vsrp_inner"].scheme == ""
    assert by_name["vsrp_inner"].empirical_mse == pytest.approx(
        by_name["vsrp_inner"].theoretical_var, rel=0.15
    )
    assert math.isnan(by_name["mle_inner"].theoretical_var)
    assert by_name["mle_inner"].empirical_mse > 0.0


def test_sparse_vsrp_empty_samples_are_exactly_zero():
    # Signed subset sums of distinct powers of two (three) never vanish, so
    # a sample is 0 exactly when it drew no nonzero.
    u = np.array([1.0, 2.0, 4.0, 8.0])
    v = np.array([1.0, 3.0, 9.0, 27.0])
    s, c, k = 50.0, 2000, 2
    X, Y = vsrp_pairs(u, v, k, s, c, generator(derive_seed(5)))
    assert X.shape == Y.shape == (c, k)
    empty = X == 0.0
    assert np.array_equal(empty, Y == 0.0)
    p = (1.0 - 1.0 / s) ** u.shape[0]
    n = c * k
    assert abs(empty.sum() - n * p) <= 6.0 * math.sqrt(n * p * (1.0 - p))
    # with so few nonzeros whole trials come out zero, and the cosine refuses them
    a, b = generate_pair_with_cosine(8, 0.5, 0.01, seed=2)
    with pytest.raises(ZeroNormError):
        mse_sweep(a, b, [2], s, Binning.VARIABLE, ["vsrp_cosine"], 200, 1)


def test_dense_vsrp_entries_have_rate_one_in_s_and_balanced_signs():
    # v = powers of three: a sample's value over sqrt(s) is a balanced-ternary
    # number whose digits are its row of the projection (powers of two would
    # not decode uniquely). Dropping the tie path (1 byte in 128) would move
    # the rate by 0.67/128, about 15 standard errors at this size.
    s, D, c, k = 3.0, 21, 12_000, 8
    u = np.ones(D)
    v = 3.0 ** np.arange(D)
    X, Y = vsrp_pairs(u, v, k, s, c, generator(derive_seed(12)))
    x = np.rint(Y.ravel() / math.sqrt(s)).astype(np.int64)
    digits = np.empty((x.shape[0], D), dtype=np.int64)
    for j in range(D):
        digits[:, j] = (x + 1) % 3 - 1
        x = (x - digits[:, j]) // 3
    assert np.all(x == 0)
    # u = ones sums the same row
    assert np.array_equal(np.rint(X.ravel() / math.sqrt(s)), digits.sum(axis=1))
    n = digits.size
    nonzero = int(np.count_nonzero(digits))
    assert abs(nonzero / n - 1.0 / s) <= 5.0 * math.sqrt((1.0 / s) * (1.0 - 1.0 / s) / n)
    positive = int(np.count_nonzero(digits > 0))
    assert abs(positive / nonzero - 0.5) <= 5.0 * math.sqrt(0.25 / nonzero)


def _vsrp_kernel_cases(D):
    """(s, D) cases: s = 1 and 3 run the dense byte kernel, s = 30 the gap
    kernel, and D - 3 (not a multiple of 8) leaves samples that straddle the
    8-byte draws."""
    return [
        pytest.param(1.0, D, id="1.0"),
        pytest.param(3.0, D, id="3.0"),
        pytest.param(30.0, D, id="30.0"),
        pytest.param(3.0, D - 3, id=f"3.0-D{D - 3}"),
    ]


@pytest.mark.parametrize("s, D", _vsrp_kernel_cases(24))
def test_sparse_vsrp_products_have_the_paper_moments(s, D):
    """E[XY] = a and Var[XY] = |u|^2 |v|^2 + a^2 + (s - 3) sum u^2 v^2 per sample."""
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal(D), rng.standard_normal(D)
    X, Y = vsrp_pairs(u, v, 8, s, 25_000, generator(derive_seed(6, int(s))))
    Z = (X * Y).ravel()
    n = Z.shape[0]
    a = float(u @ v)
    var = float(u @ u) * float(v @ v) + a * a + (s - 3.0) * float(np.sum(u * u * v * v))
    assert abs(Z.mean() - a) <= 6.0 * math.sqrt(var / n)
    dev2 = (Z - Z.mean()) ** 2
    assert abs(dev2.mean() - var) <= 6.0 * dev2.std() / math.sqrt(n)


@pytest.mark.parametrize("s, D", _vsrp_kernel_cases(40))
def test_sparse_vsrp_rows_are_seed_deterministic(s, D):
    u, v = generate_pair_with_cosine(D, 0.6, 0.01, seed=8)
    args = (u, v, [16, 32], s, Binning.VARIABLE, ["vsrp_inner", "vsrp_cosine"], 600)
    rows = mse_sweep(*args, 9)
    assert mse_sweep(*args, 9) == rows
    assert mse_sweep(*args, 10) != rows


def test_sweep_cosine_bias_is_small_at_large_k():
    u, v = generate_pair_with_cosine(256, 0.9, 0.005, seed=6)
    row = mse_sweep(u, v, [64], 1.0, Binning.FIXED, ["cosine"], 20_000, 5)[0]
    assert row.empirical_bias**2 <= 0.05 * row.empirical_mse


def test_sweep_validation():
    u, v = generate_pair_with_cosine(16, 0.5, 0.01, seed=7)
    with pytest.raises(ValueError):
        mse_sweep(u, v, [4], 1.0, Binning.FIXED, ["inner"], 50, 0)  # too few trials
    with pytest.raises(ValueError):
        mse_sweep(u, v, [4], 1.0, Binning.FIXED, ["entropy"], 500, 0)
    with pytest.raises(ValueError):
        mse_sweep(u, v, [32], 1.0, Binning.FIXED, ["inner"], 500, 0)  # k > D
    with pytest.raises(ValueError):
        mse_sweep(u, v, [4], 1.0, Binning.FIXED, [], 500, 0)
    with pytest.raises(ValueError, match="at least one k"):
        mse_sweep(u, v, [], 1.0, Binning.FIXED, ["inner"], 500, 0)


def test_sweep_refuses_a_non_integer_k():
    # int(k) used to run k = 8.7 as k = 8, under the label of neither
    u, v = generate_pair_with_cosine(16, 0.5, 0.01, seed=7)
    for k in (8.7, 8.0, "8"):
        with pytest.raises(TypeError):
            mse_sweep(u, v, [k], 1.0, Binning.FIXED, ["inner"], 500, 0)
    row = mse_sweep(u, v, [np.int64(8)], 1.0, Binning.FIXED, ["inner"], 500, 0)[0]
    assert row.k == 8 and type(row.k) is int


@pytest.mark.parametrize("Dp, c, k", [(2, 3, 2), (3, 5, 3), (16, 300, 4), (1000, 37, 8),
                                     (70_000, 2, 7)])
@pytest.mark.parametrize("block", (1 << 16, 50))
def test_permutation_rows_match_one_shuffled_int32_tile(monkeypatch, Dp, c, k, block):
    # a 50-entry block holds at most one row: every row is its own block
    monkeypatch.setattr(oporp.projection, "_BLOCK_ELEMENTS", block)
    rng, ref_rng = generator(5), generator(5)
    index, R = _oporp_draws(rng, c, Dp, k, gaussian(), True)
    ref = np.tile(np.arange(Dp, dtype=np.int32), (c, 1))
    ref_rng.permuted(ref, axis=1, out=ref)
    # one row per permutation, stored as uint16 up to Dp = 2**16, as int32 beyond
    assert index.shape == R.shape == (c, Dp)
    assert index.dtype == (np.uint16 if Dp <= 1 << 16 else np.int32)
    assert np.array_equal(index, ref)
    assert np.array_equal(R, ref_rng.standard_normal((c, Dp)))
    assert rng.random() == ref_rng.random()


def stream_position(rng):
    """The generator's whole state, with the half of a 64-bit word a 32-bit draw may leave."""
    state = rng.bit_generator.state
    return state["state"]["state"].tolist(), state["has_uint32"], state["uinteger"]


@pytest.mark.parametrize("Dp, c, k", [
    (1, 3, 2), (3, 5, 7), (333, 37, 64), (1001, 9, 1 << 16), (5, 4, (1 << 16) + 1), (7, 3, 1),
])
@pytest.mark.parametrize("block", (1 << 16, 1))
def test_blocked_bin_rows_match_one_int32_draw(monkeypatch, Dp, c, k, block):
    # a 1-entry block draws one row at a time; at odd Dp a row ends inside
    # a 64-bit word, whose other half the next row must get
    monkeypatch.setattr(oporp.projection, "_BLOCK_ELEMENTS", block)
    rng, ref_rng = generator(9), generator(9)
    rows = _bin_rows(rng, c, Dp, k)
    ref = ref_rng.integers(0, k, size=(c, Dp), dtype=np.int32)
    assert rows.dtype == (np.uint16 if k <= 1 << 16 else np.int32)
    assert np.array_equal(rows, ref)
    assert stream_position(rng) == stream_position(ref_rng)


# --- similarity matrices ----------------------------------------------------------


def test_similarity_matrix_exact_is_cosine():
    rng = np.random.default_rng(8)
    base = rng.standard_normal((20, 16)) * rng.uniform(0.5, 2.0, (20, 1))
    queries = rng.standard_normal((5, 16))
    config = SketchConfig(dim=16, k=8, binning=Binning.FIXED, dist=rademacher())
    S = similarity_matrix(base, queries, config, "exact")
    bn = base / np.linalg.norm(base, axis=1)[:, None]
    qn = queries / np.linalg.norm(queries, axis=1)[:, None]
    assert np.allclose(S, qn @ bn.T, atol=1e-12)


def test_similarity_matrix_exact_at_full_k():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((12, 16))
    queries = rng.standard_normal((3, 16))
    config = SketchConfig(dim=16, k=16, binning=Binning.FIXED, dist=rademacher(), seed=5)
    S_inner = similarity_matrix(base, queries, config, "inner")
    assert np.allclose(S_inner, queries @ base.T, atol=1e-9)
    S_dist = similarity_matrix(base, queries, config, "distance")
    true_d = ((queries[:, None, :] - base[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(S_dist, -true_d, atol=1e-9)


def test_similarity_matrix_rejections():
    rng = np.random.default_rng(10)
    base, queries = rng.standard_normal((6, 8)), rng.standard_normal((2, 8))
    config = SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=rademacher())
    with pytest.raises(ValueError):
        similarity_matrix(base, queries, config, "mle_inner")
    with pytest.raises(ValueError):
        similarity_matrix(base, rng.standard_normal((2, 9)), config, "inner")
    with pytest.raises(ValueError):
        similarity_matrix(
            base, queries,
            SketchConfig(dim=9, k=3, binning=Binning.FIXED, dist=rademacher()),
            "inner",
        )
    with pytest.raises(ValueError):  # vsrp estimators need a sparse-family config
        similarity_matrix(
            base, queries,
            SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=distribution_for_moment(3.0)),
            "vsrp_inner",
        )


@pytest.mark.parametrize("side", ["base", "queries"])
def test_similarity_matrix_exact_rejects_non_finite_rows(side):
    rng = np.random.default_rng(11)
    data = {"base": rng.standard_normal((3, 4)), "queries": rng.standard_normal((2, 4))}
    data[side][1, 2] = np.nan
    config = SketchConfig(dim=4, k=2, binning=Binning.FIXED, dist=rademacher())
    with pytest.raises(ValueError):
        similarity_matrix(data["base"], data["queries"], config, "exact")
    with pytest.raises(ValueError):
        retrieval_eval(data["base"], data["queries"], config, "cosine", 2)


def test_similarity_matrix_equals_per_row_sketch_scores():
    """One plan for base and queries scores as per-row sketches do."""
    rng = np.random.default_rng(12)
    base = rng.standard_normal((15, 20)) * rng.uniform(0.5, 2.0, (15, 1))
    queries = rng.standard_normal((4, 20))
    config = SketchConfig(dim=20, k=6, binning=Binning.FIXED, dist=rademacher(), m=3, seed=2)
    SB = [oporp_sketch(u, config) for u in base]
    SQ = [oporp_sketch(u, config) for u in queries]
    want = [[inner_product_hat(q, b) for b in SB] for q in SQ]
    assert np.allclose(similarity_matrix(base, queries, config, "inner"), want, rtol=1e-12, atol=0)
    vsrp = SketchConfig(dim=20, k=4, binning=Binning.FIXED, dist=sparse(3.0), m=2, seed=2)
    VB = [vsrp_sketch(u, 20, 8, 3.0, 2) for u in base]
    VQ = [vsrp_sketch(u, 20, 8, 3.0, 2) for u in queries]
    want = [[vsrp_inner_product_hat(q, b) for b in VB] for q in VQ]
    assert np.allclose(similarity_matrix(base, queries, vsrp, "vsrp_inner"), want, rtol=1e-12, atol=0)


# Each estimator similarity_matrix supports (all but mle_inner), as the
# public pair functions give it from the two rows' sketches (bigger =
# closer, so distance is negated).
PAIR_SCORES = {
    Estimator.INNER: inner_product_hat,
    Estimator.DISTANCE: lambda x, y: -distance_hat(x, y),
    Estimator.COSINE: cosine_hat,
    Estimator.NORMALIZED_INNER: lambda x, y: cosine_hat(x, y) * x.stored_norm * y.stored_norm,
    Estimator.VSRP_INNER: vsrp_inner_product_hat,
    Estimator.VSRP_COSINE: vsrp_cosine_hat,
}


@pytest.mark.parametrize("binning", [Binning.FIXED, Binning.VARIABLE], ids=lambda b: b.value)
@pytest.mark.parametrize("name", ["exact"] + [e.value for e in PAIR_SCORES])
def test_similarity_matrix_entries_are_pair_estimates(name, binning):
    assert set(PAIR_SCORES) == set(Estimator) - {Estimator.MLE_INNER}
    rng = np.random.default_rng(14)
    base = rng.standard_normal((7, 20)) * rng.uniform(0.5, 2.0, (7, 1))
    queries = rng.standard_normal((3, 20)) * rng.uniform(0.5, 2.0, (3, 1))
    config = SketchConfig(dim=20, k=6, binning=binning, dist=sparse(3.0), m=3, seed=4)
    if name == "exact":
        want = [[(q @ b) / (np.linalg.norm(q) * np.linalg.norm(b)) for b in base] for q in queries]
    else:
        est = Estimator(name)
        if _REGISTRY[est].pooled:
            SB, SQ = ([vsrp_sketch(u, 20, 18, 3.0, 4) for u in M] for M in (base, queries))
        else:
            SB, SQ = ([oporp_sketch(u, config) for u in M] for M in (base, queries))
        want = [[PAIR_SCORES[est](q, b) for b in SB] for q in SQ]
    got = similarity_matrix(base, queries, config, name)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dist", [rademacher(), gaussian()], ids=lambda d: d.kind.value)
def test_pooled_scores_of_a_one_bin_config_are_its_pair_estimates(dist):
    # a k = 1 config is scored as it is: its sketches are the pooled samples
    rng = np.random.default_rng(15)
    base, queries = rng.standard_normal((6, 20)), rng.standard_normal((2, 20))
    config = SketchConfig(dim=20, k=1, binning=Binning.FIXED, dist=dist, m=12, seed=6)
    SB, SQ = ([oporp_sketch(u, config) for u in M] for M in (base, queries))
    for est in (Estimator.VSRP_INNER, Estimator.VSRP_COSINE, Estimator.INNER):
        want = [[_estimate(est, q, b) for b in SB] for q in SQ]
        assert np.allclose(similarity_matrix(base, queries, config, est), want, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="one-bin cosine is a sign"):
        similarity_matrix(base, queries, config, "cosine")


@pytest.mark.parametrize("scale", [2.0**270, 2.0**-270])
def test_cosine_scores_hold_where_sxx_times_syy_leaves_the_normal_range(scale):
    # sxx * syy overflows (underflows) at these scales while each sum is
    # normal; the cosine kernel then takes the two norms one at a time
    rng = np.random.default_rng(17)
    base, queries = rng.standard_normal((5, 8)), rng.standard_normal((2, 8))
    config = SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=rademacher(), m=2)
    for name in ("exact", "cosine"):
        want = similarity_matrix(base, queries, config, name)
        got = similarity_matrix(scale * base, scale * queries, config, name)
        assert np.allclose(got, want, rtol=1e-14, atol=0), name
    x, y = oporp_sketch(scale * base[0], config), oporp_sketch(scale * queries[0], config)
    assert cosine_hat(x, y) == pytest.approx(want[0, 0], rel=1e-14)


@pytest.mark.parametrize("name", ["exact", "cosine"])
@pytest.mark.parametrize("side", ["base", "queries"])
def test_similarity_matrix_refuses_a_zero_row(side, name):
    rng = np.random.default_rng(15)
    data = {"base": rng.standard_normal((3, 8)), "queries": rng.standard_normal((2, 8))}
    data[side][1] = 0.0
    config = SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=rademacher(), m=2)
    with pytest.raises(ZeroNormError):
        similarity_matrix(data["base"], data["queries"], config, name)


def test_similarity_matrix_rejects_non_finite_rows():
    rng = np.random.default_rng(13)
    base, queries = rng.standard_normal((6, 8)), rng.standard_normal((2, 8))
    base[3, 1] = np.nan
    config = SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=rademacher())
    for name in ("inner", "cosine", "vsrp_inner"):
        with pytest.raises(ValueError):
            similarity_matrix(base, queries, config, name)
        with pytest.raises(ValueError):
            similarity_matrix(queries, base, config, name)


def test_vsrp_similarity_unbiased_at_many_samples():
    rng = np.random.default_rng(11)
    base, queries = rng.standard_normal((4, 12)), rng.standard_normal((2, 12))
    config = SketchConfig(
        dim=12, k=4096, binning=Binning.VARIABLE, dist=sparse(2.0), seed=3
    )
    S = similarity_matrix(base, queries, config, "vsrp_inner")
    rel = np.abs(S - queries @ base.T) / np.abs(queries @ base.T).max()
    assert rel.max() < 0.2


# --- retrieval and knn --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_ranking_is_the_stable_order(seed):
    # rows of distinct scores, and rows with repeated values, signed zeros
    # and NaN, which only the stable sort orders by index
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((40, 97))
    S[5:15] = rng.integers(-3, 4, (10, 97))
    S[15:20] = rng.choice([0.0, -0.0, 1.0], (5, 97))
    S[20:25, ::7] = np.nan
    S[25:30] = np.round(S[25:30], 1)
    S[30, :] = 2.5
    S[31, 40] = -0.0
    S[32, 41] = 0.0
    got = _ranked(S)
    assert np.array_equal(got, np.argsort(-S, axis=1, kind="stable"))
    assert _ranked(S[:, :1]).tolist() == [[0]] * 40
    assert _ranked(S[:0]).shape == (0, 97)


def test_retrieval_exact_estimator_is_perfect():
    rng = np.random.default_rng(12)
    base, queries = rng.standard_normal((50, 16)), rng.standard_normal((10, 16))
    config = SketchConfig(dim=16, k=8, binning=Binning.FIXED, dist=rademacher())
    points = retrieval_eval(base, queries, config, "exact", top_n=5)
    assert len(points) == 50
    assert area_under_pr(points) == pytest.approx(1.0, abs=1e-12)
    assert points[4].recall == pytest.approx(1.0, abs=1e-12)
    # recall never decreases along the walk
    recalls = [p.recall for p in points]
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))


def test_retrieval_sketch_estimator_reasonable():
    base, _ = make_clusters(64, 300, 3, 0.3, seed=5)
    queries, _ = make_clusters(64, 40, 3, 0.3, seed=6)
    config = SketchConfig(dim=64, k=32, binning=Binning.FIXED, dist=rademacher(), seed=1)
    points = retrieval_eval(base, queries, config, "cosine", top_n=10)
    aupr = area_under_pr(points)
    assert 0.2 < aupr <= 1.0  # far above the ~0.03 chance level


def test_retrieval_top_n_validation():
    rng = np.random.default_rng(13)
    base, queries = rng.standard_normal((10, 8)), rng.standard_normal((2, 8))
    config = SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=rademacher())
    with pytest.raises(ValueError):
        retrieval_eval(base, queries, config, "exact", top_n=0)
    with pytest.raises(ValueError):
        retrieval_eval(base, queries, config, "exact", top_n=11)


@pytest.mark.parametrize("name", ["exact", "inner", "cosine"])
def test_retrieval_and_knn_refuse_an_empty_query_set(name):
    # an empty set once averaged to NaN precision, recall and accuracy
    rng = np.random.default_rng(16)
    base, labels = rng.standard_normal((10, 8)), np.arange(10) % 2
    config = SketchConfig(dim=8, k=4, binning=Binning.FIXED, dist=rademacher(), m=2)
    with pytest.raises(ValueError, match="at least one"):
        retrieval_eval(base, base[:0], config, name, top_n=3)
    with pytest.raises(ValueError, match="at least one"):
        knn_eval(base, labels, base[:0], labels[:0], 3, config, name)


def test_area_under_pr_hand_example():
    points = [PRPoint(0.5, 1.0), PRPoint(1.0, 0.5)]
    # anchored at (0, 1): 0.5 * (1+1)/2 + 0.5 * (1+0.5)/2
    assert area_under_pr(points) == pytest.approx(0.875, abs=1e-15)
    with pytest.raises(ValueError, match="at least one"):
        area_under_pr([])


def test_knn_separable_clusters():
    # train and test must share cluster centers: draw once and split
    points, labels = make_clusters(32, 180, 3, 0.05, seed=7)
    train, test = points[:150], points[150:]
    train_labels, test_labels = labels[:150], labels[150:]
    config = SketchConfig(dim=32, k=16, binning=Binning.FIXED, dist=rademacher(), seed=2)
    assert knn_eval(train, train_labels, test, test_labels, 5, config, "exact") == 1.0
    acc = knn_eval(train, train_labels, test, test_labels, 5, config, "cosine")
    assert acc >= 0.9


def test_knn_validation():
    train, train_labels = make_clusters(16, 20, 2, 0.1, seed=9)
    test, test_labels = make_clusters(16, 5, 2, 0.1, seed=10)
    config = SketchConfig(dim=16, k=8, binning=Binning.FIXED, dist=rademacher())
    with pytest.raises(ValueError):
        knn_eval(train, train_labels, test, test_labels, 0, config, "exact")
    with pytest.raises(ValueError):
        knn_eval(train, train_labels, test, test_labels, 21, config, "exact")
    with pytest.raises(ValueError):
        knn_eval(train, train_labels - 1, test, test_labels, 3, config, "exact")
    with pytest.raises(ValueError):
        knn_eval(train, train_labels.astype(float), test, test_labels, 3, config, "exact")
    with pytest.raises(ValueError):
        knn_eval(train, train_labels[:-1], test, test_labels, 3, config, "exact")


# --- synthetic corpora ----------------------------------------------------------------


def test_make_clusters_shapes_and_labels():
    points, labels = make_clusters(32, 10, 3, 0.5, seed=11)
    assert points.shape == (10, 32)
    assert np.array_equal(labels, np.arange(10) % 3)
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)


def test_make_clusters_norm_spread():
    unit, _ = make_clusters(32, 200, 3, 0.5, seed=12)
    spread, _ = make_clusters(32, 200, 3, 0.5, seed=12, norm_range=(0.5, 2.0))
    norms = np.linalg.norm(spread, axis=1)
    assert norms.min() >= 0.5 and norms.max() <= 2.0
    assert norms.max() - norms.min() > 0.5  # actually varies
    # scaling changes lengths only, not directions
    assert np.allclose(spread / norms[:, None], unit, atol=1e-12)
    fixed, _ = make_clusters(32, 20, 3, 0.5, seed=12, norm_range=(2.0, 2.0))
    assert np.allclose(np.linalg.norm(fixed, axis=1), 2.0, atol=1e-12)


def test_make_clusters_validation():
    with pytest.raises(ValueError):
        make_clusters(1, 10, 2, 0.5, 0)
    with pytest.raises(ValueError):
        make_clusters(16, 0, 2, 0.5, 0)
    with pytest.raises(ValueError):
        make_clusters(16, 10, 2, 0.5, 0, norm_range=(0.0, 1.0))
    for norm_range in ((2.0, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(ValueError, match="norm_range"):
            make_clusters(16, 10, 2, 0.5, 0, norm_range=norm_range)
    for noise in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="noise"):
            make_clusters(16, 10, 2, noise, 0)


def test_sweep_row_against_direct_oracle_call():
    u, v = generate_pair_with_cosine(64, 0.7, 0.01, seed=13)
    st = pair_statistics(u, v)
    row = mse_sweep(u, v, [16], 3.0, Binning.VARIABLE, ["inner"], 500, 1)[0]
    assert row.theoretical_var == pytest.approx(
        var_inner(st, 16, 3.0, Binning.VARIABLE), rel=1e-15
    )
