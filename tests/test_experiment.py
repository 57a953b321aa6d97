"""Monte-Carlo sweep and retrieval harness tests.

The sweep's batch kernels are cross-checked against the per-call sketch
path (independent streams, so agreement is statistical at 4-5 sigma), and
determinism is asserted bit-for-bit. Retrieval checks use cases with known
exact answers.
"""

import math

import numpy as np
import pytest

from oporp.estimate import inner_product_hat
import oporp.experiment
from oporp.experiment import (
    ConvergenceError,
    _permutation_rows,
    _vsrp_chunk,
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
from oporp.projection import ProjectionKind, derive_seed, generator, rademacher, sparse
from oporp.sketch import Binning, SketchConfig, ZeroNormError, oporp_sketch, vsrp_sketch
from oporp.variance import pair_statistics, var_inner


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
    with pytest.raises(ValueError):
        generate_pair_with_cosine(16, 0.5, 0.0, 0)
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
    X, Y = _vsrp_chunk(u, v, k, s, c, generator(derive_seed(5)))
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


@pytest.mark.parametrize("s", [3.0, 30.0])
def test_sparse_vsrp_products_have_the_paper_moments(s):
    """E[XY] = a and Var[XY] = |u|^2 |v|^2 + a^2 + (s - 3) sum u^2 v^2 per sample."""
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal(24), rng.standard_normal(24)
    X, Y = _vsrp_chunk(u, v, 8, s, 25_000, generator(derive_seed(6, int(s))))
    Z = (X * Y).ravel()
    n = Z.shape[0]
    a = float(u @ v)
    var = float(u @ u) * float(v @ v) + a * a + (s - 3.0) * float(np.sum(u * u * v * v))
    assert abs(Z.mean() - a) <= 6.0 * math.sqrt(var / n)
    dev2 = (Z - Z.mean()) ** 2
    assert abs(dev2.mean() - var) <= 6.0 * dev2.std() / math.sqrt(n)


@pytest.mark.parametrize("s", [3.0, 30.0])
def test_sparse_vsrp_rows_are_seed_deterministic(s):
    u, v = generate_pair_with_cosine(40, 0.6, 0.01, seed=8)
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


@pytest.mark.parametrize("Dp, c", [(1, 3), (3, 5), (16, 300), (1000, 37), (70_000, 2)])
@pytest.mark.parametrize("block", (1 << 16, 50))
def test_permutation_rows_match_one_shuffled_int32_tile(monkeypatch, Dp, c, block):
    # a 50-entry block holds at most one row: every row is its own block
    monkeypatch.setattr(oporp.experiment, "_SHUFFLE_ELEMENTS", block)
    rng, ref_rng = generator(5), generator(5)
    rows = _permutation_rows(rng, c, Dp)
    ref = np.tile(np.arange(Dp, dtype=np.int32), (c, 1))
    ref_rng.permuted(ref, axis=1, out=ref)
    assert rows.dtype == np.int32 and np.array_equal(rows, ref)
    assert rng.random() == ref_rng.random()


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
    """One plan for base and queries scores exactly as per-row sketches do."""
    rng = np.random.default_rng(12)
    base = rng.standard_normal((15, 20)) * rng.uniform(0.5, 2.0, (15, 1))
    queries = rng.standard_normal((4, 20))
    config = SketchConfig(dim=20, k=6, binning=Binning.FIXED, dist=rademacher(), m=3, seed=2)
    SB = np.stack([oporp_sketch(u, config).values for u in base])
    SQ = np.stack([oporp_sketch(u, config).values for u in queries])
    assert np.array_equal(similarity_matrix(base, queries, config, "inner"), (SQ @ SB.T) / 3)
    vsrp = SketchConfig(dim=20, k=4, binning=Binning.FIXED, dist=sparse(3.0), m=2, seed=2)
    VB = np.stack([vsrp_sketch(u, 20, 8, 3.0, 2).values for u in base])
    VQ = np.stack([vsrp_sketch(u, 20, 8, 3.0, 2).values for u in queries])
    assert np.array_equal(similarity_matrix(base, queries, vsrp, "vsrp_inner"), (VQ @ VB.T) / 8)


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


def test_area_under_pr_hand_example():
    points = [PRPoint(0.5, 1.0), PRPoint(1.0, 0.5)]
    # anchored at (0, 1): 0.5 * (1+1)/2 + 0.5 * (1+0.5)/2
    assert area_under_pr(points) == pytest.approx(0.875, abs=1e-15)


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
    with pytest.raises(ValueError):
        make_clusters(16, 10, 2, 0.5, 0, norm_range=(2.0, 1.0))


def test_sweep_row_against_direct_oracle_call():
    u, v = generate_pair_with_cosine(64, 0.7, 0.01, seed=13)
    st = pair_statistics(u, v)
    row = mse_sweep(u, v, [16], 3.0, Binning.VARIABLE, ["inner"], 500, 1)[0]
    assert row.theoretical_var == pytest.approx(
        var_inner(st, 16, 3.0, Binning.VARIABLE), rel=1e-15
    )
