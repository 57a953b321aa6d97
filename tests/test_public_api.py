"""The package's public surface, pinned as a checked-in list.

Adding or removing an export shows up here as a one-line diff, so every
change to what ``import oporp`` offers is a deliberate one.
"""

import oporp

PUBLIC = [
    "Binning",
    "ConvergenceError",
    "DegeneratePairError",
    "EstimationError",
    "Estimator",
    "Lemma1Moments",
    "NoisySketch",
    "PRPoint",
    "PairStatistics",
    "PrivacySpec",
    "ProjectionDistribution",
    "ProjectionKind",
    "Sketch",
    "SketchConfig",
    "SketchFileError",
    "SketchMismatchError",
    "SketchPlan",
    "SweepRow",
    "ZeroNormError",
    "area_under_pr",
    "check_compatible",
    "cosine_hat",
    "derive_seed",
    "distance_hat",
    "distribution_for_moment",
    "dp_oporp",
    "dp_sign_oporp_rr",
    "dp_sign_oporp_rr_smooth",
    "gaussian",
    "generate_pair_with_cosine",
    "inner_product_hat",
    "knn_eval",
    "lemma1_moments",
    "likelihood_roots",
    "load_sign_sketch",
    "load_sketch",
    "make_clusters",
    "mle_inner_product",
    "mse_sweep",
    "oporp_sketch",
    "pair_statistics",
    "rademacher",
    "retrieval_eval",
    "row_norms",
    "save_sign_sketch",
    "save_sketch",
    "scaled_uniform",
    "sign_similarity",
    "similarity_matrix",
    "solve_gaussian_sigma",
    "sparse",
    "var_cosine",
    "var_distance",
    "var_inner",
    "var_normalized_inner",
    "variance_ratio",
    "vsrp_config",
    "vsrp_cosine_hat",
    "vsrp_inner_product_hat",
    "vsrp_sketch",
]


def test_exports_are_the_pinned_list():
    assert sorted(oporp.__all__) == PUBLIC


def test_every_export_resolves():
    for name in oporp.__all__:
        assert getattr(oporp, name) is not None, name
    namespace = {}
    exec("from oporp import *", namespace)
    assert set(PUBLIC) <= set(namespace)
