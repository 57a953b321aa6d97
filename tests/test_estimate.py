"""Estimator correctness: exact recovery, unbiasedness, and the cubic root.

The exact-recovery regime (k = D, unit fourth moment, fixed binning) makes
every sketch a signed shuffle, so all estimators must reproduce the true
values up to float rounding; the Monte-Carlo checks run small per-call
loops with 4-sigma bounds at frozen seeds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oporp.estimate import (
    _REGISTRY,
    EstimationError,
    Estimator,
    _estimate,
    cosine_hat,
    distance_hat,
    inner_product_hat,
    likelihood_roots,
    mle_inner_product,
    vsrp_cosine_hat,
    vsrp_inner_product_hat,
)
from oporp.projection import derive_seed, rademacher
from oporp.sketch import (
    Binning,
    Sketch,
    SketchConfig,
    SketchMismatchError,
    ZeroNormError,
    load_sketch,
    oporp_sketch,
    save_sketch,
    vsrp_sketch,
)


def rademacher_config(D, k, m=1, seed=0, binning=Binning.FIXED):
    return SketchConfig(dim=D, k=k, binning=binning, dist=rademacher(), m=m, seed=seed)


def sketch_pair(u, v, config):
    return oporp_sketch(u, config), oporp_sketch(v, config)


# --- exact recovery -----------------------------------------------------------


def test_exact_recovery_at_k_equals_dim():
    rng = np.random.default_rng(0)
    for seed in range(5):
        u, v = rng.standard_normal(32), rng.standard_normal(32)
        x, y = sketch_pair(u, v, rademacher_config(32, 32, seed=seed))
        a = float(u @ v)
        d = float(np.sum((u - v) ** 2))
        rho = a / (np.linalg.norm(u) * np.linalg.norm(v))
        assert inner_product_hat(x, y) == pytest.approx(a, rel=1e-12)
        assert distance_hat(x, y) == pytest.approx(d, rel=1e-12)
        assert cosine_hat(x, y) == pytest.approx(rho, rel=1e-12)
        assert mle_inner_product(x, y, float(u @ u), float(v @ v)) == pytest.approx(
            a, rel=1e-9
        )


def test_cosine_of_a_vector_with_itself_is_exactly_one():
    rng = np.random.default_rng(1)
    for scale in (1.0, 1e-8, 1e8):
        u = scale * rng.standard_normal(64)
        x = oporp_sketch(u, rademacher_config(64, 8, m=3, seed=7))
        y = oporp_sketch(u, rademacher_config(64, 8, m=3, seed=7))
        # sqrt(sxx * syy) with sxx == syy is exact, so this is 1.0, not 1-eps
        assert cosine_hat(x, y) == 1.0


def test_vsrp_exact_style_identities():
    u = np.random.default_rng(2).standard_normal(48)
    x = vsrp_sketch(u, 48, 64, 2.0, 3)
    y = vsrp_sketch(u, 48, 64, 2.0, 3)
    assert vsrp_cosine_hat(x, y) == 1.0
    assert vsrp_inner_product_hat(x, y) >= 0.0


# --- unbiasedness (seeded Monte Carlo) -----------------------------------------


def _mc_estimates(u, v, D, k, trials, estimator, master=11):
    out = np.empty(trials)
    for t in range(trials):
        config = rademacher_config(D, k, seed=derive_seed(master, t))
        x, y = sketch_pair(u, v, config)
        out[t] = estimator(x, y)
    return out


def test_inner_estimate_unbiased():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(24), rng.standard_normal(24)
    est = _mc_estimates(u, v, 24, 4, 3000, inner_product_hat)
    se = est.std(ddof=1) / math.sqrt(est.size)
    assert abs(est.mean() - u @ v) < 4 * se


def test_distance_estimate_unbiased():
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal(24), rng.standard_normal(24)
    est = _mc_estimates(u, v, 24, 4, 3000, distance_hat, master=12)
    se = est.std(ddof=1) / math.sqrt(est.size)
    assert abs(est.mean() - np.sum((u - v) ** 2)) < 4 * se


def test_repetitions_reduce_spread():
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal(32), rng.standard_normal(32)
    single, averaged = [], []
    for t in range(800):
        c1 = rademacher_config(32, 4, m=1, seed=derive_seed(13, t))
        c8 = rademacher_config(32, 4, m=8, seed=derive_seed(14, t))
        single.append(inner_product_hat(*sketch_pair(u, v, c1)))
        averaged.append(inner_product_hat(*sketch_pair(u, v, c8)))
    ratio = np.var(single) / np.var(averaged)
    assert 5.0 < ratio < 13.0  # expect about 8


# --- the likelihood cubic -------------------------------------------------------


def test_likelihood_root_exact_regime_factorization():
    """With sxy=a, sxx=E, syy=F the cubic factors (x - a)(x^2 + EF)."""
    rng = np.random.default_rng(6)
    for _ in range(50):
        u, v = rng.standard_normal(16), rng.standard_normal(16)
        E, F, a = float(u @ u), float(v @ v), float(u @ v)
        root = float(likelihood_roots(a, E, F, E, F))
        assert root == pytest.approx(a, rel=1e-10)
        residual = root**3 - root**2 * a + root * (E * F + F * E - E * F) - E * F * a
        assert abs(residual) <= 1e-6 * max(1.0, abs(a) ** 3)


def test_likelihood_root_zero_inner_product():
    # sxy = 0 with matched margins: only real root of x(x^2 + EF) is 0
    root = likelihood_roots(0.0, 2.0, 3.0, 2.0, 3.0)
    assert root.shape == () and root == 0.0


def test_likelihood_root_stays_feasible():
    rng = np.random.default_rng(7)
    for _ in range(200):
        E, F = float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4))
        sxx, syy = E * rng.uniform(0.5, 1.5), F * rng.uniform(0.5, 1.5)
        sxy = rng.uniform(-1, 1) * math.sqrt(sxx * syy)
        root = float(likelihood_roots(float(sxy), float(sxx), float(syy), E, F))
        assert abs(root) <= math.sqrt(E * F) * (1.0 + 1e-9)


def _np_roots_reference(sxy, sxx, syy, E, F):
    """The companion-matrix solver: (chosen root or None, anchor, every root).

    Real roots are those np.roots returns with a negligible imaginary part;
    among those in [-sqrt(EF), sqrt(EF)] the one closest to the norm-rescaled
    cosine estimate is chosen.
    """
    roots = np.roots([1.0, -sxy, E * syy + F * sxx - E * F, -E * F * sxy])
    scale = np.maximum(1.0, np.abs(roots))
    real = roots.real[np.abs(roots.imag) <= 1e-6 * scale]
    bound = math.sqrt(E * F)
    feasible = real[np.abs(real) <= bound * (1.0 + 1e-9)]
    rho = min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy))) if sxx > 0 and syy > 0 else 0.0
    anchor = rho * bound
    if feasible.size == 0:
        return None, anchor, roots
    return float(feasible[np.argmin(np.abs(feasible - anchor))]), anchor, roots


def _well_posed(anchor, roots, bound):
    """Roots apart from each other and from the interval ends, no tie at the anchor.

    Near a multiple root both solvers lose about half their digits, and at a
    tie or at an end of the interval the choice itself is a coin flip.
    """
    x = roots / bound
    if min(abs(x[i] - x[j]) for i in range(3) for j in range(i)) < 1e-2:
        return False
    real = x.real[np.abs(x.imag) < 1e-3]
    if np.any(np.abs(np.abs(real) - (1.0 + 1e-9)) < 1e-10):
        return False
    gaps = np.sort(np.abs(real[np.abs(real) <= 1.0 + 1e-9] - anchor / bound))
    return gaps.size < 2 or gaps[1] - gaps[0] > 1e-9


@settings(max_examples=300, deadline=None)
@given(
    E=st.floats(0.01, 100.0),
    F=st.floats(0.01, 100.0),
    cases=st.lists(
        # (sxx/E, syy/F, cosine); |cosine| > 1 breaks Cauchy-Schwarz, which
        # is where the cubic can lose every feasible root
        st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.floats(-1.3, 1.3)),
        min_size=1,
        max_size=6,
    ),
)
def test_likelihood_roots_match_np_roots_reference(E, F, cases):
    rx, ry, r = (np.array(col) for col in zip(*cases))
    sxx, syy = E * rx, F * ry
    sxy = r * np.sqrt(sxx * syy)
    bound = math.sqrt(E * F)
    refs = [_np_roots_reference(sxy[i], sxx[i], syy[i], E, F) for i in range(len(cases))]
    assume(all(_well_posed(anchor, roots, bound) for _, anchor, roots in refs))
    if any(choice is None for choice, _, _ in refs):
        with pytest.raises(EstimationError):
            likelihood_roots(sxy, sxx, syy, E, F)
        return
    got = likelihood_roots(sxy, sxx, syy, E, F)
    assert got.shape == sxy.shape
    assert np.all(np.abs(got) <= bound * (1.0 + 1e-9))
    want = np.array([choice for choice, _, _ in refs])
    assert np.all(np.abs(got - want) <= 1e-12 * max(1.0, bound))


def test_mle_solves_every_repetition_like_the_scalar_root():
    rng = np.random.default_rng(10)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    E, F = float(u @ u), float(v @ v)
    x, y = sketch_pair(u, v, rademacher_config(64, 8, m=7, seed=3))
    per_rep = [
        float(likelihood_roots(float(a @ b), float(a @ a), float(b @ b), E, F))
        for a, b in zip(x.reps, y.reps)
    ]
    assert mle_inner_product(x, y, E, F) == pytest.approx(np.mean(per_rep), rel=1e-12)


def test_mle_uses_margins_and_beats_plain_inner_at_high_cosine():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(64)
    v = 0.95 * u + math.sqrt(1 - 0.95**2) * rng.standard_normal(64)
    E, F = float(u @ u), float(v @ v)
    a = float(u @ v)
    plain, mle = [], []
    for t in range(1500):
        x, y = sketch_pair(u, v, rademacher_config(64, 8, seed=derive_seed(15, t)))
        plain.append(inner_product_hat(x, y))
        mle.append(mle_inner_product(x, y, E, F))
    mse_plain = np.mean((np.array(plain) - a) ** 2)
    mse_mle = np.mean((np.array(mle) - a) ** 2)
    assert mse_mle < 0.8 * mse_plain


def test_mle_rejects_bad_margins():
    u = np.random.default_rng(9).standard_normal(16)
    x, y = sketch_pair(u, u, rademacher_config(16, 4))
    with pytest.raises(ValueError):
        mle_inner_product(x, y, 0.0, 1.0)
    with pytest.raises(ValueError):
        mle_inner_product(x, y, 1.0, -2.0)


# --- normalized inner product ---------------------------------------------------


def normalized_inner(x, y, sumsq_u, sumsq_v):
    return _estimate(Estimator.NORMALIZED_INNER, x, y, sumsq_u, sumsq_v)


def test_normalized_inner_from_published_margins():
    # rho = 0.9623 with squared norms 13556 and 13395 rescales to 12967.24...
    c = rademacher_config(2, 2)
    x = Sketch(np.array([1.0, 0.0]), c)
    y = Sketch(np.array([0.9623, math.sqrt(1.0 - 0.9623**2)]), c)
    got = normalized_inner(x, y, 13556.0, 13395.0)
    assert got == pytest.approx(12967.24226711215, rel=1e-12)


def test_normalized_inner_validation():
    x, y = sketch_pair(np.ones(4), np.arange(4.0), rademacher_config(4, 2))
    for margins in ((-1.0, 1.0), (1.0, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            normalized_inner(x, y, *margins)


def test_normalized_inner_recovers_inner_at_k_equals_dim():
    rng = np.random.default_rng(10)
    u = 3.0 * rng.standard_normal(32)
    v = 0.2 * rng.standard_normal(32)
    x, y = sketch_pair(u, v, rademacher_config(32, 32, seed=4))
    got = normalized_inner(x, y, float(u @ u), float(v @ v))
    assert got == pytest.approx(float(u @ v), rel=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_likelihood_roots_are_homogeneous_where_products_leave_the_float_range(scale):
    # E*F and sxx*syy overflow (underflow) at these scales while every
    # argument is normal; the roots scale with the arguments
    rng = np.random.default_rng(8)
    E, F = rng.uniform(0.5, 4, 50), rng.uniform(0.5, 4, 50)
    sxx, syy = E * rng.uniform(0.5, 1.5, 50), F * rng.uniform(0.5, 1.5, 50)
    sxy = rng.uniform(-1, 1, 50) * np.sqrt(sxx * syy)
    cases = [(0.3, 1.1, 0.9, 1.0, 1.0), (sxy, sxx, syy, E, F)]
    for args in cases:
        want = likelihood_roots(*args)
        got = likelihood_roots(*(scale * np.asarray(a) for a in args)) / scale
        assert np.allclose(got, want, rtol=1e-12, atol=0)


# --- guards ----------------------------------------------------------------------


def test_estimates_whose_sums_overflow_are_refused(tmp_path):
    # finite 1e200-scale vectors sketch, save and load fine, but every sum
    # of squares of their sketches overflows float64
    rng = np.random.default_rng(12)
    u, v = 1e200 * rng.standard_normal(64), 1e200 * rng.standard_normal(64)
    config = rademacher_config(64, 8, m=2, seed=3)

    def reloaded(sk):
        save_sketch(str(tmp_path / "sk.oporp"), sk)
        return load_sketch(str(tmp_path / "sk.oporp"))

    pairs = {False: [reloaded(oporp_sketch(w, config)) for w in (u, v)],
             True: [reloaded(vsrp_sketch(w, 64, 8, 1.0, 3)) for w in (u, v)]}
    for est in Estimator:
        x, y = pairs[_REGISTRY[est].pooled]
        with pytest.raises(ValueError, match="overflow float64"):
            _estimate(est, x, y, 1.0, 1.0)
    x, y = pairs[False]
    for estimate in (cosine_hat, inner_product_hat, distance_hat):
        with pytest.raises(ValueError, match="overflow float64"):
            estimate(x, y)


def test_zero_norm_cosine_raises():
    u = np.random.default_rng(11).standard_normal(16)
    x, y = sketch_pair(np.zeros(16), u, rademacher_config(16, 4))
    with pytest.raises(ZeroNormError):
        cosine_hat(x, y)
    a = vsrp_sketch(np.zeros(16), 16, 8, 1.0, 0)
    b = vsrp_sketch(u, 16, 8, 1.0, 0)
    with pytest.raises(ZeroNormError):
        vsrp_cosine_hat(a, b)


def test_mismatched_sketches_raise():
    u = np.random.default_rng(12).standard_normal(16)
    config = rademacher_config(16, 4, seed=1)
    x = oporp_sketch(u, config)
    y = oporp_sketch(u, replace(config, seed=2))
    for estimator in (inner_product_hat, distance_hat, cosine_hat):
        with pytest.raises(SketchMismatchError):
            estimator(x, y)


def test_vsrp_estimators_pool_one_bin_sketches_and_reject_binned_ones():
    # any k = 1 sketch is a sparse projection of its m samples (here s = 1);
    # a sketch of k > 1 bins is refused, since its bins are no samples
    u = np.random.default_rng(13).standard_normal(16)
    config = SketchConfig(
        dim=16, k=1, binning=Binning.VARIABLE, dist=rademacher(), m=8, seed=0
    )
    x, y = sketch_pair(u, 2 * u, config)
    assert vsrp_inner_product_hat(x, y) == pytest.approx(inner_product_hat(x, y), rel=1e-12)
    assert vsrp_cosine_hat(x, y) == 1.0
    x, y = sketch_pair(u, 2 * u, rademacher_config(16, 4, m=2))
    with pytest.raises(SketchMismatchError, match="k=4"):
        vsrp_inner_product_hat(x, y)
    with pytest.raises(SketchMismatchError, match="k=4"):
        vsrp_cosine_hat(x, y)


def test_normalized_sketches_give_cosine_via_inner():
    # after per-repetition normalization, the plain inner estimator on m=1
    # sketches is literally the cosine estimator
    rng = np.random.default_rng(14)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    x, y = sketch_pair(u, v, rademacher_config(64, 16, seed=6))
    unit_x, unit_y = (Sketch(sk.values / np.linalg.norm(sk.values), sk.config) for sk in (x, y))
    lhs = inner_product_hat(unit_x, unit_y)
    assert lhs == pytest.approx(cosine_hat(x, y), rel=1e-12)


def test_estimator_enum_round_trip():
    for est in Estimator:
        assert Estimator(est.value) is est
    with pytest.raises(ValueError):
        Estimator("hamming")
