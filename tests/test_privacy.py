"""Private release mechanisms: the sigma solver, noise law, and sign flips.

The normal CDF is checked against adaptive quadrature of the density (an
independent evaluation route), the solver against direct residuals of the
trade-off equation, and the randomized-response mechanics against their
stated flip laws at frozen seeds.
"""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr

from oporp import privacy
from oporp.privacy import (
    NoisySketch,
    PrivacySpec,
    _flip_probs,
    _ndtr,
    _tradeoff_gap,
    dp_oporp,
    dp_sign_oporp_rr,
    dp_sign_oporp_rr_smooth,
    flip_probability,
    sign_similarity,
    solve_gaussian_sigma,
)
from oporp.projection import gaussian, rademacher
from oporp.sketch import Binning, SketchConfig, oporp_sketch


def private_config(D, k, seed=0, binning=Binning.FIXED):
    return SketchConfig(dim=D, k=k, binning=binning, dist=rademacher(), m=1, seed=seed)


def normal_density(t):
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


# --- normal CDF ----------------------------------------------------------------


def test_cdf_against_quadrature():
    for z in (-4.0, -1.5, -0.3, 0.0, 0.5, 1.96, 3.7):
        want, err = quad(normal_density, 0.0, z, epsabs=1e-14)
        assert _ndtr(z) == pytest.approx(0.5 + want, abs=1e-12 + 10 * err)


def test_cdf_frozen_table_value():
    assert _ndtr(1.96) == pytest.approx(0.9750021048517796, abs=1e-14)
    assert _ndtr(0.0) == 0.5


def test_cdf_symmetry_and_monotonicity():
    z = np.linspace(-6, 6, 41)
    out = np.array([_ndtr(float(t)) for t in z])
    mirrored = np.array([_ndtr(float(-t)) for t in z])
    assert np.allclose(out + mirrored, 1.0, atol=1e-15)
    assert np.all(np.diff(out) > 0)


def test_cdf_matches_scipy_ndtr():
    # down to z = -37, where Phi(z) is about 6e-300, just above underflow
    z = np.linspace(-37.0, 9.0, 4601)
    want = ndtr(z)
    for t, w in zip(z, want):
        got = _ndtr(float(t))
        assert isinstance(got, float)
        assert abs(got - w) <= 1e-12 * w


def test_import_loads_no_scipy():
    # the normal CDF is computed in the package, so importing it must not pull in scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, oporp, oporp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# --- sigma solver ----------------------------------------------------------------


EPS_GRID = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
DELTA_GRID = (1e-8, 1e-6, 1e-4, 1e-2)


def test_sigma_solver_residuals_on_grid():
    for eps in EPS_GRID:
        for delta in DELTA_GRID:
            sigma = solve_gaussian_sigma(1.0, eps, delta)
            assert abs(_tradeoff_gap(sigma, 1.0, eps) - delta) < 1e-12


def _reference_sigma(delta2, eps, delta):
    """Bisection of the trade-off equation on scipy's ndtr, independent of the solver."""

    def gap(sigma):
        a = delta2 / (2.0 * sigma) - eps * sigma / delta2
        b = -delta2 / (2.0 * sigma) - eps * sigma / delta2
        return ndtr(a) - math.exp(eps) * ndtr(b)

    lo = hi = delta2
    while gap(lo) <= delta:
        lo /= 2.0
    while gap(hi) >= delta:
        hi *= 2.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > delta else (lo, mid)
    return 0.5 * (lo + hi)


def test_sigma_matches_scipy_bisection():
    for delta2 in (0.5, 1.0, 4.0):
        for eps in (0.05, 0.3, 1.0, 3.0, 10.0):
            for delta in (1e-10, 1e-6, 1e-3, 0.2):
                want = _reference_sigma(delta2, eps, delta)
                got = solve_gaussian_sigma(delta2, eps, delta)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (delta2, eps, delta)


def _reference_sigma_log(delta2, eps, delta):
    """As _reference_sigma, with e^eps * Phi(b) formed as exp(eps + log Phi(b)) on scipy."""

    def gap(sigma):
        a = delta2 / (2.0 * sigma) - eps * sigma / delta2
        b = -delta2 / (2.0 * sigma) - eps * sigma / delta2
        return ndtr(a) - math.exp(min(eps + log_ndtr(b), 709.0))

    lo = hi = delta2
    while gap(lo) <= delta:
        lo /= 2.0
    while gap(hi) >= delta:
        hi *= 2.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > delta else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("eps", (710.0, 1000.0, 1e6))
def test_sigma_beyond_exp_range_matches_scipy_log_bisection(eps):
    # e^eps overflows a float here, which used to raise OverflowError
    for delta2, delta in ((1.0, 1e-6), (0.25, 1e-10), (4.0, 0.2)):
        want = _reference_sigma_log(delta2, eps, delta)
        assert solve_gaussian_sigma(delta2, eps, delta) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("eps", (100.0, 300.0, 700.0))
def test_sigma_tail_form_agrees_with_direct_form(monkeypatch, eps):
    # below the overflow limit the solver keeps the direct e^eps * Phi(b);
    # the tail form used above it must give the same sigma there
    direct = solve_gaussian_sigma(1.0, eps, 1e-6)
    monkeypatch.setattr(privacy, "_EXP_LIMIT", 0.0)
    assert solve_gaussian_sigma(1.0, eps, 1e-6) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_sigma_at_finite_huge_epsilon():
    # the lower bracket delta2 / (10 eps) once underflowed to 0 here
    eps, delta = 1e308, 1e-6
    for delta2 in (1.0, 0.25, 4.0):
        sigma = solve_gaussian_sigma(delta2, eps, delta)
        assert 0.0 < sigma < math.inf
        # the root is delta2 / sqrt(2 eps) to float precision; at this eps the
        # gap drops from 1 to 0 across a relative 1e-12 of sigma, past delta
        assert sigma == pytest.approx(delta2 * math.sqrt(0.5) / math.sqrt(eps), rel=1e-12)
        assert _tradeoff_gap(sigma * (1.0 - 1e-12), delta2, eps) > delta
        assert _tradeoff_gap(sigma * (1.0 + 1e-12), delta2, eps) < delta


def test_sigma_at_the_top_of_the_float_range():
    # epsilon above 1e308 used to be refused, though sigma is a normal float
    for eps in (1.7e308, sys.float_info.max):
        for delta2 in (1.0, 0.25, 4.0):
            sigma = solve_gaussian_sigma(delta2, eps, 1e-6)
            assert sigma == pytest.approx(delta2 * math.sqrt(0.5) / math.sqrt(eps), rel=1e-12)
    # a sigma below the float range is still refused
    with pytest.raises(ValueError, match="float"):
        solve_gaussian_sigma(5e-324, 1.7e308, 1e-6)


def test_sigma_meets_delta_on_a_wide_grid():
    # the solver returned its last bracket's midpoint, whose gap exceeded
    # delta (by up to 1.4e-10 relative) in about half of these cases
    violations = []
    for delta2 in (0.25, 1.0, 3.7, 1e-3, 1e5):
        for eps in np.logspace(-3.0, 4.0, 60).tolist():
            for delta in (1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.3):
                sigma = solve_gaussian_sigma(delta2, eps, delta)
                if _tradeoff_gap(sigma, delta2, eps) > delta:
                    violations.append((delta2, eps, delta))
    assert violations == []


def test_sigma_never_exceeds_classical_recipe():
    # the sqrt(2 ln(1.25/delta))/eps calibration is only valid for eps < 1;
    # the exact solver must be at least as tight wherever both apply
    for eps in (0.1, 0.25, 0.5, 1.0):
        for delta in DELTA_GRID:
            classical = math.sqrt(2.0 * math.log(1.25 / delta)) / eps
            assert solve_gaussian_sigma(1.0, eps, delta) <= classical + 1e-9


def test_sigma_monotone_in_budget():
    sigmas_eps = [solve_gaussian_sigma(1.0, e, 1e-6) for e in EPS_GRID]
    assert all(a > b for a, b in zip(sigmas_eps, sigmas_eps[1:]))
    sigmas_delta = [solve_gaussian_sigma(1.0, 1.0, d) for d in DELTA_GRID]
    assert all(a > b for a, b in zip(sigmas_delta, sigmas_delta[1:]))


def test_sigma_scales_linearly_in_sensitivity():
    base = solve_gaussian_sigma(1.0, 0.7, 1e-5)
    for c in (0.2, 3.0, 40.0):
        assert solve_gaussian_sigma(c, 0.7, 1e-5) == pytest.approx(c * base, rel=1e-9)


def test_sigma_solver_validation():
    with pytest.raises(ValueError):
        solve_gaussian_sigma(0.0, 1.0, 1e-6)
    with pytest.raises(ValueError):
        solve_gaussian_sigma(1.0, -1.0, 1e-6)
    with pytest.raises(ValueError):
        solve_gaussian_sigma(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_gaussian_sigma(1.0, 1.0, 1.0)


def test_privacy_spec_validation():
    spec = PrivacySpec(1.0, 1e-6, 0.5)
    assert spec.delta2 == 0.5
    with pytest.raises(ValueError):
        PrivacySpec(0.0, 1e-6, 1.0)
    with pytest.raises(ValueError):
        PrivacySpec(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        PrivacySpec(1.0, 1e-6, 0.0)


NON_FINITE = (math.nan, math.inf)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_privacy_parameters_rejected(bad):
    u = np.random.default_rng(2).uniform(-1, 1, 32)
    config = private_config(32, 8)
    for args in ((bad, 1e-6, 1.0), (1.0, bad, 1.0), (1.0, 1e-6, bad)):
        with pytest.raises(ValueError):
            PrivacySpec(*args)
    for args in ((bad, 1.0, 1e-6), (1.0, bad, 1e-6), (1.0, 1.0, bad)):
        with pytest.raises(ValueError):
            solve_gaussian_sigma(*args)
    with pytest.raises(ValueError):
        dp_sign_oporp_rr(u, config, bad)
    with pytest.raises(ValueError):
        dp_sign_oporp_rr_smooth(u, config, bad, 0.5)
    with pytest.raises(ValueError):
        dp_sign_oporp_rr_smooth(u, config, 1.0, bad)


# --- gaussian release -------------------------------------------------------------


def test_dp_oporp_noise_distribution():
    D = 100_000
    u = np.clip(np.random.default_rng(0).uniform(-1, 1, D), -0.999, 0.999)
    config = private_config(D, D, seed=5)
    spec = PrivacySpec(1.0, 1e-6, 1.0)
    released = dp_oporp(u, config, spec, noise_seed=77)
    clean = oporp_sketch(u, config)
    noise = released.values - clean.values
    sigma = released.sigma
    assert abs(noise.mean()) < 4 * sigma / math.sqrt(D)
    assert noise.std() == pytest.approx(sigma, rel=0.02)
    _, p = stats.kstest(noise / sigma, "norm")
    assert p > 0.001, f"noise not Gaussian (KS p={p:.2e})"


def test_dp_oporp_deterministic_with_noise_seed():
    u = np.random.default_rng(1).uniform(-1, 1, 64)
    config = private_config(64, 16)
    spec = PrivacySpec(0.5, 1e-5, 1.0)
    a = dp_oporp(u, config, spec, noise_seed=3)
    b = dp_oporp(u, config, spec, noise_seed=3)
    c = dp_oporp(u, config, spec, noise_seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert isinstance(a, NoisySketch)


def test_private_release_domain_enforcement():
    u = np.random.default_rng(2).uniform(-1, 1, 32)
    spec = PrivacySpec(1.0, 1e-6, 1.0)
    with pytest.raises(ValueError):  # wrong multiplier family
        dp_oporp(u, SketchConfig(dim=32, k=8, binning=Binning.FIXED, dist=gaussian()), spec)
    with pytest.raises(ValueError):  # repetitions would leak budget
        dp_oporp(u, SketchConfig(dim=32, k=8, binning=Binning.FIXED, dist=rademacher(), m=2), spec)
    with pytest.raises(ValueError):  # out of the [-1, 1] data domain
        dp_oporp(2.0 * u, private_config(32, 8), spec)
    for bad in (np.nan, np.inf):  # not finite, so not in the domain either
        v = u.copy()
        v[5] = bad
        with pytest.raises(ValueError):
            dp_oporp(v, private_config(32, 8), spec)
        with pytest.raises(ValueError):
            dp_sign_oporp_rr(v, private_config(32, 8), 1.0)
        with pytest.raises(ValueError):
            dp_sign_oporp_rr_smooth(v, private_config(32, 8), 1.0, 0.5)
    with pytest.raises(ValueError):  # Gaussian mechanism is undefined at delta = 0
        dp_oporp(u, private_config(32, 8), PrivacySpec(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        dp_sign_oporp_rr(u, private_config(32, 8), 0.0)
    with pytest.raises(ValueError):
        dp_sign_oporp_rr_smooth(u, private_config(32, 8), 1.0, 0.0)


# --- randomized response ------------------------------------------------------------


def test_flip_probability_is_overflow_free():
    eps = np.array([1e-3, 0.5, 1.0, math.log(3.0), 5.0, 30.0, 300.0, 700.0])
    assert np.allclose(flip_probability(eps), 1.0 / (np.exp(eps) + 1.0), rtol=1e-15, atol=0.0)
    assert flip_probability(math.log(3.0)) == 0.25
    assert 0.0 < flip_probability(710.0) < 1e-300
    assert flip_probability(1e6) == 0.0
    assert flip_probability(np.inf) == 0.0


@pytest.mark.parametrize("eps", (710.0, 1000.0, 1e6))
def test_rr_beyond_exp_range_releases_the_signs(eps):
    u = np.random.default_rng(8).uniform(0.1, 1.0, 64)
    config = private_config(64, 64, seed=6)
    values = oporp_sketch(u, config).values
    clean = np.where(values < 0, -1, 1)
    for released, probs in (
        (dp_sign_oporp_rr(u, config, eps, noise_seed=1), _flip_probs(values, eps)),
        (dp_sign_oporp_rr_smooth(u, config, eps, 0.5, noise_seed=1), _flip_probs(values, eps, 0.5)),
    ):
        assert np.all(probs < 1e-300)
        assert np.array_equal(released, clean)


def test_rr_flip_rate_at_ln3():
    # flip probability 1/(e^ln3 + 1) = 1/4; k = D single-coordinate bins
    D = 200_000
    rng = np.random.default_rng(3)
    u = rng.uniform(0.1, 1.0, D) * rng.choice([-1.0, 1.0], D)
    config = private_config(D, D, seed=9)
    released = dp_sign_oporp_rr(u, config, math.log(3.0), noise_seed=11)
    values = oporp_sketch(u, config).values
    clean_signs = np.where(values < 0, -1, 1)
    flip_rate = np.mean(released != clean_signs)
    assert np.all(_flip_probs(values, math.log(3.0)) == 0.25)
    assert flip_rate == pytest.approx(0.25, abs=0.005)
    assert set(np.unique(released)) == {-1, 1}


def test_rr_deterministic_and_seed_sensitive():
    u = np.random.default_rng(4).uniform(-1, 1, 256)
    config = private_config(256, 64)
    a = dp_sign_oporp_rr(u, config, 1.0, noise_seed=5)
    b = dp_sign_oporp_rr(u, config, 1.0, noise_seed=5)
    c = dp_sign_oporp_rr(u, config, 1.0, noise_seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_smooth_flip_probs_never_exceed_plain_rr():
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, 4096)
    config = private_config(4096, 256, seed=2)
    eps, beta = 1.0, 0.25
    values = oporp_sketch(u, config).values
    plain = _flip_probs(values, eps)
    smooth = _flip_probs(values, eps, beta)
    occupied = np.abs(values) >= beta
    assert np.all(smooth[occupied] <= plain[occupied])
    # larger magnitudes never flip more often
    order = np.argsort(np.abs(values))
    assert np.all(np.diff(smooth[order]) <= 1e-15)


def test_smooth_equals_rr_in_the_first_band():
    # every |bin| in (0, beta] sits at level 1, the plain RR probability
    u = np.full(64, 0.01)
    config = private_config(64, 64, seed=3)
    eps = 2.0
    smooth = _flip_probs(oporp_sketch(u, config).values, eps, beta=1.0)
    assert np.allclose(smooth, 1.0 / (math.exp(eps) + 1.0), atol=1e-15)


def test_empty_bins_release_fair_coins():
    # zero coordinates with k = D produce exactly-zero bins
    D = 100_000
    u = np.zeros(D)
    u[: D // 2] = np.random.default_rng(6).uniform(0.2, 1.0, D // 2)
    config = private_config(D, D, seed=4)
    released = dp_sign_oporp_rr(u, config, 1.0, noise_seed=13)
    values = oporp_sketch(u, config).values
    empty = values == 0.0
    assert empty.sum() == D // 2
    # level 0 under both rules: flip_probability(0) is exactly one half
    assert np.all(_flip_probs(values, 1.0)[empty] == 0.5)
    assert np.all(_flip_probs(values, 1.0, 0.5)[empty] == 0.5)
    coin_mean = released[empty].mean()
    assert abs(coin_mean) < 4.0 / math.sqrt(empty.sum())
    assert released.dtype == np.int8


def _nudge(x, ulps):
    """The float ``ulps`` steps from x (toward +inf when positive)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _output_probs(x, eps, beta):
    """P(+1), P(-1) of one released bit: sign(x) (-1 at 0) flipped by _flip_probs."""
    p = float(_flip_probs(np.array([x]), eps, beta)[0])
    return (1.0 - p, p) if x > 0.0 else (p, 1.0 - p)


@settings(max_examples=300, deadline=None)
@given(
    beta=st.floats(1e-6, 1e6),
    eps=st.floats(1e-3, 10.0),
    n=st.integers(0, 50),
    ulps=st.integers(-3, 3),
    negative=st.booleans(),
)
def test_rr_levels_and_likelihood_ratios_over_adjacent_inputs(beta, eps, n, ulps, negative):
    # x sits at or a few floats off n * beta, where ceil decides the level;
    # n = 0 gives 0, -0.0 and subnormals. Every x' within beta of x, checked
    # in exact rational arithmetic, is one adjacent step away.
    x = _nudge(n * beta, ulps)
    x = -x if negative else x
    candidates = [0.0, -0.0]
    for u in (-2, -1, 0, 1, 2):
        for step in (-1.0, -0.5, 0.0, 0.5, 1.0):
            candidates.append(_nudge(x + step * beta, u))
        for m in (n - 1, n, n + 1):
            candidates += [_nudge(m * beta, u), -_nudge(m * beta, u)]
    neighbours = [y for y in candidates if abs(Fraction(y) - Fraction(x)) <= Fraction(beta)]
    assert neighbours
    bound = math.exp(eps) * (1.0 + 1e-12)  # rounding of the float probabilities
    for y in neighbours:
        # a beta step moves the rr-smooth level ceil(|x|/beta) by at most one
        levels = np.ceil(np.abs([x, y]) / beta)
        assert abs(levels[0] - levels[1]) <= 1, (x, y, beta)
        for level_beta in (None, beta):  # rr, rr-smooth
            px, py = _output_probs(x, eps, level_beta), _output_probs(y, eps, level_beta)
            for a, b in ((px, py), (py, px)):
                assert a[0] <= bound * b[0] and a[1] <= bound * b[1], (x, y, eps, level_beta)


def test_smooth_large_magnitude_probs_underflow_to_zero():
    # levels far above 1 would push e^(L eps) past float range; the capped
    # flip probability must stay finite, without a warning or NaN
    u = np.ones(16)
    config = private_config(16, 2, seed=8)
    values = oporp_sketch(u, config).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smooth = _flip_probs(values, 5.0, beta=1e-3)
        dp_sign_oporp_rr_smooth(u, config, 5.0, beta=1e-3, noise_seed=15)
    assert np.all(np.isfinite(smooth))
    assert smooth.min() >= 0.0


@pytest.mark.parametrize("eps", [0.1, 1.0, 3.0, 12.0])
def test_rr_smooth_levels_keep_eps_dp_on_the_uniform_draws_grid(eps):
    # A bit flips when its uniform draw, a multiple of 2**-53, falls below
    # p, so it flips w.p. ceil(p 2**53) / 2**53. Uncapped, at eps = 1
    # levels 36 and 37 flipped w.p. 3 and 1 times 2**-53 (a ratio of 3 > e)
    # and level 746 never. Adjacent inputs L and L + 1 (beta = 1) reach
    # every pair of adjacent levels.
    grid = 2**53
    probs = _flip_probs(np.arange(801, dtype=np.float64), eps, beta=1.0)
    flips = [Fraction(math.ceil(Fraction(float(p)) * grid), grid) for p in probs]
    bound = Fraction(math.exp(eps)) * (1 + Fraction(1, 10**12))
    for level, (a, b) in enumerate(zip(flips, flips[1:])):
        for x, y in ((a, b), (1 - a, 1 - b)):  # flipped, kept
            assert x <= bound * y and y <= bound * x, (eps, level)


# --- sign similarity -----------------------------------------------------------------


def test_sign_similarity_basics():
    a = np.array([1, 1, -1, -1], dtype=np.int8)
    assert sign_similarity(a, a) == 1.0
    assert sign_similarity(a, -a) == 0.0
    assert sign_similarity(a, np.array([1, 1, -1, 1], dtype=np.int8)) == 0.75
    with pytest.raises(ValueError):
        sign_similarity(a, a[:3])


@pytest.mark.parametrize("bad", [[0, 2, 5], [1, -1, 0], [1, 2, -1], [-1.5, 1, 1]])
def test_sign_similarity_refuses_non_signs(bad):
    # [0, 2, 5] against itself used to score 1.0
    signs = np.array([1, -1, 1], dtype=np.int8)
    for a, b in ((bad, bad), (bad, signs), (signs, bad)):
        with pytest.raises(ValueError, match="-1 and \\+1"):
            sign_similarity(a, b)


def test_sign_similarity_refuses_booleans():
    # True == 1, so all-True arrays used to score 1.0 as all +1 signs
    signs = np.array([1, -1, 1], dtype=np.int8)
    for bad in ([True, True, True], np.array([True, False, True])):
        for a, b in ((bad, bad), (bad, signs), (signs, bad)):
            with pytest.raises(ValueError, match="-1 and \\+1"):
                sign_similarity(a, b)


def test_sign_similarity_of_empty_sketches_raises():
    empty = np.array([], dtype=np.int8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            sign_similarity(empty, empty)


def test_sign_similarity_accepts_released_sketches():
    u = np.random.default_rng(7).uniform(-1, 1, 512)
    config = private_config(512, 128, seed=6)
    a = dp_sign_oporp_rr(u, config, 3.0, noise_seed=1)
    b = dp_sign_oporp_rr(u, config, 3.0, noise_seed=2)
    sim = sign_similarity(a, b)
    # same signal, two independent light flips: mostly agreeing bits
    assert 0.8 < sim <= 1.0
