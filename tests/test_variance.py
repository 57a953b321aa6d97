"""Variance oracle tests: exhaustive enumeration and closed-form identities.

The binning moments and the inner/distance variances are verified against
brute-force enumeration over every permutation (and every sign pattern,
and for variable binning every bin assignment), with exact rational
arithmetic for the moments. These enumerations are the ground truth the
closed forms must reproduce; nothing here depends on sampling.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oporp.estimate import _REGISTRY, Estimator
from oporp.sketch import Binning
from oporp.variance import (
    DegeneratePairError,
    lemma1_moments,
    pair_statistics,
    var_cosine,
    var_distance,
    var_inner,
    var_normalized_inner,
    variance_ratio,
)

FIXED, VARIABLE = Binning.FIXED, Binning.VARIABLE


# --- enumeration oracles ------------------------------------------------------


def enumerate_fixed_bins(D):
    """(D!, D) bin inputs: row p gives each coordinate's position under perm p."""
    perms = np.array(list(itertools.permutations(range(D))), dtype=np.int64)
    positions = np.empty_like(perms)
    rows = np.arange(perms.shape[0])[:, None]
    positions[rows, perms] = np.arange(D)[None, :]
    return positions


def brute_force_pair_variances(u, v, k, scheme):
    """Exact Var(inner est) and Var(distance est) by full enumeration, s = 1.

    Fixed: all D! block permutations; variable: all k^D assignments. Both
    cross every +-1 sign pattern. Returns (mean_inner, var_inner,
    mean_dist, var_dist).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if scheme is FIXED:
        L = -(-u.shape[0] // k)
        Dp = k * L
        u = np.concatenate([u, np.zeros(Dp - u.shape[0])])
        v = np.concatenate([v, np.zeros(Dp - v.shape[0])])
    D = u.shape[0]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=D)))
    inner_est, dist_est = [], []
    if scheme is FIXED:
        L = D // k
        for p in itertools.permutations(range(D)):
            pu, pv = u[list(p)], v[list(p)]
            X = (pu[None, :] * signs).reshape(-1, k, L).sum(axis=2)
            Y = (pv[None, :] * signs).reshape(-1, k, L).sum(axis=2)
            inner_est.append(np.einsum("ij,ij->i", X, Y))
            diff = X - Y
            dist_est.append(np.einsum("ij,ij->i", diff, diff))
    else:
        eye = np.eye(k)
        for a in itertools.product(range(k), repeat=D):
            M = eye[list(a)]  # (D, k) one-hot bin membership
            X = (u[None, :] * signs) @ M
            Y = (v[None, :] * signs) @ M
            inner_est.append(np.einsum("ij,ij->i", X, Y))
            diff = X - Y
            dist_est.append(np.einsum("ij,ij->i", diff, diff))
    inner_est = np.concatenate(inner_est)
    dist_est = np.concatenate(dist_est)
    return (
        float(inner_est.mean()),
        float(np.mean((inner_est - u @ v) ** 2)),
        float(dist_est.mean()),
        float(np.mean((dist_est - np.sum((u - v) ** 2)) ** 2)),
    )


# --- binning moments ----------------------------------------------------------


def test_lemma1_frozen_small_cases():
    m = lemma1_moments(6, 2, FIXED)
    assert m.single == 0.5
    assert m.samebin == pytest.approx(4 / 20, abs=0)
    assert m.diffbin == pytest.approx(6 / 20, abs=0)
    assert lemma1_moments(9, 1, FIXED) == (1.0, 1.0, 0.0)
    assert lemma1_moments(9, 1, VARIABLE) == (1.0, 1.0, 0.0)
    mv = lemma1_moments(100, 4, VARIABLE)
    assert (mv.single, mv.samebin, mv.diffbin) == (0.25, 1 / 16, 1 / 16)
    # k = D leaves no room for two coordinates in one bin
    assert lemma1_moments(8, 8, FIXED).samebin == 0.0


def test_lemma1_validation():
    with pytest.raises(ValueError):
        lemma1_moments(6, 4, FIXED)  # k must divide D
    with pytest.raises(ValueError):
        lemma1_moments(0, 1, FIXED)


@pytest.mark.parametrize("scheme", [FIXED, VARIABLE])
def test_lemma1_partition_identity(scheme):
    """Each coordinate pair is in some (j, j') cell: k*same + k(k-1)*diff = 1."""
    for D in (4, 12, 144, 1024):
        for k in (1, 2, 4, 12):
            if scheme is FIXED and D % k != 0:
                continue
            m = lemma1_moments(D, k, scheme)
            total = k * m.samebin + k * (k - 1) * m.diffbin
            assert total == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_lemma1_exhaustive_enumeration(D):
    """Count indicator events over all D! permutations in exact rationals."""
    positions = enumerate_fixed_bins(D)
    n_perms = math.factorial(D)
    for k in range(1, D + 1):
        if D % k != 0:
            continue
        bins = positions // (D // k)
        moments = lemma1_moments(D, k, FIXED)
        want_same = Fraction(D - k, (D - 1) * k * k) if k > 1 else Fraction(1)
        want_diff = Fraction(D, (D - 1) * k * k) if k > 1 else Fraction(0)
        for j in range(k):
            in_j = bins == j
            # E(I_ij) = 1/k for every coordinate
            counts = in_j.sum(axis=0)
            assert np.all(counts * k == n_perms)
            # pair moments for every coordinate pair and a second bin j'
            same_counts = in_j.T.astype(np.int64) @ in_j.astype(np.int64)
            jp = (j + 1) % k
            diff_counts = in_j.T.astype(np.int64) @ (bins == jp).astype(np.int64)
            for i in range(D):
                for i2 in range(D):
                    if i == i2:
                        continue
                    assert Fraction(int(same_counts[i, i2]), n_perms) == want_same
                    if k > 1:
                        assert Fraction(int(diff_counts[i, i2]), n_perms) == want_diff
        # the floats the library hands out are the same correctly rounded values
        assert moments.samebin == float(want_same)
        assert moments.diffbin == float(want_diff)


# --- pair statistics ----------------------------------------------------------


def test_pair_statistics_identities():
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(40), rng.standard_normal(40)
    st = pair_statistics(u, v)
    assert st.a == pytest.approx(np.dot(u, v), rel=1e-15)
    assert st.d == pytest.approx(st.sumsq_u + st.sumsq_v - 2 * st.a, rel=1e-12)
    assert st.rho == pytest.approx(st.a / math.sqrt(st.sumsq_u * st.sumsq_v), rel=1e-15)
    # quartic expansion of |u - v|^4 against the stored moment sums
    expanded = st.sum_u4 - 4 * st.sum_u3v + 6 * st.sum_u2v2 - 4 * st.sum_uv3 + st.sum_v4
    assert st.sum_diff4 == pytest.approx(expanded, rel=1e-12)
    assert st.A >= 0.0


def test_pair_statistics_identical_vectors():
    u = np.random.default_rng(1).standard_normal(25)
    st = pair_statistics(u, u)
    assert st.rho == 1.0
    assert st.d == 0.0
    assert st.A == pytest.approx(0.0, abs=1e-15)


def test_pair_statistics_scale_invariance_of_rho_and_A():
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal(30), rng.standard_normal(30)
    st1 = pair_statistics(u, v)
    st2 = pair_statistics(3.0 * u, 0.25 * v)
    assert st2.rho == pytest.approx(st1.rho, rel=1e-12)
    assert st2.A == pytest.approx(st1.A, rel=1e-12)


def test_pair_statistics_rejects_zero_and_mismatch():
    with pytest.raises(ValueError):
        pair_statistics(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        pair_statistics(np.ones(4), np.ones(5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pair_statistics_rejects_non_finite(bad):
    u = np.ones(4)
    u[2] = bad
    with pytest.raises(ValueError):
        pair_statistics(u, np.ones(4))
    with pytest.raises(ValueError):
        pair_statistics(np.ones(4), u)


# --- inner and distance variance against enumeration ---------------------------


def test_inner_variance_k1_hand_example():
    # u=(1,2), v=(3,4), k=1, signs only: estimates {21, 1, 1, 21}, a=11,
    # variance (2*100 + 2*100)/4 = 100
    st = pair_statistics([1.0, 2.0], [3.0, 4.0])
    assert var_inner(st, 1, 1.0, FIXED) == pytest.approx(100.0, abs=1e-12)
    assert var_inner(st, 1, 1.0, VARIABLE) == pytest.approx(100.0, abs=1e-12)


def test_inner_variance_frozen_enumeration_value():
    # brute force over 4! permutations x 16 sign patterns gives exactly 364
    st = pair_statistics([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
    assert var_inner(st, 2, 1.0, FIXED) == pytest.approx(364.0, abs=1e-10)


FIXED_CASES = [
    (2, 1), (2, 2), (3, 3), (4, 2), (4, 4), (5, 2), (6, 2), (6, 3), (6, 6),
]


@pytest.mark.parametrize("D,k", FIXED_CASES)
def test_enumerated_variances_fixed(D, k):
    """Full enumeration equals the closed forms to 1e-12 (padding included:
    the D=5, k=2 case works on the zero-padded 6-dim vector)."""
    rng = np.random.default_rng(100 + D * 10 + k)
    u = rng.standard_normal(D)
    v = 0.6 * u + rng.standard_normal(D)
    st = pair_statistics(u, v)
    mean_i, bvar_i, mean_d, bvar_d = brute_force_pair_variances(u, v, k, FIXED)
    assert mean_i == pytest.approx(st.a, rel=1e-12, abs=1e-12)
    assert mean_d == pytest.approx(st.d, rel=1e-12, abs=1e-12)
    scale_i = max(1.0, abs(bvar_i))
    scale_d = max(1.0, abs(bvar_d))
    assert abs(var_inner(st, k, 1.0, FIXED) - bvar_i) <= 1e-12 * scale_i
    assert abs(var_distance(st, k, 1.0, FIXED) - bvar_d) <= 1e-12 * scale_d


@pytest.mark.parametrize("D,k", [(4, 2), (4, 3), (5, 2), (3, 4)])
def test_enumerated_variances_variable(D, k):
    """All k^D bin assignments x sign patterns; k may exceed D here."""
    rng = np.random.default_rng(200 + D * 10 + k)
    u = rng.standard_normal(D)
    v = -0.3 * u + rng.standard_normal(D)
    st = pair_statistics(u, v)
    mean_i, bvar_i, mean_d, bvar_d = brute_force_pair_variances(u, v, k, VARIABLE)
    assert mean_i == pytest.approx(st.a, rel=1e-12, abs=1e-12)
    assert mean_d == pytest.approx(st.d, rel=1e-12, abs=1e-12)
    assert abs(var_inner(st, k, 1.0, VARIABLE) - bvar_i) <= 1e-12 * max(1.0, bvar_i)
    assert abs(var_distance(st, k, 1.0, VARIABLE) - bvar_d) <= 1e-12 * max(1.0, bvar_d)


def test_variance_decreases_in_k_and_m():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    st = pair_statistics(u, v)
    values = [var_inner(st, k, 1.0, FIXED) for k in (2, 4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.0, abs=1e-12)  # k = D, s = 1
    assert _REGISTRY[Estimator.INNER].variance(st, 4, 1.0, FIXED, 5) == values[1] / 5


def test_fixed_beats_variable_by_the_collision_factor():
    rng = np.random.default_rng(4)
    u, v = rng.standard_normal(256), rng.standard_normal(256)
    st = pair_statistics(u, v)
    ratio = var_inner(st, 64, 1.0, FIXED) / var_inner(st, 64, 1.0, VARIABLE)
    assert ratio == pytest.approx(192 / 255, rel=1e-12)
    rd = var_distance(st, 64, 1.0, FIXED) / var_distance(st, 64, 1.0, VARIABLE)
    assert rd == pytest.approx(192 / 255, rel=1e-12)


def test_fixed_needs_k_at_most_dim():
    st = pair_statistics(np.ones(4), np.ones(4) * 2)
    with pytest.raises(ValueError):
        var_inner(st, 8, 1.0, FIXED)
    # no such restriction for variable binning
    var_inner(st, 8, 1.0, VARIABLE)


# --- sparse-projection forms and ratios ----------------------------------------


def test_vsrp_inner_oracle_is_the_sparse_projection_variance():
    # Li, Hastie and Church (KDD 2006): k samples of sparse(s) columns give
    # (a^2 + |u|^2 |v|^2 + (s - 3) sum u^2 v^2) / k; the pooled oracle is
    # the one-bin oracle over k, and so is k one-bin repetitions of inner
    rng = np.random.default_rng(5)
    st = pair_statistics(rng.standard_normal(50), rng.standard_normal(50))
    for s in (1.0, 3.0, 10.0, 40.0):
        for k in (1, 16, 256):
            direct = (st.a**2 + st.sumsq_u * st.sumsq_v + (s - 3.0) * st.sum_u2v2) / k
            pooled = _REGISTRY[Estimator.VSRP_INNER].variance(st, k, s, None, 1)
            via_reps = _REGISTRY[Estimator.INNER].variance(st, 1, s, VARIABLE, k)
            assert direct == pytest.approx(pooled, rel=1e-14)
            assert direct == pytest.approx(via_reps, rel=1e-14)


def test_vsrp_cosine_oracle_is_the_sparse_projection_variance():
    # ((1 - rho^2)^2 + (s - 3) A) / k for the pooled cosine of k samples
    rng = np.random.default_rng(6)
    st = pair_statistics(rng.standard_normal(50), rng.standard_normal(50))
    for s in (1.0, 5.0):
        for k in (1, 64):
            direct = ((1.0 - st.rho**2) ** 2 + (s - 3.0) * st.A) / k
            pooled = _REGISTRY[Estimator.VSRP_COSINE].variance(st, k, s, None, 1)
            assert direct == pytest.approx(pooled, rel=1e-14)


def test_normalized_inner_is_cosine_scaled_by_norms():
    rng = np.random.default_rng(7)
    u = 2.5 * rng.standard_normal(64)
    v = 0.5 * rng.standard_normal(64)
    st = pair_statistics(u, v)
    got = var_normalized_inner(st, 16, 1.0, FIXED)
    want = var_cosine(st, 16, 1.0, FIXED) * st.sumsq_u * st.sumsq_v
    assert got == pytest.approx(want, rel=1e-15)


def test_variance_ratio_is_one_at_s1_exactly():
    rng = np.random.default_rng(8)
    for trial in range(5):
        u, v = rng.standard_normal(32), rng.standard_normal(32)
        st = pair_statistics(u, v)
        assert variance_ratio(st, 1.0, "inner") == 1.0
        assert variance_ratio(st, 1.0, "cosine") == 1.0


def test_variance_ratio_strictly_increasing_in_s():
    rng = np.random.default_rng(9)
    u = rng.standard_normal(128)
    v = 0.8 * u + 0.6 * rng.standard_normal(128)
    st = pair_statistics(u, v)
    for which in ("inner", "cosine"):
        values = [variance_ratio(st, float(s), which) for s in range(1, 201)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_variance_ratio_degenerate_pair():
    u = np.random.default_rng(10).standard_normal(16)
    st = pair_statistics(u, u)  # rho = 1, A = 0: cosine denominator is 0
    with pytest.raises(DegeneratePairError):
        variance_ratio(st, 2.0, "cosine")
    with pytest.raises(ValueError):
        variance_ratio(st, 2.0, "euclidean")


def test_var_inner_m_validation():
    # the registry divides every oracle by m, and refuses m < 1 for each
    st = pair_statistics(np.ones(4), 2 * np.ones(4))
    for est, entry in _REGISTRY.items():
        if entry.oracle is None:
            continue
        one = entry.variance(st, 2, 1.0, FIXED, 1)
        assert one == entry.oracle(st, 2, 1.0, FIXED), est
        assert entry.variance(st, 2, 1.0, FIXED, 3) == one / 3, est
        for m in (0, -1):
            with pytest.raises(ValueError):
                entry.variance(st, 2, 1.0, FIXED, m)


@pytest.mark.parametrize("k, m", [(0, 1), (-3, 1), (4, 0)])
def test_every_oracle_refuses_k_or_m_below_one(k, m):
    # the pooled oracles divide by k: k = 0 raised ZeroDivisionError there
    st = pair_statistics(np.ones(4), 2 * np.ones(4))
    for est, entry in _REGISTRY.items():
        if entry.oracle is None:
            continue
        with pytest.raises(ValueError, match="must be >= 1"):
            entry.variance(st, k, 1.0, VARIABLE, m)


@pytest.mark.parametrize("s", [0.5, math.nan, math.inf])
def test_every_oracle_refuses_an_impossible_s(s):
    # no multiplier has E(r^4) < 1, and s = inf or NaN has none to draw
    st = pair_statistics(np.ones(4), 2 * np.ones(4))
    for est, entry in _REGISTRY.items():
        if entry.oracle is None:
            continue
        with pytest.raises(ValueError, match="sparse parameter must be finite and >= 1"):
            entry.variance(st, 2, s, FIXED, 1)


def test_variance_ratio_matches_its_closed_form_bit_for_bit():
    # the ratio is the one-bin oracle at s over the same oracle at s = 1;
    # written out, it is ((s - 1) S + C) / C for the inner product, with
    # S = sum u^2 v^2 and C = EF + a^2 - 2 S, and ((s - 1) A + K) / K for
    # the cosine, with K = (1 - rho^2)^2 - 2 A
    rng = np.random.default_rng(11)
    for trial in range(20):
        u = rng.standard_normal(24)
        st = pair_statistics(u, rng.uniform(-1, 1) * u + rng.standard_normal(24))
        c_inner = st.sumsq_u * st.sumsq_v + st.a**2 - 2.0 * st.sum_u2v2
        c_cosine = (1.0 - st.rho**2) ** 2 - 2.0 * st.A
        for s in (1.0, 1.8, 3.0, 17.5):
            inner = ((s - 1.0) * st.sum_u2v2 + c_inner) / c_inner
            cosine = ((s - 1.0) * st.A + c_cosine) / c_cosine
            assert variance_ratio(st, s, "inner") == inner
            assert variance_ratio(st, s, "cosine") == cosine
