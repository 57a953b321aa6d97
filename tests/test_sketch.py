"""Sketch construction, binning structure, and the file format.

The reconstruction tests rebuild sketches from the public primitives and
the documented per-repetition stream layout, so any change to how
randomness is wired breaks here rather than silently shifting results.
"""

import numpy as np
import pytest

import oporp.sketch
from oporp import cli
from oporp.experiment import similarity_matrix
from oporp.privacy import PrivacySpec, dp_oporp, dp_sign_oporp_rr, dp_sign_oporp_rr_smooth
from oporp.projection import (
    ProjectionDistribution,
    ProjectionKind,
    derive_seed,
    gaussian,
    generate_permutation,
    generate_projection_vector,
    generator,
    rademacher,
    scaled_uniform,
    sparse,
)
from oporp.sketch import (
    _BINS,
    _PERM,
    _PROJ,
    _VSRP,
    Binning,
    Sketch,
    SketchConfig,
    SketchFileError,
    SketchMismatchError,
    SketchPlan,
    ZeroNormError,
    _plan,
    bin_assignment,
    bins_from_permutation,
    check_compatible,
    load_sign_sketch,
    load_sketch,
    normalize_sketch,
    oporp_sketch,
    save_sign_sketch,
    row_norms,
    save_sketch,
    vsrp_config,
    vsrp_sketch,
    with_seed,
)


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
    with pytest.raises(ValueError):
        c.block_length


def test_padded_dim_and_block_length():
    c = SketchConfig(dim=10, k=4, binning=Binning.FIXED, dist=rademacher())
    assert c.padded_dim == 12
    assert c.block_length == 3
    assert cfg(dim=16, k=4).block_length == 4


def test_bins_from_permutation_hand_example():
    # position p holds coordinate perm[p]; blocks of length 2
    perm = np.array([2, 0, 3, 1])
    assert np.array_equal(bins_from_permutation(perm, 2), [0, 1, 0, 1])
    assert np.array_equal(bins_from_permutation(np.arange(4), 2), [0, 0, 1, 1])


def test_bins_from_permutation_rejects_non_divisor():
    with pytest.raises(ValueError):
        bins_from_permutation(np.arange(6), 4)


def test_fixed_bin_assignment_is_balanced():
    for D, k, seed in [(16, 4, 0), (12, 3, 5), (64, 64, 9)]:
        c = SketchConfig(dim=D, k=k, binning=Binning.FIXED, dist=rademacher(), seed=seed)
        bins = bin_assignment(c, 0)
        assert np.array_equal(np.sort(np.unique(bins)), np.arange(k))
        assert np.all(np.bincount(bins, minlength=k) == c.block_length)


def test_variable_bin_assignment_range_and_determinism():
    c = cfg(binning=Binning.VARIABLE, k=6, dim=200, seed=3)
    bins = bin_assignment(c, 0)
    assert bins.shape == (200,)
    assert bins.min() >= 0 and bins.max() < 6
    assert np.array_equal(bins, bin_assignment(c, 0))
    with pytest.raises(ValueError):
        bin_assignment(c, 1)  # m = 1, repetition out of range


def test_bin_assignment_differs_across_repetitions():
    c = cfg(m=3, seed=8)
    assignments = [bin_assignment(c, t) for t in range(3)]
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
    for t in range(3):
        perm = generate_permutation(16, derive_seed(21, t, _PERM))
        r = generate_projection_vector(16, gaussian(), derive_seed(21, t, _PROJ))
        positions = np.empty(16, dtype=np.int64)
        positions[perm] = np.arange(16)
        expected = np.bincount(
            bins_from_permutation(perm, 4), weights=u * r[positions], minlength=4
        )
        assert np.allclose(sk.rep(t), expected, rtol=0, atol=1e-12)


def test_oporp_matches_reconstruction_variable():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(30)
    c = SketchConfig(dim=30, k=7, binning=Binning.VARIABLE, dist=rademacher(), m=2, seed=5)
    sk = oporp_sketch(u, c)
    for t in range(2):
        bins = generator(derive_seed(5, t, _BINS)).integers(0, 7, size=30)
        r = generate_projection_vector(30, rademacher(), derive_seed(5, t, _PROJ))
        expected = np.bincount(bins, weights=u * r, minlength=7)
        assert np.allclose(sk.rep(t), expected, rtol=0, atol=1e-12)


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
        assert np.array_equal(sk.rep(t), sk.values[t * 4 : (t + 1) * 4])


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
            SketchPlan(vsrp_config(16, 4, 2.0, 0), "vsrp").apply(M)


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
    [(24, 6, Binning.FIXED), (23, 6, Binning.FIXED), (23, 6, Binning.VARIABLE)],
    ids=["fixed", "fixed-padded", "variable"],
)
def test_plan_is_bit_identical_to_per_row_sketches(monkeypatch, dim, k, binning, m, dist):
    # 30 elements per block: one row per block, so 7 rows span 7 blocks
    monkeypatch.setattr(oporp.sketch, "_BLOCK_ELEMENTS", 30)
    M = np.random.default_rng(15).standard_normal((7, dim))
    config = SketchConfig(dim=dim, k=k, binning=binning, dist=dist, m=m, seed=41)
    rows = [oporp_sketch(u, config) for u in M]
    assert np.array_equal(SketchPlan(config).apply(M), np.stack([sk.values for sk in rows]))
    assert np.array_equal(row_norms(M), [sk.stored_norm for sk in rows])
    assert np.array_equal(row_norms(M), [np.linalg.norm(u) for u in M])


@pytest.mark.parametrize("s", (1.0, 3.0))
def test_vsrp_plan_is_bit_identical_to_per_row_sketches(s):
    M = np.random.default_rng(16).standard_normal((9, 40))
    rows = [vsrp_sketch(u, 40, 12, s, 8) for u in M]
    plan = SketchPlan(vsrp_config(40, 12, s, 8), "vsrp")
    assert np.array_equal(plan.apply(M), np.stack([sk.values for sk in rows]))
    assert np.array_equal(row_norms(M), [sk.stored_norm for sk in rows])
    # the one-vector path is the plain matrix product u @ R on the vsrp stream
    R = np.zeros((40, 12))
    draws = generator(derive_seed(8, _VSRP)).random((40, 12))
    R[draws < 0.5 / s] = -np.sqrt(s)
    R[draws >= 1.0 - 0.5 / s] = np.sqrt(s)
    assert np.array_equal(np.stack([u @ R for u in M]), plan.apply(M))


def test_plan_validation():
    with pytest.raises(ValueError):
        SketchPlan(cfg(), "vsrp")  # a vsrp plan needs the (k=1, m=samples) config
    with pytest.raises(ValueError):
        SketchPlan(cfg(), "dense")
    with pytest.raises(ValueError):
        SketchPlan(cfg()).apply(np.zeros((3, 15)))
    with pytest.raises(ValueError):
        SketchPlan(cfg()).apply(np.zeros(16))
    assert SketchPlan(cfg(m=2)).apply(np.zeros((0, 16))).shape == (0, 8)


# --- the plan cache -------------------------------------------------------------


def plan_arrays(plan):
    if plan.flavor == "vsrp":
        return [plan._projection]
    return [*plan._indices, *plan._multipliers]


CACHE_CASES = [
    (cfg(), "oporp"),
    (cfg(dim=23, k=6, binning=Binning.VARIABLE, dist=gaussian(), m=3, seed=4), "oporp"),
    (vsrp_config(16, 8, 3.0, 2), "vsrp"),
]


def sketch_through_cache(u, config, flavor):
    if flavor == "vsrp":
        return vsrp_sketch(u, config.dim, config.m, config.dist.sparsity, config.seed)
    return oporp_sketch(u, config)


@pytest.mark.parametrize("config, flavor", CACHE_CASES, ids=["fixed", "variable", "vsrp"])
def test_warm_cache_sketch_equals_cold_one(config, flavor):
    u = np.random.default_rng(21).standard_normal(config.dim)
    _plan.cache_clear()
    cold = sketch_through_cache(u, config, flavor)
    warm = sketch_through_cache(u, config, flavor)
    assert _plan.cache_info()[:2] == (1, 1)
    assert np.array_equal(cold.values, warm.values)
    assert np.array_equal(warm.values, SketchPlan(config, flavor).sketch(u).values)


def test_equal_configs_hit_and_others_miss():
    u = np.random.default_rng(22).standard_normal(16)
    _plan.cache_clear()
    a = oporp_sketch(u, cfg(dist=sparse(3)))
    b = oporp_sketch(u, cfg(dist=ProjectionDistribution(ProjectionKind.SPARSE, 3)))
    assert _plan.cache_info()[:2] == (1, 1)
    assert np.array_equal(a.values, b.values)
    oporp_sketch(u, cfg(dist=sparse(3.0), seed=1))
    assert _plan.cache_info()[:2] == (1, 2)
    # the same config as another flavor is another plan
    config = vsrp_config(16, 4, 3.0, 0)
    assert _plan(config, "oporp") is not _plan(config, "vsrp")
    assert _plan.cache_info()[:2] == (1, 4)


def test_sketch_keeps_the_callers_config():
    u = np.random.default_rng(23).standard_normal(16)
    _plan.cache_clear()
    oporp_sketch(u, cfg(dim=16.0))
    config = cfg()
    sk = oporp_sketch(u, config)
    assert _plan.cache_info().hits == 1 and sk.config is config


def test_cache_never_exceeds_its_size():
    assert _plan.cache_info().maxsize == oporp.sketch._PLAN_CACHE_SIZE == 2
    u = np.ones(16)
    for seed in range(5):
        oporp_sketch(u, cfg(seed=seed))
        vsrp_sketch(u, 16, 4, 1.0, seed)
        assert _plan.cache_info().currsize <= 2


@pytest.mark.parametrize("config, flavor", CACHE_CASES, ids=["fixed", "variable", "vsrp"])
def test_plan_arrays_are_read_only(config, flavor):
    for plan in (_plan(config, flavor), SketchPlan(config, flavor)):
        for array in plan_arrays(plan):
            with pytest.raises(ValueError):
                array[0] = 1


def test_sketches_from_one_cached_plan_do_not_alias():
    u = np.random.default_rng(24).standard_normal(16)
    _plan.cache_clear()
    a = oporp_sketch(u, cfg(m=2))
    b = oporp_sketch(u, cfg(m=2))
    assert not np.shares_memory(a.values, b.values)
    a.values[:] = 0.0
    assert np.array_equal(b.values, SketchPlan(cfg(m=2)).sketch(u).values)
    assert np.array_equal(oporp_sketch(u, cfg(m=2)).values, b.values)


def test_every_entry_point_shares_the_cached_plan():
    u = np.random.default_rng(25).uniform(-1.0, 1.0, 16)
    config = cfg()
    _plan.cache_clear()
    oporp_sketch(u, config)
    dp_oporp(u, config, PrivacySpec(1.0, 1e-6, 1.0))
    dp_sign_oporp_rr(u, config, 1.0)
    dp_sign_oporp_rr_smooth(u, config, 1.0, 0.5)
    similarity_matrix(u[None, :], u[None, :], config, "cosine")
    assert _plan.cache_info()[:2] == (4, 1)


def test_default_dp_noise_is_fresh_on_a_cached_plan(tmp_path, capsys):
    path = tmp_path / "bounded.csv"
    np.savetxt(path, np.random.default_rng(26).uniform(-1.0, 1.0, (2, 64)), delimiter=",")
    _plan.cache_clear()
    releases = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.sk"
        assert cli.run([
            "dp", "--input", str(path), "--k", "16", "--mechanism", "gaussian",
            "--epsilon", "1.0", "--delta", "1e-6", "--out", str(out),
        ]) == 0
        releases.append(out.read_bytes())
    capsys.readouterr()
    assert _plan.cache_info()[:2] == (1, 1)
    assert releases[0] != releases[1]


def test_vsrp_matches_manual_matrix():
    u = np.random.default_rng(8).standard_normal(24)
    s, k, seed = 4.0, 6, 31
    sk = vsrp_sketch(u, 24, k, s, seed)
    assert sk.flavor == "vsrp"
    assert sk.config.k == 1 and sk.config.m == k
    draws = generator(derive_seed(seed, _VSRP)).random((24, k))
    R = np.zeros((24, k))
    R[draws < 0.5 / s] = -np.sqrt(s)
    R[draws >= 1.0 - 0.5 / s] = np.sqrt(s)
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


def test_normalize_sketch_unit_blocks():
    u = np.random.default_rng(10).standard_normal(16)
    sk = normalize_sketch(oporp_sketch(u, cfg(m=4, seed=6)))
    assert np.allclose(np.linalg.norm(sk.reps, axis=1), 1.0, atol=1e-12)


def test_normalize_zero_sketch_raises():
    sk = oporp_sketch(np.zeros(16), cfg())
    with pytest.raises(ZeroNormError):
        normalize_sketch(sk)


def test_check_compatible():
    u = np.random.default_rng(11).standard_normal(16)
    a = oporp_sketch(u, cfg(seed=1))
    b = oporp_sketch(u, cfg(seed=2))
    with pytest.raises(SketchMismatchError):
        check_compatible(a, b)
    c = vsrp_sketch(u, 16, 4, 1.0, 1)
    d = Sketch(c.values, c.config, "oporp", c.stored_norm)
    with pytest.raises(SketchMismatchError):
        check_compatible(c, d)
    check_compatible(a, oporp_sketch(2 * u, cfg(seed=1)))


def test_with_seed():
    c = with_seed(cfg(seed=1), 99)
    assert c.seed == 99 and c.k == 4


# --- file format --------------------------------------------------------------


def test_value_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    u = rng.standard_normal(20)
    for sk in [
        oporp_sketch(u, SketchConfig(dim=20, k=5, binning=Binning.VARIABLE, dist=sparse(3.0), m=2, seed=17)),
        vsrp_sketch(u, 20, 9, 5.0, 23),
        Sketch(rng.standard_normal(4), cfg(dim=8, k=4, seed=2), "oporp", None),
    ]:
        path = tmp_path / "sk.bin"
        save_sketch(str(path), sk)
        back = load_sketch(str(path))
        assert np.array_equal(back.values, sk.values)
        assert back.config == sk.config
        assert back.flavor == sk.flavor
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


def test_sign_save_rejects_non_sign_values(tmp_path):
    with pytest.raises(ValueError):
        save_sign_sketch(str(tmp_path / "x"), np.array([1, 0, -1]), cfg(dim=8, k=3))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sketch_file_is_rejected(tmp_path, bad):
    u = np.random.default_rng(15).standard_normal(16)
    sk = oporp_sketch(u, cfg(seed=5))
    values = sk.values.copy()
    values[1] = bad
    path = tmp_path / "bad.bin"
    save_sketch(str(path), Sketch(values, sk.config, sk.flavor, sk.stored_norm))
    with pytest.raises(SketchFileError):
        load_sketch(str(path))
    save_sketch(str(path), Sketch(sk.values, sk.config, sk.flavor, float(bad)))
    with pytest.raises(SketchFileError):
        load_sketch(str(path))


def test_payload_kind_is_enforced(tmp_path):
    u = np.random.default_rng(14).standard_normal(16)
    vpath, spath = tmp_path / "v.bin", tmp_path / "s.bin"
    save_sketch(str(vpath), oporp_sketch(u, cfg(seed=4)))
    save_sign_sketch(str(spath), np.array([1, -1, 1, -1], dtype=np.int8), cfg(seed=4))
    with pytest.raises(SketchFileError):
        load_sign_sketch(str(vpath))
    with pytest.raises(SketchFileError):
        load_sketch(str(spath))
