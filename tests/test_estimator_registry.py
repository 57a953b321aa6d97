"""The estimator registry: one entry per Estimator, its invariants, pinned outputs.

Every estimate goes through one kernel over per-repetition pair sums, so
the properties below are checked once per registry entry: symmetry in the
two sketches, cosine-type values in [-1, 1], exact recovery at k = D with
fixed binning and Rademacher multipliers, and positive-scale equivariance.
Scales are powers of two, so a scaled sketch is exact and the equivariance
holds bit for bit. The pinned outputs are frozen-seed estimates recorded
under sketch format version 3, one SFC64 generator per plan, and held
under version 4: every pinned fixed-binning config has bins of 5
entries, which numpy's pairwise sum (version 3) adds left to right as
well (version 4). The VSRP ones are re-pinned under version 5, which
draws a VSRP sketch as the k = 1 OPORP sketch it is.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oporp import cli
from oporp.estimate import (
    _REGISTRY,
    Estimator,
    _estimate,
    _pair_sums,
    cosine_hat,
    distance_hat,
    inner_product_hat,
    likelihood_roots,
    mle_inner_product,
    vsrp_cosine_hat,
    vsrp_inner_product_hat,
)
from oporp.projection import derive_seed, gaussian, rademacher, sparse
from oporp.sketch import (
    Binning,
    SketchConfig,
    SketchMismatchError,
    ZeroNormError,
    oporp_sketch,
    vsrp_sketch,
)
from oporp.variance import pair_statistics

ALL = list(Estimator)
OPORP = [est for est in Estimator if not _REGISTRY[est].pooled]
# The estimators that normalize by the sketch norms: a one-bin cosine is a sign.
ONE_BIN_REFUSED = {Estimator.COSINE, Estimator.NORMALIZED_INNER, Estimator.MLE_INNER}


def test_registry_covers_every_estimator():
    assert set(_REGISTRY) == set(Estimator)
    assert {est for est, entry in _REGISTRY.items() if entry.pooled} == {
        Estimator.VSRP_INNER, Estimator.VSRP_COSINE}
    for est, entry in _REGISTRY.items():
        assert entry.truth in ("a", "d", "rho"), est


def test_cli_estimator_choices_follow_the_enum():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    names = [est.value for est in Estimator]
    for command in ("estimate", "retrieval", "knn"):
        action = next(a for a in sub.choices[command]._actions if a.dest == "estimator")
        assert list(action.choices) == (names if command == "estimate" else ["exact"] + names)


@pytest.mark.parametrize("est", ALL, ids=[e.value for e in ALL])
def test_estimators_read_only_sketches_they_read_without_bias(est):
    # a VSRP sketch is k = 1: read as one-bin repetitions, each repetition's
    # cosine is a sign, so the estimators that normalize refuse it; the
    # pooled ones read one-bin samples and refuse k > 1; inner and distance
    # read both, and at k = 1 inner equals vsrp_inner
    u, v = _pair(5, 16)
    E, F = float(u @ u), float(v @ v)
    one_bin = vsrp_sketch(u, 16, 8, 3.0, 3), vsrp_sketch(v, 16, 8, 3.0, 3)
    binned = _sketches(Estimator.INNER, u, v, 4, 2, 3)
    for (x, y), refused in ((one_bin, est in ONE_BIN_REFUSED), (binned, _REGISTRY[est].pooled)):
        if refused:
            with pytest.raises(SketchMismatchError):
                _estimate(est, x, y, E, F)
        else:
            assert math.isfinite(_estimate(est, x, y, E, F))
    assert _estimate(Estimator.INNER, *one_bin) == pytest.approx(
        _estimate(Estimator.VSRP_INNER, *one_bin), rel=1e-12)


# --- properties over every entry ----------------------------------------------------


def _pair(seed, D):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(D) * rng.uniform(0.1, 10.0)
    return u, rng.uniform(-1.0, 1.0) * u + rng.standard_normal(D)


def _sketches(est, u, v, k, m, seed, binning=Binning.VARIABLE):
    if _REGISTRY[est].pooled:
        D = u.shape[0]
        return vsrp_sketch(u, D, k * m, 1.0, seed), vsrp_sketch(v, D, k * m, 1.0, seed)
    if k == 1 and est in ONE_BIN_REFUSED:
        k = 2  # refused at k = 1 (test_estimators_read_only_sketches_they_read_without_bias)
    config = SketchConfig(dim=u.shape[0], k=k, binning=binning, dist=rademacher(), m=m, seed=seed)
    return oporp_sketch(u, config), oporp_sketch(v, config)


def _estimate_or_none(est, x, y, u, v):
    try:
        return _estimate(est, x, y, float(u @ u), float(v @ v))
    except ZeroNormError:
        return None


pairs = st.tuples(
    st.integers(0, 2**32 - 1),  # data seed
    st.integers(2, 24),  # D
    st.integers(1, 6),  # k
    st.integers(1, 3),  # m
    st.integers(0, 2**32 - 1),  # sketch seed
)


@pytest.mark.parametrize("est", ALL, ids=[e.value for e in ALL])
@settings(max_examples=60, deadline=None)
@given(case=pairs)
def test_estimates_are_symmetric(est, case):
    data_seed, D, k, m, seed = case
    u, v = _pair(data_seed, D)
    x, y = _sketches(est, u, v, k, m, seed)
    assert _estimate_or_none(est, x, y, u, v) == _estimate_or_none(est, y, x, v, u)


@pytest.mark.parametrize(
    "est", [e for e in ALL if _REGISTRY[e].truth == "rho"],
    ids=lambda e: e.value,
)
@settings(max_examples=60, deadline=None)
@given(case=pairs)
def test_cosine_estimates_lie_in_the_unit_interval(est, case):
    data_seed, D, k, m, seed = case
    u, v = _pair(data_seed, D)
    got = _estimate_or_none(est, *_sketches(est, u, v, k, m, seed), u, v)
    assume(got is not None)
    assert -1.0 <= got <= 1.0


@pytest.mark.parametrize("est", OPORP, ids=[e.value for e in OPORP])
@settings(max_examples=40, deadline=None)
@given(case=pairs)
def test_oporp_estimates_are_exact_at_k_equals_dim(est, case):
    data_seed, D, _, m, seed = case
    u, v = _pair(data_seed, D)
    x, y = _sketches(est, u, v, D, m, seed, Binning.FIXED)
    stats = pair_statistics(u, v)
    truth = getattr(stats, _REGISTRY[est].truth)
    scale = math.sqrt(stats.sumsq_u * stats.sumsq_v)
    assert _estimate(est, x, y, stats.sumsq_u, stats.sumsq_v) == pytest.approx(
        truth, rel=1e-9, abs=1e-12 * scale
    )


@pytest.mark.parametrize("est", ALL, ids=[e.value for e in ALL])
@settings(max_examples=60, deadline=None)
@given(case=pairs, a=st.integers(-20, 20), b=st.integers(-20, 20))
def test_estimates_are_positive_scale_equivariant(est, case, a, b):
    data_seed, D, k, m, seed = case
    u, v = _pair(data_seed, D)
    truth = _REGISTRY[est].truth
    if truth == "d":
        b = a  # distance scales under one common factor only
    sa, sb = 2.0**a, 2.0**b
    base = _estimate_or_none(est, *_sketches(est, u, v, k, m, seed), u, v)
    assume(base is not None)
    scaled = _estimate(est, *_sketches(est, sa * u, sb * v, k, m, seed),
                       float((sa * u) @ (sa * u)), float((sb * v) @ (sb * v)))
    factor = {"a": sa * sb, "d": sa * sa, "rho": 1.0}[truth]
    assert scaled == base * factor


# --- outputs pinned under format versions 3 to 5 ---------------------------------------

CONFIGS = {
    "fixed_m1": SketchConfig(dim=40, k=8, binning=Binning.FIXED, dist=rademacher(), m=1, seed=3),
    "fixed_m3": SketchConfig(dim=40, k=8, binning=Binning.FIXED, dist=gaussian(), m=3, seed=4),
    "variable_m2": SketchConfig(
        dim=40, k=5, binning=Binning.VARIABLE, dist=sparse(3.0), m=2, seed=5
    ),
}
VSRP = {"vsrp16_s1": (16, 1.0, 6), "vsrp200_s3": (200, 3.0, 7)}

PINNED = {
    "fixed_m1/inner": "0x1.c103fc3eda406p+4",
    "fixed_m1/distance": "0x1.595b98c6fea76p+4",
    "fixed_m1/cosine": "0x1.724c30105ea43p-1",
    "fixed_m1/normalized_inner": "0x1.db6932a01db27p+4",
    "fixed_m1/mle_inner": "0x1.e0a2f53f832f1p+4",
    "fixed_m3/inner": "0x1.13e7175d1d3d1p+4",
    "fixed_m3/distance": "0x1.797cfb55fdb50p+5",
    "fixed_m3/cosine": "0x1.08a26b611176ep-1",
    "fixed_m3/normalized_inner": "0x1.53c1090f11af3p+4",
    "fixed_m3/mle_inner": "0x1.60211574f906bp+4",
    "variable_m2/inner": "0x1.c6663019462acp+3",
    "variable_m2/distance": "0x1.33e65dba3a9abp+5",
    "variable_m2/cosine": "0x1.42a82d433365bp-1",
    "variable_m2/normalized_inner": "0x1.9e3f34be352d5p+4",
    "variable_m2/mle_inner": "0x1.76a4fe8062b89p+4",
    "vsrp16_s1/vsrp_inner": "0x1.8571b3b81906ep+5",
    "vsrp16_s1/vsrp_cosine": "0x1.9e5935b486dc7p-1",
    "vsrp200_s3/vsrp_inner": "0x1.9f5deeaf73b9bp+4",
    "vsrp200_s3/vsrp_cosine": "0x1.54f594ac47ea9p-1",
    "roots/0": "0x1.63f4cbf330b72p+0",
    "roots/1": "-0x1.20b424baec644p+1",
    "roots/2": "0x1.3495f9674809cp+1",
    "cli/inner": "0x1.1ca184c34a109p+4",
    "cli/distance": "0x1.2a348ca07fb91p+5",
    "cli/cosine": "0x1.1a5752ea020afp-1",
    "cli/normalized_inner": "0x1.6a7ca86d85cfcp+4",
    "cli/mle_inner": "0x1.749f493459d95p+4",
    "cli/vsrp_inner": "0x1.9f5deeaf73b9bp+4",
    "cli/vsrp_cosine": "0x1.54f594ac47ea9p-1",
}


def _pinned_pair():
    rng = np.random.default_rng(77)
    u = rng.standard_normal(40)
    return u, 0.6 * u + 0.8 * rng.standard_normal(40)


def _library_outputs():
    u, v = _pinned_pair()
    E, F = float(u @ u), float(v @ v)
    out = {}
    for name, config in CONFIGS.items():
        x, y = oporp_sketch(u, config), oporp_sketch(v, config)
        out[f"{name}/inner"] = inner_product_hat(x, y)
        out[f"{name}/distance"] = distance_hat(x, y)
        out[f"{name}/cosine"] = cosine_hat(x, y)
        out[f"{name}/normalized_inner"] = cosine_hat(x, y) * math.sqrt(E) * math.sqrt(F)
        out[f"{name}/mle_inner"] = mle_inner_product(x, y, E, F)
    for name, (n, s, seed) in VSRP.items():
        x, y = vsrp_sketch(u, 40, n, s, seed), vsrp_sketch(v, 40, n, s, seed)
        out[f"{name}/vsrp_inner"] = vsrp_inner_product_hat(x, y)
        out[f"{name}/vsrp_cosine"] = vsrp_cosine_hat(x, y)
    roots = likelihood_roots([1.0, -2.5, 0.3], [2.0, 4.0, 1.0], [3.0, 2.0, 0.5], 2.5, 3.5)
    for i, root in enumerate(roots):
        out[f"roots/{i}"] = float(root)
    return out


def _cli_outputs(tmp_path):
    u, v = _pinned_pair()
    matrix = str(tmp_path / "pair.bin")
    cli.save_matrix(matrix, np.stack([u, v]))
    runs = {
        "oporp": (["--k", "8", "--m", "3", "--seed", "6"], OPORP),
        "vsrp": (["--k", "200", "--vsrp", "--s", "3", "--seed", "7"],
                 [Estimator.VSRP_INNER, Estimator.VSRP_COSINE]),
    }
    out = {}
    for kind, (flags, estimators) in runs.items():
        files = [str(tmp_path / f"{kind}{row}.sk") for row in (0, 1)]
        with contextlib.redirect_stdout(io.StringIO()):
            for row, path in enumerate(files):
                argv = ["sketch", "--input", matrix, "--row", str(row), "--out", path, *flags]
                assert cli.run(argv) == 0
        for est in estimators:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                argv = ["estimate", "--x", files[0], "--y", files[1], "--estimator", est.value]
                assert cli.run(argv) == 0
            name, value = buf.getvalue().split()
            assert name == est.value
            out[f"cli/{est.value}"] = float(value)
    return out


def test_estimates_match_the_pinned_outputs(tmp_path):
    got = {**_library_outputs(), **_cli_outputs(tmp_path)}
    assert set(got) == set(PINNED)
    for key, want in PINNED.items():
        assert got[key] == float.fromhex(want), key


def test_vsrp_kernel_matches_the_sweep_layout():
    # a VSRP sketch is one pooled repetition: the same kernel the sweep
    # applies to a (trials, samples) chunk row
    u, v = _pinned_pair()
    x, y = vsrp_sketch(u, 40, 64, 3.0, derive_seed(8)), vsrp_sketch(v, 40, 64, 3.0, derive_seed(8))
    for est in (Estimator.VSRP_INNER, Estimator.VSRP_COSINE):
        sums = _pair_sums(np.stack([x.values, x.values]), np.stack([y.values, y.values]))
        per_row = _REGISTRY[est].kernel(sums, None, None)
        assert per_row[0] == per_row[1] == _estimate(est, x, y)
