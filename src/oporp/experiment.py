"""Monte-Carlo validation sweeps plus retrieval and classification harnesses.

The sweep measures empirical MSE/bias of each estimator over many
independent sketch trials and reports the matching closed-form variance
next to it. Trials are drawn batch-wise from one derived counter-based
stream per sweep cell with a fixed trial-major layout and fixed internal
chunk sizes, so a given (inputs, seed) always produces bit-identical rows;
the batch kernels are distribution-identical to the per-call sketch path
(cross-checked in the test suite). VSRP cells with s > 1 draw only the
nonzero projection entries (geometric gaps, one sign bit each), so their
rows differ from those of the earlier dense draw; s = 1 cells still draw
dense signs and keep their rows, and sketches and sketch files are not
affected. The ``mle_inner`` cubic is solved in closed form for every trial
of a chunk at once (:func:`~oporp.estimate.likelihood_roots`).

A chunk's draws are its only chunk-sized arrays. The OPORP products and
their bin sums go through the shared block kernel
(:func:`~oporp.sketch._bin_sums`) and the VSRP gather and segmented sums run
over blocks of whole samples; blocks never change a result, while
``_CHUNK_ELEMENTS`` fixes the draws and so the rows.

The retrieval and classification harnesses sketch through one
:class:`~oporp.sketch.SketchPlan` per config, the cached one that
``oporp_sketch`` and ``vsrp_sketch`` use: base and query rows share one
draw of the permutations and projections (as the paper's scheme requires),
drawn once per config rather than once per row, and each row's sketch is
bit-identical to ``oporp_sketch`` or ``vsrp_sketch`` of that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import variance as var
from .estimate import Estimator, likelihood_roots
from .projection import (
    ProjectionDistribution,
    ProjectionKind,
    derive_seed,
    draw_multipliers,
    gaussian,
    generator,
    rademacher,
    scaled_uniform,
    sparse,
)
from .sketch import (
    Binning,
    SketchConfig,
    SketchPlan,
    ZeroNormError,
    _bin_sums,
    _block_rows,
    _check_finite,
    _padded_dim,
    _plan,
    row_norms,
    vsrp_config,
)

# Stream tags for sub-seed derivation.
_PAIR = 0
_CELL = 1
_DATA = 2

# Target entries per sweep chunk of draws; fixed, because the rows depend on it.
_CHUNK_ELEMENTS = 4_000_000

# Target int64 entries per block of the sweep's permutation shuffle; no
# result depends on it.
_SHUFFLE_ELEMENTS = 1 << 16

_OPORP_ESTIMATORS = ("inner", "distance", "cosine", "normalized_inner", "mle_inner")
_VSRP_ESTIMATORS = ("vsrp_inner", "vsrp_cosine")


class ConvergenceError(RuntimeError):
    """An iterative search exhausted its attempt budget."""


@dataclass(frozen=True)
class SweepRow:
    """One (estimator, k) cell of a Monte-Carlo sweep.

    ``scheme`` is the binning scheme for OPORP estimators and "" for the
    VSRP ones, which have no binning.
    """

    estimator: str
    scheme: str
    k: int
    s: float
    trials: int
    empirical_mse: float
    empirical_bias: float
    theoretical_var: float


@dataclass(frozen=True)
class PRPoint:
    """Averaged precision/recall after walking one more candidate."""

    recall: float
    precision: float


def generate_pair_with_cosine(
    D: int, rho_target: float, tol: float, seed: int, max_attempts: int = 10_000
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm pair whose empirical cosine is within tol of rho_target.

    Draws correlated Gaussian pairs (v_raw = rho*u_raw + sqrt(1-rho^2)*w)
    and regenerates until the realized cosine lands inside the tolerance.
    """
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    if not -1.0 <= rho_target <= 1.0:
        raise ValueError(f"rho_target must be in [-1, 1], got {rho_target}")
    if tol <= 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rng = generator(derive_seed(seed, _PAIR))
    mix = math.sqrt(max(0.0, 1.0 - rho_target * rho_target))
    for _ in range(max_attempts):
        u = rng.standard_normal(D)
        w = rng.standard_normal(D)
        v = rho_target * u + mix * w
        ssu = float(np.dot(u, u))
        ssv = float(np.dot(v, v))
        if ssu == 0.0 or ssv == 0.0:
            continue
        cos = float(np.dot(u, v)) / math.sqrt(ssu * ssv)
        if abs(cos - rho_target) <= tol:
            return u / math.sqrt(ssu), v / math.sqrt(ssv)
    raise ConvergenceError(
        f"no pair with cosine {rho_target}+-{tol} in {max_attempts} attempts"
    )


def distribution_for_moment(s: float) -> ProjectionDistribution:
    """Concrete multiplier distribution realizing fourth moment s."""
    if s == 1.0:
        return rademacher()
    if s == 3.0:
        return gaussian()
    if abs(s - 1.8) <= 1e-12:
        return scaled_uniform()
    return sparse(s)


def _permutation_rows(rng: np.random.Generator, c: int, Dp: int) -> np.ndarray:
    """(c, Dp) int32 rows, each a permutation of range(Dp), drawn in row order.

    numpy shuffles 8-byte items on a fast path, so blocks of rows are
    shuffled as int64 and stored as int32: the same draws, and the same
    stream position after, as shuffling one int32 tile along its rows.
    """
    index = np.empty((c, Dp), dtype=np.int32)
    step = max(1, min(c, _SHUFFLE_ELEMENTS // Dp))
    shuffle = np.empty((step, Dp), dtype=np.int64)
    identity = np.arange(Dp)
    for lo in range(0, c, step):
        perms = shuffle[: min(step, c - lo)]
        perms[:] = identity
        rng.permuted(perms, axis=1, out=perms)
        index[lo : lo + perms.shape[0]] = perms
    return index


def _oporp_chunk(
    u_pad: np.ndarray,
    v_pad: np.ndarray,
    k: int,
    dist: ProjectionDistribution,
    scheme: Binning,
    c: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """c independent single-repetition sketch pairs, shapes (c, k).

    Only the draws are (c, Dp): one permutation (fixed binning) or bin-index
    row (variable binning) and one multiplier row per trial. The sketches
    are summed block by block through one buffer.
    """
    Dp = u_pad.shape[0]
    fixed = scheme is Binning.FIXED
    if fixed:
        index = _permutation_rows(rng, c, Dp)
    else:
        index = rng.integers(0, k, size=(c, Dp), dtype=np.int32)
    R = draw_multipliers(rng, (c, Dp), dist)
    X = np.empty((c, k))
    Y = np.empty((c, k))
    rows = _block_rows(Dp, c)
    buf = np.empty((rows, Dp))
    for lo in range(0, c, rows):
        b = slice(lo, lo + rows)
        block = buf[: min(rows, c - lo)]
        X[b] = _bin_sums(block, u_pad, R[b], index[b], k, fixed)
        Y[b] = _bin_sums(block, v_pad, R[b], index[b], k, fixed)
    return X, Y


def _vsrp_chunk(
    u: np.ndarray, v: np.ndarray, k: int, s: float, c: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """c independent k-sample sparse-projection pairs, shapes (c, k).

    For s > 1 only the nonzero entries of the flattened (c, k, D) projection
    are drawn: geometric gaps between them by inversion, one sign bit each,
    then one segmented sum per sample (Li, Hastie and Church, KDD 2006),
    gathered and summed over blocks of whole samples.
    """
    D = u.shape[0]
    if s == 1.0:
        R = draw_multipliers(rng, (c, k, D), rademacher())
        return R @ u, R @ v
    samples = c * k
    total = samples * D
    expected = total / s
    scale = 1.0 / math.log1p(-1.0 / s)
    # Geometric(1/s) gaps between nonzeros by inversion (the quotient is
    # >= 0, so the integer cast is the floor), drawn in batches until the
    # positions run past the end of the flattened cell array.
    batches = []
    end = -1
    while end < total - 1:
        draws = rng.random(int(expected + 6.0 * math.sqrt(expected) + 16.0))
        np.negative(draws, out=draws)
        np.log1p(draws, out=draws)
        draws *= scale
        pos = draws.astype(np.int64)
        del draws
        pos += 1
        np.cumsum(pos, out=pos)
        pos += end
        batches.append(pos)
        end = int(pos[-1])
    pos = batches[0] if len(batches) == 1 else np.concatenate(batches)
    n = int(np.searchsorted(pos, total))
    pos = pos[:n]
    starts = np.searchsorted(pos, D * np.arange(samples))
    # Row 2i (2i + 1) of the table holds +(u_i, v_i) (its negation); one
    # sign bit per nonzero picks the row.
    table = np.stack([u, v], axis=1)
    table = np.stack([table, -table], axis=1).reshape(2 * D, 2)
    rows = np.remainder(pos, D, out=pos)
    rows <<= 1
    rows += np.unpackbits(np.frombuffer(rng.bytes((n + 7) // 8), dtype=np.uint8), count=n)
    bounds = np.append(starts, n)
    sums = np.zeros((samples, 2))
    # A sample gathers about 2D/s table entries.
    block = _block_rows(math.ceil(2 * D / s), samples)
    for lo in range(0, samples, block):
        hi = min(lo + block, samples)
        first, last = bounds[lo], bounds[hi]
        if first == last:
            continue
        filled = bounds[lo:hi] < bounds[lo + 1 : hi + 1]
        W = np.take(table, rows[first:last], axis=0)
        sums[lo:hi][filled] = (
            np.add.reduceat(W, bounds[lo:hi][filled] - first, axis=0) * math.sqrt(s)
        )
    return sums[:, 0].reshape(c, k), sums[:, 1].reshape(c, k)


def _normalize_names(estimators) -> list[str]:
    names = []
    for est in estimators:
        name = est.value if isinstance(est, Estimator) else str(est)
        if name not in _OPORP_ESTIMATORS and name not in _VSRP_ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
        names.append(name)
    if not names:
        raise ValueError("need at least one estimator")
    return names


def _theoretical(stats: var.PairStatistics, name: str, k: int, s: float, scheme: Binning) -> float:
    if name == "inner":
        return var.var_inner(stats, k, s, scheme)
    if name == "distance":
        return var.var_distance(stats, k, s, scheme)
    if name == "cosine":
        return var.var_cosine(stats, k, s, scheme)
    if name == "normalized_inner":
        return var.var_normalized_inner(stats, k, s, scheme)
    if name == "vsrp_inner":
        return var.var_inner_vsrp(stats, k, s)
    if name == "vsrp_cosine":
        return var.var_cosine_vsrp(stats, k, s)
    return math.nan  # mle_inner has no closed form here


def mse_sweep(
    u: np.ndarray,
    v: np.ndarray,
    k_list,
    s: float,
    scheme,
    estimators,
    trials: int,
    seed: int,
) -> list[SweepRow]:
    """Empirical MSE/bias against the variance oracles over a k sweep.

    OPORP estimators use the multiplier distribution realizing fourth
    moment s (Rademacher for 1, Gaussian for 3, scaled uniform for 9/5,
    sparse otherwise); the VSRP estimators always use sparse(s) columns,
    with k meaning the number of samples. Deterministic: the rows are a pure
    function of the inputs, the seed and the fixed ``_CHUNK_ELEMENTS``
    (a cell's trials are drawn from one stream in chunks of that size, so
    another chunk size gives other rows).
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    scheme = Binning(scheme) if not isinstance(scheme, Binning) else scheme
    names = _normalize_names(estimators)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    stats = var.pair_statistics(u, v)
    D = stats.dim
    dist = distribution_for_moment(s)
    norm_u = math.sqrt(stats.sumsq_u)
    norm_v = math.sqrt(stats.sumsq_v)
    oporp_names = [n for n in names if n in _OPORP_ESTIMATORS]
    vsrp_names = [n for n in names if n in _VSRP_ESTIMATORS]
    truths = {
        "inner": stats.a,
        "distance": stats.d,
        "cosine": stats.rho,
        "normalized_inner": stats.a,
        "mle_inner": stats.a,
        "vsrp_inner": stats.a,
        "vsrp_cosine": stats.rho,
    }

    rows: list[SweepRow] = []
    for k in k_list:
        k = int(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if oporp_names and scheme is Binning.FIXED and k > D:
            raise ValueError(f"fixed-length binning needs k <= D, got k={k}, D={D}")
        estimates: dict[str, np.ndarray] = {n: np.empty(trials) for n in names}

        if oporp_names:
            Dp = _padded_dim(D, k, scheme)
            u_pad = np.zeros(Dp)
            u_pad[:D] = u
            v_pad = np.zeros(Dp)
            v_pad[:D] = v
            rng = generator(derive_seed(seed, _CELL, k, 0))
            chunk = max(1, _CHUNK_ELEMENTS // Dp)
            need_norms = any(
                n in ("cosine", "normalized_inner", "mle_inner") for n in oporp_names
            )
            need_cosines = any(n in ("cosine", "normalized_inner") for n in oporp_names)
            pos = 0
            while pos < trials:
                c = min(chunk, trials - pos)
                X, Y = _oporp_chunk(u_pad, v_pad, k, dist, scheme, c, rng)
                sl = slice(pos, pos + c)
                dots = np.einsum("ij,ij->i", X, Y)
                if need_norms:
                    sxx = np.einsum("ij,ij->i", X, X)
                    syy = np.einsum("ij,ij->i", Y, Y)
                if need_cosines:
                    denom = np.sqrt(sxx * syy)
                    if np.any(denom == 0.0):
                        raise ZeroNormError(
                            "a trial produced a zero-norm sketch; the cosine "
                            "estimate is undefined there"
                        )
                    cosines = np.clip(dots / denom, -1.0, 1.0)
                for n in oporp_names:
                    if n == "inner":
                        estimates[n][sl] = dots
                    elif n == "distance":
                        diff = X - Y
                        estimates[n][sl] = np.einsum("ij,ij->i", diff, diff)
                    elif n == "cosine":
                        estimates[n][sl] = cosines
                    elif n == "normalized_inner":
                        estimates[n][sl] = cosines * (norm_u * norm_v)
                    else:
                        estimates[n][sl] = likelihood_roots(
                            dots, sxx, syy, stats.sumsq_u, stats.sumsq_v
                        )
                pos += c

        if vsrp_names:
            rng = generator(derive_seed(seed, _CELL, k, 1))
            if s == 1.0:
                chunk = max(1, _CHUNK_ELEMENTS // (D * k))
            else:
                # About _CHUNK_ELEMENTS / 4 expected nonzeros per chunk.
                chunk = max(1, int(_CHUNK_ELEMENTS * s) // (4 * D * k))
            pos = 0
            while pos < trials:
                c = min(chunk, trials - pos)
                X, Y = _vsrp_chunk(u, v, k, s, c, rng)
                sl = slice(pos, pos + c)
                dots = np.einsum("ij,ij->i", X, Y)
                for n in vsrp_names:
                    if n == "vsrp_inner":
                        estimates[n][sl] = dots / k
                    else:
                        sxx = np.einsum("ij,ij->i", X, X)
                        syy = np.einsum("ij,ij->i", Y, Y)
                        denom = np.sqrt(sxx * syy)
                        if np.any(denom == 0.0):
                            raise ZeroNormError(
                                "a trial produced a zero-norm sketch; the "
                                "cosine estimate is undefined there"
                            )
                        estimates[n][sl] = np.clip(dots / denom, -1.0, 1.0)
                pos += c

        for n in names:
            err = estimates[n] - truths[n]
            rows.append(
                SweepRow(
                    estimator=n,
                    scheme="" if n in _VSRP_ESTIMATORS else scheme.value,
                    k=k,
                    s=float(s),
                    trials=trials,
                    empirical_mse=float(np.mean(err * err)),
                    empirical_bias=float(np.mean(err)),
                    theoretical_var=_theoretical(stats, n, k, s, scheme),
                )
            )
    return rows


# --- retrieval and classification -------------------------------------------


def _unit_rows(M: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError(f"{what} contains a zero vector")
    return M / norms[:, None]


def _vsrp_plan(config: SketchConfig) -> SketchPlan:
    """One VSRP plan with k*m samples, on the stream vsrp_sketch uses for them."""
    if config.dist.kind not in (ProjectionKind.SPARSE, ProjectionKind.RADEMACHER):
        raise ValueError("vsrp estimators need a sparse or Rademacher distribution")
    samples = config.k * config.m
    return _plan(vsrp_config(config.dim, samples, config.dist.sparsity, config.seed), "vsrp")


def _block_normalize(values: np.ndarray, m: int, k: int, what: str) -> np.ndarray:
    blocks = values.reshape(values.shape[0], m, k)
    norms = np.linalg.norm(blocks, axis=2)
    if np.any(norms == 0.0):
        raise ZeroNormError(f"a {what} sketch repetition has zero norm")
    return (blocks / norms[:, :, None]).reshape(values.shape[0], m * k)


def similarity_matrix(
    base: np.ndarray, queries: np.ndarray, config: SketchConfig, estimator
) -> np.ndarray:
    """(n_queries, n_base) matrix of estimated similarities (bigger = closer).

    ``exact`` scores by true cosine; the sketch estimators score from one
    shared-randomness sketch per row. ``distance`` scores by negated
    squared-distance estimates. mle_inner is not supported here.
    """
    base = np.asarray(base, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if base.ndim != 2 or queries.ndim != 2 or base.shape[1] != queries.shape[1]:
        raise ValueError("base and queries must be 2-d with matching width")
    if base.shape[1] != config.dim:
        raise ValueError(
            f"config.dim={config.dim} does not match data width {base.shape[1]}"
        )
    name = estimator.value if isinstance(estimator, Estimator) else str(estimator)
    if name == "exact":
        _check_finite(base)
        _check_finite(queries)
        return _unit_rows(queries, "queries") @ _unit_rows(base, "base").T
    if name in ("vsrp_inner", "vsrp_cosine"):
        plan = _vsrp_plan(config)
        VB, VQ = plan.apply(base), plan.apply(queries)
        if name == "vsrp_inner":
            return (VQ @ VB.T) / VB.shape[1]
        return _unit_rows(VQ, "query sketch") @ _unit_rows(VB, "base sketch").T
    if name not in ("inner", "distance", "cosine", "normalized_inner"):
        raise ValueError(f"estimator {name!r} is not supported for retrieval")
    plan = _plan(config, "oporp")
    SB, SQ = plan.apply(base), plan.apply(queries)
    m, k = config.m, config.k
    if name == "inner":
        return (SQ @ SB.T) / m
    if name == "distance":
        sq = np.einsum("ij,ij->i", SQ, SQ)
        sb = np.einsum("ij,ij->i", SB, SB)
        return -(sq[:, None] + sb[None, :] - 2.0 * SQ @ SB.T) / m
    QN = _block_normalize(SQ, m, k, "query")
    BN = _block_normalize(SB, m, k, "base")
    cosines = (QN @ BN.T) / m
    if name == "cosine":
        return cosines
    return cosines * (row_norms(queries)[:, None] * row_norms(base)[None, :])


def _ranked(scores: np.ndarray) -> np.ndarray:
    """Candidate indices per query, best first, ties broken by smaller index."""
    return np.argsort(-scores, axis=1, kind="stable")


def retrieval_eval(
    base: np.ndarray,
    queries: np.ndarray,
    config: SketchConfig,
    estimator,
    top_n: int,
) -> list[PRPoint]:
    """Precision/recall against the exact-cosine top-``top_n`` gold sets.

    Walks each query's estimated ranking one candidate at a time, recording
    precision and recall at every depth, then averages across queries at
    fixed depth. Returns one PRPoint per depth (n_base points).
    """
    base = np.asarray(base, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    n = base.shape[0]
    if not 1 <= top_n <= n:
        raise ValueError(f"top_n must be in [1, {n}], got {top_n}")
    exact = similarity_matrix(base, queries, config, "exact")
    gold_idx = _ranked(exact)[:, :top_n]
    in_gold = np.zeros(exact.shape, dtype=bool)
    np.put_along_axis(in_gold, gold_idx, True, axis=1)
    scores = similarity_matrix(base, queries, config, estimator)
    order = _ranked(scores)
    hits = np.cumsum(np.take_along_axis(in_gold, order, axis=1), axis=1)
    depths = np.arange(1, n + 1)
    precision = (hits / depths).mean(axis=0)
    recall = (hits / top_n).mean(axis=0)
    return [PRPoint(float(r), float(p)) for r, p in zip(recall, precision)]


def area_under_pr(points: list[PRPoint]) -> float:
    """Trapezoidal area under a walked PR curve, anchored at recall 0."""
    recall = np.array([0.0] + [p.recall for p in points])
    precision = np.array([points[0].precision] + [p.precision for p in points])
    return float(np.sum(np.diff(recall) * 0.5 * (precision[1:] + precision[:-1])))


def knn_eval(
    train: np.ndarray,
    train_labels: np.ndarray,
    test: np.ndarray,
    test_labels: np.ndarray,
    K: int,
    config: SketchConfig,
    estimator,
) -> float:
    """Accuracy of K-nearest-neighbor majority vote under estimated similarity.

    Neighbor ties break toward the smaller base index and vote ties toward
    the smaller label.
    """
    train = np.asarray(train, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    if train_labels.shape[0] != train.shape[0] or test_labels.shape[0] != test.shape[0]:
        raise ValueError("labels must align with their data rows")
    if not np.issubdtype(train_labels.dtype, np.integer) or np.any(train_labels < 0):
        raise ValueError("labels must be nonnegative integers")
    if not 1 <= K <= train.shape[0]:
        raise ValueError(f"K must be in [1, {train.shape[0]}], got {K}")
    scores = similarity_matrix(train, test, config, estimator)
    neighbors = _ranked(scores)[:, :K]
    predictions = np.empty(test.shape[0], dtype=train_labels.dtype)
    for i in range(test.shape[0]):
        predictions[i] = np.argmax(np.bincount(train_labels[neighbors[i]]))
    return float(np.mean(predictions == test_labels))


def make_clusters(
    D: int,
    n_points: int,
    n_clusters: int,
    noise: float,
    seed: int,
    norm_range: tuple[float, float] = (1.0, 1.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Clustered points around random unit centers; labels cycle round-robin.

    Directions are unit vectors; ``norm_range`` then scales each point by a
    uniform random length, giving a corpus whose cosines and inner products
    genuinely differ (lengths vary in most real retrieval data).
    """
    if n_clusters < 1 or n_points < 1 or D < 2:
        raise ValueError("need D >= 2, n_points >= 1, n_clusters >= 1")
    lo, hi = norm_range
    if not 0.0 < lo <= hi:
        raise ValueError(f"norm_range must satisfy 0 < lo <= hi, got {norm_range}")
    rng = generator(derive_seed(seed, _DATA))
    centers = _unit_rows(rng.standard_normal((n_clusters, D)), "centers")
    labels = np.arange(n_points, dtype=np.int64) % n_clusters
    points = _unit_rows(centers[labels] + noise * rng.standard_normal((n_points, D)), "points")
    if lo < hi:
        points = points * rng.uniform(lo, hi, n_points)[:, None]
    elif lo != 1.0:
        points = points * lo
    return points, labels
