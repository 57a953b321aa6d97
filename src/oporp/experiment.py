"""Monte-Carlo validation sweeps plus retrieval and classification harnesses.

The sweep measures empirical MSE/bias of each estimator over many
independent sketch trials and reports the matching closed-form variance
next to it. Trials are drawn batch-wise from one derived SFC64 stream
(:func:`~oporp.projection.generator`) per sweep cell for the averaging
estimators and one for the pooled (VSRP) ones, with a fixed trial-major
layout and fixed internal chunk sizes, so a given (inputs, seed) always
produces bit-identical rows. An OPORP chunk of c trials is the draw of a
sketch plan with m = c repetitions. A pooled cell of k samples, the k = 1
sketch of k repetitions, has kernels of its own that draw only what one
bin needs: with s below the fixed switch ``_DENSE_VSRP_BELOW`` one random
byte per projection entry, by the package's one sparse sampler (the dense
byte kernel), and from the switch on only the nonzero entries (geometric
gaps, one sign bit each). OPORP rows whose s picks sparse multipliers
use that sampler too. Every row changed with sketch format 3, whose
streams are SFC64 and whose Rademacher signs take one bit each.

Everything estimator-specific comes from the registry in
:mod:`oporp.estimate`: a chunk of trials is one (trials, k) array per side,
its pair sums are taken once, and each requested estimator's kernel maps
them to one estimate per trial (the likelihood cubic of every trial in one
closed-form pass); the entry's truth field and oracle fill in the row.
``similarity_matrix`` applies the same kernels to all-pairs sums, one
repetition block at a time (a pooled estimator's k*m samples as one block
of a k = 1 plan, the ``exact`` pass as the cosine kernel on the raw rows).

A chunk's draws are its only chunk-sized arrays. The OPORP products and
their bin sums go through the plan's tiled kernel
(:func:`~oporp.sketch._bin_sums`, the pair as two rows and the trials as
repetitions) and the VSRP gather and segmented sums run over blocks of
whole samples; tiles and blocks never change a result, while
``_CHUNK_ELEMENTS`` fixes the draws and so the rows. The dense VSRP kernel
splits its sign pass and its float blocks between the calling thread and
one lane thread (:func:`~oporp.projection._two_lanes`); the calling thread
alone draws, so the rows are the same bits. The bin sums and the gap
kernel stay on the calling thread.

The retrieval and classification harnesses sketch through one
:class:`~oporp.sketch.SketchPlan` per config, the cached one that
``oporp_sketch`` uses: base and query rows share one draw of the
permutations and projections (as the paper's scheme requires), drawn once
per config rather than once per row, and each row's sketch is
bit-identical to ``oporp_sketch`` of that row. A pooled estimator scores
the k*m samples of the VSRP config that stands in for a k > 1 one
(:func:`_pooled_config`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import variance as var
from .estimate import _REGISTRY, Estimator, _matrix_sums, _pair_sums
from .projection import (
    _STREAMS,
    ProjectionDistribution,
    ProjectionKind,
    _block_rows,
    _sparse_signs,
    _two_lanes,
    derive_seed,
    gaussian,
    generator,
    rademacher,
    scaled_uniform,
    sparse,
)
from .sketch import (
    Binning,
    SketchConfig,
    ZeroNormError,
    _as_matrix,
    _bin_sums,
    _oporp_draws,
    _padded_dim,
    _plan,
    row_norms,
    vsrp_config,
)

# Target entries per sweep chunk of draws; fixed, because the rows depend on it.
_CHUNK_ELEMENTS = 4_000_000

# VSRP sweep cells with s below this use the dense byte kernel, the others
# the gap kernel. With the dense kernel in two lanes, BENCH_kernels.json
# reads crossover_s = 16 (8 on one lane): at s = 10 the dense kernel took
# 46.8 ms against the gap kernel's 50.4 ms, at s = 16 47.9 against 33.1 ms.
# The switch stays at 10, because the rows depend on it.
_DENSE_VSRP_BELOW = 10.0

class ConvergenceError(RuntimeError):
    """An iterative search exhausted its attempt budget."""


@dataclass(frozen=True)
class SweepRow:
    """One (estimator, k) cell of a Monte-Carlo sweep.

    ``scheme`` is the binning scheme for the averaging estimators and "" for
    the pooled (VSRP) ones, which have no binning.
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
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rng = generator(derive_seed(seed, _STREAMS["pair"]))
    mix = math.sqrt(max(0.0, 1.0 - rho_target * rho_target))
    for _ in range(max_attempts):
        u = rng.standard_normal(D)
        w = rng.standard_normal(D)
        v = rho_target * u + mix * w
        # einsum, not BLAS (np.dot), whose sums depend on the CPU kernel it picks.
        ssu = float(np.einsum("i,i->", u, u))
        ssv = float(np.einsum("i,i->", v, v))
        if ssu == 0.0 or ssv == 0.0:
            continue
        cos = float(np.einsum("i,i->", u, v)) / math.sqrt(ssu * ssv)
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


def _oporp_chunk(
    u: np.ndarray, v: np.ndarray, k: int, dist: ProjectionDistribution, scheme: Binning, c: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """c independent single-repetition sketch pairs, shapes (c, k).

    Only the draws are chunk-sized: the draw of an m = c plan, one
    permutation (fixed binning) or bin-index row (variable binning) and one
    multiplier row per trial. The pair is sketched as the plan's kernel
    sketches two rows.
    """
    fixed = scheme is Binning.FIXED
    index, R = _oporp_draws(rng, c, _padded_dim(u.shape[0], k, scheme), k, dist, fixed)
    X, Y = _bin_sums(np.stack([u, v]), index, R, k, fixed)
    return X.reshape(c, k), Y.reshape(c, k)


def _vsrp_dense(
    u: np.ndarray, v: np.ndarray, k: int, s: float, c: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """c k-sample VSRP pairs, shapes (c, k), from one random byte per (sample, coordinate).

    The chunk's {-1, 0, +1} entries come from the package's one sparse
    sampler, :func:`~oporp.projection._sparse_signs`. Each block of whole
    samples becomes a float array, and every row is reduced on its own with
    einsum, never BLAS, whose sums depend on the block shape. The blocks are
    split over two lanes (:func:`~oporp.projection._two_lanes`), each with
    its own float block.
    """
    D = u.shape[0]
    samples = c * k
    signs = _sparse_signs(rng, (samples, D), s)
    X = np.empty(samples)
    Y = np.empty(samples)
    rows = _block_rows(D, samples)
    # Both lanes' float blocks, lane 1's from row `rows` on (one block: no lane 1).
    Z = np.empty((samples if samples <= rows else 2 * rows, D))

    def dense(lane: int, lo: int, hi: int) -> None:
        for a in range(lo, hi, rows):
            r = min(rows, hi - a)
            block = Z[lane * rows : lane * rows + r]
            np.copyto(block, signs[a : a + r])  # a slice assignment holds the GIL
            np.einsum("ij,j->i", block, u, out=X[a : a + r])
            np.einsum("ij,j->i", block, v, out=Y[a : a + r])

    _two_lanes(dense, samples, rows)
    X *= math.sqrt(s)
    Y *= math.sqrt(s)
    return X.reshape(c, k), Y.reshape(c, k)


def _vsrp_gaps(
    u: np.ndarray, v: np.ndarray, k: int, s: float, c: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """c k-sample VSRP pairs, shapes (c, k), from the nonzero entries alone, for s > 1.

    Only the nonzero entries of the flattened (c, k, D) projection are
    drawn: geometric gaps between them by inversion, one sign bit each,
    then one segmented sum per sample, gathered and summed over blocks of
    whole samples.
    """
    D = u.shape[0]
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


def _cell_draws(pooled: bool, u, v, k: int, s: float, dist, scheme: Binning):
    """(trials per chunk, draw) for the averaging or the pooled estimators of a sweep cell.

    ``draw(c, rng)`` returns c independent single-repetition sketch pairs,
    shapes (c, k): OPORP sketches, or k-sample VSRP sketches pooled as one
    repetition each. A VSRP sample is sqrt(s) times the sum of u (and v)
    over a random ternary row: sign +-1 with probability 1/s per
    coordinate, else 0 (Li, Hastie and Church, KDD 2006). Below
    ``_DENSE_VSRP_BELOW`` the dense byte kernel draws one random byte per
    coordinate (:func:`_vsrp_dense`); from there on the gap kernel draws
    only the nonzero entries, which is cheaper when they are rare
    (:func:`_vsrp_gaps`).
    """
    D = u.shape[0]
    if pooled:
        if s < _DENSE_VSRP_BELOW:
            # _CHUNK_ELEMENTS random bytes per chunk.
            chunk, kernel = max(1, _CHUNK_ELEMENTS // (D * k)), _vsrp_dense
        else:
            # About _CHUNK_ELEMENTS / 4 expected nonzeros per chunk.
            chunk, kernel = max(1, int(_CHUNK_ELEMENTS * s) // (4 * D * k)), _vsrp_gaps
        return chunk, lambda c, rng: kernel(u, v, k, s, c, rng)
    chunk = max(1, _CHUNK_ELEMENTS // _padded_dim(D, k, scheme))
    return chunk, lambda c, rng: _oporp_chunk(u, v, k, dist, scheme, c, rng)


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

    The averaging estimators use the multiplier distribution realizing
    fourth moment s (Rademacher for 1, Gaussian for 3, scaled uniform for
    9/5, sparse otherwise); the pooled (VSRP) estimators always use
    sparse(s) columns, with k meaning the number of samples of one bin,
    drawn by the dense byte kernel below ``_DENSE_VSRP_BELOW`` and by the
    gap kernel from there on. An estimator that refuses sketches of k bins
    (:meth:`~oporp.estimate._Entry.check_bins`) is refused here too.
    Deterministic: the rows are a pure function of the inputs, the seed and
    the fixed ``_CHUNK_ELEMENTS`` and ``_DENSE_VSRP_BELOW`` (a cell's trials
    are drawn from one stream for the averaging and one for the pooled
    estimators in chunks of that size, so another chunk size or switch
    gives other rows).
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    scheme = Binning(scheme)
    ests = [Estimator(est) for est in estimators]
    if not ests:
        raise ValueError("need at least one estimator")
    # operator.index, as SketchConfig: a k of 8.7 is refused, not run as 8.
    k_list = [operator.index(k) for k in k_list]
    if not k_list:
        raise ValueError("need at least one k")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    stats = var.pair_statistics(u, v)
    dist = distribution_for_moment(s)
    averaging = any(not _REGISTRY[est].pooled for est in ests)

    rows: list[SweepRow] = []
    for k in k_list:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if averaging and scheme is Binning.FIXED and k > stats.dim:
            raise ValueError(f"fixed-length binning needs k <= D, got k={k}, D={stats.dim}")
        for est in ests:
            # A pooled cell sketches k samples of one bin.
            _REGISTRY[est].check_bins(est, 1 if _REGISTRY[est].pooled else k)
        estimates = {est: np.empty(trials) for est in ests}
        for stream, pooled in enumerate((False, True)):
            members = [est for est in estimates if _REGISTRY[est].pooled == pooled]
            if not members:
                continue
            chunk, draw = _cell_draws(pooled, u, v, k, s, dist, scheme)
            rng = generator(derive_seed(seed, _STREAMS["cell"], k, stream))
            for pos in range(0, trials, chunk):
                c = min(chunk, trials - pos)
                sums = _pair_sums(*draw(c, rng))
                for est in members:
                    estimates[est][pos : pos + c] = _REGISTRY[est].kernel(
                        sums, stats.sumsq_u, stats.sumsq_v
                    )

        for est in ests:
            entry = _REGISTRY[est]
            err = estimates[est] - getattr(stats, entry.truth)
            rows.append(
                SweepRow(
                    estimator=est.value,
                    scheme="" if entry.pooled else scheme.value,
                    k=k,
                    s=float(s),
                    trials=trials,
                    empirical_mse=float(np.mean(err * err)),
                    empirical_bias=float(np.mean(err)),
                    theoretical_var=(
                        math.nan if entry.oracle is None
                        else entry.variance(stats, k, s, scheme, 1)
                    ),
                )
            )
    return rows


# --- retrieval and classification -------------------------------------------


def _unit_rows(M: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError(f"{what} contains a zero vector")
    return M / norms[:, None]


def _pooled_config(config: SketchConfig) -> SketchConfig:
    """The VSRP config of k*m samples a pooled estimator scores in place of a k > 1 ``config``."""
    if config.dist.kind not in (ProjectionKind.SPARSE, ProjectionKind.RADEMACHER):
        raise ValueError("vsrp estimators need a sparse or Rademacher distribution")
    return vsrp_config(config.dim, config.k * config.m, config.dist.sparsity, config.seed)


def similarity_matrix(
    base: np.ndarray, queries: np.ndarray, config: SketchConfig, estimator
) -> np.ndarray:
    """(n_queries, n_base) matrix of estimated similarities (bigger = closer).

    ``exact`` scores by true cosine; the sketch estimators score from one
    shared-randomness sketch per row, each entry as for one sketch pair.
    ``distance`` scores by negated squared-distance estimates; mle_inner is refused.
    """
    return _similarity(_as_matrix(base, config.dim), _as_matrix(queries, config.dim), config,
                       estimator)


def _similarity(
    base: np.ndarray, queries: np.ndarray, config: SketchConfig, estimator
) -> np.ndarray:
    """similarity_matrix of rows already checked by ``_as_matrix``; the plans apply unchecked."""
    name = estimator.value if isinstance(estimator, Estimator) else str(estimator)
    if name == "exact":
        # The true cosine: the cosine kernel on the raw rows as one repetition.
        est, Q, B, m = Estimator.COSINE, queries, base, 1
    else:
        est = Estimator(name)
        if est is Estimator.MLE_INNER:
            raise ValueError(f"estimator {name!r} is not supported for retrieval")
        entry = _REGISTRY[est]
        if entry.pooled and config.k > 1:
            config = _pooled_config(config)
        entry.check_bins(est, config.k)
        # A pooled estimator scores all its samples as one block.
        plan, m = _plan(config), 1 if entry.pooled else config.m
        Q, B = plan._apply(queries), plan._apply(base)
    entry = _REGISTRY[est]
    E = F = None
    if entry.margins:
        E, F = row_norms(queries)[:, None] ** 2, row_norms(base)[None, :] ** 2
    # One repetition block at a time keeps the temporaries to a few (nq, nb) arrays.
    w = Q.shape[1] // m
    total = sum(entry.kernel(_matrix_sums(Q[:, r : r + w], B[:, r : r + w]), E, F)
                for r in range(0, Q.shape[1], w)) / m
    return -total if est is Estimator.DISTANCE else total


def _ranked(scores: np.ndarray) -> np.ndarray:
    """Candidate indices per query, best first, ties broken by smaller index.

    A row whose sorted keys strictly increase has one sorted order, so
    numpy's default sort finds it; only the other rows (ties, +-0.0, NaN)
    are sorted again with the stable sort, which keeps ties in index order.
    """
    keys = -scores
    order = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, order, axis=1)
    redo = ~(ordered[:, 1:] > ordered[:, :-1]).all(axis=1)
    if redo.any():
        order[redo] = np.argsort(keys[redo], axis=1, kind="stable")
    return order


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
    # Checked once here for both scorings below.
    base, queries = _as_matrix(base, config.dim), _as_matrix(queries, config.dim)
    n = base.shape[0]
    if queries.size == 0:
        raise ValueError("need at least one query row")
    if not 1 <= top_n <= n:
        raise ValueError(f"top_n must be in [1, {n}], got {top_n}")
    exact = _similarity(base, queries, config, "exact")
    gold_idx = _ranked(exact)[:, :top_n]
    in_gold = np.zeros(exact.shape, dtype=bool)
    np.put_along_axis(in_gold, gold_idx, True, axis=1)
    scores = _similarity(base, queries, config, estimator)
    order = _ranked(scores)
    hits = np.cumsum(np.take_along_axis(in_gold, order, axis=1), axis=1)
    depths = np.arange(1, n + 1)
    precision = (hits / depths).mean(axis=0)
    recall = (hits / top_n).mean(axis=0)
    return [PRPoint(float(r), float(p)) for r, p in zip(recall, precision)]


def area_under_pr(points: list[PRPoint]) -> float:
    """Trapezoidal area under a walked PR curve, anchored at recall 0."""
    if not points:
        raise ValueError("need at least one PR point")
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
    if test.shape[0] == 0:
        raise ValueError("need at least one test row")
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
    if not math.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    lo, hi = norm_range
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(f"norm_range must satisfy 0 < lo <= hi < inf, got {norm_range}")
    rng = generator(derive_seed(seed, _STREAMS["data"]))
    centers = _unit_rows(rng.standard_normal((n_clusters, D)), "centers")
    labels = np.arange(n_points, dtype=np.int64) % n_clusters
    points = _unit_rows(centers[labels] + noise * rng.standard_normal((n_points, D)), "points")
    if lo < hi:
        points = points * rng.uniform(lo, hi, n_points)[:, None]
    elif lo != 1.0:
        points = points * lo
    return points, labels
