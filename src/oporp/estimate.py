"""Similarity estimators computed from pairs of sketches.

Every estimate is a function of per-repetition pair sums: with X and Y the
repetition blocks of two sketches, sxy, sxx and syy are the sums of X*Y,
X*X and Y*Y over each block and sdd the sum of (X - Y)^2
(:func:`_pair_sums`; :func:`_matrix_sums` for all row pairs of two
matrices). One private registry, ``_REGISTRY``, keyed by :class:`Estimator`,
holds whether each estimator pools, the
:class:`~oporp.variance.PairStatistics` field it estimates, its variance
oracle and its kernel from pair sums to per-repetition estimates, the one
place its math is written. The public functions below, ``mse_sweep``,
``similarity_matrix`` and the CLI all read it, so adding an estimator means
adding one entry.

All estimators require the two sketches to share a config (same
randomness). Most average their kernel over the m repetitions; the pooled
ones, ``vsrp_inner`` and ``vsrp_cosine``, read the m one-bin repetitions
of a k = 1 (VSRP) sketch as one block of m samples. One check on the
entry, :meth:`_Entry.check_bins`, keeps each estimator to the k it reads
without bias.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import variance as var
from .projection import sparse
from .sketch import _TINY, Binning, Sketch, SketchMismatchError, ZeroNormError, check_compatible


class Estimator(enum.Enum):
    """Names for the estimator choices exposed by the CLI and harnesses."""

    INNER = "inner"
    DISTANCE = "distance"
    COSINE = "cosine"
    NORMALIZED_INNER = "normalized_inner"
    MLE_INNER = "mle_inner"
    VSRP_INNER = "vsrp_inner"
    VSRP_COSINE = "vsrp_cosine"


class EstimationError(RuntimeError):
    """Numerical estimation failed (diagnostic; not expected on real data)."""


class _PairSums(NamedTuple):
    """Sums over the last axis of two sketch arrays, one per repetition."""

    xy: np.ndarray
    xx: np.ndarray
    yy: np.ndarray
    dd: np.ndarray
    n: int


class _MatrixSums(NamedTuple):
    """Pair sums of every row pair of two blocks: xy (nq, nb), xx (nq, 1) and yy (1, nb)."""

    xy: np.ndarray
    xx: np.ndarray
    yy: np.ndarray
    n: int

    @property
    def dd(self) -> np.ndarray:
        # formed only where a kernel reads it
        return self.xx + self.yy - 2.0 * self.xy


def _matrix_sums(X: np.ndarray, Y: np.ndarray) -> _MatrixSums:
    """All-pairs sums of the rows of X and Y: one BLAS product and two row sums of squares."""
    xx, yy = np.einsum("ij,ij->i", X, X), np.einsum("ij,ij->i", Y, Y)
    return _MatrixSums(X @ Y.T, xx[:, None], yy[None, :], X.shape[1])


def _pair_sums(X: np.ndarray, Y: np.ndarray) -> _PairSums:
    """Pair sums of two (..., n) arrays: sxy, sxx, syy and the difference sum sdd."""
    diff = X - Y
    return _PairSums(
        np.einsum("...i,...i->...", X, Y),
        np.einsum("...i,...i->...", X, X),
        np.einsum("...i,...i->...", Y, Y),
        np.einsum("...i,...i->...", diff, diff),
        X.shape[-1],
    )


def likelihood_roots(sxy, sxx, syy, E, F) -> np.ndarray:
    """Roots of the sketch-likelihood cubic, restricted to the feasible interval.

    Solves, elementwise over broadcast arrays, the cubic
    a^3 - a^2*sxy + a*(E*syy + F*sxx - E*F) - E*F*sxy = 0. With
    x = a / sqrt(E*F) it reads x^3 - B x^2 + C x - B = 0 for
    B = sxy / sqrt(E*F) and C = sxx/E + syy/F - 1, which is solved in closed
    form (Cardano for one real root, the trigonometric form for three) and
    polished with two Newton steps. The cubic has a real root in
    [-sqrt(E*F), +sqrt(E*F)] whenever sxy^2 <= sxx*syy (its values at the two
    endpoints have opposite signs); among feasible real roots we keep the one
    closest to the norm-rescaled cosine estimate. Raises EstimationError if
    any element has no feasible root. Scalar inputs give a 0-d array.
    """
    sxy, sxx, syy, E, F = (np.asarray(z, dtype=np.float64) for z in (sxy, sxx, syy, E, F))
    bound = np.sqrt(E * F)
    B = sxy / bound
    C = sxx / E + syy / F - 1.0
    # depressed cubic t^3 + p t + q = 0 with x = t + B/3
    p = C - B * B / 3.0
    q = B * (C / 3.0 - 1.0 - 2.0 * B * B / 27.0)
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    one_real = disc > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        root_disc = np.sqrt(np.where(one_real, disc, 0.0))
        cardano = np.cbrt(-q / 2.0 + root_disc) + np.cbrt(-q / 2.0 - root_disc)
        r = np.sqrt(np.maximum(-p / 3.0, 0.0))
        cos3 = np.where(r > 0.0, np.clip(-q / (2.0 * r**3), -1.0, 1.0), 0.0)
        theta = np.arccos(cos3)[..., None] / 3.0 - (2.0 * np.pi / 3.0) * np.arange(3)
        trig = 2.0 * r[..., None] * np.cos(theta)
        x = np.where(one_real[..., None], cardano[..., None], trig) + (B / 3.0)[..., None]
        Bc, Cc = B[..., None], C[..., None]
        for _ in range(2):
            value = ((x - Bc) * x + Cc) * x - Bc
            slope = (3.0 * x - 2.0 * Bc) * x + Cc
            x = x - np.where(slope != 0.0, value / slope, 0.0)
        rho = np.where(
            (sxx > 0.0) & (syy > 0.0), np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0), 0.0
        )
    feasible = np.abs(x) <= 1.0 + 1e-9
    if not np.all(np.any(feasible, axis=-1)):
        raise EstimationError("no admissible likelihood root in [-sqrt(E*F), sqrt(E*F)]")
    gap = np.where(feasible, np.abs(x - rho[..., None]), np.inf)
    best = np.take_along_axis(x, np.argmin(gap, axis=-1)[..., None], axis=-1)[..., 0]
    return best * bound


# --- kernels: pair sums (and the squared norms E, F) -> per-repetition estimates


def _cosines(s: _PairSums, E=None, F=None) -> np.ndarray:
    with np.errstate(over="ignore", under="ignore"):
        squares = s.xx * s.yy
        denom = np.sqrt(squares)
        if squares.size and not _TINY <= squares.min() <= squares.max() < math.inf:
            # A product outside the normal range is taken norm by norm; no other entry moves.
            odd = ~(squares >= _TINY) | (squares == math.inf)
            denom[odd] = (np.sqrt(s.xx) * np.sqrt(s.yy))[odd]
    if np.any(denom == 0.0):
        raise ZeroNormError("cosine estimate undefined for a zero-norm repetition")
    return np.clip(s.xy / denom, -1.0, 1.0)


def _normalized_inners(s: _PairSums, E, F) -> np.ndarray:
    return _cosines(s) * (np.sqrt(E) * np.sqrt(F))


def _pooled(oracle: Callable) -> Callable:
    """The oracle of k pooled one-bin samples: the one-bin oracle over k."""
    return lambda stats, k, s, scheme: oracle(stats, 1, s, Binning.VARIABLE) / k


@dataclass(frozen=True)
class _Entry:
    """One estimator: whether it pools, its truth field, kernel and oracle.

    ``kernel(sums, E, F)`` maps pair sums to per-repetition estimates, for
    one sketch pair, a batch of trials or every pair of two matrices' rows;
    E and F are the squared data norms, read only when ``margins`` is set.
    ``oracle(stats, k, s, scheme)`` is the variance of one repetition, None
    where no closed form exists; a pooled estimator's repetition is its k
    samples.
    """

    pooled: bool
    truth: str
    kernel: Callable
    oracle: Callable | None
    margins: bool = False

    def check_bins(self, est: Estimator, k: int) -> None:
        """Raise SketchMismatchError where sketches of k bins would read biased.

        A pooled estimator reads one-bin repetitions as samples, so it needs
        k = 1. The cosine and the two margin estimators normalize by the
        sketch norms, and a one-bin repetition's cosine is a sign, so they
        refuse k = 1. inner and distance read any k; at k = 1, inner equals
        vsrp_inner.
        """
        if self.pooled and k != 1:
            raise SketchMismatchError(f"{est.value} pools one-bin sketches, got k={k}")
        if not self.pooled and k == 1 and (self.margins or self.truth == "rho"):
            raise SketchMismatchError(f"{est.value} needs k >= 2: a one-bin cosine is a sign")

    def variance(self, stats, k: int, s: float, scheme, m: int) -> float:
        """Variance of the average of m independent repetitions: the oracle's over m."""
        if k < 1 or m < 1:
            raise ValueError(f"k and m must be >= 1, got k={k}, m={m}")
        sparse(s)  # refuses an s no multiplier has, as the distribution does
        return self.oracle(stats, k, s, scheme) / m


_REGISTRY = {
    Estimator.INNER: _Entry(False, "a", lambda s, E, F: s.xy, var.var_inner),
    Estimator.DISTANCE: _Entry(False, "d", lambda s, E, F: s.dd, var.var_distance),
    Estimator.COSINE: _Entry(False, "rho", _cosines, var.var_cosine),
    Estimator.NORMALIZED_INNER: _Entry(
        False, "a", _normalized_inners, var.var_normalized_inner, margins=True
    ),
    Estimator.MLE_INNER: _Entry(
        False, "a", lambda s, E, F: likelihood_roots(s.xy, s.xx, s.yy, E, F), None, margins=True
    ),
    Estimator.VSRP_INNER: _Entry(True, "a", lambda s, E, F: s.xy / s.n, _pooled(var.var_inner)),
    Estimator.VSRP_COSINE: _Entry(True, "rho", _cosines, _pooled(var.var_cosine)),
}


def _estimate(
    est: Estimator, x: Sketch, y: Sketch, sumsq_u: float | None = None,
    sumsq_v: float | None = None,
) -> float:
    """One estimate from a sketch pair: check, take the pair sums, apply the kernel, average."""
    entry = _REGISTRY[est]
    check_compatible(x, y)
    entry.check_bins(est, x.config.k)
    X, Y = (x.values[None, :], y.values[None, :]) if entry.pooled else (x.reps, y.reps)
    if entry.margins and not (0.0 < sumsq_u < math.inf and 0.0 < sumsq_v < math.inf):
        raise ValueError("squared norms must be finite and positive")
    return float(np.mean(entry.kernel(_pair_sums(X, Y), sumsq_u, sumsq_v)))


def inner_product_hat(x: Sketch, y: Sketch) -> float:
    """Unbiased inner-product estimate: per-repetition sum of products, averaged."""
    return _estimate(Estimator.INNER, x, y)


def distance_hat(x: Sketch, y: Sketch) -> float:
    """Unbiased squared-distance estimate from the sketch difference."""
    return _estimate(Estimator.DISTANCE, x, y)


def cosine_hat(x: Sketch, y: Sketch) -> float:
    """Cosine estimate: per-repetition normalized inner product, averaged.

    Each repetition's value is a true cosine of two k-vectors, so the
    result always lies in [-1, 1] and equals 1 exactly when x is y.
    """
    return _estimate(Estimator.COSINE, x, y)


def mle_inner_product(x: Sketch, y: Sketch, sumsq_u: float, sumsq_v: float) -> float:
    """Likelihood-based inner-product estimate using known squared norms.

    Solves the estimating cubic per repetition from the raw sketch sums and
    the exact margins E = sum u^2, F = sum v^2, then averages over
    repetitions.
    """
    return _estimate(Estimator.MLE_INNER, x, y, sumsq_u, sumsq_v)


def vsrp_inner_product_hat(x: Sketch, y: Sketch) -> float:
    """Inner-product estimate from sparse-projection samples: mean of products."""
    return _estimate(Estimator.VSRP_INNER, x, y)


def vsrp_cosine_hat(x: Sketch, y: Sketch) -> float:
    """Cosine estimate pooled across all sparse-projection samples."""
    return _estimate(Estimator.VSRP_COSINE, x, y)
