"""Similarity estimators computed from pairs of sketches.

All estimators require the two sketches to share config and flavor (same
randomness); repetition-aware estimators compute one value per repetition
block and average over the m repetitions.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .sketch import Sketch, ZeroNormError, check_compatible


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


def inner_product_hat(x: Sketch, y: Sketch) -> float:
    """Unbiased inner-product estimate: per-repetition sum of products, averaged."""
    check_compatible(x, y)
    per_rep = np.einsum("ij,ij->i", x.reps, y.reps)
    return float(per_rep.mean())


def distance_hat(x: Sketch, y: Sketch) -> float:
    """Unbiased squared-distance estimate from the sketch difference."""
    check_compatible(x, y)
    diff = x.reps - y.reps
    return float(np.einsum("ij,ij->i", diff, diff).mean())


def _rep_cosines(x: Sketch, y: Sketch) -> np.ndarray:
    X, Y = x.reps, y.reps
    dots = np.einsum("ij,ij->i", X, Y)
    sxx = np.einsum("ij,ij->i", X, X)
    syy = np.einsum("ij,ij->i", Y, Y)
    denom = np.sqrt(sxx * syy)
    if np.any(denom == 0.0):
        raise ZeroNormError("cosine estimate undefined for a zero-norm repetition")
    return np.clip(dots / denom, -1.0, 1.0)


def cosine_hat(x: Sketch, y: Sketch) -> float:
    """Cosine estimate: per-repetition normalized inner product, averaged.

    Each repetition's value is a true cosine of two k-vectors, so the
    result always lies in [-1, 1] and equals 1 exactly when x is y.
    """
    check_compatible(x, y)
    return float(_rep_cosines(x, y).mean())


def normalized_inner_product(rho_hat: float, norm_u: float, norm_v: float) -> float:
    """Rescale a cosine estimate by the known (stored) data norms."""
    if norm_u < 0.0 or norm_v < 0.0:
        raise ValueError("norms must be nonnegative")
    return float(rho_hat) * float(norm_u) * float(norm_v)


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
    any element has no feasible root.
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


def likelihood_root(sxy: float, sxx: float, syy: float, E: float, F: float) -> float:
    """Scalar form of :func:`likelihood_roots`."""
    return float(likelihood_roots(sxy, sxx, syy, E, F))


def mle_inner_product(x: Sketch, y: Sketch, sumsq_u: float, sumsq_v: float) -> float:
    """Likelihood-based inner-product estimate using known squared norms.

    Solves the estimating cubic per repetition from the raw sketch sums and
    the exact margins E = sum u^2, F = sum v^2, then averages over
    repetitions.
    """
    check_compatible(x, y)
    if sumsq_u <= 0.0 or sumsq_v <= 0.0:
        raise ValueError("squared norms must be positive")
    X, Y = x.reps, y.reps
    dots = np.einsum("ij,ij->i", X, Y)
    sxx = np.einsum("ij,ij->i", X, X)
    syy = np.einsum("ij,ij->i", Y, Y)
    return float(np.mean(likelihood_roots(dots, sxx, syy, sumsq_u, sumsq_v)))


def _check_vsrp(x: Sketch, y: Sketch) -> None:
    check_compatible(x, y)
    if x.flavor != "vsrp":
        raise ValueError("vsrp estimators need sketches built by vsrp_sketch")


def vsrp_inner_product_hat(x: Sketch, y: Sketch) -> float:
    """Inner-product estimate from sparse-projection samples: mean of products."""
    _check_vsrp(x, y)
    return float(np.dot(x.values, y.values) / x.values.shape[0])


def vsrp_cosine_hat(x: Sketch, y: Sketch) -> float:
    """Cosine estimate pooled across all sparse-projection samples."""
    _check_vsrp(x, y)
    sxy = float(np.dot(x.values, y.values))
    sxx = float(np.dot(x.values, x.values))
    syy = float(np.dot(y.values, y.values))
    denom = math.sqrt(sxx * syy)
    if denom == 0.0:
        raise ZeroNormError("cosine estimate undefined for a zero-norm sketch")
    return float(np.clip(sxy / denom, -1.0, 1.0))
