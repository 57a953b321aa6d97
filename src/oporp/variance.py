"""Exact closed-form variances for every estimator, given pair statistics.

These are the theory side of the Monte-Carlo validation harness: each
function returns the variance of a single-repetition estimator as a
function of the moment sums of the data pair, the number of bins k, the
multiplier fourth moment s, and the binning scheme. Fixed-length binning
contributes the factor (D - k) / (D - 1) through the between-coordinate
collision moment, with D the padded working dimension; variable-length
binning contributes factor 1. The m repetitions of a sketch are independent,
so an m-repetition average has the single-repetition variance over m; the
estimator registry (``oporp.estimate``) divides in that one place. A
k-sample sparse projection (VSRP) is k one-bin repetitions, so its
variance is the k = 1 oracle over k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .sketch import Binning, ZeroNormError, _padded_dim, _pair_sums, _sqrt_product


class DegeneratePairError(ValueError):
    """A ratio is undefined for this pair (zero variance denominator)."""


@dataclass(frozen=True)
class PairStatistics:
    """Moment sums of a data pair that the variance formulas consume.

    ``A`` is the cosine curvature term: with u, v scaled to unit norm,
    A = sum_i (u_i v_i - (rho/2) (u_i^2 + v_i^2))^2. It is nonnegative and
    vanishes when u = v.
    """

    dim: int
    a: float
    sumsq_u: float
    sumsq_v: float
    sum_u2v2: float
    sum_u4: float
    sum_v4: float
    sum_u3v: float
    sum_uv3: float
    sum_diff4: float
    rho: float
    d: float
    A: float


def pair_statistics(u: np.ndarray, v: np.ndarray) -> PairStatistics:
    """Compute every moment sum the variance oracles need, in one pass.

    Raises ValueError, naming the fields, when a moment sum overflows
    float64 (at D = 1024, from entries near 3e76 on).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"need two equal-length vectors, got {u.shape} and {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("pair statistics need finite vectors, got inf or NaN entries")
    sums = _pair_sums(u, v)
    a, sumsq_u, sumsq_v = float(sums.xy), float(sums.xx), float(sums.yy)
    if sumsq_u == 0.0 or sumsq_v == 0.0:
        raise ZeroNormError("pair statistics need two nonzero vectors")
    rho = float(np.clip(a / _sqrt_product(sumsq_u, sumsq_v), -1.0, 1.0))
    diff = u - v
    un = u / math.sqrt(sumsq_u)
    vn = v / math.sqrt(sumsq_v)
    curvature = un * vn - 0.5 * rho * (un * un + vn * vn)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by field, below
        stats = PairStatistics(
            dim=int(u.shape[0]),
            a=a,
            sumsq_u=sumsq_u,
            sumsq_v=sumsq_v,
            sum_u2v2=float(np.sum(u * u * v * v)),
            sum_u4=float(np.sum(u**4)),
            sum_v4=float(np.sum(v**4)),
            sum_u3v=float(np.sum(u**3 * v)),
            sum_uv3=float(np.sum(u * v**3)),
            sum_diff4=float(np.sum(diff**4)),
            rho=rho,
            d=float(sums.dd),
            A=float(np.sum(curvature * curvature)),
        )
    overflowed = [f.name for f in fields(stats) if not math.isfinite(getattr(stats, f.name))]
    if overflowed:
        raise ValueError(f"pair statistics overflow float64: {', '.join(overflowed)}")
    return stats


class Lemma1Moments(NamedTuple):
    """Bin-membership indicator moments: single, same-bin pair, cross-bin pair."""

    single: float
    samebin: float
    diffbin: float


def lemma1_moments(D: int, k: int, scheme: Binning) -> Lemma1Moments:
    """Indicator moments E(I_ij), E(I_ij I_i'j), E(I_ij I_i'j') for i != i', j != j'.

    Satisfies k * samebin + k * (k - 1) * diffbin = 1 for both schemes.
    Fixed-length binning requires k | D; pad first when it does not.
    """
    if D < 1 or k < 1:
        raise ValueError(f"need D >= 1 and k >= 1, got D={D}, k={k}")
    if k == 1:
        # Everything lands in the one bin; no second bin exists.
        return Lemma1Moments(1.0, 1.0, 0.0)
    if scheme is Binning.FIXED:
        if D % k != 0:
            raise ValueError(
                f"fixed-length moments need k | D (pad first), got D={D}, k={k}"
            )
        return Lemma1Moments(
            1.0 / k,
            (D - k) / ((D - 1) * k * k),
            D / ((D - 1) * k * k),
        )
    if scheme is Binning.VARIABLE:
        return Lemma1Moments(1.0 / k, 1.0 / (k * k), 1.0 / (k * k))
    raise ValueError(f"unknown binning scheme: {scheme!r}")


def _coupling(stats: PairStatistics, k: int, scheme: Binning) -> float:
    """k * E(I_ij I_i'j): the weight of the collision term, F/k."""
    D = _padded_dim(stats.dim, k, scheme)
    if scheme is Binning.FIXED and k > stats.dim:
        raise ValueError(f"fixed-length binning needs k <= dim, got k={k}, dim={stats.dim}")
    return k * lemma1_moments(D, k, scheme).samebin


def var_inner(stats: PairStatistics, k: int, s: float, scheme: Binning) -> float:
    """Variance of the inner-product estimate (single repetition)."""
    collision = stats.a**2 + stats.sumsq_u * stats.sumsq_v - 2.0 * stats.sum_u2v2
    return (s - 1.0) * stats.sum_u2v2 + _coupling(stats, k, scheme) * collision


def var_distance(stats: PairStatistics, k: int, s: float, scheme: Binning) -> float:
    """Variance of the squared-distance estimate (single repetition)."""
    collision = 2.0 * stats.d**2 - 2.0 * stats.sum_diff4
    return (s - 1.0) * stats.sum_diff4 + _coupling(stats, k, scheme) * collision


def var_cosine(stats: PairStatistics, k: int, s: float, scheme: Binning) -> float:
    """Asymptotic (large k) variance of the cosine estimate."""
    one_minus = (1.0 - stats.rho**2) ** 2
    return (s - 1.0) * stats.A + _coupling(stats, k, scheme) * (
        one_minus - 2.0 * stats.A
    )


def var_normalized_inner(
    stats: PairStatistics, k: int, s: float, scheme: Binning
) -> float:
    """Asymptotic variance of the norm-rescaled cosine estimate."""
    return var_cosine(stats, k, s, scheme) * stats.sumsq_u * stats.sumsq_v


def variance_ratio(stats: PairStatistics, s: float, which: str) -> float:
    """Variance of a k-sample sparse projection over variable-binned OPORP.

    A k-sample sparse projection is k one-bin repetitions of sparse(s)
    multipliers, so this is the one-bin oracle at s over the same oracle at
    Rademacher's s = 1; k cancels. Equals 1 at s = 1 and grows linearly in
    s; ``which`` selects the inner-product ("inner") or cosine ("cosine")
    comparison.
    """
    oracle = {"inner": var_inner, "cosine": var_cosine}.get(which)
    if oracle is None:
        raise ValueError(f"which must be 'inner' or 'cosine', got {which!r}")
    num, den = oracle(stats, 1, s, Binning.VARIABLE), oracle(stats, 1, 1.0, Binning.VARIABLE)
    if den <= 0.0:
        raise DegeneratePairError(
            f"variance ratio undefined for this pair ({which} denominator {den:g})"
        )
    return num / den
