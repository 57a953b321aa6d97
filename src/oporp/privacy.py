"""Differentially private sketch release.

Adjacency model: two vectors in [-1, 1]^D are adjacent when they differ in
a single coordinate by at most beta, so the l2 sensitivity of a sign-binned
sketch is delta2 = beta (one coordinate feeds exactly one bin and the
Rademacher multiplier has unit magnitude). Mechanisms therefore require
Rademacher multipliers, m = 1, and entries in [-1, 1]; anything else would
silently void the privacy analysis.

Three mechanisms:

* ``dp_oporp``: add i.i.d. Gaussian noise with the *minimal* sigma that
  satisfies (epsilon, delta)-DP, found by bisecting the exact Gaussian
  trade-off equation Phi(d/(2s) - es/d) - e^e * Phi(-d/(2s) - es/d) = delta.
* ``dp_sign_oporp_rr`` and ``dp_sign_oporp_rr_smooth``: randomized response
  on the sketch signs. Both follow one rule: a bin's bit starts at +1 where
  its value is positive and at -1 elsewhere, and flips with probability
  ``flip_probability(L * eps)`` = 1/(e^(L*eps) + 1). The level L is 0 at an
  empty bin (exact zero), whose bit is then a fair coin, since
  ``flip_probability(0)`` is exactly 0.5. Elsewhere L is 1 under ``rr``,
  and ceil(|x|/beta) under ``rr-smooth``, since L adjacent steps are needed
  to change the sign of a bin L*beta away from zero, capped at
  max(1, floor(9/eps)) (see :func:`_flip_probs`).

Sign releases return only the int8 +-1 signs. The per-bit probabilities
follow the private vector (they reveal the empty bins and, under
``rr-smooth``, each bin's magnitude band), so they are never returned;
:func:`flip_probability` of epsilon is the value that may be published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .projection import ProjectionKind, check_seed
from .sketch import SketchConfig, _are_signs, oporp_sketch


def _check_positive(name: str, value: float) -> None:
    # Written so NaN fails too: every comparison with NaN is false.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class PrivacySpec:
    """Privacy budget (epsilon, delta) and the adjacency step size beta."""

    epsilon: float
    delta: float
    beta: float

    def __post_init__(self) -> None:
        _check_positive("epsilon", self.epsilon)
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        _check_positive("beta", self.beta)

    @property
    def delta2(self) -> float:
        """l2 sensitivity of the sketch under the adjacency model."""
        return self.beta


@dataclass
class NoisySketch:
    """Gaussian-noised sketch values and the noise scale used."""

    values: np.ndarray
    sigma: float


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(z: float) -> float:
    """Phi(z), split as cephes ndtr: erf near 0, erfc in the tails.

    Absolute error ~1e-16 over the real line; in the lower tail the erfc
    branch keeps the relative error near 1e-13 down to the underflow of
    Phi (z ~ -37).
    """
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0.0 else tail


_SQRT_2PI = math.sqrt(2.0 * math.pi)
# e^x is a float for every x below this.
_EXP_LIMIT = 709.0


def _tradeoff_gap(sigma: float, delta2: float, epsilon: float) -> float:
    a = delta2 / (2.0 * sigma) - epsilon * sigma / delta2
    b = -delta2 / (2.0 * sigma) - epsilon * sigma / delta2
    if epsilon < _EXP_LIMIT:
        return _ndtr(a) - math.exp(epsilon) * _ndtr(b)
    # e^eps overflows. Since eps = (b^2 - a^2)/2, e^eps * Phi(b) equals
    # e^(-a^2/2) * Phi(b) e^(b^2/2), and b <= -sqrt(2 eps) < -37 here, where
    # Phi(b) e^(b^2/2) = (1 - 1/b^2 + 3/b^4 - ...) / (-b sqrt(2 pi)) and the
    # twelfth term of the series is below 1e-24.
    w = 1.0 / (b * b)
    term = series = 1.0
    for j in range(1, 12):
        term *= -(2 * j - 1) * w
        series += term
    return _ndtr(a) - math.exp(-0.5 * a * a) * series / (-b * _SQRT_2PI)


def solve_gaussian_sigma(delta2: float, epsilon: float, delta: float) -> float:
    """Minimal Gaussian noise scale achieving (epsilon, delta)-DP.

    Bisects the exact trade-off equation; its left side decreases strictly
    from 1 (sigma -> 0) to 0 (sigma -> inf), so the root is unique, and
    returns the upper end of the final bracket, where the gap is at most
    delta (within 1e-14 relative of the root). The
    result is tight: unlike the classical sqrt(2 log(1.25/delta)) recipe it
    is valid for every epsilon > 0 and never larger where both apply.
    Raises ValueError when sigma or its bisection bracket leaves the float
    range.
    """
    _check_positive("delta2", delta2)
    _check_positive("epsilon", epsilon)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"Gaussian mechanism needs delta in (0, 1), got {delta}")
    unrepresentable = ValueError(
        f"cannot calibrate the noise in float range for delta2={delta2}, "
        f"epsilon={epsilon}, delta={delta}"
    )
    lo = delta2 / (10.0 * epsilon)
    if lo == 0.0:
        # 10 * epsilon overflowed. The root is near delta2 / sqrt(2 epsilon),
        # far above this bound.
        lo = delta2 / (10.0 * math.sqrt(epsilon))
    hi = 10.0 * delta2 * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    if lo == 0.0:
        raise unrepresentable
    # Widen until the root is bracketed; for large epsilon the root scales as
    # delta2 / sqrt(2 epsilon) and sits far above the 1/epsilon guess.
    while not _tradeoff_gap(lo, delta2, epsilon) > delta:
        lo /= 2.0
        if lo == 0.0:
            raise unrepresentable
    while not _tradeoff_gap(hi, delta2, epsilon) < delta:
        hi *= 2.0
        if hi == math.inf:
            raise unrepresentable
    # The gap at hi stays <= delta throughout: hi is the end that meets delta.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _tradeoff_gap(mid, delta2, epsilon) > delta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    if not 0.0 < hi < math.inf:
        raise unrepresentable
    return hi


def flip_probability(epsilon):
    """1/(e^eps + 1), the flip probability of eps-DP randomized response.

    Written as e^-eps / (1 + e^-eps), so no finite epsilon overflows; takes
    and returns a scalar or an array. It depends on epsilon alone, so unlike
    the per-bit probabilities of a sign release it may be published.
    """
    t = np.exp(-np.asarray(epsilon, dtype=np.float64))
    return t / (1.0 + t)


def _noise_rng(noise_seed: int | None) -> np.random.Generator:
    if noise_seed is None:
        return np.random.Generator(np.random.Philox())
    return np.random.Generator(np.random.Philox(check_seed(noise_seed)))


def _check_private_input(u: np.ndarray, config: SketchConfig) -> np.ndarray:
    if config.dist.kind is not ProjectionKind.RADEMACHER or config.m != 1:
        raise ValueError(
            "private release requires Rademacher multipliers and m = 1"
        )
    u = np.asarray(u, dtype=np.float64)
    # Written so NaN fails too: every comparison with NaN is false.
    if not np.all(np.abs(u) <= 1.0):
        raise ValueError("private release requires finite entries in [-1, 1]")
    return u


def dp_oporp(
    u: np.ndarray,
    config: SketchConfig,
    spec: PrivacySpec,
    noise_seed: int | None = None,
) -> NoisySketch:
    """Release an OPORP sketch under (epsilon, delta)-DP via Gaussian noise.

    Requires delta > 0. With ``noise_seed`` the noise stream is
    reproducible; by default it draws fresh entropy.
    """
    u = _check_private_input(u, config)
    if spec.delta == 0.0:
        raise ValueError("the Gaussian mechanism needs delta > 0")
    x = oporp_sketch(u, config)
    sigma = solve_gaussian_sigma(spec.delta2, spec.epsilon, spec.delta)
    noise = _noise_rng(noise_seed).normal(0.0, sigma, size=x.values.shape[0])
    return NoisySketch(x.values + noise, sigma)


def _flip_probs(values: np.ndarray, epsilon: float, beta: float | None = None) -> np.ndarray:
    """Per-bit flip probabilities flip_probability(L * eps) of a sign release.

    L is 0 at an empty bin, 1 elsewhere under ``rr`` (``beta`` None), and
    min(ceil(|x|/beta), max(1, floor(9/eps))) under ``rr-smooth``, which is 0
    at an empty bin too. A bit flips when a uniform draw, a multiple of
    2**-53, falls below its probability p, so it really flips with
    probability ceil(p * 2**53) / 2**53. For eps <= 9 the cap keeps every
    p at or above flip_probability(9), about 1.2e-4, where that rounding
    moves a likelihood ratio by under 1e-12 relative; for eps > 9 it is 1,
    as under ``rr``, whose levels 0 and 1 leave a factor 2 to spare.
    Uncapped, small p broke eps-DP: at eps = 1, level 36 flips with
    probability 3 * 2**-53 and level 37 with 2**-53 (ratio 3 > e), and
    level 746 never flips at all.
    """
    if beta is None:
        levels = values != 0.0
    else:
        cap = max(1.0, np.floor(9.0 / epsilon))  # 9/eps may be inf
        levels = np.minimum(np.ceil(np.abs(values) / beta), cap)
    return flip_probability(levels * epsilon)


def _sign_release(
    u: np.ndarray,
    config: SketchConfig,
    epsilon: float,
    beta: float | None,
    noise_seed: int | None,
) -> np.ndarray:
    """The sketch's signs (-1 at an empty bin), each flipped w.p. :func:`_flip_probs`."""
    u = _check_private_input(u, config)
    _check_positive("epsilon", epsilon)
    values = oporp_sketch(u, config).values
    draws = _noise_rng(noise_seed).random(values.shape[0])
    signs = np.where(values > 0.0, 1, -1).astype(np.int8)
    signs[draws < _flip_probs(values, epsilon, beta)] *= -1
    return signs


def dp_sign_oporp_rr(
    u: np.ndarray,
    config: SketchConfig,
    epsilon: float,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Release the k int8 +-1 sketch signs through epsilon-DP randomized response."""
    return _sign_release(u, config, epsilon, None, noise_seed)


def dp_sign_oporp_rr_smooth(
    u: np.ndarray,
    config: SketchConfig,
    epsilon: float,
    beta: float,
    noise_seed: int | None = None,
) -> np.ndarray:
    """Randomized response with per-bit flip probabilities scaled by magnitude.

    A bin at distance L*beta from zero cannot change sign in fewer than L
    adjacent steps, so it may use the larger budget L*epsilon; its flip
    probability 1/(e^(L*eps) + 1) never exceeds the plain RR one. L is
    capped at max(1, floor(9/epsilon)), so no flip probability falls below
    about 1.2e-4 (or the plain RR one, where epsilon > 9), where the
    2**-53 grid of the uniform draws would break the epsilon bound.
    Returns the k int8 +-1 signs.
    """
    _check_positive("beta", beta)
    return _sign_release(u, config, epsilon, beta, noise_seed)


def sign_similarity(a, b) -> float:
    """Fraction of agreeing sign bits (raw agreement, no cosine calibration)."""
    bits_a = np.asarray(a)
    bits_b = np.asarray(b)
    if bits_a.shape != bits_b.shape:
        raise ValueError(
            f"sign sketches must have equal length, got {bits_a.shape} and {bits_b.shape}"
        )
    if bits_a.size == 0:
        raise ValueError("sign similarity of empty sketches is undefined")
    if not (_are_signs(bits_a) and _are_signs(bits_b)):
        raise ValueError("sign sketches must hold only -1 and +1")
    return float(np.mean(bits_a == bits_b))
