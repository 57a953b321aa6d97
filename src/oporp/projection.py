"""Random permutations and projection multipliers with deterministic seeding.

All randomness in the package flows through counter-based Philox streams
keyed by ``SeedSequence`` spawn keys, so independent sub-streams can be
derived per (repetition, purpose, trial) without correlation and every
result is a pure function of the user-supplied 64-bit seed.

Multiplier distributions are standardized to E(r) = 0, E(r^2) = 1,
E(r^3) = 0; the fourth moment E(r^4) = s is the single parameter the
variance formulas depend on.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Type aliases for readability; a permutation is the array ``perm`` such
# that position p of the shuffled vector holds original coordinate perm[p].
Permutation = np.ndarray
ProjectionVector = np.ndarray

_MAX_SEED = 2**64


class ProjectionKind(enum.Enum):
    """Supported multiplier distributions."""

    RADEMACHER = "rademacher"
    GAUSSIAN = "gaussian"
    SCALED_UNIFORM = "scaled_uniform"
    SPARSE = "sparse"


@dataclass(frozen=True)
class ProjectionDistribution:
    """A multiplier distribution, identified by kind and sparsity parameter.

    ``sparsity`` is only free for the sparse family, where entries are
    sqrt(s) * {-1 w.p. 1/(2s), 0 w.p. 1 - 1/s, +1 w.p. 1/(2s)}; the other
    kinds pin it to their fourth moment so ``fourth_moment`` is uniform to
    query across kinds.
    """

    kind: ProjectionKind
    sparsity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is ProjectionKind.SPARSE and not 1.0 <= self.sparsity < math.inf:
            # E(r^4) >= E(r^2)^2 = 1 by Cauchy-Schwarz; s < 1 is unrealizable,
            # and s = inf or NaN has no nonzero entries to draw.
            raise ValueError(f"sparse parameter must be finite and >= 1, got {self.sparsity}")

    @property
    def fourth_moment(self) -> float:
        if self.kind is ProjectionKind.RADEMACHER:
            return 1.0
        if self.kind is ProjectionKind.GAUSSIAN:
            return 3.0
        if self.kind is ProjectionKind.SCALED_UNIFORM:
            return 9.0 / 5.0
        return float(self.sparsity)


def rademacher() -> ProjectionDistribution:
    """Signs +-1 with equal probability (s = 1, the variance-optimal choice)."""
    return ProjectionDistribution(ProjectionKind.RADEMACHER)


def gaussian() -> ProjectionDistribution:
    """Standard normal multipliers (s = 3)."""
    return ProjectionDistribution(ProjectionKind.GAUSSIAN)


def scaled_uniform() -> ProjectionDistribution:
    """sqrt(3) * Uniform[-1, 1] multipliers (s = 9/5)."""
    return ProjectionDistribution(ProjectionKind.SCALED_UNIFORM)


def sparse(s: float) -> ProjectionDistribution:
    """Sparse multipliers with a 1/s fraction of nonzeros (s >= 1)."""
    return ProjectionDistribution(ProjectionKind.SPARSE, float(s))


def check_seed(seed: int) -> int:
    """Validate a 64-bit unsigned seed and return it as a plain int."""
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(seed: int, *path: int) -> int:
    """Derive an independent sub-seed from ``seed`` and an integer path.

    Wraps SeedSequence spawn keys, so (seed, path) pairs map to
    non-correlated streams; the same pair always yields the same sub-seed.
    """
    seed = check_seed(seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def generator(seed: int) -> np.random.Generator:
    """Philox generator for ``seed`` (counter-based, stream-stable)."""
    return np.random.Generator(np.random.Philox(check_seed(seed)))


def _check_dim(D: int) -> int:
    D = int(D)
    if D < 1:
        raise ValueError(f"dimension must be >= 1, got {D}")
    return D


def generate_permutation(D: int, seed: int) -> Permutation:
    """Uniformly random permutation of range(D), a pure function of (D, seed)."""
    D = _check_dim(D)
    return generator(seed).permutation(D)


def draw_multipliers(
    rng: np.random.Generator, shape, dist: ProjectionDistribution
) -> np.ndarray:
    """An array of the given shape of i.i.d. multipliers from ``dist``, drawn from ``rng``."""
    if dist.kind is ProjectionKind.RADEMACHER:
        # int32 draws take the same values and stream positions as int64 ones;
        # converting in place keeps one float array alive, not three.
        signs = rng.integers(0, 2, size=shape, dtype=np.int32).astype(np.float64)
        signs *= 2.0
        signs -= 1.0
        return signs
    if dist.kind is ProjectionKind.GAUSSIAN:
        return rng.standard_normal(shape)
    if dist.kind is ProjectionKind.SCALED_UNIFORM:
        return np.sqrt(3.0) * rng.uniform(-1.0, 1.0, size=shape)
    s = dist.sparsity
    u = rng.random(shape)
    half = 0.5 / s
    values = np.zeros(shape)
    root = math.sqrt(s)
    values[u < half] = -root
    values[u >= 1.0 - half] = root
    return values


def generate_projection_vector(
    D: int, dist: ProjectionDistribution, seed: int
) -> ProjectionVector:
    """Draw D i.i.d. multipliers from ``dist``, a pure function of its inputs."""
    return draw_multipliers(generator(seed), _check_dim(D), dist)
