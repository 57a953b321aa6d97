"""Random permutations and projection multipliers with deterministic seeding.

All randomness of sketches and sweeps flows through SFC64 streams whose
seeds come from ``SeedSequence`` spawn keys (:func:`derive_seed`), so
independent sub-streams can be derived per (plan, purpose) without
correlation and every result is a pure function of the user-supplied
64-bit seed. The spawn keys, not the bit generator, make the streams
independent; no stream is ever jumped ahead, so a counter-based generator
such as Philox would buy nothing, and SFC64 draws raw words more than
twice as fast.

Multiplier distributions are standardized to E(r) = 0, E(r^2) = 1,
E(r^3) = 0; the fourth moment E(r^4) = s is the single parameter the
variance formulas depend on.

Draws are stored compactly: Rademacher signs as int8, the other
multipliers as float64 (:func:`_multiplier_dtype`), and indices
(permutations of range(Dp), or bin indices in [0, k)) as uint16 up to
2**16 values, else int32. Multiplying by +-1 is exact in any dtype, and
gathers and bin counts widen indices to intp, so no result depends on the
storage. An OPORP draw (:func:`oporp.sketch._oporp_draws`) keeps the
(c, Dp) rows numpy makes: this module supplies the multipliers, the
permutation and bin-index rows (:func:`_permutations`, :func:`_bin_rows`)
and the one block-size rule (:func:`_block_rows`) that the index draws and
the kernels share.

One private helper, :func:`_two_lanes`, splits a pure numpy pass over the
calling thread and one lane thread, a single worker made on first use. The
sparse sampler's sign pass and the dense VSRP sweep kernel
(:func:`oporp.experiment._vsrp_dense`) use it; only the calling thread ever
touches a generator, so no draw depends on it. The lane thread runs numpy
calls on the caller's buffers and no function of the package's public API.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

_MAX_SEED = 2**64

# Spawn-key tag of each of the package's streams, the first entry of a
# derive_seed path: the sweep's pair search, its cells and the synthetic
# corpora (oporp.experiment), and the sketch plans (oporp.sketch). Kept in
# one table so no two purposes share a stream; the values fix every draw.
_STREAMS = {"pair": 0, "cell": 1, "data": 2, "oporp": 4}


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
    kinds refuse any value but 1.0, since a second value would draw the
    same multipliers yet compare unequal. ``fourth_moment`` gives E(r^4)
    for every kind.
    """

    kind: ProjectionKind
    sparsity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is ProjectionKind.SPARSE and not 1.0 <= self.sparsity < math.inf:
            # E(r^4) >= E(r^2)^2 = 1 by Cauchy-Schwarz; s < 1 is unrealizable,
            # and s = inf or NaN has no nonzero entries to draw.
            raise ValueError(f"sparse parameter must be finite and >= 1, got {self.sparsity}")
        if self.kind is not ProjectionKind.SPARSE and self.sparsity != 1.0:
            raise ValueError(f"{self.kind} takes no sparse parameter, got {self.sparsity}")

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
    """Validate a 64-bit unsigned seed and return it as a plain int.

    Integers of any kind are accepted; a float such as 5.5 raises TypeError
    rather than being truncated to another seed.
    """
    seed = operator.index(seed)
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
    """SFC64 generator for ``seed``: a fast stream, never jumped, keyed by :func:`derive_seed`."""
    return np.random.Generator(np.random.SFC64(check_seed(seed)))


def draw_multipliers(
    rng: np.random.Generator, shape, dist: ProjectionDistribution
) -> np.ndarray:
    """An array of the given shape of i.i.d. multipliers from ``dist``, drawn from ``rng``.

    Rademacher signs come back as an int8 array of -1 and +1, every other
    kind as float64 (:func:`_multiplier_dtype`).
    """
    if dist.kind is ProjectionKind.RADEMACHER:
        # One bit per sign: entry j is 1 - 2 * (bit j of the random bytes),
        # formed on uint8 (255 is -1 as int8).
        n = math.prod(np.broadcast_shapes(shape))
        bits = np.unpackbits(_random_bytes(rng, -(-n // 8)), count=n, bitorder="little")
        np.left_shift(bits, 1, out=bits)
        np.subtract(1, bits, out=bits)
        return bits.view(np.int8).reshape(shape)
    if dist.kind is ProjectionKind.GAUSSIAN:
        return rng.standard_normal(shape)
    if dist.kind is ProjectionKind.SCALED_UNIFORM:
        # Scaled in place: the same products, without a second array.
        r = rng.uniform(-1.0, 1.0, size=shape)
        r *= math.sqrt(3.0)
        return r
    return math.sqrt(dist.sparsity) * _sparse_signs(rng, shape, dist.sparsity)


def _multiplier_dtype(dist: ProjectionDistribution) -> np.dtype:
    """The dtype of :func:`draw_multipliers`: int8 for Rademacher signs, float64 otherwise."""
    return np.dtype(np.int8 if dist.kind is ProjectionKind.RADEMACHER else np.float64)


def _index_dtype(n: int) -> np.dtype:
    """The dtype an index row with values in [0, n) is stored in: uint16 up to n = 2**16."""
    return np.dtype(np.uint16 if n <= 1 << 16 else np.int32)


def _random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random bytes: the little-endian bytes of ceil(n/8) full-range uint64 draws."""
    words = rng.integers(0, 1 << 64, size=-(-n // 8), dtype=np.uint64)
    return words.astype("<u8", copy=False).view(np.uint8)[:n]


# Bytes per block of the sparse sampler's pass, sized to stay in L2; no
# result depends on it.
_SIGN_BLOCK = 1 << 18


def _sparse_signs(rng: np.random.Generator, shape, s: float) -> np.ndarray:
    """An int8 array of the given shape, each entry -1 or +1 w.p. 1/(2s), else 0.

    One random byte per entry (:func:`_random_bytes`). A byte whose top 7
    bits t are below T = floor(128/s) is a nonzero; a tie t = T (1 byte in
    128) is one when a uniform falls below 128/s - T, so P(nonzero) = 1/s
    to double precision for every s >= 1 (for s > 128, T = 0 and every
    nonzero comes from a tie). The low bit is the sign. All bytes are drawn
    first, then one uniform per tie in order. The bytes become signs in
    place, one ``_SIGN_BLOCK`` at a time, each block's ties set aside with
    their bytes until the uniforms settle them. The blocks are split over
    two lanes (:func:`_two_lanes`); each writes its blocks' ties into their
    blocks' slots, so the uniforms settle them in position order.
    """
    n = math.prod(np.broadcast_shapes(shape))  # refuses negative dimensions
    b = _random_bytes(rng, n)
    T = int(128.0 / s)
    # Scratch and tie masks of both lanes, lane 1's from _SIGN_BLOCK on (a
    # one-block draw has no lane 1); a lane allocates only its tie arrays.
    scratch = np.empty(n if n <= _SIGN_BLOCK else 2 * _SIGN_BLOCK, dtype=np.uint8)
    tied = np.empty(scratch.shape, dtype=np.bool_)
    blocks = -(-n // _SIGN_BLOCK)
    at, ties = [None] * blocks, [None] * blocks

    def signs(lane: int, lo: int, hi: int) -> None:
        for a in range(lo, hi, _SIGN_BLOCK):
            x = b[a : a + _SIGN_BLOCK]
            own = slice(lane * _SIGN_BLOCK, lane * _SIGN_BLOCK + x.shape[0])
            t = np.right_shift(x, 1, out=scratch[own])
            if T < 128:  # at s = 1, T = 128 and no byte ties
                j = np.flatnonzero(np.equal(t, T, out=tied[own]))
                at[a // _SIGN_BLOCK], ties[a // _SIGN_BLOCK] = a + j, x[j]
            _to_signs(x, np.less(t, T, out=t.view(np.bool_)))

    _two_lanes(signs, n, _SIGN_BLOCK)
    if T < 128 and blocks:
        at, ties = np.concatenate(at), np.concatenate(ties)
        _to_signs(ties, rng.random(at.shape[0]) < 128.0 / s - T)
        b[at] = ties
    return b.view(np.int8).reshape(shape)


def _to_signs(b: np.ndarray, nonzero: np.ndarray) -> None:
    """Turn random bytes into signs in place: 0 where not ``nonzero``, else +-1 by the low bit."""
    # nonzero - 2 (b & nonzero) is +1, -1 (255) or 0, read as int8.
    nonzero = nonzero.view(np.uint8)
    np.bitwise_and(b, nonzero, out=b)
    np.add(b, b, out=b)
    np.subtract(nonzero, b, out=b)


# The second lane of _two_lanes: one worker thread, made on first use, and
# dropped in a forked child, where the parent's thread does not run.
_pool = None
_pool_lock = threading.Lock()
_in_lane = threading.local()


def _lane_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # Imported here: importing the package should not load logging.
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(1, thread_name_prefix="oporp-lane", initializer=setattr,
                                       initargs=(_in_lane, "worker", True))
        return _pool


def _drop_lane_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_lane_pool)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _two_lanes(fn, n: int, step: int) -> None:
    """Run ``fn(lane, lo, hi)`` over [0, n): lane 0 on this thread, lane 1 on the lane thread.

    Each lane takes the next whole step [lo, lo + step) from one shared
    counter until none is left, so a lane that starts late or is
    descheduled (the host's other CPU may be busy) does less of the work
    instead of holding up the other.
    One lane, ``fn(0, 0, n)``, runs when n <= step, when the process may
    use only one CPU, or when called from the lane thread itself. ``fn``
    must use only numpy calls and buffers its caller made, never a
    generator, so that the two lanes give the same result as one. Lane 1 is
    waited for even when lane 0 raises, and then lane 0's exception
    propagates; otherwise lane 1's does, if it raised.
    """
    if n <= step or _cpus() < 2 or getattr(_in_lane, "worker", False):
        fn(0, 0, n)
        return
    starts, lock = iter(range(0, n, step)), threading.Lock()

    def lane(k: int) -> None:
        while True:
            with lock:
                lo = next(starts, None)
            if lo is None:
                return
            fn(k, lo, min(lo + step, n))

    future = _lane_pool().submit(lane, 1)
    try:
        lane(0)
    finally:
        error = future.exception()  # lane 1 writes into the caller's buffers
    if error is not None:
        raise error


# Target entries per block of the index draws and of the VSRP sweep
# kernels, and per tile of the sketch kernels. Blocks and tiles decide only
# where temporaries live: no result depends on this size. At 2**16 a kernel
# tile's gathered block and index temporary (512 KiB each) stay in L2.
_BLOCK_ELEMENTS = 1 << 16


def _block_rows(width: int, rows: int) -> int:
    """Rows per block of a (rows, width) pass: about _BLOCK_ELEMENTS entries, at least 1."""
    return max(1, min(rows, _BLOCK_ELEMENTS // width))


def _bin_rows(rng: np.random.Generator, c: int, Dp: int, k: int) -> np.ndarray:
    """(c, Dp) bin indices in [0, k): numpy's int32 bounded draw of that shape.

    Blocks of rows are drawn as int32 and stored as ``_index_dtype(k)``:
    the bounded int32 draw keeps its state in the generator, so the blocks
    draw what one call would, and leave the stream where it would.
    """
    index = np.empty((c, Dp), dtype=_index_dtype(k))
    step = _block_rows(Dp, c)
    for lo in range(0, c, step):
        rows = min(step, c - lo)
        index[lo : lo + rows] = rng.integers(0, k, size=(rows, Dp), dtype=np.int32)
    return index


def _permutations(rng: np.random.Generator, c: int, Dp: int, dtype) -> np.ndarray:
    """(c, Dp) permutations of range(Dp), stored as ``dtype``: one int32 tile shuffled along its rows.

    numpy shuffles 8-byte items on a fast path, so blocks of rows are
    shuffled as int64: the same draws, and stream position after, as
    shuffling the int32 tile.
    """
    index = np.empty((c, Dp), dtype=dtype)
    step = _block_rows(Dp, c)
    shuffle = np.empty((step, Dp), dtype=np.int64)
    identity = np.arange(Dp, dtype=np.int64)
    for lo in range(0, c, step):
        perms = shuffle[: min(step, c - lo)]
        perms[:] = identity
        rng.permuted(perms, axis=1, out=perms)
        index[lo : lo + perms.shape[0]] = perms
    return index
