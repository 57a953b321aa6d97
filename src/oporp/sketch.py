"""Sketch construction: one permutation + one projection, binned into k sums.

An OPORP sketch of a vector u permutes the coordinates, multiplies
elementwise by an i.i.d. projection vector r, and sums within k bins;
m independent repetitions are stacked repetition-major, so values[t*k:(t+1)*k]
is repetition t. Two binning schemes are supported:

* fixed-length: after the permutation, consecutive blocks of padded_dim/k
  coordinates form the bins (the vector is zero-padded when k does not
  divide dim);
* variable-length: every coordinate is assigned independently and uniformly
  to one of the k bins, so bin lengths are jointly multinomial and k may
  exceed dim.

A VSRP sketch is the classical very sparse random projection: k independent
sparse columns, one output sample each. It is distribution-identical to an
OPORP sketch with k=1 bin and m=k repetitions and is stored under that
equivalent config, but it is computed by an independent code path and
tagged with its own flavor so the two stream layouts cannot be mixed.

All rows sketched under one config share one draw of the randomness. A
:class:`SketchPlan` draws it once from one generator (an OPORP plan's m
repetitions are the sweep's draw of m trials) and sketches an (N, dim)
matrix in tiles; ``oporp_sketch`` and ``vsrp_sketch`` are its N = 1
case, so a row sketched in a batch is bit-identical to the same vector
sketched alone. Inputs holding inf or NaN are rejected, and so is a
finite row whose sketch values overflow, by its row number.
:func:`row_norms` scales a row by its largest entry only when its sum of
squares would overflow or underflow, so ordinary norms keep their bits.

The draws are a pure function of the frozen config and the flavor, so the
package keeps the plans of the last ``_PLAN_CACHE_SIZE`` = 2 (config, flavor)
pairs it used (:func:`_plan`, an LRU cache): ``oporp_sketch``,
``vsrp_sketch``, the DP releases and ``similarity_matrix`` all go through
it, and sketching many vectors one call at a time draws each config once.
Draws are kept as numpy makes them, (m, padded_dim) rows
(:func:`_oporp_draws`), and stored compactly (:func:`_draw_dtypes`). An
OPORP plan holds m*padded_dim indices, uint16 while they take at most
65536 values and int32 beyond, and, unless they are folded into the
index, as many multipliers, int8 for Rademacher signs and float64
otherwise. A fixed-binning draw folds Rademacher signs into its
permutations: index p + padded_dim reads -x_p, so the index takes
2*padded_dim values, and a Rademacher plan holds 2 bytes per entry up to
32768 positions and 4 beyond. A variable-binning plan keeps its
k-valued bin indices beside the multipliers: 3 bytes per entry for
Rademacher signs (5 with int32 indices). Any other distribution takes 10
bytes per entry (12). A VSRP plan holds the dim x m float64 matrix (8
bytes per entry). A plan above ``_PLAN_CACHE_BYTES`` = 16 MiB
(:func:`_plan_bytes`) is drawn for its call and not kept. Every plan's
arrays are read-only, whether cached or built directly, so a shared draw
cannot be changed by a caller.

The gather x multiply -> bin sum step is one kernel, :func:`_bin_sums`,
shared by the plan and the Monte-Carlo sweep (a sweep chunk is a plan of
c repetitions applied to its pair of rows). It works in tiles of about
``projection._BLOCK_ELEMENTS`` entries (:func:`_tile`): repetitions
first, then as many rows as still fit. Fixed binning reads the draws
bin-major (:func:`_bin_major`), writes a tile's rows transposed, with
their negations, copies whole rows of that block with one gather per
tile, bin-major, and sums every bin with one ``np.add.reduce`` over the
bin axis. Variable binning sums a tile's products with one ``bincount``.
Both sum every bin left to right from +0.0, in the order of its entries,
so the tile size decides only where temporaries live and never changes
a result. Each thread keeps the kernels' buffers between calls (up to
1 MiB each, :func:`_buffer`), so that repeated sketches of a few rows
reuse their memory instead of faulting fresh pages in.

Sketch file layout (little-endian, 64-byte header). The version names the
stream the sketch was drawn from and how its bins were summed: version 1
drew each repetition from its own Philox streams, version 2 a plan's
repetitions from one Philox stream with one int32 draw per Rademacher
sign, version 3 from SFC64 streams with one random bit per sign, and
version 4 draws as version 3 does but sums every fixed bin left to
right, where version 3 summed it in numpy's pairwise order, which can
differ in the last bits once a bin holds 8 entries. A sketch of another
version shares no randomness with this version's sketches (versions 1
and 2) or was summed in another order (version 3), so an estimate from
the pair would be silently wrong, and loading refuses it:

    offset  size  field
    0       4     magic b"OPRP"
    4       2     u16 format version (4)
    6       1     u8 payload kind (0 = float64 values, 1 = int8 sign bits)
    7       1     u8 flavor (0 = oporp, 1 = vsrp)
    8       1     u8 binning (0 = fixed, 1 = variable)
    9       1     u8 distribution (0 = rademacher, 1 = gaussian,
                                   2 = scaled_uniform, 3 = sparse)
    10      1     u8 has_norm flag
    11      5     zero padding
    16      8     u64 dim
    24      8     u64 k
    32      8     u64 m
    40      8     u64 seed
    48      8     f64 sparsity s
    56      8     f64 stored l2 norm (0.0 when has_norm = 0)
    64      ...   payload: k*m float64 values, or k*m int8 entries in {-1, +1}
"""

from __future__ import annotations

import enum
import functools
import math
import operator
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .projection import (
    _STREAMS,
    ProjectionDistribution,
    ProjectionKind,
    _bin_rows,
    _block_rows,
    _index_dtype,
    _multiplier_dtype,
    _permutations,
    check_seed,
    derive_seed,
    draw_multipliers,
    generator,
    sparse,
)

# Plans kept by _plan. Two, because loops that sketch pairs under one OPORP
# and one VSRP config (and retrieval_eval over both kinds) alternate them.
_PLAN_CACHE_SIZE = 2

# A plan whose arrays exceed this many bytes is not kept: the cache holds at most twice this.
_PLAN_CACHE_BYTES = 16 << 20

# Kernel buffers each thread keeps from one call to the next (name -> flat
# array), so that repeated sketches reuse their memory instead of faulting
# fresh pages in. Only buffers of up to _SCRATCH_ELEMENTS entries (two tiles)
# are kept: five buffers of at most 1 MiB each per thread.
_scratch = threading.local()
_SCRATCH_ELEMENTS = 1 << 17


class Binning(enum.Enum):
    FIXED = "fixed"
    VARIABLE = "variable"


class ZeroNormError(ValueError):
    """A vector or repetition block that must be nonzero has norm zero."""


class SketchMismatchError(ValueError):
    """Two sketches built under different configs or flavors were combined."""


class SketchFileError(ValueError):
    """A sketch file is truncated, has a bad magic, or an unknown layout."""


def _padded_dim(dim: int, k: int, binning: Binning) -> int:
    """dim rounded up to a multiple of k for fixed bins; dim for variable bins."""
    if binning is Binning.FIXED:
        return k * math.ceil(dim / k)
    return dim


@dataclass(frozen=True)
class SketchConfig:
    """Everything needed to rebuild a sketch's randomness from the seed."""

    dim: int
    k: int
    binning: Binning
    dist: ProjectionDistribution
    m: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        # A string binning would compare unequal to both members and pick the
        # variable-length scheme wherever the code asks "is FIXED?".
        if not isinstance(self.binning, Binning):
            raise TypeError(f"binning must be a Binning, got {self.binning!r}")
        if not isinstance(self.dist, ProjectionDistribution):
            raise TypeError(f"dist must be a ProjectionDistribution, got {self.dist!r}")
        # Stored as plain ints: seed 5.5 would draw seed 5's randomness yet
        # compare unequal to it, and dim 16.0 cannot be written to a file.
        for name in ("dim", "k", "m", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.binning is Binning.FIXED and self.k > self.dim:
            raise ValueError(
                f"fixed-length binning needs k <= dim, got k={self.k}, dim={self.dim}"
            )
        check_seed(self.seed)

    @property
    def padded_dim(self) -> int:
        """Working dimension: dim rounded up to a multiple of k for fixed bins."""
        return _padded_dim(self.dim, self.k, self.binning)


@dataclass
class Sketch:
    """k*m sketch values stored repetition-major, plus the config behind them."""

    values: np.ndarray
    config: SketchConfig
    flavor: str = "oporp"
    stored_norm: float | None = None

    def __post_init__(self) -> None:
        _check_flavor(self.config, self.flavor)
        expected = self.config.k * self.config.m
        if np.ndim(self.values) != 1 or len(self.values) != expected:
            raise ValueError(
                f"a k={self.config.k}, m={self.config.m} sketch needs {expected} values, "
                f"got shape {np.shape(self.values)}"
            )
        # The bound load_sketch enforces, so that every saved norm loads back.
        if self.stored_norm is not None and not 0.0 <= self.stored_norm < math.inf:
            raise ValueError(f"stored norm {self.stored_norm} is not finite and >= 0")

    @property
    def reps(self) -> np.ndarray:
        """(m, k) view of the values."""
        return self.values.reshape(self.config.m, self.config.k)


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError("input holds inf or NaN entries")


def _as_vector(u: np.ndarray, dim: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.shape[0] != dim:
        raise ValueError(f"expected a length-{dim} vector, got shape {u.shape}")
    _check_finite(u)
    return u


def _as_matrix(M: np.ndarray, dim: int) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) matrix, got shape {M.shape}")
    _check_finite(M)
    return M


# The smallest normal float64: a sum of squares below it has lost precision.
_TINY = np.finfo(np.float64).tiny


def row_norms(M: np.ndarray) -> np.ndarray:
    """l2 norm of every row of M, each reduced exactly as np.linalg.norm(row).

    A row whose sum of squares overflows to inf, or underflows below the
    smallest normal float while the row is nonzero, is scaled by its
    largest magnitude first, so its norm is finite and accurate whenever
    it is representable; no other row's norm changes by a bit.
    """
    M = np.asarray(M, dtype=np.float64)
    with np.errstate(over="ignore"):
        squares = np.matmul(M[:, None, :], M[:, :, None])[:, 0, 0]
        norms = np.sqrt(squares)
        if squares.size and not _TINY <= squares.min() <= squares.max() < math.inf:
            redo = np.flatnonzero(~(squares >= _TINY) | (squares == math.inf))
            redo = redo[M[redo].any(axis=1)]
            scale = np.abs(M[redo]).max(axis=1, initial=0.0)
            S = M[redo] / scale[:, None]
            norms[redo] = scale * np.sqrt(np.matmul(S[:, None, :], S[:, :, None])[:, 0, 0])
    return norms


def vsrp_config(D: int, k: int, s: float, seed: int) -> SketchConfig:
    """The (k=1 bin, m=k repetitions) config a k-sample VSRP sketch is stored under."""
    return SketchConfig(
        dim=D, k=1, binning=Binning.VARIABLE, dist=sparse(s), m=k, seed=seed
    )


def _check_flavor(config: SketchConfig, flavor: str) -> None:
    """Raise ValueError unless ``flavor`` is known, and a "vsrp" config vsrp_config's shape."""
    if flavor not in _FLAVOR_CODES:
        raise ValueError(f"unknown sketch flavor {flavor!r}")
    shape = (config.k, config.binning, config.dist.kind)
    if flavor == "vsrp" and shape != (1, Binning.VARIABLE, ProjectionKind.SPARSE):
        raise ValueError("a vsrp sketch needs the config made by vsrp_config")


class SketchPlan:
    """A config's randomness, drawn once and applied to any number of rows.

    An ``"oporp"`` plan holds the repetitions' draws as drawn
    (:func:`_oporp_draws`): (m, padded_dim) bin indices (variable binning)
    or permutations (fixed binning) and as many multipliers; a
    fixed-binning Rademacher plan folds its signs into the permutations
    and holds no multipliers. A ``"vsrp"`` plan, built
    on a :func:`vsrp_config`, holds the dim x m sparse projection matrix.
    Each plan draws from one generator keyed by its seed and flavor, the
    stream the single-vector functions use, so all rows sketched under one
    config share one draw of the randomness and ``plan.apply(M)[i]`` equals
    the sketch of ``M[i]`` bit for bit. The drawn arrays are read-only. A plan constructed
    directly is not cached; ``oporp_sketch``, ``vsrp_sketch`` and
    ``similarity_matrix`` share the cached plans of :func:`_plan`.
    """

    def __init__(self, config: SketchConfig, flavor: str = "oporp") -> None:
        _check_flavor(config, flavor)
        self.config = config
        self.flavor = flavor
        rng = generator(derive_seed(config.seed, _STREAMS[flavor]))
        if flavor == "vsrp":
            self._projection = _read_only(
                draw_multipliers(rng, (config.dim, config.m), config.dist)
            )
            return
        fixed = config.binning is Binning.FIXED
        draws = _oporp_draws(rng, config.m, config.padded_dim, config.k, config.dist, fixed)
        self._indices, self._multipliers = (None if a is None else _read_only(a) for a in draws)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """(N, k*m) sketch values of the rows of an (N, dim) matrix, each repetition-major.

        Raises ValueError, naming the rows, when a finite input row's
        sketch values overflow to inf or NaN.
        """
        return self._apply(_as_matrix(M, self.config.dim))

    def sketch(self, u: np.ndarray) -> Sketch:
        """The sketch of one vector, its l2 norm stored alongside.

        Raises ValueError when the values or the norm overflow.
        """
        row = _as_vector(u, self.config.dim)[None, :]
        values, norm = self._apply(row)[0], float(row_norms(row)[0])
        if norm == math.inf:
            raise ValueError("the input's l2 norm overflows float64")
        return Sketch(values, self.config, self.flavor, norm)

    def _apply(self, M: np.ndarray) -> np.ndarray:
        config = self.config
        # An overflow is reported once, by row, below.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.flavor == "vsrp":
                # One matrix-vector product per row: a single M @ R would sum in
                # another order and differ from the one-vector sketch in the last bits.
                out = np.matmul(M[:, None, :], self._projection)[:, 0, :]
            else:
                fixed = config.binning is Binning.FIXED
                out = _bin_sums(M, self._indices, self._multipliers, config.k, fixed)
        if not np.isfinite(out).all():
            rows = np.flatnonzero(~np.isfinite(out).all(axis=1))
            raise ValueError(f"sketch values overflow float64 for input rows {_some(rows)}")
        return out


def _some(rows: np.ndarray, shown: int = 10) -> str:
    """The first ``shown`` row numbers, and how many more there are."""
    text = ", ".join(map(str, rows[:shown].tolist()))
    return text if rows.size <= shown else f"{text} and {rows.size - shown} more"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _plan(config: SketchConfig, flavor: str) -> SketchPlan:
    """The plan of (config, flavor), shared with every other call that asks for it.

    A plan whose arrays would exceed ``_PLAN_CACHE_BYTES`` is drawn for this
    call only. A hit returns the arrays a miss would draw: the draws are a
    pure function of the key.
    """
    if _plan_bytes(config, flavor) > _PLAN_CACHE_BYTES:
        return SketchPlan(config, flavor)
    return _cached_plan(config, flavor)


def _plan_bytes(config: SketchConfig, flavor: str) -> int:
    """The bytes of the arrays a plan of (config, flavor) draws, known before it draws them."""
    # The vsrp matrix is dim x m multipliers (padded_dim is dim under its
    # variable binning); an oporp plan holds the arrays of _draw_dtypes.
    Dp, fixed = config.padded_dim, config.binning is Binning.FIXED
    dtypes = ((_multiplier_dtype(config.dist),) if flavor == "vsrp"
              else _draw_dtypes(config.dist, Dp, config.k, fixed))
    return config.m * Dp * sum(d.itemsize for d in dtypes if d is not None)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cached_plan(config: SketchConfig, flavor: str) -> SketchPlan:
    # flavor is always passed positionally, so one pair has one key.
    return SketchPlan(config, flavor)


def _buffer(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """A flat buffer of ``size`` entries for one kernel call, kept for this thread's next call."""
    kept = _scratch.__dict__
    buf = kept.get(name)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        if size <= _SCRATCH_ELEMENTS:
            kept[name] = buf
    return buf[:size]


def _tile(N: int, m: int, Dp: int) -> tuple[int, int]:
    """(rows, repetitions) of one tile of the bin-sum kernels, by :func:`_block_rows`.

    Repetitions first, then as many rows as still fit; each is at least 1.
    The kernels loop over tiles of repetitions and, within each, over tiles
    of rows, so what depends on the repetitions alone (a widened index, a
    set of shifted bins) is made once per tile of repetitions.
    """
    g = _block_rows(Dp, m)
    return _block_rows(g * Dp, N), g


def _draw_dtypes(dist: ProjectionDistribution, Dp: int, k: int, fixed: bool):
    """(index, multiplier) dtypes of :func:`_oporp_draws`; None for signs folded into the index.

    Bin indices take k values and permutations Dp; a fixed-binning draw
    folds Rademacher signs into its permutations, which then take 2*Dp.
    """
    folds = fixed and dist.kind is ProjectionKind.RADEMACHER
    values = (2 * Dp if folds else Dp) if fixed else k
    return _index_dtype(values), None if folds else _multiplier_dtype(dist)


def _oporp_draws(rng: np.random.Generator, c: int, Dp: int, k: int, dist, fixed: bool):
    """c OPORP draws, a plan's m repetitions or a sweep chunk's trials, as (c, Dp) rows.

    The stream holds c index rows, permutations of range(Dp) under fixed
    binning (:func:`_permutations`) or bin indices in [0, k) under variable
    binning (:func:`_bin_rows`), then the (c, Dp) multipliers of one
    ``draw_multipliers`` call. Fixed binning adds Rademacher signs to its
    permutations in place, one block of rows at a time: a negative sign
    makes index p read p + Dp, the row of the kernel's signed block that
    holds -x_p, and the multipliers come back as None.
    """
    dtype, r_dtype = _draw_dtypes(dist, Dp, k, fixed)
    index = _permutations(rng, c, Dp, dtype) if fixed else _bin_rows(rng, c, Dp, k)
    r = draw_multipliers(rng, (c, Dp), dist)
    if r_dtype is not None:
        return index, r
    step = _block_rows(Dp, c)
    negative = np.empty((step, Dp), dtype=dtype)
    for lo in range(0, c, step):
        # -1 is the int8 byte 255, whose top bit marks a negative sign.
        block = r[lo : lo + step].view(np.uint8)
        mask = np.right_shift(block, 7, out=negative[: block.shape[0]])
        mask *= Dp
        index[lo : lo + step] += mask
    return index, None


def _bin_major(rows: np.ndarray, k: int) -> np.ndarray:
    """The (L, c, k) view of (c, Dp) rows in k bins of L: entry (l, t, b) is rows[t, b*L + l]."""
    return rows.reshape(rows.shape[0], k, -1).transpose(2, 0, 1)


def _bin_sums(M: np.ndarray, index: np.ndarray, r, k: int, fixed: bool) -> np.ndarray:
    """(N, c*k) bin sums of the rows of M under c draws, each row repetition-major.

    The gather x multiply -> bin sum kernel of a plan and of a sweep chunk
    (a plan of c repetitions applied to two rows), reading the (c, Dp)
    rows of :func:`_oporp_draws`; fixed binning reads them bin-major
    (:func:`_bin_major`). The rows of M need no padding: fixed binning
    zero-pads them to padded_dim itself.
    """
    out = np.empty((M.shape[0], index.shape[0] * k))
    if fixed:
        _fixed_sums(M, _bin_major(index, k), None if r is None else _bin_major(r, k), out)
    else:
        _variable_sums(M, index, r, k, out)
    return out


def _fixed_sums(M: np.ndarray, index: np.ndarray, r, out: np.ndarray) -> None:
    """Fixed-binning bin sums of the rows of M into out, (N, c*k) repetition-major.

    ``index`` and ``r`` are the (L, c, k) views of the draws. A tile of rows
    is written transposed into T: [W^T; -W^T] when the signs are folded
    (r is None), else W^T, zero-padded to Dp rows either way (0.0 and
    -0.0, as a padded zero times -1). One ``np.take`` per tile copies
    whole rows of T into G, shape (L, h, k, n) for h repetitions of n
    rows, so that G[l] holds entry l of every bin; unfolded multipliers
    multiply G in the same order. One ``np.add.reduce`` over G's first
    axis then adds G[1], ..., G[L-1] to G[0] one row at a time, so every
    bin is summed left to right from +0.0, as ``bincount`` sums a
    variable bin.
    """
    N, dim = M.shape
    L, c, k = index.shape
    Dp = L * k
    rows, g = _tile(N, c, Dp)
    height = Dp if r is not None else 2 * Dp
    tbuf = _buffer("block", height * rows)
    gbuf = _buffer("gathered", Dp * g * rows)
    ibuf = _buffer("index", Dp * g, np.intp)

    def block(start):
        W = M[start : start + rows]
        T = tbuf[: height * W.shape[0]].reshape(height, W.shape[0])
        T[:dim] = W.T
        T[dim:Dp] = 0.0
        if r is None:
            np.negative(T[:Dp], out=T[Dp:])
        return T

    # With one tile of rows, its block serves every tile of repetitions.
    single = block(0) if N <= rows else None
    for t in range(0, c, g):
        h = min(g, c - t)
        # Widened to intp here: np.take would widen it in a temporary on every call.
        tile = ibuf[: Dp * h].reshape(L, h, k)
        np.copyto(tile, index[:, t : t + h])
        for start in range(0, N, rows):
            T = single if single is not None else block(start)
            n = T.shape[1]
            G = gbuf[: Dp * h * n].reshape(L, h, k, n)
            # Every index is in range; "wrap" writes straight to G, where
            # the default mode would gather through a temporary.
            np.take(T, tile, axis=0, out=G, mode="wrap")
            if r is not None:
                G *= r[:, t : t + h, :, None]
            G = G.reshape(L, h * k * n)
            # numpy would sum a single column pairwise; accumulate adds its rows in order.
            sums = np.add.reduce(G) if G.shape[1] > 1 else np.add.accumulate(G)[-1]
            # Both start from G[0], so +0.0 turns a bin of only -0.0 into +0.0.
            np.add(sums.reshape(h, k, n).transpose(2, 0, 1), 0.0,
                   out=out[start : start + n, t * k : (t + h) * k].reshape(n, h, k))


def _variable_sums(M: np.ndarray, index: np.ndarray, r: np.ndarray, k: int, out: np.ndarray) -> None:
    """Variable-binning bin sums of the rows of M into out, (N, c*k) repetition-major.

    ``index`` and ``r`` are (c, dim) bin indices and multipliers. A tile
    of rows x repetitions is multiplied into one buffer, and its bins move
    to [j*k, (j+1)*k) for the tile's j-th (row, repetition), so one
    ``bincount`` sums the tile; each bin still sums its own entries in
    index order. The shifted bins of a tile of repetitions serve all its
    tiles of rows.
    """
    N, dim = M.shape
    c = index.shape[0]
    rows, g = _tile(N, c, dim)
    pbuf = _buffer("products", rows * g * dim)
    bbuf = _buffer("bins", rows * g * dim, np.intp)
    for t in range(0, c, g):
        h = min(g, c - t)
        bins = bbuf[: rows * h * dim].reshape(rows, h, dim)
        np.add(index[t : t + h], k * np.arange(rows * h).reshape(rows, h, 1), out=bins)
        for start in range(0, N, rows):
            W = M[start : start + rows, None, :]
            n = W.shape[0]
            P = pbuf[: n * h * dim].reshape(n, h, dim)
            # r widened into P, then times the rows: the same products as
            # one multiply, without its mixed int8 x float64 loop.
            np.copyto(P, r[t : t + h])
            P *= W
            sums = np.bincount(bins[:n].ravel(), weights=P.ravel(), minlength=n * h * k)
            out[start : start + n, t * k : (t + h) * k] = sums.reshape(n, h * k)


def oporp_sketch(u: np.ndarray, config: SketchConfig) -> Sketch:
    """Sketch ``u`` under ``config``; same config means shared randomness.

    Two vectors sketched under an equal config see the same permutations,
    projections, and bin draws, which is what makes the estimators in
    :mod:`oporp.estimate` work. The draws are kept for the last two configs
    used (see the module docstring), so sketching vectors one call at a time
    under one config draws them once. To sketch a whole matrix, apply a
    :class:`SketchPlan` to it: one call sketches every row.
    """
    return _plan(config, "oporp").sketch(u)


def vsrp_sketch(u: np.ndarray, D: int, k: int, s: float, seed: int) -> Sketch:
    """Very sparse random projection: k independent samples u . r_col.

    Stored under the equivalent (k=1, m=k) config, but computed by its own
    direct matrix path on an independent stream and tagged with the "vsrp"
    flavor, which only the vsrp estimators read.
    """
    return _plan(vsrp_config(D, k, s, seed), "vsrp").sketch(u)


def check_compatible(x: Sketch, y: Sketch) -> None:
    """Raise unless two sketches share config and flavor (hence randomness)."""
    if x.config != y.config:
        raise SketchMismatchError(
            f"sketch configs differ: {x.config} vs {y.config}"
        )
    if x.flavor != y.flavor:
        raise SketchMismatchError(f"sketch flavors differ: {x.flavor} vs {y.flavor}")


# --- file format ------------------------------------------------------------

_MAGIC = b"OPRP"
_FORMAT_VERSION = 4
_HEADER = struct.Struct("<4sHBBBBB5xQQQQdd")
_PAYLOAD_VALUES = 0
_PAYLOAD_SIGNS = 1
# Bytes per payload entry: float64 values, int8 signs.
_PAYLOAD_ITEMSIZE = {_PAYLOAD_VALUES: 8, _PAYLOAD_SIGNS: 1}
_FLAVOR_CODES = {"oporp": 0, "vsrp": 1}
_BINNING_CODES = {Binning.FIXED: 0, Binning.VARIABLE: 1}
_DIST_CODES = {
    ProjectionKind.RADEMACHER: 0,
    ProjectionKind.GAUSSIAN: 1,
    ProjectionKind.SCALED_UNIFORM: 2,
    ProjectionKind.SPARSE: 3,
}
_FLAVORS = {v: n for n, v in _FLAVOR_CODES.items()}
_BINNINGS = {v: b for b, v in _BINNING_CODES.items()}
_DISTS = {v: d for d, v in _DIST_CODES.items()}


def _pack_header(config: SketchConfig, payload: int, flavor: str, norm: float | None) -> bytes:
    return _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        payload,
        _FLAVOR_CODES[flavor],
        _BINNING_CODES[config.binning],
        _DIST_CODES[config.dist.kind],
        0 if norm is None else 1,
        config.dim,
        config.k,
        config.m,
        config.seed,
        config.dist.sparsity,
        0.0 if norm is None else float(norm),
    )


def _read_sketch_file(path: str) -> tuple[bytes, SketchConfig, int, str, float | None]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _HEADER.size:
        raise SketchFileError("sketch file shorter than its header")
    (magic, version, payload, flavor, binning, dist, has_norm,
     dim, k, m, seed, sparsity, norm) = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise SketchFileError(f"bad magic {magic!r}, not a sketch file")
    if version != _FORMAT_VERSION:
        raise SketchFileError(f"unsupported sketch format version {version}")
    try:
        config = SketchConfig(
            dim=dim,
            k=k,
            binning=_BINNINGS[binning],
            dist=ProjectionDistribution(_DISTS[dist], sparsity),
            m=m,
            seed=seed,
        )
        flavor_name = _FLAVORS[flavor]
        _check_flavor(config, flavor_name)
        itemsize = _PAYLOAD_ITEMSIZE[payload]
    except (KeyError, ValueError) as exc:
        raise SketchFileError(f"bad sketch header field: {exc}") from exc
    # Checked before any frombuffer, which refuses a ragged buffer with its own error.
    expected = itemsize * k * m
    if len(buf) - _HEADER.size != expected:
        raise SketchFileError(
            f"expected a {expected}-byte payload, file holds {len(buf) - _HEADER.size}"
        )
    if has_norm and not 0.0 <= norm < math.inf:
        raise SketchFileError(f"stored norm {norm} is not finite and >= 0")
    return buf, config, payload, flavor_name, (float(norm) if has_norm else None)


def save_sketch(path: str, sk: Sketch) -> None:
    """Write a sketch to ``path`` in the documented binary layout.

    Raises ValueError, before any byte is written, on inf or NaN values,
    which :func:`load_sketch` would refuse.
    """
    values = np.ascontiguousarray(sk.values, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError("sketch holds inf or NaN values")
    with open(path, "wb") as fh:
        fh.write(_pack_header(sk.config, _PAYLOAD_VALUES, sk.flavor, sk.stored_norm))
        fh.write(values.tobytes())


def load_sketch(path: str) -> Sketch:
    """Read back a float-valued sketch written by :func:`save_sketch`."""
    buf, config, payload, flavor, norm = _read_sketch_file(path)
    if payload != _PAYLOAD_VALUES:
        raise SketchFileError("file holds sign bits, not sketch values")
    values = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size)
    if not np.isfinite(values).all():
        raise SketchFileError("sketch file holds inf or NaN values")
    return Sketch(values.astype(np.float64), config, flavor, stored_norm=norm)


def _are_signs(bits: np.ndarray) -> bool:
    """Whether every entry is -1 or +1. Booleans are not signs, though True == 1."""
    return bits.dtype != np.bool_ and bool(np.isin(bits, (-1, 1)).all())


def save_sign_sketch(path: str, bits: np.ndarray, config: SketchConfig) -> None:
    """Write k*m +-1 sign bits under the same header as value sketches."""
    bits = np.asarray(bits)
    expected = config.k * config.m
    if bits.ndim != 1 or bits.shape[0] != expected:
        raise ValueError(
            f"a k={config.k}, m={config.m} sign sketch needs {expected} bits, "
            f"got shape {bits.shape}"
        )
    if not _are_signs(bits):
        raise ValueError("sign bits must all be -1 or +1")
    with open(path, "wb") as fh:
        fh.write(_pack_header(config, _PAYLOAD_SIGNS, "oporp", None))
        fh.write(bits.astype(np.int8).tobytes())


def load_sign_sketch(path: str) -> tuple[np.ndarray, SketchConfig]:
    """Read back sign bits and the config they were sketched under."""
    buf, config, payload, flavor, _ = _read_sketch_file(path)
    if payload != _PAYLOAD_SIGNS:
        raise SketchFileError("file holds sketch values, not sign bits")
    if flavor != "oporp":
        raise SketchFileError(f"sign files hold oporp sketches, not {flavor!r} ones")
    bits = np.frombuffer(buf, dtype=np.int8, offset=_HEADER.size)
    if not np.all(np.abs(bits) == 1):
        raise SketchFileError("sign file holds entries other than -1 and +1")
    return bits.astype(np.int8), config

