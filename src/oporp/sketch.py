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
matrix in row blocks; ``oporp_sketch`` and ``vsrp_sketch`` are its N = 1
case, so a row sketched in a batch is bit-identical to the same vector
sketched alone. Inputs holding inf or NaN are rejected.

The draws are a pure function of the frozen config and the flavor, so the
package keeps the plans of the last ``_PLAN_CACHE_SIZE`` = 2 (config, flavor)
pairs it used (:func:`_plan`, an LRU cache): ``oporp_sketch``,
``vsrp_sketch``, the DP releases and ``similarity_matrix`` all go through
it, and sketching many vectors one call at a time draws each config once.
Draws are stored compactly (see :mod:`oporp.projection`). An OPORP plan
holds m*padded_dim indices, uint16 while they take at most 65536 values
(padded_dim positions for fixed binning, k bins for variable binning) and
int32 beyond, and as many multipliers, int8 for Rademacher signs and
float64 otherwise: 3 bytes per entry for a Rademacher plan (5 with int32
indices), 10 for any other (12). A VSRP plan holds the dim x m float64
matrix (8 bytes per entry). A plan above ``_PLAN_CACHE_BYTES`` = 16 MiB
(:func:`_plan_bytes`) is drawn for its call and not kept. Every plan's
arrays are read-only, whether cached or built directly, so a shared draw
cannot be changed by a caller.

The gather x multiply -> bin sum step is one kernel, :func:`_bin_sums`,
shared by the plan and the Monte-Carlo sweep. It runs on one reused block
buffer of about ``_BLOCK_ELEMENTS`` entries; every row is reduced on its
own, so the block size decides only where temporaries live and never
changes a result.

Sketch file layout (little-endian, 64-byte header). The version names the
stream the sketch was drawn from: version 1 drew each repetition from its
own Philox streams, version 2 a plan's repetitions from one Philox stream
with one int32 draw per Rademacher sign, and version 3 draws from SFC64
streams with one random bit per sign. A sketch of another version shares
no randomness with this version's sketches, so an estimate from the pair
would be silently wrong, and loading refuses it:

    offset  size  field
    0       4     magic b"OPRP"
    4       2     u16 format version (3)
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
from dataclasses import dataclass

import numpy as np

from .projection import (
    ProjectionDistribution,
    ProjectionKind,
    _index_dtype,
    _multiplier_itemsize,
    _oporp_draws,
    check_seed,
    derive_seed,
    draw_multipliers,
    generator,
    sparse,
)

# Stream tag per flavor: a plan draws from generator(derive_seed(seed, tag)).
# Tags 0-2 key the experiment module's own streams.
_STREAMS = {"vsrp": 3, "oporp": 4}

# Plans kept by _plan. Two, because loops that sketch pairs under one OPORP
# and one VSRP config (and retrieval_eval over both kinds) alternate them.
_PLAN_CACHE_SIZE = 2

# A plan whose arrays exceed this many bytes is not kept: the cache holds at most twice this.
_PLAN_CACHE_BYTES = 16 << 20

# Target float64 entries per block buffer of the bin-sum kernel. Blocks
# decide only where temporaries live: no result depends on this size. At
# 2**16 a block's buffer and index temporary (512 KiB each) stay in a
# 2 MiB L2 cache.
_BLOCK_ELEMENTS = 1 << 16


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


def row_norms(M: np.ndarray) -> np.ndarray:
    """l2 norm of every row of M, each reduced exactly as np.linalg.norm(row)."""
    M = np.asarray(M, dtype=np.float64)
    return np.sqrt(np.matmul(M[:, None, :], M[:, :, None])[:, 0, 0])


def vsrp_config(D: int, k: int, s: float, seed: int) -> SketchConfig:
    """The (k=1 bin, m=k repetitions) config a k-sample VSRP sketch is stored under."""
    return SketchConfig(
        dim=D, k=1, binning=Binning.VARIABLE, dist=sparse(s), m=k, seed=seed
    )


class SketchPlan:
    """A config's randomness, drawn once and applied to any number of rows.

    An ``"oporp"`` plan holds two (m, padded_dim) arrays: the repetitions'
    permutations (fixed binning) or bin indices (variable binning), and
    their multipliers. A ``"vsrp"`` plan, built on a :func:`vsrp_config`,
    holds the dim x m sparse projection matrix. Each plan draws from one
    generator keyed by its seed and flavor, the stream the single-vector
    functions use, so all rows sketched under one config share one draw of
    the randomness and ``plan.apply(M)[i]`` equals the sketch of ``M[i]``
    bit for bit. The drawn arrays are read-only. A plan constructed
    directly is not cached; ``oporp_sketch``, ``vsrp_sketch`` and
    ``similarity_matrix`` share the cached plans of :func:`_plan`.
    """

    def __init__(self, config: SketchConfig, flavor: str = "oporp") -> None:
        self.config = config
        self.flavor = flavor
        if flavor not in _STREAMS:
            raise ValueError(f"unknown sketch flavor {flavor!r}")
        rng = generator(derive_seed(config.seed, _STREAMS[flavor]))
        if flavor == "vsrp":
            shape = (config.k, config.binning, config.dist.kind)
            if shape != (1, Binning.VARIABLE, ProjectionKind.SPARSE):
                raise ValueError("a vsrp plan needs the config made by vsrp_config")
            self._projection = _read_only(
                draw_multipliers(rng, (config.dim, config.m), config.dist)
            )
            return
        fixed = config.binning is Binning.FIXED
        draws = _oporp_draws(rng, config.m, config.padded_dim, config.k, config.dist, fixed)
        self._indices, self._multipliers = map(_read_only, draws)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """(N, k*m) sketch values of the rows of an (N, dim) matrix, each repetition-major."""
        return self._apply(_as_matrix(M, self.config.dim))

    def sketch(self, u: np.ndarray) -> Sketch:
        """The sketch of one vector, its l2 norm stored alongside."""
        row = _as_vector(u, self.config.dim)[None, :]
        return Sketch(self._apply(row)[0], self.config, self.flavor, float(row_norms(row)[0]))

    def _apply(self, M: np.ndarray) -> np.ndarray:
        if self.flavor == "vsrp":
            # One matrix-vector product per row: a single M @ R would sum in
            # another order and differ from the one-vector sketch in the last bits.
            return np.matmul(M[:, None, :], self._projection)[:, 0, :]
        config = self.config
        k, m, dim, Dp = config.k, config.m, config.dim, config.padded_dim
        fixed = config.binning is Binning.FIXED
        N = M.shape[0]
        out = np.empty((N, m * k))
        rows = _block_rows(Dp, N)
        buf = np.empty((rows, Dp))
        # Rows zero-padded to Dp, one block at a time, for the permutation to gather from.
        padded = np.zeros((rows, Dp)) if Dp != dim else None
        for start in range(0, N, rows):
            W = M[start : start + rows]
            c = W.shape[0]
            if padded is not None:
                padded[:c, :dim] = W
                W = padded[:c]
            reps = out[start : start + c].reshape(c, m, k)
            for t, (index, r) in enumerate(zip(self._indices, self._multipliers)):
                reps[:, t], = _bin_sums(buf[:c], (W,), r, index, k, fixed)
        return out


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
    # variable binning); an oporp plan holds an index per multiplier too.
    per_entry = _multiplier_itemsize(config.dist)
    if flavor == "oporp":
        fixed = config.binning is Binning.FIXED
        per_entry += _index_dtype(config.padded_dim if fixed else config.k).itemsize
    return config.m * config.padded_dim * per_entry


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _cached_plan(config: SketchConfig, flavor: str) -> SketchPlan:
    # flavor is always passed positionally, so one pair has one key.
    return SketchPlan(config, flavor)


def _block_rows(width: int, rows: int) -> int:
    """Rows per block of a (rows, width) pass: about _BLOCK_ELEMENTS entries, at least 1."""
    return max(1, min(rows, _BLOCK_ELEMENTS // width))


def _bin_sums(
    buf: np.ndarray, sources: tuple, r: np.ndarray, index: np.ndarray, k: int, fixed: bool
) -> list[np.ndarray]:
    """(rows, k) bin sums of one block per source: the gather x multiply -> bin sum kernel.

    ``buf`` is the (rows, Dp) float64 scratch the block's products are
    written to. Fixed binning gathers a source by the permutation ``index``,
    multiplies by ``r`` and sums consecutive runs of Dp/k entries; variable
    binning multiplies a source by ``r`` and sums by the bin indices
    ``index``. Each of a source, r and index is one row shared by the block
    or one row per block row; r may be int8 signs and index any integer
    dtype. The index is prepared once for all ``sources``, which share the
    draw. Every row is reduced on its own, so the block's row count never
    changes a result.
    """
    rows, Dp = buf.shape
    if fixed:
        # np.take would widen the indices to intp on every call.
        index = index.astype(np.intp, copy=False)
    elif rows > 1:
        # Row i's bins move to [i*k, (i+1)*k), so one bincount sums the block.
        index = index + k * np.arange(rows)[:, None]
    out = []
    for src in sources:
        if fixed:
            # Every index is in range; "wrap" writes straight to buf, where
            # the default mode would gather through a temporary.
            np.take(src, index, axis=-1, out=buf, mode="wrap")
            buf *= r
            # (rows*k, L) rows, not (rows, k, L): each bin is one 1-d
            # reduction, as in the one-vector sketch.
            sums = buf.reshape(rows * k, Dp // k).sum(axis=1)
        else:
            # r widened into buf, then times the source: the same products
            # as one multiply, without its mixed int8 x float64 loop.
            np.copyto(buf, r)
            buf *= src
            sums = np.bincount(index.ravel(), weights=buf.ravel(), minlength=rows * k)
        out.append(sums.reshape(rows, k))
    return out


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
_FORMAT_VERSION = 3
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
    buf, config, payload, _, _ = _read_sketch_file(path)
    if payload != _PAYLOAD_SIGNS:
        raise SketchFileError("file holds sketch values, not sign bits")
    bits = np.frombuffer(buf, dtype=np.int8, offset=_HEADER.size)
    if not np.all(np.abs(bits) == 1):
        raise SketchFileError("sign file holds entries other than -1 and +1")
    return bits.astype(np.int8), config

