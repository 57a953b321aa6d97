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
:class:`SketchPlan` draws it once (the m permutations or bin-index arrays
and the m multiplier vectors, or the VSRP projection matrix) and sketches
an (N, dim) matrix in row blocks; ``oporp_sketch`` and ``vsrp_sketch`` are
its N = 1 case, so a row sketched in a batch is bit-identical to the same
vector sketched alone. Inputs holding inf or NaN are rejected.

The draws are a pure function of the frozen config and the flavor, so the
package keeps the plans of the last ``_PLAN_CACHE_SIZE`` = 2 (config, flavor)
pairs it used (:func:`_plan`, an LRU cache): ``oporp_sketch``,
``vsrp_sketch``, the DP releases and ``similarity_matrix`` all go through
it, and sketching many vectors one call at a time draws each config once.
A kept plan holds m*padded_dim permutation or bin indices and as many
multipliers (16 bytes per entry), or the dim x m VSRP matrix (8 bytes per
entry). Every plan's arrays are read-only, whether cached or built
directly, so a shared draw cannot be changed by a caller.

The gather x multiply -> bin sum step is one kernel, :func:`_bin_sums`,
shared by the plan and the Monte-Carlo sweep. It runs on one reused block
buffer of about ``_BLOCK_ELEMENTS`` entries; every row is reduced on its
own, so the block size decides only where temporaries live and never
changes a result.

Sketch file layout (little-endian, 64-byte header):

    offset  size  field
    0       4     magic b"OPRP"
    4       2     u16 format version (1)
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
import struct
from dataclasses import dataclass, replace

import numpy as np

from .projection import (
    ProjectionDistribution,
    ProjectionKind,
    check_seed,
    derive_seed,
    draw_multipliers,
    generate_permutation,
    generate_projection_vector,
    generator,
    sparse,
)

# Stream tags: every random draw is keyed by (seed, repetition, purpose).
_PERM = 0
_PROJ = 1
_BINS = 2
_VSRP = 3

# Plans kept by _plan. Two, because loops that sketch pairs under one OPORP
# and one VSRP config (and retrieval_eval over both kinds) alternate them.
_PLAN_CACHE_SIZE = 2

# Target float64 entries per block buffer of the bin-sum kernel. Blocks
# decide only where temporaries live: no result depends on this size.
_BLOCK_ELEMENTS = 1 << 18


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

    @property
    def block_length(self) -> int:
        """Coordinates per bin after padding (fixed-length binning only)."""
        if self.binning is not Binning.FIXED:
            raise ValueError("block_length is only defined for fixed-length binning")
        return self.padded_dim // self.k


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

    def rep(self, t: int) -> np.ndarray:
        """View of repetition t's k values."""
        k = self.config.k
        return self.values[t * k : (t + 1) * k]

    @property
    def reps(self) -> np.ndarray:
        """(m, k) view of the values."""
        return self.values.reshape(self.config.m, self.config.k)


def bins_from_permutation(perm: np.ndarray, k: int) -> np.ndarray:
    """Bin index of every original coordinate under consecutive-block binning.

    ``perm`` is the shuffled index array (position p holds coordinate
    perm[p]); coordinate i lands in bin position_of(i) // (D/k).
    """
    perm = np.asarray(perm)
    D = perm.shape[0]
    if k < 1 or D % k != 0:
        raise ValueError(f"k must divide the (padded) dimension, got D={D}, k={k}")
    positions = np.empty(D, dtype=np.int64)
    positions[perm] = np.arange(D, dtype=np.int64)
    return positions // (D // k)


def _rep_seed(config: SketchConfig, repetition: int, purpose: int) -> int:
    return derive_seed(config.seed, repetition, purpose)


def bin_assignment(config: SketchConfig, repetition: int) -> np.ndarray:
    """Bin index per coordinate for one repetition (padded coords included).

    Fixed-length binning derives the repetition's permutation and cuts it
    into consecutive blocks; variable-length binning assigns each coordinate
    independently and uniformly. Pure function of (config, repetition).
    """
    if not 0 <= repetition < config.m:
        raise ValueError(f"repetition must be in [0, {config.m}), got {repetition}")
    if config.binning is Binning.FIXED:
        perm = generate_permutation(config.padded_dim, _rep_seed(config, repetition, _PERM))
        return bins_from_permutation(perm, config.k)
    rng = generator(_rep_seed(config, repetition, _BINS))
    return rng.integers(0, config.k, size=config.dim)


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
        dim=D, k=1, binning=Binning.VARIABLE, dist=sparse(s), m=int(k), seed=seed
    )


class SketchPlan:
    """A config's randomness, drawn once and applied to any number of rows.

    An ``"oporp"`` plan holds the m repetitions' permutations (fixed
    binning) or bin-index arrays (variable binning) and their multiplier
    vectors; a ``"vsrp"`` plan, built on a :func:`vsrp_config`, holds the
    dim x m sparse projection matrix. Every draw comes from the same
    ``(seed, repetition, purpose)`` stream the single-vector functions use,
    so all rows sketched under one config share one draw of the randomness
    and ``plan.apply(M)[i]`` equals the sketch of ``M[i]`` bit for bit. The
    drawn arrays are read-only. A plan constructed directly is not cached;
    ``oporp_sketch``, ``vsrp_sketch`` and ``similarity_matrix`` share the
    cached plans of :func:`_plan`.
    """

    def __init__(self, config: SketchConfig, flavor: str = "oporp") -> None:
        self.config = config
        self.flavor = flavor
        if flavor == "vsrp":
            shape = (config.k, config.binning, config.dist.kind)
            if shape != (1, Binning.VARIABLE, ProjectionKind.SPARSE):
                raise ValueError("a vsrp plan needs the config made by vsrp_config")
            rng = generator(derive_seed(config.seed, _VSRP))
            self._projection = _read_only(
                draw_multipliers(rng, (config.dim, config.m), config.dist)
            )
            return
        if flavor != "oporp":
            raise ValueError(f"unknown sketch flavor {flavor!r}")
        Dp = config.padded_dim
        reps = range(config.m)
        self._multipliers = tuple(
            _read_only(generate_projection_vector(Dp, config.dist, _rep_seed(config, t, _PROJ)))
            for t in reps
        )
        if config.binning is Binning.FIXED:
            indices = (generate_permutation(Dp, _rep_seed(config, t, _PERM)) for t in reps)
        else:
            indices = (bin_assignment(config, t) for t in reps)
        self._indices = tuple(_read_only(index) for index in indices)

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
            for t, (index, r) in enumerate(zip(self._indices, self._multipliers)):
                out[start : start + c, t * k : (t + 1) * k] = _bin_sums(
                    buf[:c], W, r, index, k, fixed
                )
        return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(config: SketchConfig, flavor: str) -> SketchPlan:
    """The plan of (config, flavor), shared with every other call that asks for it.

    A hit returns the arrays a miss would draw: the draws are a pure function
    of the key. Always pass ``flavor`` positionally, so one pair has one key.
    """
    return SketchPlan(config, flavor)


def _cached_sketch(u: np.ndarray, config: SketchConfig, flavor: str) -> Sketch:
    sk = _plan(config, flavor).sketch(u)
    # Equal configs can differ in field types (16 and 16.0); keep the caller's.
    sk.config = config
    return sk


def _block_rows(width: int, rows: int) -> int:
    """Rows per block of a (rows, width) pass: about _BLOCK_ELEMENTS entries, at least 1."""
    return max(1, min(rows, _BLOCK_ELEMENTS // width))


def _bin_sums(
    buf: np.ndarray, src: np.ndarray, r: np.ndarray, index: np.ndarray, k: int, fixed: bool
) -> np.ndarray:
    """(rows, k) bin sums of one block: the gather x multiply -> bin sum kernel.

    ``buf`` is the (rows, Dp) scratch the block's products are written to.
    Fixed binning gathers ``src`` by the permutation ``index``, multiplies by
    ``r`` and sums consecutive runs of Dp/k entries; variable binning
    multiplies ``src`` by ``r`` and sums by the bin indices ``index``. Each
    of src, r and index is one row shared by the block or one row per block
    row. Every row is reduced on its own, so the block's row count never
    changes a result.
    """
    rows, Dp = buf.shape
    if fixed:
        # Every index is in range; "wrap" writes straight to buf, where the
        # default mode would gather through a temporary.
        np.take(src, index, axis=-1, out=buf, mode="wrap")
        buf *= r
        # (rows*k, L) rows, not (rows, k, L): each bin is one 1-d reduction,
        # as in the one-vector sketch.
        sums = buf.reshape(rows * k, Dp // k).sum(axis=1)
    else:
        np.multiply(src, r, out=buf)
        if rows > 1:
            # Row i's bins move to [i*k, (i+1)*k), so one bincount sums the block.
            index = index + k * np.arange(rows)[:, None]
        sums = np.bincount(index.ravel(), weights=buf.ravel(), minlength=rows * k)
    return sums.reshape(rows, k)


def oporp_sketch(u: np.ndarray, config: SketchConfig) -> Sketch:
    """Sketch ``u`` under ``config``; same config means shared randomness.

    Two vectors sketched under an equal config see the same permutations,
    projections, and bin draws, which is what makes the estimators in
    :mod:`oporp.estimate` work. The draws are kept for the last two configs
    used (see the module docstring), so sketching vectors one call at a time
    under one config draws them once. To sketch a whole matrix, apply a
    :class:`SketchPlan` to it: one call sketches every row.
    """
    return _cached_sketch(u, config, "oporp")


def vsrp_sketch(u: np.ndarray, D: int, k: int, s: float, seed: int) -> Sketch:
    """Very sparse random projection: k independent samples u . r_col.

    Stored under the equivalent (k=1, m=k) config so repetition-wise
    estimators agree with the pooled VSRP ones, but computed by its own
    direct matrix path on an independent stream.
    """
    return _cached_sketch(u, vsrp_config(D, k, s, seed), "vsrp")


def normalize_sketch(sk: Sketch) -> Sketch:
    """Scale each repetition block to unit l2 norm.

    With m=1 a plain inner product of two normalized sketches is the
    cosine estimate; with m>1 it is m times the averaged estimate.
    """
    blocks = sk.reps
    norms = np.linalg.norm(blocks, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError("cannot normalize a sketch with a zero-norm repetition")
    values = (blocks / norms[:, None]).reshape(-1)
    return Sketch(values, sk.config, sk.flavor, stored_norm=sk.stored_norm)


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
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHBBBBB5xQQQQdd")
_PAYLOAD_VALUES = 0
_PAYLOAD_SIGNS = 1
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


def _unpack_header(buf: bytes) -> tuple[SketchConfig, int, str, float | None]:
    if len(buf) < _HEADER.size:
        raise SketchFileError("sketch file shorter than its header")
    (magic, version, payload, flavor, binning, dist, has_norm,
     dim, k, m, seed, sparsity, norm) = _HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise SketchFileError(f"bad magic {magic!r}, not a sketch file")
    if version != _FORMAT_VERSION:
        raise SketchFileError(f"unsupported sketch format version {version}")
    try:
        kind = _DISTS[dist]
        config = SketchConfig(
            dim=int(dim),
            k=int(k),
            binning=_BINNINGS[binning],
            dist=(
                ProjectionDistribution(kind, float(sparsity))
                if kind is ProjectionKind.SPARSE
                else ProjectionDistribution(kind)
            ),
            m=int(m),
            seed=int(seed),
        )
        flavor_name = _FLAVORS[flavor]
    except (KeyError, ValueError) as exc:
        raise SketchFileError(f"bad sketch header field: {exc}") from exc
    if has_norm and not math.isfinite(norm):
        raise SketchFileError(f"stored norm {norm} is not finite")
    return config, payload, flavor_name, (float(norm) if has_norm else None)


def save_sketch(path: str, sk: Sketch) -> None:
    """Write a sketch to ``path`` in the documented binary layout."""
    values = np.ascontiguousarray(sk.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_pack_header(sk.config, _PAYLOAD_VALUES, sk.flavor, sk.stored_norm))
        fh.write(values.tobytes())


def load_sketch(path: str) -> Sketch:
    """Read back a float-valued sketch written by :func:`save_sketch`."""
    with open(path, "rb") as fh:
        buf = fh.read()
    config, payload, flavor, norm = _unpack_header(buf)
    if payload != _PAYLOAD_VALUES:
        raise SketchFileError("file holds sign bits, not sketch values")
    expected = config.k * config.m
    values = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size)
    if values.shape[0] != expected:
        raise SketchFileError(
            f"expected {expected} values, file holds {values.shape[0]}"
        )
    if not np.isfinite(values).all():
        raise SketchFileError("sketch file holds inf or NaN values")
    return Sketch(values.astype(np.float64), config, flavor, stored_norm=norm)


def save_sign_sketch(path: str, bits: np.ndarray, config: SketchConfig) -> None:
    """Write +-1 sign bits under the same header as value sketches."""
    bits = np.asarray(bits)
    if not np.all(np.isin(bits, (-1, 1))):
        raise ValueError("sign bits must all be -1 or +1")
    with open(path, "wb") as fh:
        fh.write(_pack_header(config, _PAYLOAD_SIGNS, "oporp", None))
        fh.write(bits.astype(np.int8).tobytes())


def load_sign_sketch(path: str) -> tuple[np.ndarray, SketchConfig]:
    """Read back sign bits and the config they were sketched under."""
    with open(path, "rb") as fh:
        buf = fh.read()
    config, payload, _, _ = _unpack_header(buf)
    if payload != _PAYLOAD_SIGNS:
        raise SketchFileError("file holds sketch values, not sign bits")
    bits = np.frombuffer(buf, dtype=np.int8, offset=_HEADER.size)
    expected = config.k * config.m
    if bits.shape[0] != expected:
        raise SketchFileError(f"expected {expected} bits, file holds {bits.shape[0]}")
    return bits.astype(np.int8), config


def with_seed(config: SketchConfig, seed: int) -> SketchConfig:
    """Same config, different randomness."""
    return replace(config, seed=seed)
