"""Command-line front end.

Subcommands: sketch, estimate, variance, simulate, retrieval, knn, dp.
Every run is fully determined by its flags (seeds default to 0; nothing
reads the clock), except the noise of a ``dp`` release: it comes from fresh
OS entropy unless ``--noise-seed`` is given, because noise anyone can
regenerate can be subtracted. Errors print one line
``error: <category>: <message>`` to stderr and exit with a
category-specific code:

    0  success
    2  usage errors (unknown flags, missing arguments)
    3  file errors (missing, truncated, or unparseable inputs)
    4  invalid parameters or incompatible inputs
    5  numeric failures (no admissible root, no converging pair)

Vector inputs are matrices with one vector per row: either CSV, or the
binary layout magic b"OPMX" + u64 rows + u64 cols + float64 row-major
values, all little-endian. A matrix holding inf or NaN exits with code 4,
a sketch file holding one with code 3. Floats in output are printed with
shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import stat
import struct
import sys

import numpy as np

from .estimate import _REGISTRY, EstimationError, Estimator, _estimate
from .experiment import (
    ConvergenceError,
    area_under_pr,
    generate_pair_with_cosine,
    knn_eval,
    make_clusters,
    mse_sweep,
    retrieval_eval,
)
from .privacy import (
    PrivacySpec,
    dp_oporp,
    dp_sign_oporp_rr,
    dp_sign_oporp_rr_smooth,
    flip_probability,
)
from .projection import ProjectionDistribution, ProjectionKind
from .sketch import (
    Binning,
    Sketch,
    SketchConfig,
    SketchFileError,
    load_sketch,
    oporp_sketch,
    save_sign_sketch,
    save_sketch,
    vsrp_sketch,
)
from .variance import pair_statistics

_MATRIX_MAGIC = b"OPMX"

# The CLI's names come from the enums, in their order; --dist spells scaled-uniform with a hyphen.
_SCHEMES = [scheme.value for scheme in Binning]
_ESTIMATORS = [est.value for est in Estimator]
_DISTS = {kind.value.replace("_", "-"): kind for kind in ProjectionKind}


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(x))


def load_matrix(path: str) -> np.ndarray:
    """Read a one-vector-per-row matrix, CSV or binary (see module docs).

    Raises ValueError if the matrix holds inf or NaN entries.
    """
    M = _read_matrix(path)
    if not np.isfinite(M).all():
        raise ValueError(f"{path}: matrix holds inf or NaN entries")
    return M


def _read_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == _MATRIX_MAGIC:
            meta = fh.read(16)
            if len(meta) != 16:
                raise SketchFileError(f"{path}: truncated matrix header")
            rows, cols = struct.unpack("<QQ", meta)
            return _read_values(fh, rows, cols, path)
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise SketchFileError(f"{path}: not CSV or matrix binary: {exc}") from exc


def _read_values(fh, rows: int, cols: int, path: str) -> np.ndarray:
    """The rest of ``fh`` as exactly rows x cols float64 values, read into the result.

    One matrix-sized allocation per load: a bytes buffer plus a converted
    copy freed together can make malloc trim the heap and fault it back in
    on the next load.
    """
    wrong = SketchFileError(f"{path}: expected {rows}x{cols} values")
    info = os.fstat(fh.fileno())
    # A regular file's size is checked before allocating; a pipe's is unknown.
    if stat.S_ISREG(info.st_mode) and info.st_size - fh.tell() != 8 * rows * cols:
        raise wrong
    try:
        M = np.empty((rows, cols), dtype="<f8")
    except (ValueError, OverflowError, MemoryError):
        raise wrong from None
    if fh.readinto(M) != M.nbytes or fh.read(1):
        raise wrong
    return M.astype(np.float64, copy=False)


def save_matrix(path: str, M: np.ndarray) -> None:
    """Write a matrix in the binary layout load_matrix accepts."""
    M = np.ascontiguousarray(M, dtype="<f8")
    if M.ndim != 2:
        raise ValueError("matrix must be 2-d")
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(M.tobytes())


def _load_labels(path: str) -> np.ndarray:
    try:
        return np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise SketchFileError(f"{path}: not an integer label file: {exc}") from exc


def _row(M: np.ndarray, index: int, path: str) -> np.ndarray:
    if not 0 <= index < M.shape[0]:
        raise ValueError(f"row {index} out of range for {path} ({M.shape[0]} rows)")
    return M[index]


def _input_row(args) -> np.ndarray:
    """Row --row of the --input matrix."""
    return _row(load_matrix(args.input), args.row, args.input)


def _config_from_args(args, dim: int) -> SketchConfig:
    kind = _DISTS[args.dist]
    # Only the sparse family reads --s; any other dist refuses a value it would ignore.
    if kind is not ProjectionKind.SPARSE and args.s != 1.0:
        raise ValueError(f"--s {args.s:g} needs --dist sparse, got --dist {args.dist}")
    return SketchConfig(
        dim=dim,
        k=args.k,
        binning=Binning(args.scheme),
        dist=ProjectionDistribution(kind, args.s if kind is ProjectionKind.SPARSE else 1.0),
        m=args.m,
        seed=args.seed,
    )


def _add_input_row(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV or binary matrix, one vector per row")
    p.add_argument("--row", type=int, default=0)


def _add_sketch_params(p: argparse.ArgumentParser, dist: bool = True) -> None:
    """--k, --scheme and --seed; with ``dist``, also --dist, --s and --m."""
    p.add_argument("--k", type=int, required=True, help="number of bins")
    p.add_argument("--scheme", choices=_SCHEMES, default=Binning.FIXED.value)
    if dist:
        p.add_argument("--dist", choices=list(_DISTS), default="rademacher")
        p.add_argument("--s", type=float, default=1.0, help="sparse distribution parameter")
        p.add_argument("--m", type=int, default=1, help="independent repetitions")
    p.add_argument("--seed", type=int, default=0, help="sketch randomness seed")


def _add_synthetic_split(p: argparse.ArgumentParser, *sizes: tuple[str, int]) -> None:
    """retrieval's and knn's shared flags: a synthetic cluster split, the sketch, the estimator."""
    p.add_argument("--dim", type=int, help="synthetic data dimension")
    p.add_argument("--clusters", type=int, default=3)
    for flag, default in sizes:
        p.add_argument(flag, type=int, default=default)
    p.add_argument("--noise", type=float, default=0.6)
    p.add_argument("--norm-min", type=float, default=1.0, help="smallest point norm")
    p.add_argument("--norm-max", type=float, default=1.0, help="largest point norm")
    p.add_argument("--data-seed", type=int, default=0)
    _add_sketch_params(p)
    p.add_argument("--estimator", default=Estimator.COSINE.value, choices=["exact"] + _ESTIMATORS)


def _write_table(header: str, rows, out: str | None) -> None:
    """CSV to ``out`` (stdout if None): floats by :func:`_fmt`, anything else by str."""
    lines = [header]
    lines += [",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# --- subcommands -------------------------------------------------------------


def _cmd_sketch(args) -> int:
    u = _input_row(args)
    if args.vsrp:
        # k samples of sparse(--s) columns: no repetitions, bins or other multipliers.
        if (args.m != 1 or Binning(args.scheme) is not Binning.FIXED
                or _DISTS[args.dist] not in (ProjectionKind.RADEMACHER, ProjectionKind.SPARSE)):
            raise ValueError("--vsrp takes only --m 1, --scheme fixed and --dist rademacher "
                             f"or sparse, got --m {args.m} --scheme {args.scheme} "
                             f"--dist {args.dist}")
        sk = vsrp_sketch(u, u.shape[0], args.k, args.s, args.seed)
    else:
        sk = oporp_sketch(u, _config_from_args(args, u.shape[0]))
    save_sketch(args.out, sk)
    k, m = sk.config.k, sk.config.m
    print(f"wrote {args.out}: k={k}, m={m} sketch, {sk.values.shape[0]} values")
    return 0


def _cmd_estimate(args) -> int:
    x = load_sketch(args.x)
    y = load_sketch(args.y)

    def sumsq(flag_value: float | None, sk: Sketch, side: str) -> float:
        if flag_value is not None:
            return flag_value
        if sk.stored_norm is None:
            raise ValueError(
                f"sketch {side} stores no norm; pass --sumsq-{side}"
            )
        return sk.stored_norm**2

    est = Estimator(args.estimator)
    margins = (None, None)
    if _REGISTRY[est].margins:
        margins = (sumsq(args.sumsq_u, x, "u"), sumsq(args.sumsq_v, y, "v"))
    print(f"{est.value} {_fmt(_estimate(est, x, y, *margins))}")
    return 0


def _parse_list(text: str, flag: str, kind) -> list:
    """The comma-separated entries of ``text``, each converted by ``kind``.

    ``kind`` is int, float or an enum such as Binning. Blank entries are
    skipped, and a list with no entry left is refused.
    """
    try:
        items = [kind(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc
    if not items:
        raise ValueError(f"{flag} needs at least one entry")
    return items


def _resolve_pair(args) -> tuple[np.ndarray, np.ndarray]:
    if args.input is not None:
        M = load_matrix(args.input)
        i, j = _parse_list(args.rows, "--rows", int)
        return _row(M, i, args.input), _row(M, j, args.input)
    if args.dim is None or args.rho is None:
        raise ValueError("need either --input or both --dim and --rho")
    return generate_pair_with_cosine(args.dim, args.rho, args.tol, args.pair_seed)


def _add_pair_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="matrix file; the pair is two of its rows")
    p.add_argument("--rows", default="0,1", help="row indices i,j within --input")
    p.add_argument("--dim", type=int, help="synthetic pair dimension")
    p.add_argument("--rho", type=float, help="synthetic pair target cosine")
    p.add_argument("--tol", type=float, default=0.01, help="cosine tolerance")
    p.add_argument("--pair-seed", type=int, default=0, help="synthetic pair seed")


def _cmd_variance(args) -> int:
    u, v = _resolve_pair(args)
    stats = pair_statistics(u, v)
    k_list = _parse_list(args.k_list, "--k-list", int)
    s_list = _parse_list(args.s_list, "--s-list", float)
    schemes = _parse_list(args.scheme_list, "--scheme-list", Binning)
    estimators = _parse_list(args.estimators, "--estimators", Estimator)
    rows = []
    for est in estimators:
        entry = _REGISTRY[est]
        if entry.oracle is None:
            raise ValueError(f"no closed-form variance for estimator {est.value!r}")
        # Pooled (VSRP) oracles have no binning scheme.
        for scheme in [None] if entry.pooled else schemes:
            label = "" if scheme is None else scheme.value
            for k in k_list:
                for s in s_list:
                    value = entry.variance(stats, k, s, scheme, args.m)
                    rows.append((est.value, label, k, s, args.m, value))
    _write_table("estimator,scheme,k,s,m,value", rows, args.out)
    return 0


def _cmd_simulate(args) -> int:
    u, v = _resolve_pair(args)
    rows = mse_sweep(
        u,
        v,
        _parse_list(args.k_list, "--k-list", int),
        args.s,
        Binning(args.scheme),
        _parse_list(args.estimators, "--estimators", Estimator),
        args.trials,
        args.seed,
    )
    header = "estimator,scheme,k,s,trials,empirical_mse,empirical_bias,theoretical_var"
    _write_table(header, (dataclasses.astuple(r) for r in rows), args.out)
    return 0


def _synthetic_split(args, first: int, second: int) -> tuple[np.ndarray, ...]:
    """One synthetic cluster draw cut in two: first points, second points, their labels."""
    if args.dim is None:
        raise ValueError("synthetic data needs --dim")
    points, labels = make_clusters(
        args.dim, first + second, args.clusters, args.noise,
        args.data_seed, norm_range=(args.norm_min, args.norm_max),
    )
    return points[:first], points[first:], labels[:first], labels[first:]


def _cmd_retrieval(args) -> int:
    if args.base is not None:
        if args.queries is None:
            raise ValueError("--base and --queries go together")
        base, queries = load_matrix(args.base), load_matrix(args.queries)
    else:
        base, queries, _, _ = _synthetic_split(args, args.base_size, args.query_size)
    config = _config_from_args(args, base.shape[1])
    points_list = retrieval_eval(base, queries, config, args.estimator, args.top_n)
    print(f"aupr {_fmt(area_under_pr(points_list))}")
    rows = ((d, p.recall, p.precision) for d, p in enumerate(points_list, start=1))
    _write_table("depth,recall,precision", rows, args.out)
    return 0


def _cmd_knn(args) -> int:
    if args.train is not None:
        for flag in ("train_labels", "test", "test_labels"):
            if getattr(args, flag) is None:
                raise ValueError("file mode needs --train/--train-labels/--test/--test-labels")
        train = load_matrix(args.train)
        test = load_matrix(args.test)
        train_labels = _load_labels(args.train_labels)
        test_labels = _load_labels(args.test_labels)
    else:
        train, test, train_labels, test_labels = _synthetic_split(
            args, args.train_size, args.test_size
        )
    config = _config_from_args(args, train.shape[1])
    accuracy = knn_eval(
        train, train_labels, test, test_labels, args.neighbors, config, args.estimator
    )
    print(f"accuracy {_fmt(accuracy)}")
    return 0


def _cmd_dp(args) -> int:
    if args.noise_seed is not None:
        print(
            "warning: --noise-seed makes the release noise reproducible; "
            "anyone who knows the seed can subtract it",
            file=sys.stderr,
        )
    u = _input_row(args)
    config = _config_from_args(args, u.shape[0])
    if args.mechanism == "gaussian":
        if args.delta is None:
            raise ValueError("the gaussian mechanism needs --delta")
        spec = PrivacySpec(args.epsilon, args.delta, args.beta)
        noisy = dp_oporp(u, config, spec, noise_seed=args.noise_seed)
        save_sketch(args.out, Sketch(noisy.values, config, stored_norm=None))
        print(f"sigma {_fmt(noisy.sigma)}")
    elif args.mechanism == "rr":
        released = dp_sign_oporp_rr(u, config, args.epsilon, noise_seed=args.noise_seed)
        save_sign_sketch(args.out, released, config)
        print(f"flip_prob {_fmt(flip_probability(args.epsilon))}")
    else:
        released = dp_sign_oporp_rr_smooth(
            u, config, args.epsilon, args.beta, noise_seed=args.noise_seed
        )
        save_sign_sketch(args.out, released, config)
        # The ceiling of the per-bin probabilities; they follow the data.
        print(f"max_flip_prob {_fmt(flip_probability(args.epsilon))}")
    print(f"wrote {args.out}")
    return 0


# --- parser ------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing never changes it."""
    parser = argparse.ArgumentParser(
        prog="oporp",
        description="Binned random-projection sketches, estimators, and variance oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_pair = f"{Estimator.INNER.value},{Estimator.COSINE.value}"

    p = sub.add_parser("sketch", help="sketch one row of a matrix file")
    _add_input_row(p)
    _add_sketch_params(p)
    p.add_argument("--vsrp", action="store_true",
                   help="very sparse projection: the k = 1 sketch of --k samples")
    p.add_argument("--out", required=True, help="output sketch file")
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("estimate", help="estimate similarity from two sketch files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--estimator", choices=_ESTIMATORS, required=True)
    p.add_argument("--sumsq-u", type=float, default=None, help="override sum u^2")
    p.add_argument("--sumsq-v", type=float, default=None, help="override sum v^2")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("variance", help="closed-form variances over a parameter grid")
    _add_pair_source(p)
    p.add_argument("--k-list", required=True, help="comma-separated bin counts")
    p.add_argument("--s-list", default="1", help="comma-separated fourth moments")
    p.add_argument("--scheme-list", default=",".join(_SCHEMES))
    p.add_argument("--estimators", default=default_pair)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("simulate", help="Monte-Carlo MSE sweep against the oracles")
    _add_pair_source(p)
    p.add_argument("--k-list", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--scheme", choices=_SCHEMES, default=Binning.FIXED.value)
    p.add_argument("--estimators", default=default_pair)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("retrieval", help="precision/recall against exact-cosine gold sets")
    p.add_argument("--base", help="base matrix file")
    p.add_argument("--queries", help="query matrix file")
    _add_synthetic_split(p, ("--base-size", 2000), ("--query-size", 200))
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_retrieval)

    p = sub.add_parser("knn", help="k-nearest-neighbor accuracy under a sketch estimator")
    p.add_argument("--train", help="training matrix file")
    p.add_argument("--train-labels", help="training label file, one int per row")
    p.add_argument("--test", help="test matrix file")
    p.add_argument("--test-labels", help="test label file")
    _add_synthetic_split(p, ("--train-size", 1000), ("--test-size", 200))
    p.add_argument("--neighbors", type=int, default=5, help="K in the majority vote")
    p.set_defaults(func=_cmd_knn)

    p = sub.add_parser("dp", help="differentially private sketch release")
    _add_input_row(p)
    _add_sketch_params(p, dist=False)
    p.add_argument("--mechanism", choices=["gaussian", "rr", "rr-smooth"], required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--beta", type=float, default=1.0, help="adjacency step size")
    p.add_argument(
        "--noise-seed", type=int, default=None,
        help="seed the release noise for a reproducible run; this voids the privacy "
        "of the release against anyone who knows the seed (default: fresh OS entropy)",
    )
    p.add_argument("--out", required=True)
    # Releases always use one repetition of Rademacher multipliers.
    p.set_defaults(func=_cmd_dp, dist="rademacher", s=1.0, m=1)

    return parser


def run(argv) -> int:
    """Parse argv (program name excluded) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (SketchFileError, OSError) as exc:
        print(f"error: file: {exc}", file=sys.stderr)
        return 3
    except (EstimationError, ConvergenceError) as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
