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
from .projection import (
    ProjectionDistribution,
    gaussian,
    rademacher,
    scaled_uniform,
    sparse,
)
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

_DIST_CHOICES = {
    "rademacher": rademacher,
    "gaussian": gaussian,
    "scaled-uniform": scaled_uniform,
}


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


def _dist_from_args(args) -> ProjectionDistribution:
    if args.dist == "sparse":
        return sparse(args.s)
    return _DIST_CHOICES[args.dist]()


def _config_from_args(args, dim: int) -> SketchConfig:
    return SketchConfig(
        dim=dim,
        k=args.k,
        binning=Binning(args.scheme),
        dist=_dist_from_args(args),
        m=args.m,
        seed=args.seed,
    )


def _add_sketch_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="number of bins (samples for --vsrp)")
    p.add_argument("--scheme", choices=["fixed", "variable"], default="fixed")
    p.add_argument(
        "--dist",
        choices=["rademacher", "gaussian", "scaled-uniform", "sparse"],
        default="rademacher",
    )
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
    p.add_argument("--estimator", default=Estimator.COSINE.value,
                   choices=["exact"] + [est.value for est in Estimator])


def _csv_out(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# --- subcommands -------------------------------------------------------------


def _cmd_sketch(args) -> int:
    M = load_matrix(args.input)
    u = _row(M, args.row, args.input)
    if args.vsrp:
        # k samples of sparse(--s) columns: no repetitions, bins or other multipliers.
        if args.m != 1 or args.scheme == "variable" or args.dist in ("gaussian", "scaled-uniform"):
            raise ValueError("--vsrp takes only --m 1, --scheme fixed and --dist rademacher "
                             f"or sparse, got --m {args.m} --scheme {args.scheme} "
                             f"--dist {args.dist}")
        sk = vsrp_sketch(u, u.shape[0], args.k, args.s, args.seed)
    else:
        sk = oporp_sketch(u, _config_from_args(args, u.shape[0]))
    save_sketch(args.out, sk)
    print(f"wrote {args.out}: {sk.flavor} sketch, {sk.values.shape[0]} values")
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


def _parse_list(text: str, flag: str, kind: type) -> list:
    """A comma-separated list of ``kind`` (int or float); empty parts are skipped."""
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{flag} must be a comma-separated {noun} list") from exc


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
    schemes = [Binning(s.strip()) for s in args.scheme_list.split(",") if s.strip()]
    estimators = [Estimator(e.strip()) for e in args.estimators.split(",") if e.strip()]
    lines = ["estimator,scheme,k,s,m,value"]
    for est in estimators:
        entry = _REGISTRY[est]
        if entry.oracle is None:
            raise ValueError(f"no closed-form variance for estimator {est.value!r}")
        # VSRP oracles have no binning scheme.
        for scheme in [None] if entry.family == "vsrp" else schemes:
            label = "" if scheme is None else scheme.value
            for k in k_list:
                for s in s_list:
                    value = entry.variance(stats, k, s, scheme, args.m)
                    lines.append(f"{est.value},{label},{k},{_fmt(s)},{args.m},{_fmt(value)}")
    _csv_out(lines, args.out)
    return 0


def _cmd_simulate(args) -> int:
    u, v = _resolve_pair(args)
    estimators = [e.strip() for e in args.estimators.split(",") if e.strip()]
    rows = mse_sweep(
        u,
        v,
        _parse_list(args.k_list, "--k-list", int),
        args.s,
        Binning(args.scheme),
        estimators,
        args.trials,
        args.seed,
    )
    lines = ["estimator,scheme,k,s,trials,empirical_mse,empirical_bias,theoretical_var"]
    lines += [
        f"{r.estimator},{r.scheme},{r.k},{_fmt(r.s)},{r.trials},"
        f"{_fmt(r.empirical_mse)},{_fmt(r.empirical_bias)},{_fmt(r.theoretical_var)}"
        for r in rows
    ]
    _csv_out(lines, args.out)
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
    lines = ["depth,recall,precision"]
    lines += [
        f"{d},{_fmt(p.recall)},{_fmt(p.precision)}"
        for d, p in enumerate(points_list, start=1)
    ]
    _csv_out(lines, args.out)
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
    M = load_matrix(args.input)
    u = _row(M, args.row, args.input)
    config = SketchConfig(
        dim=u.shape[0],
        k=args.k,
        binning=Binning(args.scheme),
        dist=rademacher(),
        m=1,
        seed=args.seed,
    )
    if args.mechanism == "gaussian":
        if args.delta is None:
            raise ValueError("the gaussian mechanism needs --delta")
        spec = PrivacySpec(args.epsilon, args.delta, args.beta)
        noisy = dp_oporp(u, config, spec, noise_seed=args.noise_seed)
        save_sketch(args.out, Sketch(noisy.values, config, "oporp", stored_norm=None))
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
    estimators = [est.value for est in Estimator]
    default_pair = f"{Estimator.INNER.value},{Estimator.COSINE.value}"

    p = sub.add_parser("sketch", help="sketch one row of a matrix file")
    p.add_argument("--input", required=True, help="CSV or binary matrix, one vector per row")
    p.add_argument("--row", type=int, default=0)
    _add_sketch_params(p)
    p.add_argument("--vsrp", action="store_true", help="sparse-projection sketch (--k samples)")
    p.add_argument("--out", required=True, help="output sketch file")
    p.set_defaults(func=_cmd_sketch)

    p = sub.add_parser("estimate", help="estimate similarity from two sketch files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--estimator", choices=estimators, required=True)
    p.add_argument("--sumsq-u", type=float, default=None, help="override sum u^2")
    p.add_argument("--sumsq-v", type=float, default=None, help="override sum v^2")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("variance", help="closed-form variances over a parameter grid")
    _add_pair_source(p)
    p.add_argument("--k-list", required=True, help="comma-separated bin counts")
    p.add_argument("--s-list", default="1", help="comma-separated fourth moments")
    p.add_argument("--scheme-list", default="fixed,variable")
    p.add_argument("--estimators", default=default_pair)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("simulate", help="Monte-Carlo MSE sweep against the oracles")
    _add_pair_source(p)
    p.add_argument("--k-list", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--scheme", choices=["fixed", "variable"], default="fixed")
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
    p.add_argument("--input", required=True)
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scheme", choices=["fixed", "variable"], default="fixed")
    p.add_argument("--seed", type=int, default=0, help="sketch randomness seed")
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
    p.set_defaults(func=_cmd_dp)

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
    except SketchFileError as exc:
        print(f"error: file: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
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
