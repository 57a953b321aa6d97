"""Command-line behavior: outputs match the library, exit codes by category.

Everything runs in-process through run(argv) so exit codes and stdout can
be asserted directly.
"""

import math
import os
import struct
import threading

import numpy as np
import pytest

from oporp.cli import _build_parser, load_matrix, run, save_matrix
from oporp.projection import rademacher
from oporp.sketch import Binning, SketchConfig, load_sign_sketch, load_sketch
from oporp.variance import pair_statistics, var_cosine, var_inner, var_inner_vsrp


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 16))
    path = tmp_path / "data.csv"
    np.savetxt(path, M, delimiter=",")
    return str(path), M


def run_ok(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


# --- matrix files ----------------------------------------------------------------


def test_matrix_binary_round_trip(tmp_path):
    M = np.random.default_rng(1).standard_normal((5, 7))
    path = str(tmp_path / "m.bin")
    save_matrix(path, M)
    assert np.array_equal(load_matrix(path), M)


@pytest.mark.parametrize("cut", [-3, -8, 1])
def test_matrix_binary_payload_must_match_header(tmp_path, cut):
    path = tmp_path / "m.bin"
    save_matrix(str(path), np.ones((2, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut < 0 else raw + b"\0" * cut)
    assert run(["sketch", "--input", str(path), "--k", "2", "--out", str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


def test_matrix_binary_from_a_pipe(tmp_path):
    M = np.random.default_rng(2).standard_normal((3, 5))
    save_matrix(str(tmp_path / "m.bin"), M)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "m.bin").read_bytes()))
    writer.start()
    try:
        assert np.array_equal(load_matrix(str(fifo)), M)
    finally:
        writer.join()


def test_matrix_csv_loading(matrix_file):
    path, M = matrix_file
    assert np.allclose(load_matrix(path), M, atol=1e-12)


def test_matrix_file_errors(tmp_path):
    garbled = tmp_path / "x.csv"
    garbled.write_text("not,numbers,at,all\n1,2,three,4\n")
    assert run(["sketch", "--input", str(garbled), "--k", "2", "--out", str(tmp_path / "o")]) == 3
    truncated = tmp_path / "t.bin"
    truncated.write_bytes(b"OPMX" + b"\x01\x00\x00\x00\x00\x00\x00\x00")
    assert run(["sketch", "--input", str(truncated), "--k", "2", "--out", str(tmp_path / "o")]) == 3
    assert run(["sketch", "--input", str(tmp_path / "absent.csv"), "--k", "2",
                "--out", str(tmp_path / "o")]) == 3


# --- sketch / estimate round trips --------------------------------------------------


def test_sketch_then_estimate_exact_at_full_k(tmp_path, capsys, matrix_file):
    path, M = matrix_file
    x, y = str(tmp_path / "x.sk"), str(tmp_path / "y.sk")
    common = ["--input", path, "--k", "16", "--scheme", "fixed", "--seed", "3"]
    run_ok(capsys, ["sketch", "--row", "0", "--out", x] + common)
    run_ok(capsys, ["sketch", "--row", "1", "--out", y] + common)

    u, v = M[0], M[1]
    out = run_ok(capsys, ["estimate", "--x", x, "--y", y, "--estimator", "inner"])
    assert float(out.split()[-1]) == pytest.approx(float(u @ v), rel=1e-9)
    out = run_ok(capsys, ["estimate", "--x", x, "--y", y, "--estimator", "distance"])
    assert float(out.split()[-1]) == pytest.approx(float(np.sum((u - v) ** 2)), rel=1e-9)
    out = run_ok(capsys, ["estimate", "--x", x, "--y", y, "--estimator", "cosine"])
    rho = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert float(out.split()[-1]) == pytest.approx(rho, rel=1e-9)
    # normalized_inner falls back to the norms stored in the sketch files
    out = run_ok(capsys, ["estimate", "--x", x, "--y", y, "--estimator", "normalized_inner"])
    assert float(out.split()[-1]) == pytest.approx(float(u @ v), rel=1e-9)
    out = run_ok(capsys, [
        "estimate", "--x", x, "--y", y, "--estimator", "mle_inner",
        "--sumsq-u", repr(float(u @ u)), "--sumsq-v", repr(float(v @ v)),
    ])
    assert float(out.split()[-1]) == pytest.approx(float(u @ v), rel=1e-9)


def test_vsrp_sketch_and_estimate(tmp_path, capsys, matrix_file):
    path, M = matrix_file
    x, y = str(tmp_path / "x.sk"), str(tmp_path / "y.sk")
    common = ["--input", path, "--k", "4096", "--vsrp", "--s", "2.0", "--seed", "1"]
    run_ok(capsys, ["sketch", "--row", "0", "--out", x] + common)
    run_ok(capsys, ["sketch", "--row", "1", "--out", y] + common)
    out = run_ok(capsys, ["estimate", "--x", x, "--y", y, "--estimator", "vsrp_inner"])
    a = float(M[0] @ M[1])
    assert float(out.split()[-1]) == pytest.approx(a, abs=4.0 * abs(a))
    out = run_ok(capsys, ["estimate", "--x", x, "--y", y, "--estimator", "vsrp_cosine"])
    assert -1.0 <= float(out.split()[-1]) <= 1.0


@pytest.mark.parametrize("flags", [
    ["--m", "5"], ["--scheme", "variable"], ["--dist", "gaussian"],
    ["--dist", "scaled-uniform"], ["--dist", "gaussian", "--m", "5", "--scheme", "variable"],
], ids=["m", "scheme", "gaussian", "scaled-uniform", "all"])
def test_vsrp_sketch_refuses_oporp_only_flags(tmp_path, capsys, matrix_file, flags):
    # these flags were once ignored: a k = 8 sparse(1) sketch came out regardless
    path, _ = matrix_file
    out = str(tmp_path / "x.sk")
    argv = ["sketch", "--input", path, "--k", "8", "--vsrp", "--out", out] + flags
    assert run(argv) == 4
    assert "--vsrp" in capsys.readouterr().err
    assert not os.path.exists(out)
    # the flags that fit a VSRP sketch still run
    for ok in (["--dist", "sparse", "--s", "3"], ["--m", "1", "--scheme", "fixed"]):
        run_ok(capsys, argv[:-len(flags)] + ok)
        assert load_sketch(out).values.shape == (8,)


@pytest.mark.parametrize("dist", ["rademacher", "gaussian", "scaled-uniform"])
def test_sketch_refuses_s_without_the_sparse_dist(tmp_path, capsys, matrix_file, dist):
    # --dist gaussian --s 3 used to exit 0 and write a Gaussian sketch
    path, _ = matrix_file
    out = str(tmp_path / "x.sk")
    argv = ["sketch", "--input", path, "--k", "8", "--out", out]
    assert run(argv + ["--dist", dist, "--s", "3"]) == 4
    assert "--s 3 needs --dist sparse" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert run(["retrieval", "--dim", "16", "--k", "4", "--dist", dist, "--s", "3",
                "--estimator", "vsrp_cosine"]) == 4
    for ok in (["--dist", dist, "--s", "1"], ["--dist", "sparse", "--s", "3"]):
        run_ok(capsys, argv + ok)
        assert load_sketch(out).config.dist.sparsity == float(ok[-1])


def test_estimate_refuses_the_other_familys_sketches(tmp_path, capsys, matrix_file):
    path, _ = matrix_file
    x, y = str(tmp_path / "x.sk"), str(tmp_path / "y.sk")
    for row, out in ((0, x), (1, y)):
        run_ok(capsys, ["sketch", "--input", path, "--row", str(row), "--k", "64",
                        "--vsrp", "--out", out])
    for estimator in ("cosine", "normalized_inner", "inner"):
        assert run(["estimate", "--x", x, "--y", y, "--estimator", estimator]) == 4
    assert "vsrp" in capsys.readouterr().err


def test_estimate_mismatched_sketches_is_invalid(tmp_path, capsys, matrix_file):
    path, _ = matrix_file
    x, y = str(tmp_path / "x.sk"), str(tmp_path / "y.sk")
    run_ok(capsys, ["sketch", "--input", path, "--row", "0", "--k", "4", "--seed", "1", "--out", x])
    run_ok(capsys, ["sketch", "--input", path, "--row", "1", "--k", "4", "--seed", "2", "--out", y])
    assert run(["estimate", "--x", x, "--y", y, "--estimator", "inner"]) == 4


def _estimate_refuses_version(tmp_path, capsys, matrix_file, bounded_matrix_file, version):
    path, _ = matrix_file
    x, y, signs = tmp_path / "x.sk", tmp_path / "y.sk", tmp_path / "signs.sk"
    for row, out in ((0, x), (1, y)):
        run_ok(capsys, ["sketch", "--input", path, "--row", str(row), "--k", "4", "--out", str(out)])
    run_ok(capsys, [
        "dp", "--input", bounded_matrix_file, "--k", "4", "--mechanism", "rr",
        "--epsilon", "1.0", "--noise-seed", "2", "--out", str(signs),
    ])
    for old in (x, signs):
        raw = old.read_bytes()
        assert raw[4:6] == (4).to_bytes(2, "little")
        old.write_bytes(raw[:4] + version.to_bytes(2, "little") + raw[6:])
        assert run(["estimate", "--x", str(old), "--y", str(y), "--estimator", "inner"]) == 3
        assert f"version {version}" in capsys.readouterr().err


def test_estimate_refuses_version_1_files(tmp_path, capsys, matrix_file, bounded_matrix_file):
    _estimate_refuses_version(tmp_path, capsys, matrix_file, bounded_matrix_file, 1)


def test_estimate_refuses_version_2_files(tmp_path, capsys, matrix_file, bounded_matrix_file):
    # version 2 files were drawn from Philox streams; versions 3 and 4 draw SFC64
    _estimate_refuses_version(tmp_path, capsys, matrix_file, bounded_matrix_file, 2)


def test_estimate_refuses_version_3_files(tmp_path, capsys, matrix_file, bounded_matrix_file):
    # version 3 files summed fixed bins in numpy's pairwise order; version 4 left to right
    _estimate_refuses_version(tmp_path, capsys, matrix_file, bounded_matrix_file, 3)


# --- variance tables -----------------------------------------------------------------


def test_variance_csv_matches_library(tmp_path, capsys, matrix_file):
    path, M = matrix_file
    out = run_ok(capsys, [
        "variance", "--input", path, "--rows", "0,1",
        "--k-list", "2,4", "--s-list", "1,3", "--scheme-list", "fixed,variable",
        "--estimators", "inner,cosine,vsrp_inner",
    ])
    lines = out.strip().splitlines()
    assert lines[0] == "estimator,scheme,k,s,m,value"
    st = pair_statistics(M[0], M[1])
    seen = 0
    for line in lines[1:]:
        name, scheme, k, s, m, value = line.split(",")
        k, s, value = int(k), float(s), float(value)
        if name == "inner":
            want = var_inner(st, k, s, Binning(scheme))
        elif name == "cosine":
            want = var_cosine(st, k, s, Binning(scheme))
        else:
            assert scheme == ""
            want = var_inner_vsrp(st, k, s)
        assert value == pytest.approx(want, rel=1e-12)
        seen += 1
    # 2 schemes x 2 k x 2 s for each oporp estimator, 2 x 2 for vsrp
    assert seen == 8 + 8 + 4


def test_variance_synthetic_pair_and_m(tmp_path, capsys):
    out = run_ok(capsys, [
        "variance", "--dim", "64", "--rho", "0.8", "--k-list", "8",
        "--estimators", "inner", "--m", "4", "--scheme-list", "fixed",
    ])
    line = out.strip().splitlines()[1]
    assert line.split(",")[4] == "4"
    with_m1 = run_ok(capsys, [
        "variance", "--dim", "64", "--rho", "0.8", "--k-list", "8",
        "--estimators", "inner", "--scheme-list", "fixed",
    ]).strip().splitlines()[1]
    assert float(line.split(",")[5]) == pytest.approx(float(with_m1.split(",")[5]) / 4, rel=1e-12)


def test_variance_divides_every_estimator_by_m(capsys):
    argv = [
        "variance", "--dim", "16", "--rho", "0.5", "--k-list", "4",
        "--estimators", "distance,cosine,normalized_inner,vsrp_inner,vsrp_cosine",
    ]
    one = run_ok(capsys, argv).strip().splitlines()[1:]
    two = run_ok(capsys, argv + ["--m", "2"]).strip().splitlines()[1:]
    assert len(one) == len(two) == 3 * 2 + 2
    for a, b in zip(one, two):
        assert b.split(",")[4] == "2"
        assert float(b.split(",")[5]) == float(a.split(",")[5]) / 2


@pytest.mark.parametrize("estimator", ["inner", "cosine", "vsrp_cosine"])
def test_variance_rejects_m_below_one(capsys, estimator):
    assert run([
        "variance", "--dim", "16", "--rho", "0.5", "--k-list", "4",
        "--estimators", estimator, "--m", "0",
    ]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid: ")


@pytest.mark.parametrize("s", ["0.5", "nan", "inf"])
@pytest.mark.parametrize("estimator", ["inner", "cosine", "vsrp_cosine"])
def test_variance_rejects_impossible_s(capsys, estimator, s):
    # --s-list 0.5,nan used to print values for s = 0.5 and rows of nan
    assert run([
        "variance", "--dim", "16", "--rho", "0.5", "--k-list", "4",
        "--estimators", estimator, "--s-list", f"1,{s}",
    ]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: invalid: sparse parameter must be finite and >= 1")


@pytest.mark.parametrize("argv", [
    ["variance", "--k-list", ""],
    ["variance", "--k-list", "4", "--s-list", " "],
    ["variance", "--k-list", "4", "--scheme-list", ""],
    ["variance", "--k-list", "4", "--estimators", ","],
    ["simulate", "--k-list", "", "--trials", "100"],
])
def test_an_empty_list_flag_exits_four(tmp_path, capsys, argv):
    # each used to print only the CSV header and exit 0
    out_path = tmp_path / "rows.csv"
    assert run(argv + ["--dim", "16", "--rho", "0.5", "--out", str(out_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid: ") and captured.err.count("\n") == 1
    assert not out_path.exists()


# --- simulate -------------------------------------------------------------------------


def test_simulate_deterministic_output(tmp_path, capsys):
    argv = [
        "simulate", "--dim", "32", "--rho", "0.6", "--k-list", "4,8",
        "--estimators", "inner", "--trials", "400", "--seed", "9",
    ]
    first = run_ok(capsys, argv)
    second = run_ok(capsys, argv)
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0].startswith("estimator,scheme,k,s,trials,")
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "inner" and int(fields[4]) == 400
        assert float(fields[5]) == pytest.approx(float(fields[7]), rel=0.5)


def test_simulate_to_file(tmp_path, capsys):
    out_path = str(tmp_path / "rows.csv")
    run_ok(capsys, [
        "simulate", "--dim", "16", "--rho", "0.5", "--k-list", "4",
        "--estimators", "inner,distance", "--trials", "200", "--out", out_path,
    ])
    text = open(out_path).read()
    assert len(text.strip().splitlines()) == 3


# --- retrieval / knn --------------------------------------------------------------------


def test_retrieval_synthetic(capsys):
    out = run_ok(capsys, [
        "retrieval", "--dim", "32", "--base-size", "120", "--query-size", "15",
        "--norm-min", "0.5", "--norm-max", "2.0",
        "--k", "16", "--estimator", "cosine", "--top-n", "5",
    ])
    lines = out.strip().splitlines()
    assert lines[0].startswith("aupr ")
    assert 0.0 <= float(lines[0].split()[1]) <= 1.0
    assert lines[1] == "depth,recall,precision"
    assert len(lines) == 2 + 120


def test_retrieval_from_files(tmp_path, capsys):
    rng = np.random.default_rng(2)
    base_path, query_path = str(tmp_path / "b.bin"), str(tmp_path / "q.bin")
    save_matrix(base_path, rng.standard_normal((40, 16)))
    save_matrix(query_path, rng.standard_normal((6, 16)))
    out = run_ok(capsys, [
        "retrieval", "--base", base_path, "--queries", query_path,
        "--k", "16", "--estimator", "exact", "--top-n", "4",
    ])
    assert float(out.strip().splitlines()[0].split()[1]) == pytest.approx(1.0, abs=1e-12)


def test_knn_synthetic(capsys):
    out = run_ok(capsys, [
        "knn", "--dim", "32", "--train-size", "90", "--test-size", "30",
        "--noise", "0.1", "--k", "16", "--estimator", "cosine", "--neighbors", "3",
    ])
    accuracy = float(out.strip().split()[-1])
    assert 0.5 <= accuracy <= 1.0


def test_retrieval_and_knn_refuse_an_empty_query_set(capsys):
    assert run([
        "retrieval", "--dim", "16", "--base-size", "20", "--query-size", "0",
        "--k", "4", "--top-n", "3", "--estimator", "inner",
    ]) == 4
    assert run([
        "knn", "--dim", "16", "--train-size", "20", "--test-size", "0",
        "--k", "4", "--estimator", "inner",
    ]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("at least one") == 2


@pytest.mark.parametrize("argv", [
    ["retrieval", "--dim", "8", "--base-size", "10", "--query-size", "2", "--k", "2",
     "--norm-max", "inf", "--top-n", "2"],
    ["knn", "--dim", "8", "--train-size", "10", "--test-size", "2", "--k", "2",
     "--norm-max", "inf"],
    ["variance", "--dim", "64", "--rho", "0.5", "--tol", "nan", "--k-list", "8"],
])
def test_non_finite_synthetic_parameters_exit_four(capsys, argv):
    # used to escape as OverflowError (--norm-max inf) or exit 5 (--tol nan)
    assert run(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: invalid: ")


# --- dp -------------------------------------------------------------------------------


@pytest.fixture
def bounded_matrix_file(tmp_path):
    rng = np.random.default_rng(3)
    M = rng.uniform(-1.0, 1.0, (2, 64))
    path = tmp_path / "bounded.csv"
    np.savetxt(path, M, delimiter=",")
    return str(path)


def test_dp_gaussian(tmp_path, capsys, bounded_matrix_file):
    out_path = str(tmp_path / "noisy.sk")
    out = run_ok(capsys, [
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "gaussian",
        "--epsilon", "1.0", "--delta", "1e-6", "--noise-seed", "5", "--out", out_path,
    ])
    sigma = float(out.splitlines()[0].split()[1])
    assert sigma > 0.0
    sk = load_sketch(out_path)
    assert sk.values.shape == (16,)
    assert sk.stored_norm is None  # releasing the true norm would leak


def test_dp_gaussian_needs_delta(bounded_matrix_file, tmp_path):
    assert run([
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "gaussian",
        "--epsilon", "1.0", "--out", str(tmp_path / "o"),
    ]) == 4


def test_dp_sign_mechanisms(tmp_path, capsys, bounded_matrix_file):
    rr_path = str(tmp_path / "rr.sk")
    out = run_ok(capsys, [
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "rr",
        "--epsilon", repr(math.log(3.0)), "--noise-seed", "2", "--out", rr_path,
    ])
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(0.25, abs=1e-12)
    bits, config = load_sign_sketch(rr_path)
    assert set(np.unique(bits)) <= {-1, 1}
    assert config.k == 16

    smooth_path = str(tmp_path / "smooth.sk")
    out = run_ok(capsys, [
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "rr-smooth",
        "--epsilon", "1.0", "--beta", "0.25", "--noise-seed", "2", "--out", smooth_path,
    ])
    name, value = out.splitlines()[0].split()
    assert name == "max_flip_prob"
    assert float(value) == pytest.approx(1.0 / (math.e + 1.0), rel=1e-15)
    bits, _ = load_sign_sketch(smooth_path)
    assert bits.shape == (16,)


@pytest.mark.parametrize("mechanism", ["rr", "rr-smooth"])
def test_dp_sign_stdout_does_not_depend_on_the_data(tmp_path, capsys, mechanism):
    # k = D: one coordinate per bin, so row 1's zero entry is an exactly empty bin
    M = np.random.default_rng(5).uniform(0.1, 1.0, (2, 32))
    M[1, 7] = 0.0
    path = tmp_path / "two.csv"
    np.savetxt(path, M, delimiter=",")
    outs = [
        run_ok(capsys, [
            "dp", "--input", str(path), "--row", str(row), "--k", "32",
            "--mechanism", mechanism, "--epsilon", "1.5", "--beta", "0.3",
            "--out", str(tmp_path / "o.sk"),
        ])
        for row in (0, 1)
    ]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("epsilon", ["710", "1000", "1e6"])
def test_dp_beyond_exp_range(tmp_path, capsys, bounded_matrix_file, epsilon):
    # e^epsilon overflows a float here, which used to end in an OverflowError traceback
    for mechanism, extra in (("gaussian", ["--delta", "1e-6"]), ("rr", []), ("rr-smooth", [])):
        out_path = tmp_path / f"{mechanism}.sk"
        out = run_ok(capsys, [
            "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", mechanism,
            "--epsilon", epsilon, *extra, "--out", str(out_path),
        ])
        value = float(out.splitlines()[0].split()[1])
        assert 0.0 < value < 0.05 if mechanism == "gaussian" else 0.0 <= value < 1e-300
        assert out_path.exists()


def test_dp_gaussian_at_finite_huge_epsilon(tmp_path, capsys, bounded_matrix_file):
    out_path = tmp_path / "o.sk"
    out = run_ok(capsys, [
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "gaussian",
        "--epsilon", "1e308", "--delta", "1e-6", "--out", str(out_path),
    ])
    sigma = float(out.splitlines()[0].split()[1])
    assert sigma == pytest.approx(math.sqrt(0.5) / math.sqrt(1e308), rel=1e-12)
    assert out_path.exists()


def test_dp_gaussian_at_the_top_of_the_float_range(tmp_path, capsys, bounded_matrix_file):
    # epsilon = 1.7e308 used to exit 4, though sigma is a normal float
    out_path = tmp_path / "o.sk"
    out = run_ok(capsys, [
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "gaussian",
        "--epsilon", "1.7e308", "--delta", "1e-6", "--out", str(out_path),
    ])
    sigma = float(out.splitlines()[0].split()[1])
    assert sigma == pytest.approx(math.sqrt(0.5) / math.sqrt(1.7e308), rel=1e-12)
    assert out_path.exists()
    # a noise scale below the float range is still refused
    out_path.unlink()
    code = run([
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "gaussian",
        "--epsilon", "1.7e308", "--delta", "1e-6", "--beta", "5e-324", "--out", str(out_path),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 4
    assert len(err) == 1 and err[0].startswith("error: invalid:")
    assert not out_path.exists()


def test_dp_rejects_out_of_domain_data(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "wide.csv"
    np.savetxt(path, 5.0 * rng.standard_normal((1, 32)), delimiter=",")
    assert run([
        "dp", "--input", str(path), "--k", "8", "--mechanism", "rr",
        "--epsilon", "1.0", "--out", str(tmp_path / "o"),
    ]) == 4


def test_dp_default_noise_is_fresh_and_seeded_noise_warns(tmp_path, capsys, bounded_matrix_file):
    releases = []
    for name in ("a", "b"):
        out_path = tmp_path / f"{name}.sk"
        run_ok(capsys, [
            "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "gaussian",
            "--epsilon", "1.0", "--delta", "1e-6", "--out", str(out_path),
        ])
        releases.append(out_path.read_bytes())
    assert releases[0] != releases[1]
    assert "warning" not in capsys.readouterr().err

    code = run([
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", "rr",
        "--epsilon", "1.0", "--noise-seed", "3", "--out", str(tmp_path / "c.sk"),
    ])
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: ")


@pytest.mark.parametrize("mechanism, flags", [
    ("rr", ["--epsilon", "nan"]),
    ("rr", ["--epsilon", "inf"]),
    ("rr-smooth", ["--epsilon", "nan"]),
    ("rr-smooth", ["--epsilon", "inf"]),
    ("rr-smooth", ["--epsilon", "1.0", "--beta", "nan"]),
    ("rr-smooth", ["--epsilon", "1.0", "--beta", "inf"]),
    ("gaussian", ["--epsilon", "nan"]),
    ("gaussian", ["--epsilon", "inf"]),
    ("gaussian", ["--epsilon", "1.0", "--beta", "nan"]),
    ("gaussian", ["--epsilon", "1.0", "--beta", "inf"]),
])
def test_dp_non_finite_privacy_parameters_exit_four(tmp_path, capsys, bounded_matrix_file,
                                                    mechanism, flags):
    out_path = tmp_path / "o.sk"
    assert run([
        "dp", "--input", bounded_matrix_file, "--k", "16", "--mechanism", mechanism,
        "--delta", "1e-6", *flags, "--out", str(out_path),
    ]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid: ")
    assert not out_path.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_input_exits_four(tmp_path, capsys, bad):
    path = tmp_path / "bad.csv"
    rows = np.random.default_rng(5).uniform(-0.5, 0.5, (2, 16)).astype(str)
    rows[0, 3] = bad
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert run(["sketch", "--input", str(path), "--k", "4", "--out", str(tmp_path / "o")]) == 4
    assert run([
        "dp", "--input", str(path), "--k", "4", "--mechanism", "gaussian",
        "--epsilon", "1.0", "--delta", "1e-6", "--out", str(tmp_path / "o"),
    ]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: invalid: ") for line in err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_variance_of_non_finite_pair_exits_four(tmp_path, capsys, bad):
    M = np.random.default_rng(6).standard_normal((2, 4))
    M[0, 1] = float(bad)
    csv, binary = tmp_path / "bad.csv", tmp_path / "bad.bin"
    csv.write_text("\n".join(",".join(str(x) for x in row) for row in M) + "\n")
    save_matrix(str(binary), M)
    for path in (csv, binary):
        assert run(["variance", "--input", str(path), "--k-list", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("error: invalid: ") for line in captured.err.splitlines())
    with pytest.raises(ValueError):
        load_matrix(str(binary))


def test_estimate_on_non_finite_sketch_file_exits_three(tmp_path, capsys, matrix_file):
    path, _ = matrix_file
    x, y = str(tmp_path / "x.sk"), str(tmp_path / "y.sk")
    for out, row in ((x, "0"), (y, "1")):
        run_ok(capsys, ["sketch", "--input", path, "--row", row, "--k", "4", "--out", out])
    # save_sketch refuses NaN values, so the file's first value is patched
    with open(y, "r+b") as fh:
        fh.seek(64)
        fh.write(struct.pack("<d", math.nan))
    assert run(["estimate", "--x", x, "--y", y, "--estimator", "cosine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: file: ")


def _sketch_pair(tmp_path, capsys, matrix_file):
    path, _ = matrix_file
    x, y = tmp_path / "x.sk", tmp_path / "y.sk"
    for out, row in ((x, "0"), (y, "1")):
        run_ok(capsys, ["sketch", "--input", path, "--row", row, "--k", "4", "--out", str(out)])
    return x, y


@pytest.mark.parametrize("cut", range(1, 8))
def test_estimate_on_a_value_file_cut_inside_an_entry_exits_three(tmp_path, capsys, matrix_file,
                                                                   cut):
    # used to escape as numpy's ValueError and exit 4
    x, y = _sketch_pair(tmp_path, capsys, matrix_file)
    y.write_bytes(y.read_bytes()[:-cut])
    assert run(["estimate", "--x", str(x), "--y", str(y), "--estimator", "inner"]) == 3
    assert capsys.readouterr().err.startswith("error: file: ")


@pytest.mark.parametrize("offset, value", [(56, -2.0), (48, 3.0)])
def test_estimate_on_a_header_no_save_writes_exits_three(tmp_path, capsys, matrix_file,
                                                         offset, value):
    # a stored norm of -2 (offset 56) used to give mle_inner 4.0 with exit 0;
    # a Rademacher sketch with sparsity 3 (offset 48) used to load as sparsity 1
    x, y = _sketch_pair(tmp_path, capsys, matrix_file)
    raw = bytearray(y.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    y.write_bytes(bytes(raw))
    assert run(["estimate", "--x", str(x), "--y", str(y), "--estimator", "mle_inner"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: file: ")


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


# --- exit codes and usage ----------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for sub in ("sketch", "estimate", "variance", "simulate", "retrieval", "knn", "dp"):
        assert run([sub, "--help"]) == 0
    capsys.readouterr()


def test_usage_errors_exit_two(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["sketch"]) == 2  # missing required flags
    capsys.readouterr()


def test_invalid_parameters_exit_four(matrix_file, tmp_path):
    path, _ = matrix_file
    # fixed binning cannot have more bins than coordinates
    assert run(["sketch", "--input", path, "--k", "32", "--out", str(tmp_path / "o")]) == 4
    assert run(["sketch", "--input", path, "--row", "9", "--k", "4",
                "--out", str(tmp_path / "o")]) == 4


def test_numeric_failure_exits_five(capsys):
    # an impossible cosine tolerance exhausts the pair search
    assert run([
        "simulate", "--dim", "8", "--rho", "0.5", "--tol", "1e-12",
        "--k-list", "2", "--trials", "200",
    ]) == 5
    capsys.readouterr()
