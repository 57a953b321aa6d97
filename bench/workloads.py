"""The three workloads: one operation each, and its correctness check.

Program functions are looked up on their modules at call time, so the
tracer's rebound wrappers are the ones called once it is installed.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stdout

import checks
from checks import require
from inputs import Shapes

OPORP_ESTIMATORS = ("inner", "distance", "cosine", "normalized_inner", "mle_inner")


class OpFailed(RuntimeError):
    """The program refused an operation (a CLI call exited nonzero)."""


class Retrieval:
    """Two retrieval_eval calls over one clustered corpus: cosine (m reps), then VSRP."""

    def __init__(self, oporp, inputs: dict, shapes: Shapes, workdir: str) -> None:
        self.ex = oporp.experiment
        sk, proj = oporp.sketch, oporp.projection
        self.base, self.queries = inputs["base"], inputs["queries"]
        seed = int(inputs["sketch_seed"])
        D = self.base.shape[1]
        self.top_n = shapes.ret_top_n
        self.cos_config = sk.SketchConfig(
            dim=D, k=shapes.ret_k, binning=sk.Binning.FIXED, dist=proj.rademacher(),
            m=shapes.ret_m, seed=seed,
        )
        self.vsrp_config = sk.SketchConfig(
            dim=D, k=shapes.ret_vsrp_samples, binning=sk.Binning.FIXED,
            dist=proj.sparse(shapes.ret_vsrp_s), m=1, seed=seed,
        )
        self.shapes = shapes
        self.first = None

    def op(self):
        return (
            self.ex.retrieval_eval(self.base, self.queries, self.cos_config, "cosine", self.top_n),
            self.ex.retrieval_eval(self.base, self.queries, self.vsrp_config, "vsrp_cosine", self.top_n),
        )

    def check(self, result) -> dict:
        self.first = result
        B, Q, sh = self.base, self.queries, self.shapes
        exact = checks.exact_cosines(Q, B)
        rho, A = checks.cosine_grid_moments(Q, B)
        D = B.shape[1]
        c = checks.collision_weight(D, sh.ret_k, fixed=True)
        one_minus = (1.0 - rho**2) ** 2
        report = {}
        for points, config, name, var in (
            (result[0], self.cos_config, "cosine", (c * (one_minus - 2.0 * A)) / sh.ret_m),
            (result[1], self.vsrp_config, "vsrp_cosine",
             (one_minus + (sh.ret_vsrp_s - 3.0) * A) / sh.ret_vsrp_samples),
        ):
            scores = self.ex.similarity_matrix(B, Q, config, name)
            checks.check_pr_curve(points, exact, scores, self.top_n, f"retrieval/{name}")
            report[f"{name}_mse_over_var"] = checks.check_cosine_mse(scores, rho, A, var, f"retrieval/{name}")
        return report

    def recheck(self, result) -> None:
        require(repr(result) == repr(self.first), "retrieval: a repeated operation gave another PR curve")


class Sweep:
    """One mse_sweep cell per estimator family on one pair with rho near 0.5."""

    def __init__(self, oporp, inputs: dict, shapes: Shapes, workdir: str) -> None:
        self.ex = oporp.experiment
        self.u, self.v = inputs["u"], inputs["v"]
        self.seed = int(inputs["sketch_seed"])
        self.shapes = shapes
        self.first = None

    def op(self):
        sh, ex, u, v, seed = self.shapes, self.ex, self.u, self.v, self.seed
        T = sh.sweep_trials
        return (
            ex.mse_sweep(u, v, [sh.sweep_k], 1.0, "fixed", list(OPORP_ESTIMATORS), T, seed),
            ex.mse_sweep(u, v, [sh.sweep_k], 1.0, "variable", ["inner", "cosine"], T, seed),
            ex.mse_sweep(u, v, [sh.sweep_vsrp_k], sh.sweep_vsrp_s, "fixed",
                         ["vsrp_inner", "vsrp_cosine"], T, seed),
        )

    def check(self, result) -> dict:
        self.first = result
        sh = self.shapes
        p = checks.pair_moments(self.u, self.v)
        D, k = self.u.shape[0], sh.sweep_k
        fixed_c = checks.collision_weight(D, k, fixed=True)
        checks.check_sweep_rows(result[0], p, {n: (1.0, fixed_c, k) for n in OPORP_ESTIMATORS})
        checks.check_sweep_rows(result[1], p, {n: (1.0, 1.0 / k, k) for n in ("inner", "cosine")})
        checks.check_sweep_rows(result[2], p, {n: (sh.sweep_vsrp_s, 0.0, sh.sweep_vsrp_k)
                                               for n in ("vsrp_inner", "vsrp_cosine")})
        return {f"{r.estimator}/{r.scheme or 'vsrp'}_mse_over_var": r.empirical_mse / r.theoretical_var
                for rows in result for r in rows if r.estimator != "mle_inner"}

    def recheck(self, result) -> None:
        # repr, not ==: mle_inner rows hold a NaN variance, which equals nothing.
        require(repr(result) == repr(self.first), "sweep: a repeated operation gave other rows")


class CliPairs:
    """In-process CLI calls: sketch a pair, five estimates, two DP releases."""

    EPSILON, DELTA, BETA = 1.0, 1e-6, 0.25

    def __init__(self, oporp, inputs: dict, shapes: Shapes, workdir: str) -> None:
        self.cli = oporp.cli
        M = inputs["matrix"]
        self.k = shapes.cli_k
        seed = str(int(inputs["sketch_seed"]))
        self.files = {n: os.path.join(workdir, f"{n}.sk") for n in ("x", "y", "gauss", "smooth")}
        matrix, f = os.path.join(workdir, "matrix.opmx"), self.files
        common = ["--input", matrix, "--k", str(self.k), "--seed", seed]
        self.argvs = [
            ["sketch", *common, "--row", "0", "--out", f["x"]],
            ["sketch", *common, "--row", "1", "--out", f["y"]],
            *[["estimate", "--x", f["x"], "--y", f["y"], "--estimator", e] for e in OPORP_ESTIMATORS],
            ["dp", *common, "--row", "2", "--mechanism", "gaussian", "--epsilon", repr(self.EPSILON),
             "--delta", repr(self.DELTA), "--beta", repr(self.BETA), "--out", f["gauss"]],
            ["dp", *common, "--row", "2", "--mechanism", "rr-smooth", "--epsilon", repr(self.EPSILON),
             "--beta", repr(self.BETA), "--out", f["smooth"]],
        ]
        p = checks.pair_moments(M[0], M[1])
        c = checks.collision_weight(M.shape[1], self.k, fixed=True)
        var = {n: checks.closed_form_var(n, p, self.k, 1.0, c) for n in OPORP_ESTIMATORS[:4]}
        # The MLE's variance has no closed form; it never exceeds the plain estimate's.
        var["mle_inner"] = var["inner"]
        truth = {"inner": p["a"], "distance": p["d"], "cosine": p["rho"],
                 "normalized_inner": p["a"], "mle_inner": p["a"]}
        self.expect = {n: (truth[n], var[n]) for n in OPORP_ESTIMATORS}

    def op(self) -> list[str]:
        outputs = []
        for argv in self.argvs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = self.cli.run(argv)
            if code != 0:
                raise OpFailed(f"oporp {argv[0]} exited {code}")
            outputs.append(buf.getvalue())
        return outputs

    def check(self, result: list[str]) -> dict:
        value_bytes = checks.SKETCH_HEADER_BYTES + 8 * self.k
        for name in ("x", "y", "gauss"):
            size = os.path.getsize(self.files[name])
            require(size == value_bytes, f"cli_pairs: {name} sketch is {size} bytes, expected {value_bytes}")
        report = {}
        for out in result[2:7]:
            name, text = out.split()
            value = float(text)
            truth, var = self.expect[name]
            checks.check_estimate(name, value, truth, var)
            report[f"{name}_z"] = (value - truth) / math.sqrt(var)
        sigma_line = result[7].splitlines()[0].split()
        require(sigma_line[0] == "sigma", f"cli_pairs: dp gaussian printed {result[7]!r}")
        checks.check_gaussian_sigma(float(sigma_line[1]), self.BETA, self.EPSILON, self.DELTA)
        checks.check_sign_file(self.files["smooth"], self.k)
        return report

    def recheck(self, result: list[str]) -> None:
        self.check(result)


WORKLOAD_CLASSES = {"retrieval": Retrieval, "sweep": Sweep, "cli_pairs": CliPairs}
