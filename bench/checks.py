"""Correctness checks computed by the benchmark itself.

Nothing here imports the program. The checks recompute what they compare
against from numpy and scipy, or test properties of the method (closed-form
variances from the OPORP paper, arXiv 2302.03505; the exact Gaussian DP
trade-off), never a stored copy of the program's output.
"""

from __future__ import annotations

import math

import numpy as np

# Estimates and sample moments are judged within Z standard errors.
Z = 6.0


class CheckFailed(AssertionError):
    """A workload's output contradicts the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- closed forms ---------------------------------------------------------


def collision_weight(D: int, k: int, fixed: bool) -> float:
    """k * E(I_ij I_i'j): (D-k)/((D-1)k) for fixed bins (D a multiple of k), 1/k for variable."""
    return (D - k) / ((D - 1) * k) if fixed else 1.0 / k


def pair_moments(u: np.ndarray, v: np.ndarray) -> dict[str, float]:
    ssu, ssv, a = float(u @ u), float(v @ v), float(u @ v)
    rho = a / math.sqrt(ssu * ssv)
    un, vn = u / math.sqrt(ssu), v / math.sqrt(ssv)
    diff = u - v
    return {
        "a": a, "ssu": ssu, "ssv": ssv, "rho": rho,
        "u2v2": float(np.sum(u * u * v * v)),
        "d": float(diff @ diff),
        "diff4": float(np.sum(diff**4)),
        "A": float(np.sum((un * vn - 0.5 * rho * (un * un + vn * vn)) ** 2)),
    }


def closed_form_var(name: str, p: dict[str, float], k: int, s: float, c: float) -> float:
    """Single-repetition variance of each estimator; c is the collision weight."""
    one_minus = (1.0 - p["rho"] ** 2) ** 2
    if name == "inner":
        return (s - 1.0) * p["u2v2"] + c * (p["a"] ** 2 + p["ssu"] * p["ssv"] - 2.0 * p["u2v2"])
    if name == "distance":
        return (s - 1.0) * p["diff4"] + c * (2.0 * p["d"] ** 2 - 2.0 * p["diff4"])
    if name == "cosine":
        return (s - 1.0) * p["A"] + c * (one_minus - 2.0 * p["A"])
    if name == "normalized_inner":
        return closed_form_var("cosine", p, k, s, c) * p["ssu"] * p["ssv"]
    if name == "vsrp_inner":
        return (p["a"] ** 2 + p["ssu"] * p["ssv"] + (s - 3.0) * p["u2v2"]) / k
    if name == "vsrp_cosine":
        return (one_minus + (s - 3.0) * p["A"]) / k
    raise ValueError(f"no closed form for {name!r}")


def cosine_grid_moments(Q: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact cosine rho and curvature A for every (query, base) pair."""
    Qn = Q / np.linalg.norm(Q, axis=1)[:, None]
    Bn = B / np.linalg.norm(B, axis=1)[:, None]
    rho = Qn @ Bn.T
    q4, b4 = np.sum(Qn**4, axis=1), np.sum(Bn**4, axis=1)
    s22 = (Qn**2) @ (Bn**2).T
    s31 = (Qn**3) @ Bn.T + Qn @ (Bn**3).T
    # A = sum (uv - rho/2 (u^2 + v^2))^2 for unit u, v, expanded into moment sums.
    A = s22 - rho * s31 + 0.25 * rho**2 * (q4[:, None] + b4[None, :] + 2.0 * s22)
    return rho, A


# --- retrieval --------------------------------------------------------------


def exact_cosines(Q: np.ndarray, B: np.ndarray) -> np.ndarray:
    return (Q / np.linalg.norm(Q, axis=1)[:, None]) @ (B / np.linalg.norm(B, axis=1)[:, None]).T


def pr_curve(exact: np.ndarray, scores: np.ndarray, top_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall and precision at every depth, averaged over queries.

    The gold set of a query is its top_n base rows by exact cosine; both
    rankings put the higher score first and break ties by the smaller index.
    """
    n = exact.shape[1]
    gold = np.argsort(-exact, axis=1, kind="stable")[:, :top_n]
    in_gold = np.zeros(exact.shape, dtype=bool)
    np.put_along_axis(in_gold, gold, True, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")
    hits = np.cumsum(np.take_along_axis(in_gold, order, axis=1), axis=1)
    return (hits / top_n).mean(axis=0), (hits / np.arange(1, n + 1)).mean(axis=0)


def check_pr_curve(points, exact: np.ndarray, scores: np.ndarray, top_n: int, what: str) -> None:
    recall, precision = pr_curve(exact, scores, top_n)
    got_r = np.array([p.recall for p in points])
    got_p = np.array([p.precision for p in points])
    require(got_r.shape == recall.shape, f"{what}: {got_r.size} PR points, expected {recall.size}")
    require(np.allclose(got_r, recall, rtol=1e-12, atol=1e-15), f"{what}: recall curve differs")
    require(np.allclose(got_p, precision, rtol=1e-12, atol=1e-15), f"{what}: precision curve differs")
    require(got_r[-1] == 1.0, f"{what}: final recall {got_r[-1]!r}, expected 1")


# The mean over all pairs of the squared cosine error against the mean of the
# paper's per-pair variance. Pairs share one sketch randomness, so the mean is
# noisier than a sum of independent terms; the band is set from its spread
# over seeds (README, "Correctness checks").
RETRIEVAL_MSE_BAND = (0.6, 1.6)


def check_cosine_mse(est: np.ndarray, rho: np.ndarray, A: np.ndarray, expected_var: np.ndarray,
                     what: str) -> float:
    require(bool(np.all(np.abs(est) <= 1.0)), f"{what}: cosine estimate outside [-1, 1]")
    ratio = float(np.mean((est - rho) ** 2) / np.mean(expected_var))
    lo, hi = RETRIEVAL_MSE_BAND
    require(lo <= ratio <= hi, f"{what}: cosine MSE / paper variance = {ratio:.4f}, outside [{lo}, {hi}]")
    return ratio


# --- sweep ------------------------------------------------------------------


# The cosine-family variances are first order in 1/k; allow that much on top
# of the sampling error of the mean squared error.
ASYMPTOTIC_SLACK = {"cosine": 2.0, "normalized_inner": 2.0, "vsrp_cosine": 2.0}


def check_sweep_rows(rows, p: dict[str, float], expected: dict[str, tuple[float, float, int]]) -> None:
    """expected maps estimator -> (fourth moment s, collision weight c, k)."""
    by_name = {r.estimator: r for r in rows}
    require(set(by_name) == set(expected), f"sweep: rows for {sorted(by_name)}, expected {sorted(expected)}")
    for name, (s, c, k) in expected.items():
        row = by_name[name]
        T = row.trials
        if name == "mle_inner":
            require(math.isnan(row.theoretical_var), "sweep: mle_inner reports a closed-form variance")
            continue
        want = closed_form_var(name, p, k, s, c)
        require(math.isclose(row.theoretical_var, want, rel_tol=1e-9),
                f"sweep: {name} theoretical_var {row.theoretical_var!r}, paper gives {want!r}")
        # MSE of T roughly normal errors has relative standard error sqrt(2/T).
        tol = Z * math.sqrt(2.0 / T) + ASYMPTOTIC_SLACK.get(name, 0.0) / k
        require(abs(row.empirical_mse / want - 1.0) <= tol,
                f"sweep: {name} MSE/var = {row.empirical_mse / want:.4f}, tolerance {tol:.4f}")
        if name in ("inner", "distance", "vsrp_inner"):
            se = math.sqrt(want / T)
            require(abs(row.empirical_bias) <= Z * se,
                    f"sweep: {name} bias {row.empirical_bias:.3g} exceeds {Z} standard errors ({se:.3g})")
    if "mle_inner" in by_name and "inner" in by_name:
        require(by_name["mle_inner"].empirical_mse <= by_name["inner"].empirical_mse,
                "sweep: mle_inner MSE exceeds inner MSE")


# --- cli_pairs ----------------------------------------------------------------

SKETCH_HEADER_BYTES = 64


def check_estimate(name: str, value: float, truth: float, var: float) -> None:
    require(math.isfinite(value), f"cli_pairs: {name} printed {value!r}")
    require(abs(value - truth) <= Z * math.sqrt(var),
            f"cli_pairs: {name} = {value!r}, exact {truth!r}, {Z} sd = {Z * math.sqrt(var):.4g}")
    if name == "cosine":
        require(-1.0 <= value <= 1.0, f"cli_pairs: cosine {value!r} outside [-1, 1]")


def gaussian_tradeoff(sigma: float, sensitivity: float, epsilon: float) -> float:
    """Phi(D/2s - es/D) - e^e Phi(-D/2s - es/D) for the Gaussian mechanism."""
    from scipy.stats import norm  # imported on first use: it is slow and only cli_pairs needs it

    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    return float(norm.cdf(a - b) - math.exp(epsilon) * norm.cdf(-a - b))


def check_gaussian_sigma(sigma: float, sensitivity: float, epsilon: float, delta: float) -> None:
    require(sigma > 0.0 and math.isfinite(sigma), f"cli_pairs: sigma {sigma!r}")
    gap = gaussian_tradeoff(sigma, sensitivity, epsilon)
    require(math.isclose(gap, delta, rel_tol=1e-6),
            f"cli_pairs: trade-off at sigma={sigma!r} is {gap!r}, delta is {delta!r}")
    # The trade-off falls strictly in sigma, so a smaller sigma must break delta.
    require(gaussian_tradeoff(sigma * (1.0 - 1e-4), sensitivity, epsilon) > delta,
            f"cli_pairs: sigma {sigma!r} is not the smallest that meets delta")


def check_sign_file(path: str, k: int) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    require(len(data) == SKETCH_HEADER_BYTES + k, f"cli_pairs: sign file holds {len(data)} bytes")
    bits = np.frombuffer(data, dtype=np.int8, offset=SKETCH_HEADER_BYTES)
    require(bool(np.all((bits == 1) | (bits == -1))), "cli_pairs: sign release holds a bit outside {-1, +1}")
