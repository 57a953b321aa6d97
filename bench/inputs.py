"""Workload shapes and seeded input generation.

Every input is drawn here with numpy from the workload seed; the program's
own data helpers (``make_clusters``, ``generate_pair_with_cosine``) are not
used, so a change to them cannot change what the benchmark measures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("retrieval", "sweep", "cli_pairs")


@dataclass(frozen=True)
class Shapes:
    # retrieval: clustered corpus, one cosine call (m repetitions) and one VSRP call
    ret_dim: int
    ret_base: int
    ret_queries: int
    ret_clusters: int
    ret_k: int
    ret_m: int
    ret_vsrp_samples: int
    ret_vsrp_s: float
    ret_top_n: int
    # sweep: one pair, one mse_sweep cell per estimator family
    sweep_dim: int
    sweep_k: int
    sweep_vsrp_k: int
    sweep_vsrp_s: float
    sweep_trials: int
    # cli_pairs: one binary matrix file, m=1 sketches at large D
    cli_dim: int
    cli_k: int


FULL = Shapes(
    ret_dim=1024, ret_base=600, ret_queries=60, ret_clusters=6, ret_k=64, ret_m=8,
    ret_vsrp_samples=64, ret_vsrp_s=3.0, ret_top_n=10,
    sweep_dim=1024, sweep_k=64, sweep_vsrp_k=16, sweep_vsrp_s=3.0, sweep_trials=2000,
    cli_dim=16384, cli_k=1024,
)

# Small shapes for a seconds-long check of every workload (``--smoke``).
SMOKE = Shapes(
    ret_dim=256, ret_base=120, ret_queries=12, ret_clusters=4, ret_k=32, ret_m=4,
    ret_vsrp_samples=32, ret_vsrp_s=3.0, ret_top_n=5,
    sweep_dim=256, sweep_k=32, sweep_vsrp_k=8, sweep_vsrp_s=3.0, sweep_trials=400,
    cli_dim=2048, cli_k=128,
)

SWEEP_RHO = 0.5
MATRIX_MAGIC = b"OPMX"


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _sketch_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def make_inputs(workload: str, seed: int, shapes: Shapes) -> dict[str, np.ndarray]:
    """Arrays for one workload; the same (workload, seed, shapes) gives the same arrays."""
    rng = _rng(seed, workload)
    if workload == "retrieval":
        D, n = shapes.ret_dim, shapes.ret_base + shapes.ret_queries
        centers = rng.standard_normal((shapes.ret_clusters, D))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        noise = rng.standard_normal((n, D)) / np.sqrt(D)
        points = centers[np.arange(n) % shapes.ret_clusters] + noise
        points /= np.linalg.norm(points, axis=1)[:, None]
        points *= rng.uniform(0.5, 2.0, n)[:, None]
        return {
            "base": points[: shapes.ret_base],
            "queries": points[shapes.ret_base :],
            "sketch_seed": np.array(_sketch_seed(rng), dtype=np.uint64),
        }
    if workload == "sweep":
        D = shapes.sweep_dim
        g, h = rng.standard_normal(D), rng.standard_normal(D)
        u = g * rng.uniform(0.5, 2.0) / np.sqrt(D)
        v = (SWEEP_RHO * g + np.sqrt(1.0 - SWEEP_RHO**2) * h) * rng.uniform(0.5, 2.0) / np.sqrt(D)
        return {"u": u, "v": v, "sketch_seed": np.array(_sketch_seed(rng), dtype=np.uint64)}
    if workload == "cli_pairs":
        D = shapes.cli_dim
        g, h, w = rng.standard_normal((3, D))
        # Entries stay inside [-1, 1], as the DP mechanisms require.
        u = np.clip(0.3 * g, -1.0, 1.0)
        v = np.clip(0.3 * (0.6 * g + 0.8 * h), -1.0, 1.0)
        private = np.clip(0.3 * w, -1.0, 1.0)
        return {
            "matrix": np.stack([u, v, private]),
            "sketch_seed": np.array(_sketch_seed(rng), dtype=np.uint64),
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_matrix(path: str, M: np.ndarray) -> None:
    """Write the documented binary matrix layout: b"OPMX", u64 rows, u64 cols, f64 values."""
    M = np.ascontiguousarray(M, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<QQ", *M.shape))
        fh.write(M.tobytes())
