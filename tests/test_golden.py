"""Frozen-seed outputs pinned by one sha256, and kernel-size independence.

The golden hash covers sketches, a sketch file, a batch plan, the
retrieval estimators and Monte-Carlo sweep rows. A change that moves any
of them by one bit fails here; a change that is meant to move them must
say so and update the hash. The sweep rows are recomputed under OpenBLAS's
Haswell kernel and must not move. The block tests shrink the buffer size
of the gather x multiply -> bin sum kernel to one row (one sample for
VSRP) and require the same bits, since blocks decide only where
temporaries live.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oporp.projection
from oporp.experiment import generate_pair_with_cosine, mse_sweep, similarity_matrix
from oporp.projection import gaussian, rademacher, scaled_uniform, sparse
from oporp.sketch import (
    Binning,
    SketchConfig,
    SketchPlan,
    oporp_sketch,
    save_sketch,
    vsrp_config,
    vsrp_sketch,
)

GOLDEN_SHA256 = "39a1798b0ee026dd5f31db129e93962302a159696cd0c93e667215a3c561e9e9"

DISTS = (rademacher(), gaussian(), scaled_uniform(), sparse(3.0))
SIMILARITY_ESTIMATORS = (
    "exact", "inner", "distance", "cosine", "normalized_inner", "vsrp_inner", "vsrp_cosine",
)


def _plan_configs():
    return [
        SketchConfig(dim=23, k=6, binning=Binning.FIXED, dist=rademacher(), m=3, seed=41),
        SketchConfig(dim=24, k=6, binning=Binning.FIXED, dist=gaussian(), m=1, seed=42),
        SketchConfig(dim=23, k=9, binning=Binning.VARIABLE, dist=sparse(3.0), m=3, seed=43),
    ]


def _sweep_rows():
    u, v = generate_pair_with_cosine(1024, 0.5, 0.01, seed=3)
    rows = []
    for s in (1.0, 3.0):
        for scheme in ("fixed", "variable"):
            rows += mse_sweep(u, v, [64], s, scheme,
                              ["inner", "distance", "cosine", "normalized_inner", "mle_inner"],
                              600, seed=5)
        rows += mse_sweep(u, v, [16], s, "fixed", ["vsrp_inner", "vsrp_cosine"], 600, seed=5)
    # s = 1 and 3 run the dense VSRP kernel, s = 30 the gap kernel
    rows += mse_sweep(u, v, [16], 30.0, "fixed", ["vsrp_inner", "vsrp_cosine"], 600, seed=5)
    return rows


def _plan_outputs():
    M = np.random.default_rng(15).standard_normal((7, 23))
    M24 = np.random.default_rng(16).standard_normal((7, 24))
    out = [SketchPlan(c).apply(M24 if c.dim == 24 else M) for c in _plan_configs()]
    out.append(SketchPlan(vsrp_config(23, 12, 3.0, 8)).apply(M))
    return out


def _k1_plan_outputs():
    # k = 1 plans of both binnings and every distribution: one matrix
    # product per row, which no block size may move either
    M = np.random.default_rng(17).standard_normal((7, 23))
    configs = [SketchConfig(dim=23, k=1, binning=binning, dist=dist, m=3, seed=47)
               for binning in Binning for dist in DISTS]
    return [SketchPlan(c).apply(M) for c in configs]


def _golden_parts(tmp_path):
    rng = np.random.default_rng(2024)
    u23 = rng.standard_normal(23)
    u24 = rng.standard_normal(24)
    parts = []
    for binning in (Binning.FIXED, Binning.VARIABLE):
        for dist in DISTS:
            for m in (1, 3):
                for dim, u in ((24, u24), (23, u23)):
                    config = SketchConfig(dim=dim, k=6, binning=binning, dist=dist, m=m, seed=7)
                    parts.append(oporp_sketch(u, config).values)
    # fixed bins of 16, of 18 (two groups of 8 and a tail, one padded zero)
    # and of 96 at k = 1, long enough for their summation order to show
    u96 = np.random.default_rng(2025).standard_normal(96)
    for dist in (rademacher(), gaussian()):
        for m in (1, 3):
            for dim, k in ((96, 6), (89, 5), (96, 1)):
                config = SketchConfig(dim=dim, k=k, binning=Binning.FIXED, dist=dist, m=m, seed=9)
                parts.append(oporp_sketch(u96[:dim], config).values)
    for s in (1.0, 3.0):
        parts.append(vsrp_sketch(u23, 23, 10, s, seed=9).values)
    path = tmp_path / "golden.sk"
    save_sketch(str(path), oporp_sketch(u23, _plan_configs()[0]))
    parts.append(path.read_bytes())
    parts += _plan_outputs()
    base = rng.standard_normal((9, 40))
    queries = rng.standard_normal((3, 40))
    config = SketchConfig(dim=40, k=8, binning=Binning.FIXED, dist=rademacher(), m=2, seed=11)
    for name in SIMILARITY_ESTIMATORS:
        parts.append(similarity_matrix(base, queries, config, name))
    parts.append(repr(_sweep_rows()).encode())
    return parts


def test_golden_hash(tmp_path):
    digest = hashlib.sha256()
    for part in _golden_parts(tmp_path):
        if isinstance(part, np.ndarray):
            digest.update(f"{part.dtype.str}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        digest.update(part)
    assert digest.hexdigest() == GOLDEN_SHA256


def test_sweep_rows_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel by CPU, and an AVX2-only machine gets
    # Haswell's; the sweep reduces in numpy's own loops (einsum, never BLAS),
    # so forcing that kernel must leave every row's bits as they are
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import test_golden; print(repr(test_golden._sweep_rows()))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == repr(_sweep_rows())


def test_sweep_rows_and_plans_do_not_depend_on_the_block_size(monkeypatch):
    rows, plans = _sweep_rows(), _plan_outputs() + _k1_plan_outputs()
    # the one block size of the index draws, the kernels' tiles and the VSRP
    # blocks; 1: one index row per draw block, one row and one repetition
    # per tile, and one sample per VSRP block;
    # 400: the plans' 7 rows with 2 of their 3 repetitions per tile, then 1;
    # 7 * 2048: a sweep pair with 7 of a chunk's 600 trials per tile, then 5
    for block in (1, 400, 7 * 2048):
        monkeypatch.setattr(oporp.projection, "_BLOCK_ELEMENTS", block)
        assert repr(_sweep_rows()) == repr(rows)
        for got, want in zip(_plan_outputs() + _k1_plan_outputs(), plans):
            assert np.array_equal(got, want)


# The bench's sweep cells and a dense VSRP cell at s = 1: D = 1024, 2000
# trials (k, s, scheme, estimators).
BENCH_CELLS = {
    "fixed": (64, 1.0, "fixed", ["inner", "distance", "cosine", "normalized_inner", "mle_inner"]),
    "variable": (64, 1.0, "variable", ["inner", "cosine"]),
    "vsrp": (16, 3.0, "fixed", ["vsrp_inner", "vsrp_cosine"]),
    "vsrp_s1": (16, 1.0, "fixed", ["vsrp_inner", "vsrp_cosine"]),
}


@pytest.mark.parametrize("cell", sorted(BENCH_CELLS))
def test_sweep_cell_peak_memory(cell):
    # a chunk keeps its draws and one block buffer; whole-chunk gathers,
    # products and int64 draws once put these cells at 49-65 MiB, and
    # dense int32 signs with their float copy put VSRP at s = 1 at 46 MiB;
    # float64 signs and int32 index rows put the OPORP cells at 29.5 MiB
    k, s, scheme, estimators = BENCH_CELLS[cell]
    u, v = generate_pair_with_cosine(1024, 0.5, 0.01, seed=3)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        mse_sweep(u, v, [k], s, scheme, estimators, 2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 16 * 2**20, f"{cell}: {peak / 2**20:.1f} MiB"
