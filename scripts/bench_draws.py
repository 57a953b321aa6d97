"""Time the random draws and OPORP chunks of a bench sweep operation on one or more trees, and write BENCH_draws.json.

Run from the root of a checkout:

    python3 scripts/bench_draws.py --tree parent=/path/to/other/checkout --tree change=.

Each ``--tree NAME=PATH`` names a checkout whose ``src/oporp`` is timed;
without the flag the script times this checkout alone. ``tree_timing.py``
runs one fresh worker interpreter per tree and round, the trees alternating
which goes first from round to round. A worker times each timed cell REPS
times, each on a new generator from the tree's ``projection.generator``,
and reports the median; then it runs each bench sweep cell and one large
plan build once under tracemalloc and reports their traced peaks. The file holds, per tree and cell,
the median over ROUNDS rounds and every round's value, plus the core count
and the numpy version.

The cells are those of the bench ``sweep`` operation (D = 1024, 2000
trials, k = 64 bins, VSRP k = 16 samples at s = 3), in ms:

- raw_words_2mb: 2**18 full-range uint64 draws, the generator's own speed
- rademacher: ``draw_multipliers`` of a (2000, 1024) Rademacher block
- draws_fixed, draws_variable: ``sketch._oporp_draws`` of 2000 Rademacher
  trials: the permutations with the signs folded in, or the bin indices in
  [0, 64) and the signs
- chunk_fixed, chunk_variable: one ``_oporp_chunk`` of 2000 Rademacher
  trials, its draws and the bin sums of both sides of a pair
- sums_fixed, sums_variable: the chunk's bin sums alone, its median less
  the median of the same draws (chunk_* less draws_*; both run on the
  same seeds)
- sparse_signs: ``_sparse_signs`` of one dense VSRP chunk, (3904, 1024)
  at s = 3 (244 trials of 16 samples)

and, in MiB, the tracemalloc peak of one ``mse_sweep`` call on each bench
sweep cell:

- peak_fixed: k = 64, s = 1, fixed bins, the five OPORP estimators
- peak_variable: k = 64, s = 1, variable bins, inner and cosine
- peak_vsrp: k = 16 samples, s = 3, vsrp_inner and vsrp_cosine

and, as a count, the median minor page faults of one ``_oporp_chunk`` call
(faults_chunk_fixed, faults_chunk_variable): memory the allocator handed
back to the system between chunks and the next chunk touches afresh.

and, in MiB, one ``SketchPlan`` build at D = 2**18, k = 256, m = 20, fixed
bins and Rademacher signs (an int32 index with the signs folded in):
peak_plan, its tracemalloc peak, and held_plan, what it leaves allocated.

It takes about four minutes for two trees and is not part of the test suite.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np
import tree_timing

TRIALS, D, K, VSRP_SAMPLES, VSRP_S = 2000, 1024, 64, 3904, 3.0
PLAN_D, PLAN_K, PLAN_M = 1 << 18, 256, 20
REPS, ROUNDS = 15, 10
# Bench sweep cells: (k, s, scheme, estimators).
SWEEP_CELLS = {
    "peak_fixed": (K, 1.0, "fixed", ["inner", "distance", "cosine", "normalized_inner",
                                     "mle_inner"]),
    "peak_variable": (K, 1.0, "variable", ["inner", "cosine"]),
    "peak_vsrp": (16, VSRP_S, "fixed", ["vsrp_inner", "vsrp_cosine"]),
}
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_draws.json"


def _worker() -> None:
    """Print {cell: median ms or peak MiB} for the oporp on sys.path."""
    from oporp import sketch
    from oporp.experiment import _oporp_chunk, generate_pair_with_cosine, mse_sweep
    from oporp.projection import _sparse_signs, draw_multipliers, generator, rademacher
    from oporp.sketch import Binning, SketchConfig, SketchPlan

    u, v = generate_pair_with_cosine(D, 0.5, 0.01, seed=3)
    sign = rademacher()

    def draws(rng, fixed):
        return sketch._oporp_draws(rng, TRIALS, D, K, sign, fixed)

    cells = {
        "raw_words_2mb": lambda rng: rng.integers(0, 1 << 64, size=1 << 18, dtype=np.uint64),
        "rademacher": lambda rng: draw_multipliers(rng, (TRIALS, D), sign),
        "draws_fixed": lambda rng: draws(rng, True),
        "draws_variable": lambda rng: draws(rng, False),
        "chunk_fixed": lambda rng: _oporp_chunk(u, v, K, sign, Binning.FIXED, TRIALS, rng),
        "chunk_variable": lambda rng: _oporp_chunk(u, v, K, sign, Binning.VARIABLE, TRIALS, rng),
        "sparse_signs": lambda rng: _sparse_signs(rng, (VSRP_SAMPLES, D), VSRP_S),
    }
    out = {}
    for name, draw in cells.items():
        times, faults = [], []
        for seed in range(REPS):
            rng = generator(seed)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            draw(rng)
            times.append((time.perf_counter() - start) * 1e3)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        out[name] = statistics.median(times)
        if name.startswith("chunk_"):
            out[f"faults_{name}"] = statistics.median(faults)
    for scheme in ("fixed", "variable"):
        out[f"sums_{scheme}"] = out[f"chunk_{scheme}"] - out[f"draws_{scheme}"]
    tracemalloc.start()
    for name, (k, s, scheme, estimators) in SWEEP_CELLS.items():
        tracemalloc.reset_peak()
        mse_sweep(u, v, [k], s, scheme, estimators, TRIALS, seed=1)
        out[name] = tracemalloc.get_traced_memory()[1] / 2**20
    config = SketchConfig(dim=PLAN_D, k=PLAN_K, binning=Binning.FIXED, dist=sign, m=PLAN_M)
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    plan = SketchPlan(config)
    held, peak = tracemalloc.get_traced_memory()
    del plan
    out["peak_plan"], out["held_plan"] = (peak - before) / 2**20, (held - before) / 2**20
    tracemalloc.stop()
    print(json.dumps(out))


if __name__ == "__main__":
    tree_timing.main(
        __doc__, _worker, OUT, ROUNDS,
        what=f"draw and chunk time: median over {ROUNDS} rounds of each round's median of "
             f"{REPS} runs on fresh generators; sweep cell peaks: tracemalloc peak of one "
             "mse_sweep call; trees alternate per round",
        shapes={"trials": TRIALS, "D": D, "k": K, "vsrp_samples": VSRP_SAMPLES,
                "vsrp_s": VSRP_S, "raw_words": 1 << 18,
                "plan": {"D": PLAN_D, "k": PLAN_K, "m": PLAN_M},
                "sweep_cells": {name: cell[:3] for name, cell in SWEEP_CELLS.items()}},
        units={**{name: "mib" for name in (*SWEEP_CELLS, "peak_plan", "held_plan")},
               "faults_chunk_fixed": "count", "faults_chunk_variable": "count"},
    )
