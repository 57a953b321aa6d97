"""Time one VSRP sweep cell under each VSRP kernel and write BENCH_sweep_vsrp.json.

Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/bench_sweep_vsrp.py

For each s in S_GRID the script times ``mse_sweep`` on one VSRP cell
(D = 1024, k = 16 samples, 2000 trials, both VSRP estimators) with every
cell forced onto the dense byte kernel and then onto the gap kernel, by
setting ``experiment._DENSE_VSRP_BELOW`` for the run. The gap kernel has no
s = 1 form (a nonzero at every coordinate has no geometric gaps), so that
entry is null. Each timing is the median of ROUNDS runs after one warm-up,
the two kernels alternating. The file records the core count and the
numpy version; ``crossover_s`` is the smallest s of the grid at which the
gap kernel is the faster one, which ``_DENSE_VSRP_BELOW`` is read from.
It takes about half a minute and is not part of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from oporp import experiment
from oporp.experiment import generate_pair_with_cosine, mse_sweep

S_GRID = (1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 16.0, 30.0)
D, K, TRIALS, SEED, ROUNDS = 1024, 16, 2000, 1, 7
KERNELS = {"dense": math.inf, "gap": 0.0}
OUT = Path(__file__).resolve().parent.parent / "BENCH_sweep_vsrp.json"


def _cell_ms(u, v, s: float, below: float) -> float:
    saved = experiment._DENSE_VSRP_BELOW
    experiment._DENSE_VSRP_BELOW = below
    try:
        start = time.perf_counter()
        mse_sweep(u, v, [K], s, "fixed", ["vsrp_inner", "vsrp_cosine"], TRIALS, SEED)
        return (time.perf_counter() - start) * 1e3
    finally:
        experiment._DENSE_VSRP_BELOW = saved


def main() -> None:
    u, v = generate_pair_with_cosine(D, 0.5, 0.01, seed=3)
    cells = []
    for s in S_GRID:
        kernels = [name for name in KERNELS if not (name == "gap" and s == 1.0)]
        runs = {name: [] for name in kernels}
        for name in kernels:
            _cell_ms(u, v, s, KERNELS[name])
        for r in range(ROUNDS):
            for name in kernels if r % 2 == 0 else kernels[::-1]:
                runs[name].append(_cell_ms(u, v, s, KERNELS[name]))
        cell = {"s": s}
        for name in KERNELS:
            ms = runs.get(name)
            cell[f"{name}_ms"] = round(statistics.median(ms), 1) if ms else None
            cell[f"{name}_runs_ms"] = [round(t, 1) for t in ms] if ms else None
        cells.append(cell)
        print(f"s={s:g}: dense {cell['dense_ms']} ms, gap {cell['gap_ms']} ms", flush=True)
    crossover = next(
        (c["s"] for c in cells if c["gap_ms"] is not None and c["gap_ms"] <= c["dense_ms"]), None
    )
    result = {
        "what": "one VSRP mse_sweep cell (vsrp_inner and vsrp_cosine) per kernel; median of "
                f"{ROUNDS} runs after one warm-up, kernels alternating",
        "shape": {"D": D, "k": K, "trials": TRIALS, "seed": SEED},
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "switch_below_s": experiment._DENSE_VSRP_BELOW,
        "crossover_s": crossover,
        "cells": cells,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
