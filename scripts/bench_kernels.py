"""Time the package's kernels on one or more source trees and write BENCH_kernels.json.

    python3 scripts/bench_kernels.py --tree parent=/path/to/other/checkout --tree change=.

Each ``--tree NAME=PATH`` names a checkout whose ``src/oporp`` is timed;
without the flag this checkout alone is timed. A round runs one fresh worker
interpreter per tree, the trees alternating which goes first from round to
round. A worker runs every cell of ``SHAPES`` once and prints {cell: value}:

- build/<shape>/<dist>: ``SketchPlan(config)``, BUILDS builds under seeds
  0, 1, ..., for three shapes times three multiplier distributions
- apply/<shape>: ``plan.apply(M)`` of one Rademacher plan on N standard
  normal rows, the cell's number of applications after one warm-up
- similarity/<name>: ``similarity_matrix`` at the bench retrieval shape,
  sketching included, SIMILARITIES calls after one warm-up
- draws/<name>: the random draws and OPORP chunks of a bench ``sweep``
  operation, REPS calls each on a fresh ``projection.generator``:
  ``raw_words_2mb`` (the generator's own speed), ``rademacher``,
  ``draws_*`` (``sketch._oporp_draws``), ``chunk_*`` (one
  ``_oporp_chunk``, its draws and bin sums), ``sums_*`` (chunk less
  draws) and ``sparse_signs`` (one dense VSRP chunk); ``faults_chunk_*``,
  the minor page faults of one chunk; and, in MiB, the tracemalloc peak of
  one ``mse_sweep`` call on each bench sweep cell (``peak_fixed``,
  ``peak_variable``, ``peak_vsrp``), on a k = 1 averaging cell
  (``peak_k1``) and on one large plan build (``peak_plan``), and what that
  plan holds (``held_plan``)
- vsrp_kernel/{dense,gap}_s<s>: one VSRP ``mse_sweep`` cell with every
  cell forced onto the dense byte kernel or the gap kernel by setting
  ``experiment._DENSE_VSRP_BELOW``, once after one warm-up. The gap
  kernel has no s = 1 form.

A timed cell's value is the median of its in-worker calls, in ms. The file
holds, per tree and cell, the unit, the median over ROUNDS rounds and every
round's value; per tree, ``crossover_s``, the smallest s at which the gap
kernel's median is no slower than the dense one's (``_DENSE_VSRP_BELOW``
is read from it); and the core count, numpy and Python versions and
machine. Every tree after the first also gets, per cell, ``ratio`` (its
median over the first tree's), ``wins`` (the rounds it read lower),
``first_quartiles`` (the first tree's) and ``resolved``: one of the two
trees read lower in at least nine tenths of the rounds, and the medians
differ by more than the first tree's interquartile range.

It takes about two and a half minutes for two trees and is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

# The cell table: build and apply shapes are acceptance criterion 06's and
# the bench retrieval and cli_pairs configs, plus one-row applies whose bin
# sums are long; draws and vsrp_kernel are the bench sweep operation's.
SHAPES = {
    "build": {
        "criterion_06": {"D": 64, "k": 1, "m": 16, "binning": "variable"},
        "retrieval": {"D": 1024, "k": 64, "m": 8, "binning": "fixed"},
        "cli_pairs": {"D": 16384, "k": 1024, "m": 1, "binning": "fixed"},
    },
    "apply": {
        "retrieval_fixed": {"N": 660, "D": 1024, "k": 64, "m": 8, "binning": "fixed",
                            "applications": 41},
        "retrieval_variable": {"N": 660, "D": 1024, "k": 64, "m": 8, "binning": "variable",
                               "applications": 41},
        "cli_pairs": {"N": 1, "D": 16384, "k": 1024, "m": 1, "binning": "fixed",
                      "applications": 1001},
        "criterion_06": {"N": 1, "D": 64, "k": 1, "m": 16, "binning": "variable",
                         "applications": 1001},
        "long_bins_k16": {"N": 1, "D": 65536, "k": 16, "m": 1, "binning": "fixed",
                          "applications": 201},
        "k1": {"N": 1, "D": 4096, "k": 1, "m": 1, "binning": "fixed", "applications": 201},
        "k1_m16": {"N": 1, "D": 65536, "k": 1, "m": 16, "binning": "fixed", "applications": 11},
    },
    # 600 base and 60 query rows, D = 1024, fixed bins.
    "similarity": {
        "exact": {"k": 64, "m": 8, "dist": "rademacher"},
        "cosine": {"k": 64, "m": 8, "dist": "rademacher"},
        "vsrp_cosine": {"k": 64, "m": 1, "dist": "sparse3"},
    },
    "draws": {
        "trials": 2000, "D": 1024, "k": 64, "vsrp_samples": 3904, "vsrp_s": 3.0,
        "raw_words": 1 << 18,
        "plan": {"D": 1 << 18, "k": 256, "m": 20, "binning": "fixed", "dist": "rademacher"},
        # (k, s, binning, estimators) of one mse_sweep call.
        "sweep_cells": {
            "peak_fixed": (64, 1.0, "fixed", ["inner", "distance", "cosine",
                                              "normalized_inner", "mle_inner"]),
            "peak_variable": (64, 1.0, "variable", ["inner", "cosine"]),
            "peak_vsrp": (16, 3.0, "fixed", ["vsrp_inner", "vsrp_cosine"]),
            "peak_k1": (1, 1.0, "fixed", ["inner", "distance"]),
        },
    },
    "vsrp_kernel": {"D": 1024, "k": 16, "trials": 2000, "seed": 1,
                    "s": [1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 16.0, 30.0]},
}
BUILDS, SIMILARITIES, REPS, ROUNDS = 41, 41, 15, 10
KERNELS = {"dense": math.inf, "gap": 0.0}
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_kernels.json"


def _worker() -> None:
    """Print {cell: value} for the oporp on sys.path."""
    from oporp import (Binning, SketchConfig, SketchPlan, experiment, rademacher,
                       similarity_matrix, sparse)
    from oporp.experiment import _oporp_chunk, generate_pair_with_cosine, mse_sweep
    from oporp.projection import _sparse_signs, draw_multipliers, generator
    from oporp.sketch import _oporp_draws

    dists = {"rademacher": rademacher(), "sparse3": sparse(3.0), "sparse10": sparse(10.0)}

    def config(D, k, m, binning, dist="rademacher", seed=1, **_):
        return SketchConfig(dim=D, k=k, binning=Binning(binning), dist=dists[dist], m=m,
                            seed=seed)

    def vsrp_cell(s, below):
        saved, experiment._DENSE_VSRP_BELOW = experiment._DENSE_VSRP_BELOW, below
        try:
            mse_sweep(u, v, [vk["k"]], s, "fixed", ["vsrp_inner", "vsrp_cosine"], vk["trials"],
                      vk["seed"])
        finally:
            experiment._DENSE_VSRP_BELOW = saved

    out = {}

    def measure(name, calls, call, make=lambda i: None, warm=False):
        """Median ms of call(make(i)) over i < calls, make untimed; the chunks' faults too."""
        if warm:
            call(make(0))
        times, faults = [], []
        for i in range(calls):
            arg = make(i)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            call(arg)
            times.append((time.perf_counter() - start) * 1e3)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        out[name] = statistics.median(times)
        if name.startswith("draws/chunk_"):
            out[name.replace("chunk_", "faults_chunk_")] = statistics.median(faults)

    # The draws group runs first, in a fresh heap: its fault counts depend on
    # what the process allocated before.
    dr, vk = SHAPES["draws"], SHAPES["vsrp_kernel"]
    trials, D, k = dr["trials"], dr["D"], dr["k"]
    u, v = generate_pair_with_cosine(D, 0.5, 0.01, seed=3)
    sign, fixed, variable = dists["rademacher"], Binning.FIXED, Binning.VARIABLE
    draws = {
        "raw_words_2mb": lambda g: g.integers(0, 1 << 64, size=dr["raw_words"], dtype=np.uint64),
        "rademacher": lambda g: draw_multipliers(g, (trials, D), sign),
        "draws_fixed": lambda g: _oporp_draws(g, trials, D, k, sign, True),
        "draws_variable": lambda g: _oporp_draws(g, trials, D, k, sign, False),
        "chunk_fixed": lambda g: _oporp_chunk(u, v, k, sign, fixed, trials, g),
        "chunk_variable": lambda g: _oporp_chunk(u, v, k, sign, variable, trials, g),
        "sparse_signs": lambda g: _sparse_signs(g, (dr["vsrp_samples"], D), dr["vsrp_s"]),
    }
    for name, call in draws.items():
        measure(f"draws/{name}", REPS, call, generator)
    for scheme in ("fixed", "variable"):
        out[f"draws/sums_{scheme}"] = out[f"draws/chunk_{scheme}"] - out[f"draws/draws_{scheme}"]
    tracemalloc.start()
    for name, (cell_k, cell_s, scheme, estimators) in dr["sweep_cells"].items():
        tracemalloc.reset_peak()
        mse_sweep(u, v, [cell_k], cell_s, scheme, estimators, trials, seed=1)
        out[f"draws/{name}"] = tracemalloc.get_traced_memory()[1] / 2**20
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    plan = SketchPlan(config(**dr["plan"]))
    held, peak = tracemalloc.get_traced_memory()
    del plan
    out["draws/peak_plan"] = (peak - before) / 2**20
    out["draws/held_plan"] = (held - before) / 2**20
    tracemalloc.stop()

    for shape, p in SHAPES["build"].items():
        for dist in dists:
            measure(f"build/{shape}/{dist}", BUILDS, SketchPlan,
                    lambda i, p=p, dist=dist: config(**p, dist=dist, seed=i))
    for shape, p in SHAPES["apply"].items():
        plan = SketchPlan(config(**p))
        M = np.random.default_rng(2).standard_normal((p["N"], p["D"]))
        measure(f"apply/{shape}", p["applications"], lambda _: plan.apply(M), warm=True)
    rng = np.random.default_rng(3)
    base, queries = rng.standard_normal((600, 1024)), rng.standard_normal((60, 1024))
    for name, p in SHAPES["similarity"].items():
        c = config(1024, binning="fixed", **p)
        measure(f"similarity/{name}", SIMILARITIES,
                lambda _: similarity_matrix(base, queries, c, name), warm=True)
    for s in vk["s"]:
        for kernel, below in KERNELS.items():
            if not (kernel == "gap" and s == 1.0):
                measure(f"vsrp_kernel/{kernel}_s{s:g}", 1, lambda _: vsrp_cell(s, below),
                        warm=True)
    print(json.dumps(out))


def _unit(cell: str) -> str:
    name = cell.rsplit("/", 1)[1]
    if name.startswith(("peak_", "held_")):
        return "mib"
    return "count" if name.startswith("faults_") else "ms"


def _run(path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    proc = subprocess.run([sys.executable, __file__, "--worker"], env=env, cwd=path,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(runs: list, first: list | None) -> dict:
    """A cell's median and runs; against the first tree's runs ``first``, its resolution."""
    median = statistics.median(runs)
    entry = {"median": round(median, 4), "runs": [round(r, 4) for r in runs]}
    if first is not None:
        q1, _, q3 = statistics.quantiles(first, n=4, method="inclusive")
        base = statistics.median(first)
        wins = sum(a < b for a, b in zip(runs, first))
        losses = sum(a > b for a, b in zip(runs, first))
        entry.update(
            ratio=round(median / base, 4) if base else None,
            wins=wins,
            first_quartiles=[round(q1, 4), round(q3, 4)],
            resolved=max(wins, losses) >= 0.9 * len(runs) and abs(median - base) > q3 - q1,
        )
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=PATH of a checkout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker()
        return
    trees = dict(item.split("=", 1) for item in args.tree) or {"this": ROOT}
    trees = {name: Path(path).resolve() for name, path in trees.items()}
    runs = {name: [] for name in trees}
    for r in range(ROUNDS):
        for name in list(trees) if r % 2 == 0 else list(trees)[::-1]:
            runs[name].append(_run(trees[name]))
        print(f"round {r + 1}/{ROUNDS} done", flush=True)
    first = next(iter(trees))
    cells = {name: {} for name in trees}
    for name, results in runs.items():
        for cell in results[0]:
            against = None if name == first else [r[cell] for r in runs[first]]
            cells[name][cell] = {"unit": _unit(cell),
                                 **_summary([r[cell] for r in results], against)}
    crossover = {
        name: next((s for s in SHAPES["vsrp_kernel"]["s"]
                    if f"vsrp_kernel/gap_s{s:g}" in tree
                    and tree[f"vsrp_kernel/gap_s{s:g}"]["median"]
                    <= tree[f"vsrp_kernel/dense_s{s:g}"]["median"]), None)
        for name, tree in cells.items()
    }
    result = {
        "what": f"median over {ROUNDS} rounds, trees alternating per round, of each round's "
                "value: a timed cell's median over its calls in one worker, a peak or held "
                "size, or a fault count",
        "shapes": SHAPES,
        "trees": list(trees),
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "crossover_s": crossover,
        "cells": cells,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    for cell, entry in cells[first].items():
        line = [f"{name} {cells[name][cell]['median']:.4g}" for name in cells]
        for name in list(cells)[1:]:
            e = cells[name][cell]
            line.append(f"{name}/{first} {e['ratio']} wins {e['wins']}/{ROUNDS}"
                        + (" resolved" if e["resolved"] else ""))
        print(cell, entry["unit"], "  ".join(line))
    print(f"crossover_s {crossover}\nwrote {OUT}")


if __name__ == "__main__":
    main()
