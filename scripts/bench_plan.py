"""Time SketchPlan construction on one or more source trees and write BENCH_plan.json.

Run from the root of a checkout:

    python3 scripts/bench_plan.py --tree parent=/path/to/other/checkout --tree change=.

Each ``--tree NAME=PATH`` names a checkout whose ``src/oporp`` is timed;
without the flag the script times this checkout alone. A round runs one
fresh worker interpreter per tree, the trees alternating which goes first
from round to round. A worker builds ``SketchPlan(config)`` BUILDS times
per cell, each under a new seed, and reports the median build time of each
cell. The file holds, per tree and cell, the median over ROUNDS rounds and
every round's value, plus the core count and the numpy version.

The cells are three shapes times three multiplier distributions (Rademacher,
sparse(3), sparse(10)):

- criterion_06: D = 64, k = 1, m = 16, variable bins (acceptance criterion 06)
- retrieval: D = 1024, k = 64, m = 8, fixed bins (the bench retrieval config)
- cli_pairs: D = 16384, k = 1024, m = 1, fixed bins (the bench CLI config)

Only the public ``SketchPlan``, ``SketchConfig``, ``Binning`` and
distribution constructors are used, so any version of the package can be
timed. It takes about 15 seconds for two trees and is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SHAPES = {
    "criterion_06": (64, 1, 16, "variable"),
    "retrieval": (1024, 64, 8, "fixed"),
    "cli_pairs": (16384, 1024, 1, "fixed"),
}
DISTS = ("rademacher", "sparse3", "sparse10")
BUILDS, ROUNDS = 41, 10
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_plan.json"


def _worker() -> None:
    """Print {cell: median build ms} for the oporp on sys.path."""
    from oporp import Binning, SketchConfig, SketchPlan, rademacher, sparse

    dists = {"rademacher": rademacher(), "sparse3": sparse(3.0), "sparse10": sparse(10.0)}
    out = {}
    for shape, (D, k, m, binning) in SHAPES.items():
        for name in DISTS:
            times = []
            for seed in range(BUILDS):
                config = SketchConfig(dim=D, k=k, binning=Binning(binning), dist=dists[name],
                                      m=m, seed=seed)
                start = time.perf_counter()
                SketchPlan(config)
                times.append((time.perf_counter() - start) * 1e3)
            out[f"{shape}/{name}"] = statistics.median(times)
    print(json.dumps(out))


def _run(path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    proc = subprocess.run([sys.executable, __file__, "--worker"], env=env, cwd=path,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=PATH of a checkout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker()
        return
    trees = dict(item.split("=", 1) for item in args.tree) or {"this": "."}
    trees = {name: Path(path).resolve() for name, path in trees.items()}
    runs = {name: [] for name in trees}
    for r in range(ROUNDS):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(_run(trees[name]))
        print(f"round {r + 1}/{ROUNDS} done", flush=True)
    cells = {}
    for name, rounds in runs.items():
        cells[name] = {
            cell: {"median_ms": round(statistics.median(r[cell] for r in rounds), 4),
                   "runs_ms": [round(r[cell], 4) for r in rounds]}
            for cell in rounds[0]
        }
    result = {
        "what": f"SketchPlan(config) build time: median over {ROUNDS} rounds of each round's "
                f"median of {BUILDS} builds under fresh seeds; trees alternate per round",
        "shapes": {name: dict(zip(("D", "k", "m", "binning"), shape))
                   for name, shape in SHAPES.items()},
        "trees": list(trees),
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cells": cells,
    }
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    for cell in next(iter(cells.values())):
        print(cell, "  ".join(f"{name} {cells[name][cell]['median_ms']:.3f} ms" for name in cells))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
