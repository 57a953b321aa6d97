"""Run a timing worker on one or more source trees, alternating them, and write a JSON file.

The ``bench_*`` scripts that compare checkouts call :func:`main` with their
own worker. ``--tree NAME=PATH`` names a checkout whose ``src/oporp`` is
timed; without the flag this checkout alone is timed. A round runs one
fresh worker interpreter per tree, the trees alternating which goes first
from round to round. The worker prints one JSON object of {cell: value},
in ms unless ``units`` names another unit for the cell; the file holds, per
tree and cell, the median over the rounds and every round's value, plus
the core count and the numpy version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np


def _run(script: Path, path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    proc = subprocess.run([sys.executable, str(script), "--worker"], env=env, cwd=path,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(doc: str, worker: Callable[[], None], out: Path, rounds: int, what: str,
         shapes: dict, units: dict | None = None) -> None:
    """Parse the command line; run ``worker`` (``--worker``) or time every tree into ``out``.

    ``units`` maps a cell to the unit its values are in (default ms), which
    names its ``median_<unit>`` and ``runs_<unit>`` fields.
    """
    units = units or {}
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], help="NAME=PATH of a checkout")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker()
        return
    script = Path(sys.argv[0]).resolve()
    trees = dict(item.split("=", 1) for item in args.tree) or {"this": "."}
    trees = {name: Path(path).resolve() for name, path in trees.items()}
    runs = {name: [] for name in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for name in order:
            runs[name].append(_run(script, trees[name]))
        print(f"round {r + 1}/{rounds} done", flush=True)
    cells = {}
    for name, results in runs.items():
        cells[name] = {}
        for cell in results[0]:
            unit = units.get(cell, "ms")
            cells[name][cell] = {
                f"median_{unit}": round(statistics.median(r[cell] for r in results), 4),
                f"runs_{unit}": [round(r[cell], 4) for r in results],
            }
    result = {
        "what": what,
        "shapes": shapes,
        "trees": list(trees),
        "cores": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cells": cells,
    }
    out.write_text(json.dumps(result, indent=2) + "\n")
    for cell in next(iter(cells.values())):
        unit = units.get(cell, "ms")
        print(cell, "  ".join(f"{name} {cells[name][cell][f'median_{unit}']:.3f} {unit}"
                              for name in cells))
    print(f"wrote {out}")
