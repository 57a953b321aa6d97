"""Time SketchPlan construction and application and similarity matrices on source trees; write BENCH_plan.json.

Run from the root of a checkout:

    python3 scripts/bench_plan.py --tree parent=/path/to/other/checkout --tree change=.

Each ``--tree NAME=PATH`` names a checkout whose ``src/oporp`` is timed;
without the flag the script times this checkout alone. ``tree_timing.py``
runs one fresh worker interpreter per tree and round, the trees alternating
which goes first from round to round. A worker builds
``SketchPlan(config)`` BUILDS times per build cell, each under a new seed,
and applies one plan APPLIES times per apply cell, and reports the median
time of each cell. The file holds, per tree and cell, the median over
ROUNDS rounds and every round's value, plus the core count and the numpy
version.

The build cells are three shapes times three multiplier distributions
(Rademacher, sparse(3), sparse(10)):

- criterion_06: D = 64, k = 1, m = 16, variable bins (acceptance criterion 06)
- retrieval: D = 1024, k = 64, m = 8, fixed bins (the bench retrieval config)
- cli_pairs: D = 16384, k = 1024, m = 1, fixed bins (the bench CLI config)

The apply cells time ``plan.apply(M)`` of a Rademacher plan on N standard
normal rows, each cell its own number of times:

- apply/retrieval_fixed, apply/retrieval_variable: N = 660 (the bench's
  600 base and 60 query rows), D = 1024, k = 64, m = 8, either binning
- apply/cli_pairs: N = 1, D = 16384, k = 1024, m = 1, fixed bins
- apply/criterion_06: N = 1, D = 64, k = 1, m = 16, variable bins
- apply/long_bins_k16, apply/k1, apply/k1_m16: N = 1 with fixed bins of
  4096 entries (D = 65536, k = 16, m = 1), 4096 (D = 4096, k = 1, m = 1)
  and 65536 (D = 65536, k = 1, m = 16), where the order of the bin sum
  shows; fewer applications, as one took up to 0.2 s under format 3

The similarity cells time ``similarity_matrix(base, queries, config,
name)`` at the bench retrieval shape (600 base and 60 query rows of
standard normals, D = 1024), sketching included, SIMILARITIES times each:

- similarity/exact: the true cosines
- similarity/cosine: k = 64, m = 8, fixed bins, Rademacher multipliers
- similarity/vsrp_cosine: 64 samples of sparse(3) rows

Only the public ``SketchPlan``, ``SketchConfig``, ``Binning``,
``similarity_matrix`` and distribution constructors are used, so any
version of the package can be timed. It takes about a minute for two
trees and is not part of the test suite.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import tree_timing

SHAPES = {
    "criterion_06": (64, 1, 16, "variable"),
    "retrieval": (1024, 64, 8, "fixed"),
    "cli_pairs": (16384, 1024, 1, "fixed"),
}
DISTS = ("rademacher", "sparse3", "sparse10")
# Apply cells: (N, D, k, m, binning, applications).
APPLY_SHAPES = {
    "retrieval_fixed": (660, 1024, 64, 8, "fixed", 41),
    "retrieval_variable": (660, 1024, 64, 8, "variable", 41),
    "cli_pairs": (1, 16384, 1024, 1, "fixed", 1001),
    "criterion_06": (1, 64, 1, 16, "variable", 1001),
    "long_bins_k16": (1, 65536, 16, 1, "fixed", 201),
    "k1": (1, 4096, 1, 1, "fixed", 201),
    "k1_m16": (1, 65536, 1, 16, "fixed", 11),
}
# Similarity cells: (k, m, distribution) of the config each scores under.
SIMILARITY = {
    "exact": (64, 8, "rademacher"),
    "cosine": (64, 8, "rademacher"),
    "vsrp_cosine": (64, 1, "sparse3"),
}
BUILDS, ROUNDS, SIMILARITIES = 41, 10, 41
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_plan.json"


def _worker() -> None:
    """Print {cell: median build or apply ms} for the oporp on sys.path."""
    import numpy as np

    from oporp import Binning, SketchConfig, SketchPlan, rademacher, similarity_matrix, sparse

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
    for shape, (N, D, k, m, binning, applies) in APPLY_SHAPES.items():
        plan = SketchPlan(SketchConfig(dim=D, k=k, binning=Binning(binning), dist=rademacher(),
                                       m=m, seed=1))
        M = np.random.default_rng(2).standard_normal((N, D))
        plan.apply(M)
        times = []
        for _ in range(applies):
            start = time.perf_counter()
            plan.apply(M)
            times.append((time.perf_counter() - start) * 1e3)
        out[f"apply/{shape}"] = statistics.median(times)
    rng = np.random.default_rng(3)
    base, queries = rng.standard_normal((600, 1024)), rng.standard_normal((60, 1024))
    for name, (k, m, dist) in SIMILARITY.items():
        config = SketchConfig(dim=1024, k=k, binning=Binning.FIXED, dist=dists[dist], m=m, seed=1)
        similarity_matrix(base, queries, config, name)
        times = []
        for _ in range(SIMILARITIES):
            start = time.perf_counter()
            similarity_matrix(base, queries, config, name)
            times.append((time.perf_counter() - start) * 1e3)
        out[f"similarity/{name}"] = statistics.median(times)
    print(json.dumps(out))


if __name__ == "__main__":
    tree_timing.main(
        __doc__, _worker, OUT, ROUNDS,
        what=f"SketchPlan(config) build time: median over {ROUNDS} rounds of each round's "
             f"median of {BUILDS} builds under fresh seeds; plan.apply(M) time: the same "
             "over the cell's applications of one Rademacher plan; similarity_matrix time: "
             f"the same over {SIMILARITIES} calls; trees alternate per round",
        shapes={**{name: dict(zip(("D", "k", "m", "binning"), shape))
                   for name, shape in SHAPES.items()},
                **{f"apply/{name}": dict(zip(("N", "D", "k", "m", "binning", "applications"),
                                              shape))
                   for name, shape in APPLY_SHAPES.items()},
                **{f"similarity/{name}": {"base": 600, "queries": 60, "D": 1024, "k": k, "m": m,
                                          "dist": dist, "calls": SIMILARITIES}
                   for name, (k, m, dist) in SIMILARITY.items()}},
    )
