"""Time the random draws of a bench sweep operation on one or more trees and write BENCH_draws.json.

Run from the root of a checkout:

    python3 scripts/bench_draws.py --tree parent=/path/to/other/checkout --tree change=.

Each ``--tree NAME=PATH`` names a checkout whose ``src/oporp`` is timed;
without the flag the script times this checkout alone. ``tree_timing.py``
runs one fresh worker interpreter per tree and round, the trees alternating
which goes first from round to round. A worker times each cell REPS times,
each on a new generator from the tree's ``projection.generator``, and
reports the median. The file holds, per tree and cell, the median over
ROUNDS rounds and every round's value, plus the core count and the numpy
version.

The cells are the draws of the bench ``sweep`` operation (D = 1024, 2000
trials, k = 64 bins, VSRP k = 16 samples at s = 3):

- raw_words_2mb: 2**18 full-range uint64 draws, the generator's own speed
- rademacher: ``draw_multipliers`` of a (2000, 1024) Rademacher block
- variable_bins: the (2000, 1024) int32 bin indices in [0, 64) that
  ``_oporp_draws`` draws for variable binning
- permutation_rows: ``_permutation_rows`` of 2000 rows of range(1024)
- sparse_signs: ``_sparse_signs`` of one dense VSRP chunk, (3904, 1024)
  at s = 3 (244 trials of 16 samples)

It takes about a minute for two trees and is not part of the test suite.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np
import tree_timing

TRIALS, D, K, VSRP_SAMPLES, VSRP_S = 2000, 1024, 64, 3904, 3.0
REPS, ROUNDS = 15, 10
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_draws.json"


def _worker() -> None:
    """Print {cell: median ms} for the oporp on sys.path."""
    from oporp.projection import (
        _permutation_rows,
        _sparse_signs,
        draw_multipliers,
        generator,
        rademacher,
    )

    cells = {
        "raw_words_2mb": lambda rng: rng.integers(0, 1 << 64, size=1 << 18, dtype=np.uint64),
        "rademacher": lambda rng: draw_multipliers(rng, (TRIALS, D), rademacher()),
        "variable_bins": lambda rng: rng.integers(0, K, size=(TRIALS, D), dtype=np.int32),
        "permutation_rows": lambda rng: _permutation_rows(rng, TRIALS, D),
        "sparse_signs": lambda rng: _sparse_signs(rng, (VSRP_SAMPLES, D), VSRP_S),
    }
    out = {}
    for name, draw in cells.items():
        times = []
        for seed in range(REPS):
            rng = generator(seed)
            start = time.perf_counter()
            draw(rng)
            times.append((time.perf_counter() - start) * 1e3)
        out[name] = statistics.median(times)
    print(json.dumps(out))


if __name__ == "__main__":
    tree_timing.main(
        __doc__, _worker, OUT, ROUNDS,
        what=f"draw time: median over {ROUNDS} rounds of each round's median of {REPS} "
             "draws on fresh generators; trees alternate per round",
        shapes={"trials": TRIALS, "D": D, "k": K, "vsrp_samples": VSRP_SAMPLES,
                "vsrp_s": VSRP_S, "raw_words": 1 << 18},
    )
