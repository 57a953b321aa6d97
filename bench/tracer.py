"""Spans around every call into the program's modules, taken from outside.

``Tracer.install`` wraps each public function of each ``oporp`` module and
rebinds the wrapper under every name that refers to the function in every
``oporp`` module, since the modules call each other through imported names.
A span is (name, op, start, end, parent): ``op`` is the benchmark operation
it belongs to and ``parent`` the index of the enclosing span, or -1. Spans
stay in memory until ``write``. A span costs about 1.4 µs (README).
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("projection", "sketch", "estimate", "variance", "experiment", "privacy", "cli")

# Byte counters: wrapped function -> (counter, whether the size is read after the call).
BYTE_COUNTERS = {
    "sketch.save_sketch": ("sketch.bytes_written", True),
    "sketch.save_sign_sketch": ("sketch.bytes_written", True),
    "sketch.load_sketch": ("sketch.bytes_read", False),
    "sketch.load_sign_sketch": ("sketch.bytes_read", False),
    "cli.load_matrix": ("cli.load_matrix.bytes", False),
}

# Per-layer metric -> span name whose calls it counts.
CALL_METRICS = {
    "projection.derive_seed.calls": "projection.derive_seed",
    "projection.generator.calls": "projection.generator",
    "projection.permutation.calls": "projection.generate_permutation",
    "projection.multipliers.calls": "projection.generate_projection_vector",
    "sketch.oporp_sketch.calls": "sketch.oporp_sketch",
    "sketch.vsrp_sketch.calls": "sketch.vsrp_sketch",
    "estimate.likelihood_root.calls": "estimate.likelihood_root",
    "experiment.similarity_matrix.calls": "experiment.similarity_matrix",
    "privacy.solve_gaussian_sigma.calls": "privacy.solve_gaussian_sigma",
    "cli.run.calls": "cli.run",
}
# Per-layer metric -> module whose spans it counts, all functions together.
MODULE_CALL_METRICS = {"estimate.calls": "estimate", "variance.calls": "variance"}
BYTE_METRICS = ("sketch.bytes_written", "sketch.bytes_read", "cli.load_matrix.bytes")


def per_layer_units() -> dict[str, str]:
    units = {name: "count" for name in [*CALL_METRICS, *MODULE_CALL_METRICS]}
    units.update({name: "B" for name in BYTE_METRICS})
    units.update({f"{mod}.self_ms": "ms" for mod in MODULES})
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = BYTE_COUNTERS.get(label)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if counter is not None and not counter[1]:
                self.counters[counter[0]] += os.path.getsize(args[0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, self.op, start, end, parent)
                if counter is not None and counter[1]:
                    self.counters[counter[0]] += os.path.getsize(args[0])

        return traced

    def install(self, package) -> None:
        modules = [package] + [getattr(package, name) for name in MODULES]
        wrappers = {}
        for name in MODULES:
            module = getattr(package, name)
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{name}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric, averaged over the n_ops traced operations."""
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for label, _, start, end, parent in self.spans:
            calls[label] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for (label, _, start, end, _), inner in zip(self.spans, child):
            self_s[label.split(".", 1)[0]] += end - start - inner
        out = {metric: calls[span] / n_ops for metric, span in CALL_METRICS.items()}
        for metric, module in MODULE_CALL_METRICS.items():
            out[metric] = sum(n for label, n in calls.items() if label.startswith(module + ".")) / n_ops
        for metric in BYTE_METRICS:
            out[metric] = self.counters[metric] / n_ops
        for module in MODULES:
            out[f"{module}.self_ms"] = 1e3 * self_s[module] / n_ops
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write every span, names as indices into ``names``, times in µs from the first span."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[index[label], op, round((start - t0) * 1e6, 3), round((end - t0) * 1e6, 3), parent]
                for label, op, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({**meta, "names": names,
                       "span_fields": ["name", "op", "start_us", "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
