"""One workload in a fresh interpreter; started by run.py, one caller, one operation at a time.

Prints ``READY`` once the first, untimed operation has finished (run.py
times set-up up to that line), then, unless ``--mode setup``, checks that
operation, runs timed operations for ``--seconds`` and prints one JSON line.
``--mode trace`` times untraced operations for half the time, then installs
the tracer and times traced ones, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Minimum timed operations per phase, however long each one takes.
MIN_OPS = 3


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import oporp
    import oporp.cli  # noqa: F401  (the package itself does not import the CLI)

    if Path(oporp.__file__).resolve().parent != src / "oporp":
        raise ImportError(f"oporp imported from {oporp.__file__}, not from {src}")
    return oporp


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, from /proc/stat; (0, 0) where it is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return fields[7], sum(fields)


def timed_ops(workload, seconds: float, tracer=None) -> tuple[list[float], int]:
    """Closed loop: run operations until ``seconds`` of wall time have passed."""
    times: list[float] = []
    failed = 0
    clock = time.perf_counter
    start = clock()
    while len(times) + failed < MIN_OPS or clock() - start < seconds:
        gc.collect()
        if tracer is not None:
            tracer.op = len(times) + failed
        t0 = clock()
        try:
            result = workload.op()
        except Exception:  # a refused operation is counted, not fatal
            failed += 1
            traceback.print_exc()
            continue
        times.append(clock() - t0)
        workload.recheck(result)
    return times, failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    oporp = import_program()
    import numpy as np

    from checks import CheckFailed
    from inputs import FULL, SMOKE
    from workloads import WORKLOAD_CLASSES

    with np.load(os.path.join(args.workdir, "inputs.npz")) as data:
        inputs = {name: data[name] for name in data.files}
    workload = WORKLOAD_CLASSES[args.workload](
        oporp, inputs, SMOKE if args.smoke else FULL, args.workdir
    )
    first = workload.op()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    out: dict = {"attempted": 1, "failed": 0, "correct": True}
    try:
        out["checks"] = workload.check(first)
        # Objects alive after set-up are never garbage; keep the per-operation collection short.
        gc.freeze()
        steal0, total0 = cpu_jiffies()
        if args.mode == "run":
            times, failed = timed_ops(workload, args.seconds)
            out["op_times_s"] = times
        else:
            from tracer import Tracer

            base, untraced_failed = timed_ops(workload, args.seconds / 2)
            out["attempted"] += len(base) + untraced_failed
            out["failed"] += untraced_failed
            tracer = Tracer()
            tracer.install(oporp)
            times, failed = timed_ops(workload, args.seconds / 2, tracer)
            overhead = statistics.median(times) / statistics.median(base) - 1.0
            out["per_layer"] = tracer.per_op(len(times) + failed)
            out["trace_overhead"] = overhead
            if args.trace_out:
                tracer.write(args.trace_out, {
                    "workload": args.workload, "ops": len(times) + failed,
                    "untraced_op_p50_s": statistics.median(base),
                    "traced_op_p50_s": statistics.median(times), "overhead": overhead,
                })
        out["attempted"] += len(times) + failed
        out["failed"] += failed
        steal1, total1 = cpu_jiffies()
        out["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        out["correct"] = False
        out["check_error"] = str(exc)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["threads"] = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
