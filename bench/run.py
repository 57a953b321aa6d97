"""End-to-end benchmark of oporp: one command, one workload per run.

    python3 bench/run.py --workload retrieval --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from a checkout root that holds ``src/oporp``. The inputs come from
``--seed`` and are written under ``.bench_out/``; each workload runs in fresh
worker interpreters (bench/worker.py). With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. ``--smoke`` runs every
workload at small shapes, with its checks and a traced pass, in seconds.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import FULL, SMOKE, WORKLOADS, make_inputs, write_matrix
from tracer import per_layer_units

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# Fresh interpreters timed for setup_s: this many set-up-only runs, plus the measured one.
SETUP_ONLY_RUNS = 2
# ops_per_s is the median throughput of this many consecutive batches of timed operations.
THROUGHPUT_BATCHES = 5
# Every worker is killed if the whole run would otherwise pass this many seconds.
RUN_DEADLINE_S = 170.0
STARTED = time.perf_counter()


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, workdir: Path, mode: str, seconds: float, smoke: bool,
               trace_out: Path | None = None) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to READY, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--workdir", str(workdir), "--mode", mode, "--seconds", repr(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    deadline = STARTED + RUN_DEADLINE_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - t0))[0]:
            raise WorkerError(f"{workload} worker ({mode}) passed the run deadline in set-up")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY":
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode} before its first operation")
    if mode == "setup":
        if proc.returncode != 0:
            raise WorkerError(f"{workload} set-up worker exited {proc.returncode}")
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerError(f"{workload} worker ({mode}) exited {proc.returncode} without a result")
    return setup_s, json.loads(lines[-1])


def batch_throughput(times: list[float]) -> float:
    """Median over consecutive batches of (operations / their summed wall time).

    A burst of CPU steal or contention on the host slows the batches it falls
    in; the median keeps it out, while an operation that is slow every time
    slows every batch and shows.
    """
    batches = np.array_split(np.asarray(times), min(THROUGHPUT_BATCHES, len(times)))
    return statistics.median(len(b) / b.sum() for b in batches)


def prepare(workload: str, seed: int, smoke: bool) -> Path:
    """Write the workload's seeded inputs into a fresh directory under .bench_out/."""
    workdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = make_inputs(workload, seed, SMOKE if smoke else FULL)
    np.savez(workdir / "inputs.npz", **inputs)
    if "matrix" in inputs:
        write_matrix(str(workdir / "matrix.opmx"), inputs["matrix"])
    return workdir


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workdir = prepare(workload, seed, smoke)
    try:
        if trace:
            trace_out = OUT / f"trace-{workload}.json"
            _, res = run_worker(workload, workdir, "trace", seconds, smoke, trace_out)
            units = per_layer_units()
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in res.get("per_layer", {}).items()}
            print(f"trace: {res.get('trace_overhead', float('nan')):+.2%} op time with tracing, "
                  f"spans in {trace_out.relative_to(ROOT)}", file=sys.stderr)
        else:
            setups = [run_worker(workload, workdir, "setup", seconds, smoke)[0]
                      for _ in range(0 if smoke else SETUP_ONLY_RUNS)]
            setup_s, res = run_worker(workload, workdir, "run", seconds, smoke)
            setups.append(setup_s)
            times = res.get("op_times_s", [])
            metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
            if times:
                metrics["op_p50_ms"] = {"value": 1e3 * statistics.median(times), "unit": "ms"}
                metrics["ops_per_s"] = {"value": batch_throughput(times), "unit": "1/s"}
            metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
            if len(times) >= 2:
                print(f"{workload}: {len(times)} timed operations, p90 "
                      f"{1e3 * statistics.quantiles(times, n=10)[-1]:.2f} ms (not gated)", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in res.get("checks", {}).items():
        print(f"check {workload}: {key} = {value:.4f}", file=sys.stderr)
    print(f"{workload}: {res.get('threads')} threads in the worker, "
          f"{res.get('steal_share', float('nan')):.1%} of CPU time stolen by the host while timed", file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = measure(workload, seed=1, seconds=0.0, trace=trace, smoke=True)
            good = result["correct"] and result["failed"] == 0
            ok &= good
            print(f"smoke {workload} trace={int(trace)}: {'ok' if good else 'FAILED'} {json.dumps(result)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="small shapes, every workload, checks only")
    args = parser.parse_args()
    if not (ROOT / "src" / "oporp" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'oporp'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
