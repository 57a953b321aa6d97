"""The two-lane split of the sparse sampler and the dense sweep kernel.

``projection._two_lanes`` runs a pure numpy pass over the calling thread
and a lane thread started for that call. Only the caller touches the
generator, so every draw, sweep row and stream position must match a
one-lane run bit for bit. The lane count is set through
``projection._cpus`` and the lane thread started through
``projection._start_lane``, so these tests run every path on any host.
"""

import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from oporp import projection
from oporp.cli import run, save_matrix
from oporp.experiment import (
    _dense_sums,
    generate_pair_with_cosine,
    mse_sweep,
    retrieval_eval,
    similarity_matrix,
)
from oporp.projection import _sparse_signs, _two_lanes, generator, rademacher, sparse
from oporp.sketch import Binning, SketchConfig

S_VALUES = [1.0, 1.5, 3.0, 7.9]


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(projection, "_cpus", lambda: cpus)


def count_lane_starts(monkeypatch):
    """A list that gets one entry per lane thread a call starts."""
    starts, start = [], projection._start_lane
    monkeypatch.setattr(projection, "_start_lane", lambda run: starts.append(1) or start(run))
    return starts


class LaneOneFirst:
    """A stand-in lane thread that runs lane 1 to its end as it starts: it takes every step."""

    def __init__(self, run):
        run()

    def join(self):
        pass


SCHEDULES = {
    "one lane": lambda mp: set_cpus(mp, 1),
    "two lanes": lambda mp: set_cpus(mp, 2),
    "lane 1 first": lambda mp: (set_cpus(mp, 2),
                                mp.setattr(projection, "_start_lane", LaneOneFirst)),
}


def under_each_schedule(monkeypatch, run):
    """run() under each schedule; the two-lane ones must start a lane thread."""
    out = {}
    for name, schedule in SCHEDULES.items():
        with monkeypatch.context() as mp:
            schedule(mp)
            starts = count_lane_starts(mp)
            out[name] = run()
            assert bool(starts) == (name != "one lane"), name
    return out


@pytest.mark.parametrize("s", S_VALUES)
def test_sparse_signs_in_two_lanes_match_one_lane(monkeypatch, s):
    # 2, 3 and 5 sign blocks, some ending in a partial block; the caller
    # settles the ties in position order after both lanes ran
    block = projection._SIGN_BLOCK
    shapes = [block + 17, (2, block), 2 * block + 17, (5, block - 3)]

    def draw_all():
        out = []
        for seed, shape in enumerate(shapes):
            rng = generator(seed)
            out.append((_sparse_signs(rng, shape, s), rng.random()))
        return out

    runs = under_each_schedule(monkeypatch, draw_all)
    for got in runs.values():
        for (a, x), (b, y) in zip(runs["one lane"], got):
            assert a.dtype == b.dtype == np.int8
            assert np.array_equal(a, b)
            assert x == y
    # one block runs one lane
    set_cpus(monkeypatch, 2)
    starts = count_lane_starts(monkeypatch)
    _sparse_signs(generator(0), block, s)
    assert not starts


@pytest.mark.parametrize("s", S_VALUES)
def test_dense_kernel_and_sweep_rows_in_two_lanes_match_one_lane(monkeypatch, s):
    u, v = generate_pair_with_cosine(1024, 0.5, 0.01, seed=3)

    def run():
        rng = generator(11)
        # 61 blocks of 64 samples, 16 sign blocks: the bench sweep's chunk;
        # then 80 samples, a block and a part
        kernels = [_dense_sums(u, v, _sparse_signs(rng, (16 * c, 1024), s), 16, math.sqrt(s))
                   for c in (244, 5)]
        rows = mse_sweep(u, v, [16], s, "fixed", ["vsrp_inner", "vsrp_cosine"], 500, 1)
        # a k = 1 averaging cell reduces its multiplier rows with the same kernel
        rows += mse_sweep(u, v, [1], s, "variable", ["inner", "distance"], 500, 1)
        return kernels, rng.random(), repr(rows)

    runs = under_each_schedule(monkeypatch, run)
    want_kernels, want_next, want_rows = runs["one lane"]
    for kernels, after, rows in runs.values():
        for (X1, Y1), (X2, Y2) in zip(want_kernels, kernels):
            assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)
        assert after == want_next
        assert rows == want_rows


def test_two_lanes_take_whole_steps_and_raise_either_lanes_error(monkeypatch):
    set_cpus(monkeypatch, 2)
    seen = []

    def record(lane, lo, hi):
        seen.append((lo, hi))

    _two_lanes(record, 10, 3)
    assert sorted(seen) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    # lane 1's error comes back from the caller; lane 0 holds its first step
    # until lane 1 has one
    started = threading.Event()

    def fail_in_lane_1(lane, lo, hi):
        if lane == 1:
            started.set()
            raise ZeroDivisionError("lane 1")
        assert started.wait(10.0)

    with pytest.raises(ZeroDivisionError, match="lane 1"):
        _two_lanes(fail_in_lane_1, 10, 3)

    # the caller's error comes back only after the worker's lane has ended
    ended = threading.Event()

    def fail_in_lane_0(lane, lo, hi):
        if lane == 0:
            raise KeyError(lo)
        time.sleep(0.05)
        ended.set()

    with pytest.raises(KeyError):
        _two_lanes(fail_in_lane_0, 10, 3)
    assert ended.is_set()  # lane 0 stopped at its first step; lane 1 took the rest

    # the next call runs both lanes again; one step or one CPU runs one lane
    lanes = set()

    def both(lane, lo, hi):
        lanes.add(lane)
        time.sleep(0.01)

    for _ in range(100):
        _two_lanes(both, 40, 1)
        if lanes == {0, 1}:
            break
    assert lanes == {0, 1}
    for n, step, cpus in ((3, 3, 2), (10, 3, 1)):
        set_cpus(monkeypatch, cpus)
        seen.clear()
        _two_lanes(lambda *a: seen.append(a), n, step)
        assert seen == [(0, 0, n)]


def test_a_call_inside_a_lane_runs_two_lanes_and_matches_one_lane(monkeypatch):
    # each lane's call starts a lane thread of its own, so none waits on another
    u, v = generate_pair_with_cosine(1024, 0.5, 0.01, seed=3)
    rows = _sparse_signs(generator(2), (300, 1024), 3.0)  # 5 blocks of 64 rows
    set_cpus(monkeypatch, 1)
    want = _dense_sums(u, v, rows, 1)
    set_cpus(monkeypatch, 2)
    starts = count_lane_starts(monkeypatch)
    got, barrier = {}, threading.Barrier(2, timeout=10.0)

    def nested(lane, lo, hi):
        barrier.wait()  # each lane holds its step until the other has one
        got[lane] = _dense_sums(u, v, rows, 1)

    _two_lanes(nested, 2, 1)
    assert len(starts) == 3 and sorted(got) == [0, 1]
    for X, Y in got.values():
        assert np.array_equal(X, want[0]) and np.array_equal(Y, want[1])


def test_a_two_lane_call_leaves_no_thread_running(monkeypatch):
    # lane 1 is joined before the call returns or raises, whichever lane raised
    set_cpus(monkeypatch, 2)
    before = threading.active_count()

    def fail_in(which):
        # each lane holds its first step until the other has one, so both run
        met, barrier = set(), threading.Barrier(2, timeout=10.0)

        def fn(lane, lo, hi):
            if lane not in met:
                met.add(lane)
                barrier.wait()
            if lane == which:
                raise ValueError(lane)
        return fn

    for which in (None, 0, 1):
        for _ in range(20):
            try:
                _two_lanes(fail_in(which), 10, 1)
            except ValueError as exc:
                assert exc.args == (which,)
            else:
                assert which is None
            assert threading.active_count() == before


def test_concurrent_callers_match_one_lane(monkeypatch):
    # more callers than cores, switching often: every draw still matches one lane
    n = 3 * projection._SIGN_BLOCK + 5
    set_cpus(monkeypatch, 1)
    want = [_sparse_signs(generator(i), n, 3.0) for i in range(6)]
    set_cpus(monkeypatch, 2)
    got = [None] * len(want)

    def work(i):
        got[i] = _sparse_signs(generator(i), n, 3.0)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(want))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_sweeps_in_two_lanes(monkeypatch):
    # the parent's lane threads ended with their calls; the child starts its own
    set_cpus(monkeypatch, 2)
    u, v = generate_pair_with_cosine(256, 0.5, 0.05, seed=1)
    args = (u, v, [8], 3.0, "fixed", ["vsrp_inner"], 400, 2)
    starts = count_lane_starts(monkeypatch)
    want = mse_sweep(*args)
    assert starts
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if mse_sweep(*args) == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's sweep hung")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_retrieval_similarity_and_the_cli_sketch_start_no_thread(monkeypatch, tmp_path):
    # the bench retrieval and cli_pairs shapes: no lane runs on their paths
    set_cpus(monkeypatch, 2)
    starts = count_lane_starts(monkeypatch)
    rng = np.random.default_rng(4)
    base, queries = rng.standard_normal((600, 1024)), rng.standard_normal((60, 1024))
    oporp = SketchConfig(dim=1024, k=64, binning=Binning.FIXED, dist=rademacher(), m=8, seed=1)
    vsrp = SketchConfig(dim=1024, k=64, binning=Binning.FIXED, dist=sparse(3.0), m=1, seed=1)
    path = str(tmp_path / "m.bin")
    save_matrix(path, rng.standard_normal((2, 16384)))
    before = threading.active_count()
    retrieval_eval(base, queries, oporp, "cosine", 10)
    retrieval_eval(base, queries, vsrp, "vsrp_cosine", 10)
    similarity_matrix(base, queries, vsrp, "vsrp_inner")
    assert run(["sketch", "--input", path, "--k", "1024", "--seed", "1",
                "--out", str(tmp_path / "x.sk")]) == 0
    assert threading.active_count() == before
    assert not starts
