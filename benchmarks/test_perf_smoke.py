"""Perf smoke: wall-clock of the trace engines and the persistent cache.

Times a fixed small sweep (baseline / PB-SW / COBRA on one graph plus
integer sort) three ways — seed-style scalar engine, batched engine, and a
warm persistent cache — plus a raw engine microbench, and records the
numbers in ``benchmarks/history/BENCH_trace_engine.json`` so future PRs
have a perf trajectory to compare against.

The sweep machine disables the prefetcher and uses PLRU at the LLC so the
batched engine engages (the default machine's DRRIP + prefetcher stay on
the scalar path by design — see ``repro.cache.batchsim``).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.cache.batchsim import BatchHierarchy
from repro.cache.fastsim import FastHierarchy
from repro.harness import Runner
from repro.harness.inputs import make_workload
from repro.harness.machine import DEFAULT_MACHINE
from repro.harness.modes import BASELINE, COBRA, PB_SW
from repro.harness.resultcache import ResultCache

BENCH_NAME = "BENCH_trace_engine.json"

SCALE = 14
MODES = (BASELINE, PB_SW, COBRA)

SMOKE_MACHINE = dataclasses.replace(
    DEFAULT_MACHINE,
    hierarchy=dataclasses.replace(
        DEFAULT_MACHINE.hierarchy, prefetch=False, llc_policy="plru"
    ),
)


def _points():
    graph = make_workload("degree-count", "KRON", scale=SCALE)
    sort = make_workload("integer-sort", "U16", scale=SCALE)
    return [(w, mode) for w in (graph, sort) for mode in MODES]


def _time_sweep(runner, points):
    start = time.perf_counter()
    results = [runner.run(w, mode) for w, mode in points]
    return time.perf_counter() - start, results


def _engine_microbench(accesses=200_000):
    """Raw accesses/second of each engine on one random trace."""
    rng = np.random.default_rng(2024)
    lines = rng.integers(0, 60_000, size=accesses).astype(np.int64)
    writes = rng.random(accesses) < 0.4

    fast = FastHierarchy(SMOKE_MACHINE.hierarchy)
    start = time.perf_counter()
    fast_counts = fast.run_trace(lines.tolist(), writes.tolist())
    fast_seconds = time.perf_counter() - start

    batch = BatchHierarchy(SMOKE_MACHINE.hierarchy)
    start = time.perf_counter()
    batch_counts = batch.run_trace(lines, writes)
    batch_seconds = time.perf_counter() - start

    assert batch_counts == fast_counts  # the point of the whole exercise
    return {
        "accesses": accesses,
        "fast_seconds": fast_seconds,
        "batch_seconds": batch_seconds,
        "fast_accesses_per_second": accesses / fast_seconds,
        "batch_accesses_per_second": accesses / batch_seconds,
    }


def test_perf_smoke(tmp_path, bench_history):
    points = _points()

    # 1. Seed path: scalar engine, no persistent cache.
    scalar_seconds, scalar_results = _time_sweep(
        Runner(machine=SMOKE_MACHINE, engine="fast"), points
    )

    # 2. Batched engine, cold — also primes the persistent cache.
    cache_dir = tmp_path / "cache"
    batch_seconds, batch_results = _time_sweep(
        Runner(
            machine=SMOKE_MACHINE,
            engine="auto",
            result_cache=ResultCache(cache_dir),
        ),
        points,
    )
    for scalar, batched in zip(scalar_results, batch_results):
        assert batched == scalar  # engine equivalence, end to end

    # 3. Warm persistent cache: a fresh runner reads everything from disk.
    warm_seconds, warm_results = _time_sweep(
        Runner(
            machine=SMOKE_MACHINE,
            engine="auto",
            result_cache=ResultCache(cache_dir),
        ),
        points,
    )
    for scalar, warm in zip(scalar_results, warm_results):
        assert warm == scalar  # bit-identical counters from disk

    micro = _engine_microbench()
    record = {
        "scale": SCALE,
        "points": [f"{w.cache_key}/{mode}" for w, mode in points],
        "scalar_cold_seconds": scalar_seconds,
        "batch_cold_seconds": batch_seconds,
        "warm_cache_seconds": warm_seconds,
        "batch_speedup": scalar_seconds / batch_seconds,
        "warm_speedup": scalar_seconds / warm_seconds,
        "engine_microbench": micro,
    }
    bench_history(BENCH_NAME, record)
    print(
        f"\nscalar cold {scalar_seconds:.2f}s | "
        f"batch cold {batch_seconds:.2f}s "
        f"({record['batch_speedup']:.2f}x) | "
        f"warm cache {warm_seconds:.3f}s "
        f"({record['warm_speedup']:.1f}x)\n"
        f"engine: {micro['fast_accesses_per_second']:,.0f} -> "
        f"{micro['batch_accesses_per_second']:,.0f} accesses/s"
    )

    # The acceptance bar: batched engine + warm cache >= 3x the seed path.
    assert record["warm_speedup"] >= 3.0
    # And the batched engine alone must never lose to the scalar engine.
    assert batch_seconds < scalar_seconds
