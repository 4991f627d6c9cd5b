"""Perf benchmark: vectorized phase pipeline vs the scalar reference path.

Two measurements, recorded in ``benchmarks/history/BENCH_phase_pipeline.json``:

1. **Branch-predictor kernel** — mispredictions of a 1M-outcome stream
   through GShare and Bimodal, scalar loop vs ``simulate_array``. The
   vectorized kernel must be >= 5x faster (CI enforces a 3x floor so a
   noisy shared runner doesn't flake the gate).
2. **End-to-end phase pipeline** — a fig10-sized point (the figure's four
   modes on one graph) through the full modern pipeline (batched engine +
   vector predictor + chunked traces) vs the reference configuration
   (scalar engine + scalar predictor + full trace materialization). The
   modern pipeline must be >= 2x faster while producing bit-identical
   counters.

Memory is profiled in a separate untimed pass: ``tracemalloc`` adds heavy
per-allocation overhead that would skew the numpy-dense modern path, so
the timed runs never execute under tracing. The probe replays one
baseline-mode point with full trace materialization and one with the
default chunking — everything else held equal — and records the peak
traced bytes, which shows chunked trace assembly holding O(chunk) rather
than O(trace).
"""

from __future__ import annotations

import dataclasses
import resource
import time
import tracemalloc

import numpy as np

from repro.cpu.branch import (
    BRANCH_SAMPLE,
    BimodalPredictor,
    GSharePredictor,
    simulate_sites,
)
from repro.harness import Runner
from repro.harness import runner as runner_module
from repro.harness.machine import DEFAULT_MACHINE
from repro.harness.modes import BASELINE, COBRA, PB_SW, PB_SW_IDEAL
from repro.harness.runner import DEFAULT_TRACE_CHUNK
from repro.workloads.registry import resolve

BENCH_NAME = "BENCH_phase_pipeline.json"

OUTCOMES = 1_000_000
SCALE = 16
MODES = (BASELINE, PB_SW, PB_SW_IDEAL, COBRA)  # the fig10 mode set

# The batched engine needs a batchable hierarchy (no prefetch, PLRU LLC);
# the same machine runs both pipelines so only the pipeline differs.
PIPELINE_MACHINE = dataclasses.replace(
    DEFAULT_MACHINE,
    hierarchy=dataclasses.replace(
        DEFAULT_MACHINE.hierarchy, prefetch=False, llc_policy="plru"
    ),
)

# Reference = the pre-vectorization pipeline; modern = everything this
# repo now turns on by default.
REF_CONFIG = dict(scalar_branch=True, kwargs=dict(engine="fast", trace_chunk=0))
NEW_CONFIG = dict(scalar_branch=False, kwargs=dict(engine="auto"))


def _scalar_simulate_sites(sites, predictor=None, max_simulated=BRANCH_SAMPLE):
    """``simulate_sites`` through the scalar ``predictor.simulate`` loop."""
    predictor = predictor or GSharePredictor()
    total = 0.0
    for site in sites:
        if len(site.outcomes) == 0:
            continue
        sample = site.outcomes[:max_simulated]
        rate = predictor.simulate(site.pc, sample.tolist()) / len(sample)
        total += rate * site.count
    return total


def _use_scalar_branch(monkeypatch, scalar):
    """Route the runner's branch simulation through the scalar oracle
    (``scalar=True``) or the shipped ``simulate_sites``."""
    monkeypatch.setattr(
        runner_module,
        "simulate_sites",
        _scalar_simulate_sites if scalar else simulate_sites,
    )


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _predictor_bench(make_predictor, outcomes):
    scalar_pred = make_predictor()
    outcome_list = outcomes.tolist()
    scalar_seconds, scalar_count = _best_of(
        3, lambda: scalar_pred.simulate(0x400, outcome_list)
    )
    vector_pred = make_predictor()
    vector_seconds, vector_count = _best_of(
        3, lambda: vector_pred.simulate_array(0x400, outcomes)
    )
    assert vector_count == scalar_count  # bit-identical, not just close
    return {
        "outcomes": len(outcomes),
        "scalar_seconds": scalar_seconds,
        "vector_seconds": vector_seconds,
        "speedup": scalar_seconds / vector_seconds,
        "mispredicts": int(scalar_count),
    }


def _run_pipeline(workload, monkeypatch, config):
    """Time one fig10-sized point; returns (seconds, results)."""
    _use_scalar_branch(monkeypatch, config["scalar_branch"])
    runner = Runner(machine=PIPELINE_MACHINE, **config["kwargs"])
    start = time.perf_counter()
    results = [runner.run(workload, mode, use_cache=False) for mode in MODES]
    return time.perf_counter() - start, results


def _timed_pipelines(workload, monkeypatch, repeats=2):
    """Interleaved best-of-N timing of both pipelines.

    Alternating ref/new runs keeps host noise (frequency scaling, noisy
    neighbours) from landing entirely on one side of the ratio.
    """
    ref_seconds = new_seconds = float("inf")
    ref_results = new_results = None
    for _ in range(repeats):
        seconds, ref_results = _run_pipeline(workload, monkeypatch, REF_CONFIG)
        ref_seconds = min(ref_seconds, seconds)
        seconds, new_results = _run_pipeline(workload, monkeypatch, NEW_CONFIG)
        new_seconds = min(new_seconds, seconds)
    return ref_seconds, ref_results, new_seconds, new_results


def _memory_probe(workload, monkeypatch, trace_chunk):
    """Peak traced bytes of one untimed baseline-mode point.

    Both probes run the scalar predictor on the fast engine so the only
    difference is trace assembly: ``trace_chunk=0`` replays the whole
    merged trace as one chunk, the default streams O(chunk) slices.
    """
    _use_scalar_branch(monkeypatch, True)
    runner = Runner(
        machine=PIPELINE_MACHINE, engine="fast", trace_chunk=trace_chunk
    )
    tracemalloc.start()
    runner.run(workload, BASELINE, use_cache=False)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_perf_phase_pipeline(monkeypatch, bench_history):
    rng = np.random.default_rng(2026)
    outcomes = rng.random(OUTCOMES) < 0.37

    gshare = _predictor_bench(GSharePredictor, outcomes)
    bimodal = _predictor_bench(BimodalPredictor, outcomes)

    workload = resolve("degree-count", "KRON", scale=SCALE)
    # Warm the workload/graph generation cache so neither pipeline pays it.
    Runner(machine=PIPELINE_MACHINE).run(workload, BASELINE, use_cache=False)

    ref_seconds, ref_results, new_seconds, new_results = _timed_pipelines(
        workload, monkeypatch
    )

    for reference, modern in zip(ref_results, new_results):
        assert modern == reference  # bit-identical end to end

    materialized_peak = _memory_probe(workload, monkeypatch, trace_chunk=0)
    chunked_peak = _memory_probe(
        workload, monkeypatch, trace_chunk=DEFAULT_TRACE_CHUNK
    )

    record = {
        "branch_gshare": gshare,
        "branch_bimodal": bimodal,
        "pipeline": {
            "scale": SCALE,
            "modes": [str(m) for m in MODES],
            "reference_seconds": ref_seconds,
            "vectorized_seconds": new_seconds,
            "speedup": ref_seconds / new_seconds,
            "trace_materialized_peak_bytes": materialized_peak,
            "trace_chunked_peak_bytes": chunked_peak,
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
    }
    bench_history(BENCH_NAME, record)
    print(
        f"\ngshare  {gshare['scalar_seconds']:.3f}s -> "
        f"{gshare['vector_seconds']:.3f}s ({gshare['speedup']:.1f}x)\n"
        f"bimodal {bimodal['scalar_seconds']:.3f}s -> "
        f"{bimodal['vector_seconds']:.3f}s ({bimodal['speedup']:.1f}x)\n"
        f"pipeline {ref_seconds:.2f}s -> {new_seconds:.2f}s "
        f"({record['pipeline']['speedup']:.2f}x), trace assembly peak "
        f"{materialized_peak / 1e6:.1f} -> {chunked_peak / 1e6:.1f} MB"
    )

    # Acceptance: >=5x on the 1M-outcome branch stream (3x is the CI
    # floor, matched here as the hard assert so shared runners don't flake)
    assert gshare["speedup"] >= 3.0
    assert bimodal["speedup"] >= 3.0
    # and >=2x end-to-end on the fig10-sized point.
    assert record["pipeline"]["speedup"] >= 2.0
