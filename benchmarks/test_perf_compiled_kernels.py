"""Perf benchmark: compiled kernel backends vs the scalar reference paths.

Two measurements, recorded in ``benchmarks/history/BENCH_compiled_kernels.json``:

1. **End-to-end figure point** — a fig10-sized point (the figure's four
   modes on one graph) on the *unmodified* default machine, modern
   pipeline (batched engine + compiled kernels + chunked traces) vs the
   reference configuration (scalar trace engine + full materialization).
   Before this backend layer the default machine's hierarchy (DRRIP LLC +
   stream prefetch + reserved ways under COBRA) was exactly the
   configuration space ``BatchHierarchy.supports`` rejected, so every
   headline figure ran the scalar engine; the target is >= 5x end-to-end
   (CI enforces a 3x floor so a noisy shared runner doesn't flake the
   gate), with bit-identical counters.
2. **DES eviction loop** — the fig13a eviction-buffer study's inner
   simulation, generator engine (``run_reference``, the retained oracle)
   vs the fast path (``run``, one C call when a compiler is present).
   Acceptance is fig13a wall-clock cut at least in half, i.e. >= 2x
   here, bit-identical.

Both comparisons assert exact equality: the backends are
equivalence-tested, so any drift is a bug, not noise.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from repro.cache import BatchHierarchy
from repro.cache.kernels import cnative, select_backend
from repro.des.eviction_model import EvictionBufferModel, EvictionModelConfig
from repro.harness import Runner
from repro.harness.inputs import make_workload
from repro.harness.machine import DEFAULT_MACHINE
from repro.harness.modes import BASELINE, COBRA, PB_SW, PB_SW_IDEAL

BENCH_NAME = "BENCH_compiled_kernels.json"

SCALE = 16
MODES = (BASELINE, PB_SW, PB_SW_IDEAL, COBRA)  # the fig10 mode set

# Reference = the pre-backend pipeline (scalar trace engine, full trace
# materialization); modern = the repo's defaults (batched engine + the
# kernel tier select_backend() picks + chunked assembly). Same machine,
# same vector branch predictor — only engine, tier and chunking differ.
REF_KWARGS = dict(engine="fast", trace_chunk=0)
NEW_KWARGS = dict(engine="auto")


def _run_pipeline(workload, kwargs):
    """Time one fig10-sized point; returns (seconds, results)."""
    runner = Runner(machine=DEFAULT_MACHINE, **kwargs)
    start = time.perf_counter()
    results = [runner.run(workload, mode, use_cache=False) for mode in MODES]
    return time.perf_counter() - start, results


def _timed_pipelines(workload, repeats=2):
    """Interleaved best-of-N timing keeps host noise off the ratio."""
    ref_seconds = new_seconds = float("inf")
    ref_results = new_results = None
    for _ in range(repeats):
        seconds, ref_results = _run_pipeline(workload, REF_KWARGS)
        ref_seconds = min(ref_seconds, seconds)
        seconds, new_results = _run_pipeline(workload, NEW_KWARGS)
        new_seconds = min(new_seconds, seconds)
    return ref_seconds, ref_results, new_seconds, new_results


def _des_bench(repeats=3):
    """The fig13a inner loop: generator oracle vs the DES fast path.

    Sized like :func:`repro.harness.experiments.fig13.run_eviction_buffers`
    (40k-tuple trace, the paper's tight-loop rates, a shallow FIFO so the
    core genuinely stalls).
    """
    rng = np.random.default_rng(2026)
    cfg = EvictionModelConfig(
        num_indices=16384,
        l1_evict_queue=2,
        core_cycles_per_tuple=1.25,
        engine_cycles_per_tuple=1.0,
    )
    trace = rng.integers(0, cfg.num_indices, size=40_000).astype(np.int64)
    model = EvictionBufferModel(cfg)
    ref_seconds = new_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference = model.run_reference(trace)
        ref_seconds = min(ref_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        fast = model.run(trace)
        new_seconds = min(new_seconds, time.perf_counter() - start)
    assert fast.total_cycles.hex() == reference.total_cycles.hex()
    assert fast.core_stall_cycles.hex() == reference.core_stall_cycles.hex()
    assert fast.evictions == reference.evictions
    assert fast.max_queue_occupancy == reference.max_queue_occupancy
    return {
        "trace_tuples": int(trace.size),
        "reference_seconds": ref_seconds,
        "fastloop_seconds": new_seconds,
        "speedup": ref_seconds / new_seconds,
        "stall_fraction": reference.stall_fraction,
    }


def test_perf_compiled_kernels(bench_history):
    # The whole point of the backend layer: the default machine — DRRIP,
    # prefetch, and every COBRA reserved-ways variant — is batchable now.
    assert BatchHierarchy.reject_reason(DEFAULT_MACHINE.hierarchy) is None

    workload = make_workload("degree-count", "KRON", scale=SCALE)
    # Warm the graph-generation cache and the compiled-kernel build so
    # neither pipeline pays one-time costs inside the timed region.
    Runner(machine=DEFAULT_MACHINE).run(workload, BASELINE, use_cache=False)

    ref_seconds, ref_results, new_seconds, new_results = _timed_pipelines(
        workload
    )
    for reference, modern in zip(ref_results, new_results):
        assert modern == reference  # bit-identical counters end to end
    assert all(r.engine == "batch" for r in new_results)  # no fallback

    des = _des_bench()

    record = {
        "backend": {
            "selected": select_backend(),
            "available": (
                ["numpy", "cnative"] if cnative.available() else ["numpy"]
            ),
        },
        "pipeline": {
            "scale": SCALE,
            "modes": [str(m) for m in MODES],
            "reference_seconds": ref_seconds,
            "compiled_seconds": new_seconds,
            "speedup": ref_seconds / new_seconds,
            "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
        "des_eviction": des,
    }
    bench_history(BENCH_NAME, record)
    print(
        f"\nbackend  {record['backend']['selected']} "
        f"(available: {', '.join(record['backend']['available'])})\n"
        f"pipeline {ref_seconds:.2f}s -> {new_seconds:.2f}s "
        f"({record['pipeline']['speedup']:.2f}x) on the default machine\n"
        f"des loop {des['reference_seconds']:.3f}s -> "
        f"{des['fastloop_seconds']:.3f}s ({des['speedup']:.1f}x)"
    )

    # Acceptance: >= 5x end-to-end on the fig10-sized point (3x is the CI
    # floor, matched here as the hard assert so shared runners don't
    # flake) and fig13a's DES wall-clock at least halved.
    assert record["pipeline"]["speedup"] >= 3.0
    assert des["speedup"] >= 2.0
