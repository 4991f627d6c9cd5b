"""Span tracing for the benchmark's traced run, installed from outside.

The traced run wraps the program's layer entry points (module functions
and class methods) with span recorders. Nothing under ``src/`` changes:
:meth:`Tracer.installed` patches the attributes on entry and puts the
original objects back on exit, so an untraced pass never runs a wrapper
(:func:`assert_untraced` checks this).

A span is ``(pid, pass id, span id, parent id, name, start, end,
counts)``. Spans stay in memory. Sweep workers are forked while the
wrappers are installed, so they inherit them; each worker appends its own
spans to ``spans-<pid>.jsonl`` in the trace directory when a chunk of
points finishes, and :meth:`Tracer.collect` merges those files back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import time
from pathlib import Path

__all__ = [
    "LAYER_METRICS",
    "Tracer",
    "assert_untraced",
    "entry_points",
    "layer_metrics",
]

_TRACED = "__perfbench_traced__"

#: Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("workloads.resolve_s", "s"),
    ("workloads.resolve_calls", "count"),
    ("plan.s", "s"),
    ("plan.calls", "count"),
    ("plan.updates", "count"),
    ("comm.s", "s"),
    ("comm.updates", "count"),
    ("comm.coalesced_ratio", "ratio"),
    ("trace.s", "s"),
    ("replay.s", "s"),
    ("replay.kernel_s", "s"),
    ("replay.glue_s", "s"),
    ("replay.accesses", "count"),
    ("replay.ns_per_access", "ns"),
    ("branch.s", "s"),
    ("branch.outcomes", "count"),
    ("timing.s", "s"),
    ("des.s", "s"),
    ("des.tuples", "count"),
    ("resultcache.put_s", "s"),
    ("resultcache.get_s", "s"),
    ("resultcache.hits", "count"),
    ("resultcache.misses", "count"),
    ("sweep.s", "s"),
    ("sweep.worker_busy_s", "s"),
    ("sweep.efficiency", "ratio"),
    ("unattributed_s", "s"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_s", "s"),
)

#: Kernel entry points of the batched cache engine: the C tier's ctypes
#: bindings, and the numpy/flat tiers' kernels as ``batchsim`` binds them.
_CNATIVE_KERNELS = (
    "lru_level_replay",
    "plru_level_replay",
    "drrip_level_replay_flat",
    "prefetch_scan_native",
)
_BATCHSIM_KERNELS = (
    "lru_level_replay",
    "plru_level_replay",
    "drrip_level_replay_flat",
    "prefetch_scan",
    "drrip_level_replay",
    "lru_set_replay",
    "plru_set_replay",
)


def entry_points():
    """``(owner, attribute, span name, counter)`` for every wrapped call.

    ``counter(args, result)`` returns the span's work counts. Nested
    calls become child spans, so each layer's time is its self time.
    """
    from repro.cache import batchsim
    from repro.cache.kernels import cnative
    from repro.core.machine import CobraMachine
    from repro.cpu import branch
    from repro.cpu.timing import TimingModel
    from repro.des.eviction_model import EvictionBufferModel
    from repro.harness import parallel, runner
    from repro.harness.resultcache import ResultCache
    from repro.workloads import registry

    branch_sample = (
        inspect.signature(branch.simulate_sites)
        .parameters["max_simulated"]
        .default
    )

    def branch_outcomes(args, result):
        return {
            "outcomes": sum(
                min(len(site.outcomes), branch_sample) for site in args[0]
            )
        }

    return (
        (registry, "resolve", "workloads.resolve", None),
        (
            runner.Runner,
            "_phases_for",
            "plan",
            lambda args, result: {"updates": args[1].num_updates},
        ),
        (
            CobraMachine,
            "binupdate_many",
            "comm",
            lambda args, result: {"updates": len(args[1])},
        ),
        (
            CobraMachine,
            "binflush",
            "comm",
            lambda args, result: {"coalesced": args[0].coalesced},
        ),
        (runner.Runner, "_simulate_phase", "trace", None),
        (
            batchsim.BatchHierarchy,
            "simulate",
            "replay.glue",
            lambda args, result: {"accesses": len(args[1])},
        ),
        *((cnative, name, "replay.kernel", None) for name in _CNATIVE_KERNELS),
        *((batchsim, name, "replay.kernel", None) for name in _BATCHSIM_KERNELS),
        (runner, "simulate_sites", "branch", branch_outcomes),
        (TimingModel, "phase_timing", "timing", None),
        (
            EvictionBufferModel,
            "run",
            "des",
            lambda args, result: {"tuples": len(args[1])},
        ),
        (
            ResultCache,
            "get",
            "resultcache.get",
            lambda args, result: {
                "hits": int(result is not None),
                "misses": int(result is None),
            },
        ),
        (ResultCache, "put", "resultcache.put", None),
        (parallel, "run_sweep", "sweep", None),
        (parallel, "_sweep_worker", "sweep.worker", None),
    )


def assert_untraced():
    """Raise if any entry point is still a span wrapper."""
    for owner, attribute, _name, _counter in entry_points():
        if getattr(getattr(owner, attribute), _TRACED, False):
            raise RuntimeError(
                f"{owner.__name__}.{attribute} is still traced; an "
                "untraced pass must run the program's own code"
            )


class Tracer:
    """Records spans in memory for the process that owns it.

    ``directory`` receives the per-pid span files of forked workers.
    ``pass_id`` tags every span opened while it is set; forked workers
    inherit the value current when the pool starts.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.pass_id = None
        self._origin = self._pid = os.getpid()
        self._spans = []
        self._stack = []
        self._next_id = 0

    def _reset_if_forked(self):
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._spans = []
            self._stack = []
            self._next_id = 0

    def _open(self, name):
        self._reset_if_forked()
        span = [
            self._pid,
            self.pass_id,
            self._next_id,
            self._stack[-1] if self._stack else None,
            name,
            time.perf_counter(),
            None,
            {},
        ]
        self._next_id += 1
        self._spans.append(span)
        self._stack.append(span[2])
        return span

    def _close(self, span, counts=None):
        span[6] = time.perf_counter()
        if counts:
            span[7] = counts
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _flush_worker(self):
        """Append a forked worker's spans to its per-pid file."""
        if os.getpid() == self._origin or not self._spans:
            return
        path = self.directory / f"spans-{self._pid}.jsonl"
        with path.open("a", encoding="utf-8") as out:
            for span in self._spans:
                out.write(json.dumps(span) + "\n")
        self._spans = []

    def _wrap(self, func, name, counter, flush):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(span)
                raise
            tracer._close(span, counter(args, result) if counter else None)
            if flush:
                tracer._flush_worker()
            return result

        setattr(traced, _TRACED, True)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point; restore the originals on exit."""
        patched = []
        try:
            for owner, attribute, name, counter in entry_points():
                own = vars(owner)
                original = own.get(attribute)
                func = getattr(owner, attribute)
                patched.append((owner, attribute, original))
                setattr(
                    owner,
                    attribute,
                    self._wrap(func, name, counter, name == "sweep.worker"),
                )
            yield self
        finally:
            for owner, attribute, original in reversed(patched):
                if original is None:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)
            assert_untraced()

    def collect(self):
        """Every span: this process's, plus the workers' span files."""
        spans = [list(span) for span in self._spans]
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as lines:
                spans.extend(json.loads(line) for line in lines)
        return spans


def _self_times(spans):
    """``{(pid, span id): self seconds}`` — duration minus children."""
    own = {}
    for pid, _pass, sid, _parent, _name, start, end, _counts in spans:
        own[(pid, sid)] = end - start
    for pid, _pass, _sid, parent, _name, start, end, _counts in spans:
        if parent is not None:
            own[(pid, parent)] -= end - start
    return own


def _pass_metrics(spans, jobs):
    """Per-layer metrics of one pass's spans (all processes)."""
    own = _self_times(spans)
    self_of, total_of, calls, counts = {}, {}, {}, {}
    for pid, _pass, sid, _parent, name, start, end, span_counts in spans:
        self_of[name] = self_of.get(name, 0.0) + own[(pid, sid)]
        total_of[name] = total_of.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in span_counts.items():
            counts[name, key] = counts.get((name, key), 0) + value
    kernel = self_of.get("replay.kernel", 0.0)
    glue = self_of.get("replay.glue", 0.0)
    accesses = counts.get(("replay.glue", "accesses"), 0)
    comm_updates = counts.get(("comm", "updates"), 0)
    sweep_total = total_of.get("sweep", 0.0)
    busy = total_of.get("sweep.worker", 0.0)
    unattributed = self_of.get("pass", 0.0) + self_of.get("sweep.worker", 0.0)
    # The main process's self time in ``sweep`` is its wait on the pool,
    # which overlaps the workers' spans; counting it would count that
    # wall time twice.
    self_total = sum(own.values()) - self_of.get("sweep", 0.0)
    return {
        "workloads.resolve_s": self_of.get("workloads.resolve", 0.0),
        "workloads.resolve_calls": calls.get("workloads.resolve", 0),
        "plan.s": self_of.get("plan", 0.0),
        "plan.calls": calls.get("plan", 0),
        "plan.updates": counts.get(("plan", "updates"), 0),
        "comm.s": self_of.get("comm", 0.0),
        "comm.updates": comm_updates,
        "comm.coalesced_ratio": (
            counts.get(("comm", "coalesced"), 0) / comm_updates
            if comm_updates
            else 0.0
        ),
        "trace.s": self_of.get("trace", 0.0),
        "replay.s": kernel + glue,
        "replay.kernel_s": kernel,
        "replay.glue_s": glue,
        "replay.accesses": accesses,
        "replay.ns_per_access": (
            (kernel + glue) / accesses * 1e9 if accesses else 0.0
        ),
        "branch.s": self_of.get("branch", 0.0),
        "branch.outcomes": counts.get(("branch", "outcomes"), 0),
        "timing.s": self_of.get("timing", 0.0),
        "des.s": self_of.get("des", 0.0),
        "des.tuples": counts.get(("des", "tuples"), 0),
        "resultcache.put_s": self_of.get("resultcache.put", 0.0),
        "resultcache.get_s": self_of.get("resultcache.get", 0.0),
        "resultcache.hits": counts.get(("resultcache.get", "hits"), 0),
        "resultcache.misses": counts.get(("resultcache.get", "misses"), 0),
        "sweep.s": self_of.get("sweep", 0.0),
        "sweep.worker_busy_s": busy,
        "sweep.efficiency": busy / (jobs * sweep_total) if sweep_total else 0.0,
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / self_total if self_total else 0.0,
    }


def layer_metrics(spans, jobs):
    """Per-layer metrics: the median over traced passes of each value.

    Spans tagged ``"setup"`` come from the traced cold resolution of
    every input; their resolution time and calls are added to the
    ``workloads.*`` metrics, since set-up is where that layer works.
    """
    by_pass = {}
    for span in spans:
        by_pass.setdefault(span[1], []).append(span)
    setup = by_pass.pop("setup", [])
    per_pass = [_pass_metrics(group, jobs) for group in by_pass.values()]
    metrics = {
        name: statistics.median(values[name] for values in per_pass)
        for name in per_pass[0]
    }
    setup_metrics = _pass_metrics(setup, jobs)
    for name in ("workloads.resolve_s", "workloads.resolve_calls"):
        metrics[name] += setup_metrics[name]
    return metrics
