"""The experiment runner: PhaseSpecs → cycles, misses, traffic.

For each phase the runner (1) replays the irregular access segments —
interleaved with proportional streaming pressure — through the fast cache
simulator, (2) simulates the unpredictable branch sites through a GShare
predictor, (3) runs the eviction-buffer DES for COBRA Binning phases, and
(4) feeds everything to the analytic core timing model. Long phases are
simulated on a stationary prefix and scaled (``max_sim_events``), which
keeps full-suite sweeps tractable in pure Python.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.api import PhaseResult, RunResult
from repro.baselines.phi import PhiMachine
from repro.cache.address import AddressSpace
from repro.cache.batchsim import BatchHierarchy
from repro.cache.fastsim import FastHierarchy
from repro.cache.stats import MemoryTraffic, ServiceCounts
from repro.core import costs
from repro.core.comm import CobraCommMachine
from repro.cpu.branch import GSharePredictor, simulate_sites
from repro.cpu.timing import TimingModel
from repro.des.eviction_model import EvictionBufferModel, EvictionModelConfig
from repro.harness import modes
from repro.harness.machine import DEFAULT_MACHINE
from repro.harness.resultcache import run_digest
from repro.harness.telemetry import NULL_TELEMETRY
from repro.pb.planner import plan_bins
from repro.workloads.base import PhaseSpec

__all__ = ["Runner", "DEFAULT_TRACE_CHUNK"]

_ENGINES = ("auto", "fast", "batch")

#: Default irregular accesses per streamed trace chunk. Merged traces
#: (irregular accesses plus injected streaming lines) are built and
#: simulated one chunk at a time, so peak trace memory is O(chunk) rather
#: than O(trace); chunk results are bit-identical to the full build.
DEFAULT_TRACE_CHUNK = 262_144


class Runner:
    """Runs workloads under every execution mode on one machine.

    ``engine`` selects the trace simulator: ``"auto"`` (default) uses the
    batched :class:`BatchHierarchy` whenever the phase's effective cache
    configuration supports it (every shipped figure configuration does —
    DRRIP, prefetching, and reserved ways all have batched kernels) and
    the scalar :class:`FastHierarchy` otherwise, emitting a
    ``scalar_fallback`` telemetry event with the rejection reason on that
    degradation; ``"fast"`` forces the scalar engine; ``"batch"`` requires
    the machine's hierarchy to be batchable.

    ``result_cache`` (a :class:`~repro.harness.resultcache.ResultCache`)
    adds a persistent, on-disk layer under the per-instance memo so repeated
    figure suites and resumed sweeps skip completed simulations.

    ``trace_chunk`` bounds how many irregular accesses each streamed trace
    chunk carries (default :data:`DEFAULT_TRACE_CHUNK`; ``0`` replays the
    whole trace as one chunk). Every chunk size produces bit-identical
    counters, so it is not part of the result-cache digest.

    ``telemetry`` (a :class:`~repro.harness.telemetry.Telemetry`) records
    engine selections, per-phase simulation wall-clock, and — propagated to
    the attached ``result_cache`` — cache hits/misses; the default is the
    zero-overhead no-op sink. ``fault_policy`` (a
    :class:`~repro.harness.faults.FaultPolicy`) makes :meth:`run_many`
    route parallel sweeps through the fault-tolerant executor.
    """

    def __init__(
        self,
        machine=DEFAULT_MACHINE,
        max_sim_events=400_000,
        model_eviction_stalls=True,
        des_sample=30_000,
        comm_sample=300_000,
        engine="auto",
        result_cache=None,
        telemetry=None,
        fault_policy=None,
        trace_chunk=DEFAULT_TRACE_CHUNK,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        if trace_chunk < 0:
            raise ValueError(f"trace_chunk must be >= 0, got {trace_chunk!r}")
        if engine == "batch":
            reason = BatchHierarchy.reject_reason(machine.hierarchy)
            if reason is not None:
                raise ValueError(
                    f"engine='batch' but the machine's hierarchy needs the "
                    f"scalar engine ({reason}); use 'auto'"
                )
        self.machine = machine
        self.max_sim_events = max_sim_events
        self.model_eviction_stalls = model_eviction_stalls
        self.des_sample = des_sample
        self.comm_sample = comm_sample
        self.engine = engine
        self.trace_chunk = trace_chunk
        self.result_cache = result_cache
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.fault_policy = fault_policy
        if telemetry is not None and result_cache is not None:
            result_cache.telemetry = self.telemetry
        self.timing = TimingModel(machine.core)
        self._cache = {}

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #

    def plan(self, workload):
        """The workload's three bin-count operating points."""
        return plan_bins(
            workload.num_indices, workload.element_bytes, self.machine.hierarchy
        )

    def cobra_config(self, workload, llc_reserved=None):
        """COBRA configuration for ``workload`` on this machine."""
        return self.machine.cobra_config(
            workload.num_indices, workload.tuple_bytes, llc_reserved
        )

    def run(self, workload, mode, use_cache=True):
        """Execute ``workload`` under ``mode``; returns a frozen
        :class:`~repro.api.RunResult`.

        ``mode`` may be an :class:`~repro.harness.modes.ExecutionMode`
        member or its string value; anything else raises ``ValueError``
        listing the valid modes. Results are memoized per (workload, mode)
        when the workload carries a ``cache_key`` (set by the input suite),
        and read from / stored to the persistent ``result_cache`` when one
        is attached — restored results carry ``provenance="disk"``. Pass
        ``use_cache=False`` to force a fresh simulation (it is still
        memoized for later callers, but never read from or written to
        disk).
        """
        mode = modes.ExecutionMode.coerce(mode)
        if mode == modes.CHARACTERIZATION:
            return self.run_characterization(workload, use_cache=use_cache)
        key = (getattr(workload, "cache_key", None), str(mode))
        if use_cache and key[0] is not None:
            cached = self._cached(key)
            if cached is not None:
                return cached
        phases, des_config = self._phases_for(workload, mode)
        result = RunResult(
            workload=workload.name,
            mode=str(mode),
            phases=tuple(
                self._simulate_phase(workload, phase, des_config)
                for phase in phases
            ),
        )
        self._store(key, result, persist=use_cache)
        return result

    def run_characterization(self, workload, use_cache=True):
        """Irregular-update locality characterization (Figure 2).

        Identical to baseline for every workload except Integer Sort, whose
        performance baseline is a comparison sort but whose irregular
        formulation is what Figure 2 characterizes. Returns a
        :class:`~repro.api.RunResult` shaped exactly like :meth:`run`
        output (regression-tested).
        """
        key = (getattr(workload, "cache_key", None), str(modes.CHARACTERIZATION))
        if use_cache and key[0] is not None:
            cached = self._cached(key)
            if cached is not None:
                return cached
        result = RunResult(
            workload=workload.name,
            mode=str(modes.CHARACTERIZATION),
            phases=tuple(
                self._simulate_phase(workload, phase, None)
                for phase in workload.characterization_phases()
            ),
        )
        self._store(key, result, persist=use_cache)
        return result

    def run_many(
        self,
        points,
        jobs=None,
        use_cache=True,
        checkpoint=None,
        handle_signals=False,
    ):
        """Run ``(workload, mode)`` points, optionally across processes.

        Returns the :class:`~repro.api.RunResult` list in input order. With ``jobs``
        > 1 the points are fanned out through the process-pool sweep
        executor (see :func:`repro.harness.parallel.run_sweep`); results are
        identical to the serial path — every point is an independent
        simulation and the executor restores submission order.

        With a ``fault_policy`` attached the fan-out goes through the
        fault-tolerant executor instead: crashed or hung workers cost only
        the lost points, and any point the pool could not complete is
        recomputed serially in-process here, preserving this method's
        list-of-counters contract (a point that fails even in-process
        raises, exactly as the serial path would).

        ``checkpoint`` (a :class:`~repro.harness.checkpoint.SweepCheckpoint`)
        always routes through the fault-tolerant executor — even for
        ``jobs=1`` — so every completed point is journaled, previously
        journaled points are spliced back without re-simulation, and (with
        ``handle_signals=True``) SIGINT/SIGTERM drain gracefully. An
        interrupted sweep cannot satisfy the list contract, so it raises
        :class:`~repro.harness.faults.SweepInterrupted` carrying the
        partial :class:`~repro.harness.faults.SweepOutcome`.
        """
        points = list(points)
        use_resilient = checkpoint is not None or (
            self.fault_policy is not None
            and jobs is not None
            and jobs > 1
            and len(points) > 1
        )
        if use_resilient:
            from repro.harness.faults import (
                SweepInterrupted,
                run_sweep_resilient,
            )

            outcome = run_sweep_resilient(
                self,
                points,
                jobs=jobs if jobs is not None else 1,
                use_cache=use_cache,
                policy=self.fault_policy,
                checkpoint=checkpoint,
                handle_signals=handle_signals,
            )
            if outcome.interrupted:
                raise SweepInterrupted(outcome)
            results = list(outcome.results)
            for failure in outcome.failures:
                workload, mode = points[failure.index]
                results[failure.index] = self.run(
                    workload, mode, use_cache=use_cache
                )
                if checkpoint is not None:
                    checkpoint.record(failure.index, results[failure.index])
            if checkpoint is not None and outcome.failures:
                checkpoint.mark_completed()
            return results
        if jobs is not None and jobs > 1 and len(points) > 1:
            from repro.harness.parallel import run_sweep

            return run_sweep(self, points, jobs=jobs, use_cache=use_cache)
        return [
            self.run(workload, mode, use_cache=use_cache)
            for workload, mode in points
        ]

    # ------------------------------------------------------------------ #
    # Memo + persistent cache plumbing
    # ------------------------------------------------------------------ #

    def _digest_params(self):
        return {
            "max_sim_events": self.max_sim_events,
            "model_eviction_stalls": self.model_eviction_stalls,
            "des_sample": self.des_sample,
            "comm_sample": self.comm_sample,
        }

    def _digest(self, cache_key, mode):
        return run_digest(self.machine, self._digest_params(), cache_key, mode)

    def point_digest(self, cache_key, mode):
        """Content digest of one (workload, mode) point on this runner.

        This is the persistent result cache's key and the identity recorded
        in checkpoint manifests/journals; it covers the machine config and
        every simulation-affecting runner knob.
        """
        return self._digest(cache_key, mode)

    def machine_digest(self):
        """Digest of the machine + runner configuration alone (no point)."""
        return run_digest(self.machine, self._digest_params(), "", "machine")

    def _cached(self, key):
        """Memoized or persisted result for ``key``, or ``None``."""
        if key[0] is None:
            return None
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.result_cache is not None:
            stored = self.result_cache.get(self._digest(*key))
            if stored is not None:
                self._cache[key] = stored
                return stored
        return None

    def _store(self, key, counters, persist):
        if key[0] is None:
            return
        self._cache[key] = counters
        if persist and self.result_cache is not None:
            self.result_cache.put(self._digest(*key), counters)

    def spawn_spec(self):
        """Picklable constructor kwargs for rebuilding this runner in a
        worker process (the in-memory memo does not travel)."""
        return {
            "machine": self.machine,
            "max_sim_events": self.max_sim_events,
            "model_eviction_stalls": self.model_eviction_stalls,
            "des_sample": self.des_sample,
            "comm_sample": self.comm_sample,
            "engine": self.engine,
            "trace_chunk": self.trace_chunk,
            "cache_dir": (
                str(self.result_cache.directory)
                if self.result_cache is not None
                else None
            ),
            "telemetry_path": (
                str(self.telemetry.path)
                if getattr(self.telemetry, "path", None) is not None
                else None
            ),
        }

    @classmethod
    def from_spec(cls, spec):
        """Rebuild a runner from :meth:`spawn_spec` output."""
        from repro.harness.resultcache import ResultCache
        from repro.harness.telemetry import JsonlTelemetry

        spec = dict(spec)
        cache_dir = spec.pop("cache_dir", None)
        telemetry_path = spec.pop("telemetry_path", None)
        telemetry = JsonlTelemetry(telemetry_path) if telemetry_path else None
        result_cache = ResultCache(cache_dir) if cache_dir else None
        return cls(
            result_cache=result_cache,
            telemetry=telemetry,
            **spec,
        )

    def run_with_spec(self, workload, spec, include_init=True):
        """Software PB at an explicit :class:`BinSpec` (bin-count sweeps).

        Returns a :class:`~repro.api.RunResult` whose mode is the ad-hoc
        string ``pb@<bins>`` (bin sweeps fall outside
        :class:`~repro.harness.modes.ExecutionMode`).
        """
        return RunResult(
            workload=workload.name,
            mode=f"pb@{spec.num_bins}",
            phases=tuple(
                self._simulate_phase(workload, phase, None)
                for phase in workload.pb_phases(spec, include_init=include_init)
            ),
        )

    # ------------------------------------------------------------------ #
    # Phase construction per mode
    # ------------------------------------------------------------------ #

    def _phases_for(self, workload, mode):
        plan = self.plan(workload)
        if mode == modes.BASELINE:
            return workload.baseline_phases(), None
        if mode == modes.PB_SW:
            return workload.pb_phases(plan.compromise), None
        if mode == modes.PB_SW_IDEAL:
            return [
                workload._init_phase(plan.accumulate_best),
                workload._binning_phase(plan.binning_best),
                workload._accumulate_phase(plan.accumulate_best),
            ], None
        if mode == modes.COBRA:
            cobra = self.cobra_config(workload)
            des_config = self._des_config(workload, cobra)
            return workload.cobra_phases(cobra), des_config
        if mode in modes.COMMUTATIVE_ONLY_MODES:
            if not workload.commutative:
                raise ValueError(
                    f"{mode} requires commutative updates; "
                    f"{workload.name} is non-commutative (Section III-B)"
                )
            return self._comm_phases(workload, mode), None
        raise ValueError(f"unknown mode {mode!r}")

    def _des_config(self, workload, cobra):
        if not self.model_eviction_stalls:
            return None
        return EvictionModelConfig(
            num_indices=workload.num_indices,
            l1_buffers=cobra.l1.num_buffers,
            l2_buffers=cobra.l2.num_buffers,
            llc_buffers=cobra.llc.num_buffers,
            tuples_per_line=cobra.tuples_per_line,
            l1_evict_queue=self.machine.l1_evict_queue,
            l2_evict_queue=self.machine.l2_evict_queue,
        )

    def _comm_phases(self, workload, mode):
        """PHI / COBRA-COMM: coalescing machines define Binning output."""
        plan = self.plan(workload)
        cobra = self.cobra_config(workload)
        n = workload.num_updates
        sample_n = min(n, self.comm_sample)
        indices = workload.update_indices[:sample_n]
        values = (
            np.ones(sample_n)
            if workload.update_values is None
            else workload.update_values[:sample_n]
        )
        if mode == modes.PHI:
            machine = PhiMachine(cobra, plan.compromise, workload.reduce_op)
            accumulate_spec = plan.compromise
        else:
            machine = CobraCommMachine(cobra, workload.reduce_op)
            accumulate_spec = cobra.memory_bin_spec
        machine.bininit()
        machine.binupdate_many(indices.tolist(), values.tolist())
        machine.binflush()
        scale = n / sample_n
        coalesce_rate = machine.coalesced / sample_n
        n_effective = int(round(n * (1.0 - coalesce_rate)))
        hw_lines = int(round(machine.memory_bins.lines_written * scale))

        init = workload._init_phase(accumulate_spec)
        binning = PhaseSpec(
            name="binning",
            instructions=n * costs.COBRA_BIN_TUPLE_INSTRS,
            branches=n,
            branch_sites=workload.extra_branch_sites("binning"),
            segments=[],
            streaming_bytes=n * workload.stream_bytes_per_update,
            hw_write_lines=hw_lines,
            reserved_ways=(
                cobra.l1_reserved_ways,
                cobra.l2_reserved_ways,
                cobra.llc_reserved_ways,
            ),
        )
        # Accumulate replays the coalesced stream. Its locality equals the
        # uncoalesced bin-major replay — coalesced updates are duplicates
        # within a buffer window, i.e. accesses that would have hit L1 —
        # so we simulate the full replay and discount the coalesced count
        # from the L1 hits while scaling work to the surviving tuples.
        accumulate = workload._accumulate_phase(accumulate_spec)
        accumulate.instructions = n_effective * workload.accum_instr_per_update
        accumulate.branches = n_effective
        accumulate.streaming_bytes = n_effective * workload.tuple_bytes
        accumulate.coalesced_discount = int(round(machine.coalesced * scale))
        return [init, binning, accumulate]

    # ------------------------------------------------------------------ #
    # Phase simulation
    # ------------------------------------------------------------------ #

    def _simulate_phase(self, workload, phase, des_config):
        wall_start = time.perf_counter() if self.telemetry.enabled else 0.0
        machine = self.machine
        line_bytes = machine.hierarchy.line_bytes
        irregular = ServiceCounts()
        streaming = ServiceCounts()
        dram_writebacks = 0.0
        total_events = phase.irregular_accesses
        trace_scale = getattr(phase, "trace_scale", 1.0)

        engine = None
        if phase.segments:
            arrays, flags, sim_events = self._trace_segments(phase, line_bytes)
            scale = (total_events / sim_events if sim_events else 1.0) * trace_scale
            reserved = phase.reserved_ways or (0, 0, 0)
            hierarchy = self._make_hierarchy(
                machine.hierarchy.with_reserved(*reserved)
            )
            engine = "batch" if isinstance(hierarchy, BatchHierarchy) else "fast"
            irregular, streaming = self._simulate_chunked(
                hierarchy,
                self._iter_trace_chunks(arrays, flags, self.trace_chunk),
                phase.streaming_bytes // line_bytes,
                total_events,
            )
            irregular = _scaled(irregular, scale)
            streaming = _scaled(streaming, scale)
            if phase.coalesced_discount:
                irregular.l1 = max(0, irregular.l1 - phase.coalesced_discount)
            dram_writebacks = hierarchy.dram_writes * scale
        else:
            scale = trace_scale

        mispredicts = simulate_sites(
            phase.branch_sites, GSharePredictor()
        )

        stream_scale = machine.stream_bandwidth_scale(phase.reserved_ways)
        stream_bw_bytes = (
            phase.streaming_bytes
            + (phase.nt_write_lines + phase.hw_write_lines) * line_bytes
        ) / stream_scale
        timing = self.timing.phase_timing(
            phase.name,
            phase.instructions,
            irregular,
            stream_bw_bytes,
            mispredicts,
            shared_llc=phase.shared_llc,
        )
        cycles = timing.total_cycles
        cycles += phase.num_bins * machine.dispatch_cycles_per_bin
        if phase.des_trace is not None and des_config is not None:
            stall_fraction = self._eviction_stall_fraction(
                phase.des_trace, des_config
            )
            cycles *= 1.0 + stall_fraction

        traffic = MemoryTraffic(
            reads=int(phase.streaming_bytes // line_bytes + irregular.dram),
            writes=int(
                dram_writebacks + phase.nt_write_lines + phase.hw_write_lines
            ),
            line_bytes=line_bytes,
        )
        if self.telemetry.enabled:
            self.telemetry.emit_timed(
                "phase_timed",
                time.perf_counter() - wall_start,
                phase=phase.name,
                workload=workload.name,
                engine=engine,
                timing=timing.as_dict(),
            )
        return PhaseResult(
            name=phase.name,
            instructions=int(phase.instructions),
            branches=phase.branches,
            branch_mispredicts=mispredicts,
            irregular_service=irregular,
            streaming_service=streaming,
            streaming_bytes=phase.streaming_bytes,
            traffic=traffic,
            cycles=cycles,
            engine=engine,
        )

    def _make_hierarchy(self, config):
        """Engine dispatch: batched when the config is expressible, else
        scalar (equivalence between the two is test-asserted).

        A fallback to the scalar engine that the caller did not ask for is
        a silent order-of-magnitude slowdown, so it emits a
        ``scalar_fallback`` telemetry event carrying the batched engine's
        rejection reason (surfaced by ``repro report``)."""
        if self.engine != "fast":
            reason = BatchHierarchy.reject_reason(config)
            if reason is None:
                if self.telemetry.enabled:
                    self.telemetry.emit("engine_selected", engine="batch")
                return BatchHierarchy(config)
            if self.telemetry.enabled:
                self.telemetry.emit("scalar_fallback", reason=reason)
        if self.telemetry.enabled:
            self.telemetry.emit("engine_selected", engine="fast")
        return FastHierarchy(config)

    def _trace_segments(self, phase, line_bytes):
        """Per-segment line arrays + write flags, sampled to the budget.

        Also places every region in a fresh address space and records the
        first free line above it (``_stream_base``) for stream injection.
        Returns ``(arrays, write_flags, sim_events)`` where ``sim_events``
        is the length of the element-wise interleaved trace.
        """
        space = AddressSpace(line_bytes)
        arrays = []
        flags = []
        budget = max(1, self.max_sim_events // len(phase.segments))
        for region, indices, write in phase.sampled_segments(budget):
            if region.name not in space:
                space.allocate(
                    region.name, region.element_bytes, region.num_elements
                )
            arrays.append(space[region.name].lines_of(indices))
            flags.append(write)
        shortest = min(len(a) for a in arrays)
        if len(arrays) > 1:
            arrays = [a[:shortest] for a in arrays]
        # Streaming pressure is injected from a disjoint high region.
        self._stream_base = space.total_lines + 1
        sim_events = len(arrays[0]) if len(arrays) == 1 else shortest * len(arrays)
        return arrays, flags, sim_events

    def _build_trace(self, phase, line_bytes):
        """Interleave segments element-wise into (lines, writes) arrays."""
        arrays, flags, sim_events = self._trace_segments(phase, line_bytes)
        lines, writes = _materialize_trace(arrays, flags)
        return lines, writes, sim_events

    def _iter_trace_chunks(self, arrays, flags, chunk):
        """Yield ``(lines, writes)`` slices of the interleaved trace.

        Chunk boundaries fall on whole interleave rounds (one access per
        segment), so concatenating the chunks reproduces
        :func:`_materialize_trace` exactly; ``chunk=0`` yields that whole
        trace as one chunk.
        """
        if not chunk:
            yield _materialize_trace(arrays, flags)
            return
        width = len(arrays)
        if width == 1:
            lines = np.ascontiguousarray(arrays[0], dtype=np.int64)
            for start in range(0, len(lines), chunk):
                part = lines[start : start + chunk]
                yield part, np.full(len(part), flags[0])
            return
        rounds = len(arrays[0])
        per_chunk = max(1, chunk // width)
        flag_row = np.asarray(flags, dtype=bool)
        for start in range(0, rounds, per_chunk):
            stop = min(rounds, start + per_chunk)
            lines = np.stack([a[start:stop] for a in arrays], axis=1).ravel()
            yield (
                np.ascontiguousarray(lines, dtype=np.int64),
                np.tile(flag_row, stop - start),
            )

    def _merge_chunk(self, lines, writes, stream_lines, total_events, offset):
        """Inject stream lines into one trace chunk.

        ``offset`` is the global index of the chunk's first irregular
        access. Injection is integer-exact: after irregular access ``k``
        (0-based, global) the cumulative number of injected stream lines is
        ``((k + 1) * stream_lines) // total_events`` — deterministic,
        identical for the scalar and batched engines (where a float
        accumulator would drift with evaluation order), and sliceable, so
        per-chunk merges concatenate to exactly the full merged trace.
        """
        n = lines.size
        if stream_lines <= 0 or total_events <= 0 or n == 0:
            return lines, writes, np.zeros(n, dtype=bool)
        idx = np.arange(offset, offset + n, dtype=np.int64)
        before = offset + offset * stream_lines // total_events
        pos = idx + idx * stream_lines // total_events - before
        end = offset + n
        total = end + end * stream_lines // total_events - before
        merged_lines = np.empty(total, dtype=np.int64)
        merged_writes = np.zeros(total, dtype=bool)
        is_stream = np.ones(total, dtype=bool)
        is_stream[pos] = False
        merged_lines[pos] = lines
        merged_writes[pos] = writes
        stream_before = offset * stream_lines // total_events
        merged_lines[is_stream] = self._stream_base + np.arange(
            stream_before, stream_before + (total - n), dtype=np.int64
        )
        return merged_lines, merged_writes, is_stream

    def _simulate_chunked(self, hierarchy, chunks, stream_lines, total_events):
        """Stream trace chunks through the hierarchy; O(chunk) peak memory.

        ``chunks`` yields ``(lines, writes)`` pairs from
        :meth:`_iter_trace_chunks`. Hierarchy state persists across
        ``simulate``/``access`` calls, so per-chunk replay of the sliced
        merged trace is bit-identical to one full-trace replay.
        """
        irregular = np.zeros(5, dtype=np.int64)
        streaming = np.zeros(5, dtype=np.int64)
        batched = isinstance(hierarchy, BatchHierarchy)
        offset = 0
        for lines, writes in chunks:
            merged_lines, merged_writes, is_stream = self._merge_chunk(
                lines, writes, stream_lines, total_events, offset
            )
            offset += lines.size
            if batched:
                served = hierarchy.simulate(merged_lines, merged_writes)
                irregular += np.bincount(served[~is_stream], minlength=5)
                streaming += np.bincount(served[is_stream], minlength=5)
            else:
                access = hierarchy.access
                for line, is_write, stream in zip(
                    merged_lines.tolist(),
                    merged_writes.tolist(),
                    is_stream.tolist(),
                ):
                    bucket = streaming if stream else irregular
                    bucket[access(line, is_write)] += 1
        return (
            ServiceCounts(
                int(irregular[1]),
                int(irregular[2]),
                int(irregular[3]),
                int(irregular[4]),
            ),
            ServiceCounts(
                int(streaming[1]),
                int(streaming[2]),
                int(streaming[3]),
                int(streaming[4]),
            ),
        )

    def _eviction_stall_fraction(self, trace, des_config):
        # Memoized by *content*: the sampled trace bytes plus every DES
        # input. An id(trace) key would alias distinct traces once the
        # allocator reuses a collected array's address.
        sample = np.asarray(trace[: self.des_sample], dtype=np.int64)
        key = ("des", hashlib.sha256(sample.tobytes()).hexdigest(),
               des_config.num_indices, des_config.l1_evict_queue,
               des_config.l2_evict_queue, des_config.l1_buffers,
               des_config.l2_buffers, des_config.llc_buffers,
               des_config.tuples_per_line)
        if key in self._cache:
            return self._cache[key]
        result = EvictionBufferModel(des_config).run(sample)
        self._cache[key] = result.stall_fraction
        return result.stall_fraction


def _materialize_trace(arrays, flags):
    """Element-wise interleave of pre-sampled segment arrays (full build)."""
    if len(arrays) == 1:
        lines = arrays[0]
        writes = np.full(len(lines), flags[0])
    else:
        lines = np.stack(arrays, axis=1).ravel()
        writes = np.tile(np.asarray(flags, dtype=bool), len(arrays[0]))
    return np.ascontiguousarray(lines, dtype=np.int64), writes


def _scaled(counts: ServiceCounts, scale: float) -> ServiceCounts:
    """Scale sampled service counts back to the full phase."""
    return ServiceCounts(
        int(round(counts.l1 * scale)),
        int(round(counts.l2 * scale)),
        int(round(counts.llc * scale)),
        int(round(counts.dram * scale)),
    )
