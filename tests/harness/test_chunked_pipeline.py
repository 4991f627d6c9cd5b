"""Chunked trace streaming vs one whole-trace chunk.

``trace_chunk=0`` replays the whole merged trace as one chunk; any
positive chunk size streams fixed-size slices through the same hierarchy.
The two must be bit-identical — every counter, every phase, every mode,
both engines — because hierarchy state persists across chunk boundaries
and stream injection is integer-exact under slicing.
"""

import numpy as np
import pytest

from repro.harness import modes
from repro.harness.runner import DEFAULT_TRACE_CHUNK, Runner, _materialize_trace
from repro.workloads.registry import resolve

SCALE = 15

MODES = (modes.BASELINE, modes.PB_SW, modes.COBRA)
WORKLOADS = ("degree-count", "neighbor-populate")


def _run(workload_name, mode, **runner_kwargs):
    runner = Runner(max_sim_events=20_000, **runner_kwargs)
    workload = resolve(workload_name, "KRON", scale=SCALE)
    return runner.run(workload, mode, use_cache=False)


class TestChunkedBitIdentity:
    @pytest.mark.parametrize("workload_name", WORKLOADS)
    @pytest.mark.parametrize("mode", MODES)
    def test_chunked_equals_reference(self, workload_name, mode):
        reference = _run(workload_name, mode, trace_chunk=0)
        chunked = _run(workload_name, mode, trace_chunk=1009)
        assert chunked == reference

    @pytest.mark.parametrize("engine", ["auto", "fast"])
    def test_both_engines(self, engine):
        reference = _run("degree-count", modes.BASELINE, trace_chunk=0, engine=engine)
        chunked = _run(
            "degree-count", modes.BASELINE, trace_chunk=777, engine=engine
        )
        assert chunked == reference

    @pytest.mark.parametrize("chunk", [1, 63, 4096, 10**9])
    def test_chunk_size_is_immaterial(self, chunk):
        reference = _run("neighbor-populate", modes.PB_SW, trace_chunk=0)
        assert _run("neighbor-populate", modes.PB_SW, trace_chunk=chunk) == reference

    def test_characterization_mode(self):
        runner_ref = Runner(max_sim_events=20_000, trace_chunk=0)
        runner_chk = Runner(max_sim_events=20_000, trace_chunk=501)
        workload = resolve("degree-count", "KRON", scale=SCALE)
        ref = runner_ref.run_characterization(workload, use_cache=False)
        chk = runner_chk.run_characterization(workload, use_cache=False)
        assert chk == ref


class TestChunkIterator:
    def test_single_array_concatenates_exactly(self):
        runner = Runner(trace_chunk=10)
        lines = np.arange(95, dtype=np.int64)
        parts = list(runner._iter_trace_chunks([lines], [True], 10))
        assert np.concatenate([p[0] for p in parts]).tolist() == lines.tolist()
        assert all(p[1].all() for p in parts)
        assert max(len(p[0]) for p in parts) == 10

    def test_interleaved_concatenates_exactly(self):
        runner = Runner(trace_chunk=8)
        a = np.arange(0, 40, dtype=np.int64)
        b = np.arange(100, 140, dtype=np.int64)
        parts = list(runner._iter_trace_chunks([a, b], [True, False], 8))
        merged = np.concatenate([p[0] for p in parts])
        flags = np.concatenate([p[1] for p in parts])
        # element-wise interleave: a0 b0 a1 b1 ...
        assert merged[:4].tolist() == [0, 100, 1, 101]
        assert len(merged) == 80
        assert flags.tolist() == [True, False] * 40
        # boundaries fall on whole rounds: every chunk has even length
        assert all(len(p[0]) % 2 == 0 for p in parts)

    def test_zero_chunk_yields_whole_trace(self):
        runner = Runner(trace_chunk=0)
        a = np.arange(0, 40, dtype=np.int64)
        b = np.arange(100, 140, dtype=np.int64)
        parts = list(runner._iter_trace_chunks([a, b], [True, False], 0))
        assert len(parts) == 1
        lines, writes = _materialize_trace([a, b], [True, False])
        assert parts[0][0].tolist() == lines.tolist()
        assert parts[0][1].tolist() == writes.tolist()

    def test_merge_chunk_slices_match_full_merge(self):
        runner = Runner()
        runner._stream_base = 10_000
        lines = np.arange(57, dtype=np.int64)
        writes = np.ones(57, dtype=bool)
        full = runner._merge_chunk(lines, writes, 23, 57, 0)
        pieces = []
        offset = 0
        for size in (10, 10, 10, 10, 10, 7):
            part = runner._merge_chunk(
                lines[offset : offset + size],
                writes[offset : offset + size],
                23,
                57,
                offset,
            )
            pieces.append(part)
            offset += size
        for i in range(3):
            joined = np.concatenate([p[i] for p in pieces])
            assert joined.tolist() == full[i].tolist()


class TestChunkKnob:
    def test_default(self):
        assert Runner().trace_chunk == DEFAULT_TRACE_CHUNK

    def test_negative_chunk_rejected(self):
        # range(0, n, -4) would yield no chunks and silently simulate
        # nothing, caching empty counters under the point's digest.
        with pytest.raises(ValueError, match="trace_chunk"):
            Runner(trace_chunk=-4)

    def test_spawn_spec_carries_chunk_setting(self):
        runner = Runner(trace_chunk=99)
        spec = runner.spawn_spec()
        assert spec["trace_chunk"] == 99
        rebuilt = Runner.from_spec(spec)
        assert rebuilt.trace_chunk == 99

    def test_chunking_absent_from_digest(self):
        # bit-identical results must share one cache entry across chunk sizes
        workload = resolve("degree-count", "KRON", scale=SCALE)
        digests = {
            Runner(max_sim_events=20_000, trace_chunk=chunk)._digest(
                workload.cache_key, "baseline"
            )
            for chunk in (0, 64, DEFAULT_TRACE_CHUNK)
        }
        assert len(digests) == 1
