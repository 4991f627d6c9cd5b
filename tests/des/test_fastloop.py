"""Bit-identity of the DES fast path with the generator engine.

:meth:`EvictionBufferModel.run` replays the schedule as one C call
(``cnative``) and falls back to :meth:`EvictionBufferModel.run_reference`,
the generator-engine :class:`~repro.des.engine.Simulator` formulation kept
as the oracle, when the C tier is unavailable. Figure 13a's stall
fractions are ratios of accumulated floats, so these tests demand *bit*
identity — ``float.hex`` equality of every cycle counter, not approximate
equality — plus exact eviction counts and max queue occupancies
(occupancy maxima are sensitive to event ordering at timestamp ties,
which makes them the sharpest probe of schedule fidelity).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.kernels import cnative
from repro.des.eviction_model import EvictionBufferModel, EvictionModelConfig


def assert_same_result(fast, ref):
    assert fast.total_cycles.hex() == ref.total_cycles.hex()
    assert fast.core_stall_cycles.hex() == ref.core_stall_cycles.hex()
    assert fast.evictions == ref.evictions
    assert fast.max_queue_occupancy == ref.max_queue_occupancy
    assert fast.tuples == ref.tuples
    assert fast.stall_fraction == ref.stall_fraction


def assert_bit_identical(cfg, trace):
    model = EvictionBufferModel(cfg)
    ref = model.run_reference(trace)
    assert_same_result(model.run(np.asarray(trace, dtype=np.int64)), ref)
    return ref


def test_uniform_trace():
    rng = np.random.default_rng(11)
    cfg = EvictionModelConfig(num_indices=2048)
    assert_bit_identical(cfg, rng.integers(0, 2048, size=60_000))


def test_bursty_trace_stalls():
    """Runs of same-bin tuples force back-to-back evictions; with a short
    L1 FIFO the core must actually stall (the Figure 13a effect)."""
    rng = np.random.default_rng(12)
    chunks = []
    while sum(len(c) for c in chunks) < 40_000:
        base = int(rng.integers(0, 512))
        chunks.append([base] * int(rng.integers(1, 24)))
    trace = np.concatenate(chunks)[:40_000].astype(np.int64)
    cfg = EvictionModelConfig(
        num_indices=512, l1_evict_queue=1, l2_evict_queue=1, mem_queue=1,
        mem_cycles_per_line=32.0, core_cycles_per_tuple=0.5,
    )
    ref = assert_bit_identical(cfg, trace)
    assert ref.core_stall_cycles > 0  # the scenario must exercise stalls


def test_backpressure_fills_queues():
    """A slow memory writer propagates backpressure through both FIFOs."""
    cfg = EvictionModelConfig(
        num_indices=64, l1_buffers=2, l2_buffers=4, llc_buffers=8,
        l1_evict_queue=2, l2_evict_queue=2, mem_queue=2,
        mem_cycles_per_line=128.0,
    )
    trace = np.tile(np.arange(64), 400)
    ref = assert_bit_identical(cfg, trace)
    assert ref.max_queue_occupancy["mem"] == 2  # saturated


def test_odd_geometry():
    """Non-power-of-two buffers, line size, and rates."""
    rng = np.random.default_rng(13)
    cfg = EvictionModelConfig(
        num_indices=999, l1_buffers=7, l2_buffers=31, llc_buffers=101,
        tuples_per_line=5, l1_evict_queue=2, l2_evict_queue=3, mem_queue=2,
        core_cycles_per_tuple=1.25, engine_cycles_per_tuple=0.75,
        mem_cycles_per_line=3.5,
    )
    assert_bit_identical(cfg, rng.integers(0, 999, size=20_000))


def test_degenerate_traces():
    cfg = EvictionModelConfig(
        num_indices=16, l1_buffers=2, l2_buffers=2, llc_buffers=2
    )
    assert_bit_identical(cfg, np.array([], dtype=np.int64))
    assert_bit_identical(cfg, np.array([3], dtype=np.int64))
    assert_bit_identical(cfg, np.array([3] * 8, dtype=np.int64))
    assert_bit_identical(cfg, np.array([3] * 7, dtype=np.int64))  # no evict


@given(
    trace=st.lists(st.integers(0, 63), min_size=0, max_size=600),
    l1_fifo=st.integers(1, 4),
    per_line=st.integers(1, 9),
)
@settings(max_examples=50, deadline=None)
def test_schedule_property(trace, l1_fifo, per_line):
    cfg = EvictionModelConfig(
        num_indices=64, l1_buffers=4, l2_buffers=8, llc_buffers=16,
        tuples_per_line=per_line, l1_evict_queue=l1_fifo,
        l2_evict_queue=2, mem_queue=2,
    )
    assert_bit_identical(cfg, np.asarray(trace, dtype=np.int64))


def test_oracle_marker():
    """The backend-pairing lint rule pairs the DES with its oracle engine."""
    from repro.analysis import rules

    assert (
        "des/eviction_model.py", "EvictionBufferModel",
        "des/engine.py", "Simulator",
    ) in rules._BACKEND_PAIRS


def test_no_compiler_falls_back_to_oracle(monkeypatch):
    """Without the C tier, or when the C run cannot allocate, ``run``
    takes the generator oracle and stays bit-identical."""
    rng = np.random.default_rng(14)
    cfg = EvictionModelConfig(num_indices=256)
    trace = rng.integers(0, 256, size=5_000)
    model = EvictionBufferModel(cfg)
    ref = model.run_reference(trace)
    calls = []
    with monkeypatch.context() as patch:
        # a stub C call that records itself and returns None
        patch.setattr(
            cnative, "eviction_pipeline_native", lambda *args: calls.append(args)
        )
        patch.setattr(cnative, "available", lambda: False)
        assert_same_result(model.run(trace), ref)
        assert calls == []  # no compiler: the C tier is never asked
        patch.setattr(cnative, "available", lambda: True)
        assert_same_result(model.run(trace), ref)
        assert len(calls) == 1  # asked once, answered None, fell back


def test_run_validates_indices():
    cfg = EvictionModelConfig(num_indices=8)
    model = EvictionBufferModel(cfg)
    with pytest.raises(ValueError, match="beyond num_indices"):
        model.run(np.array([9], dtype=np.int64))
    with pytest.raises(ValueError, match="beyond num_indices"):
        model.run_reference(np.array([9], dtype=np.int64))
