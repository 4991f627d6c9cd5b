"""Equivalence of both kernel tiers on every batched cache mode.

The batched engine (:class:`BatchHierarchy`) covers the three modes the
original implementation rejected — DRRIP set-dueling, LLC-gated prefetch
fills, and reserved-ways masking — through two kernel tiers: ``cnative``
C kernels whenever the C library builds, else ``numpy`` dict kernels.
Any divergence between either tier and the scalar :class:`FastHierarchy`
oracle (itself equivalence-tested against the reference object model) is
a bug; these tests require bit-identical statistics from both, including
the prefetcher's internal stream table after chunked replays. The
``numpy`` tier is forced by hiding the C library
(``cnative.available`` reporting ``False``), exactly as on a machine
without a compiler.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import BatchHierarchy, FastHierarchy, HierarchyConfig
from repro.cache.kernels import cnative, select_backend
from repro.harness.machine import DEFAULT_MACHINE

TIERS = ["numpy", "cnative"] if cnative.available() else ["numpy"]


@contextlib.contextmanager
def kernel_tier(tier):
    """Build hierarchies on ``tier``: ``numpy`` hides the C library."""
    with pytest.MonkeyPatch.context() as patch:
        if tier == "numpy":
            patch.setattr(cnative, "available", lambda: False)
        yield


#: One config per previously-unbatchable mode, plus their combination
#: (the default machine hierarchy uses all three at once).
MODES = {
    "drrip": HierarchyConfig(
        l1_bytes=512, l1_ways=2, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="drrip", prefetch=False,
    ),
    "prefetch": HierarchyConfig(
        l1_bytes=512, l1_ways=2, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="plru", prefetch=True,
    ),
    "reserved-ways": HierarchyConfig(
        l1_bytes=512, l1_ways=4, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="plru", prefetch=False,
        l1_reserved_ways=1, l2_reserved_ways=2, llc_reserved_ways=3,
    ),
    "all-three": HierarchyConfig(
        l1_bytes=512, l1_ways=4, l2_bytes=2048, l2_ways=4,
        llc_bytes=8192, llc_ways=8, llc_policy="drrip", prefetch=True,
        l2_reserved_ways=1, llc_reserved_ways=2,
    ),
    "default-machine": HierarchyConfig(),
}


def assert_tier_equivalent(config, lines, writes, tiers=None):
    """Every backend tier must match FastHierarchy bit for bit."""
    lines = np.asarray(lines, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    fast = FastHierarchy(config)
    fast_counts = fast.run_trace(lines.tolist(), writes.tolist())
    for tier in tiers or TIERS:
        with kernel_tier(tier):
            batch = BatchHierarchy(config)
        assert batch.backend == tier
        counts = batch.run_trace(lines, writes)
        label = f"backend={tier}"
        assert counts == fast_counts, label
        assert batch.hits == fast.hits, label
        assert batch.misses == fast.misses, label
        assert batch.dram_reads == fast.dram_reads, label
        assert batch.dram_writes == fast.dram_writes, label
        assert batch.dram_prefetch_reads == fast.dram_prefetch_reads, label
        if fast.prefetcher is not None:
            assert batch.prefetcher.issued == fast.prefetcher.issued, label
            assert batch.prefetcher._expect == fast.prefetcher._expect, label
    return fast


@pytest.mark.parametrize("name", sorted(MODES))
def test_tiers_match_fast_random_trace(name):
    config = MODES[name]
    rng = np.random.default_rng(42)
    lines = rng.integers(0, 4000, size=15_000)
    writes = rng.random(15_000) < 0.4
    assert_tier_equivalent(config, lines, writes)


@pytest.mark.parametrize("name", sorted(MODES))
def test_tiers_match_streaming_trace(name):
    """Sequential lines maximize prefetcher activity and DRRIP churn."""
    config = MODES[name]
    lines = np.concatenate([np.arange(3000), np.arange(3000)])
    assert_tier_equivalent(config, lines, np.zeros(lines.size, dtype=bool))


@pytest.mark.parametrize("name", ["drrip", "prefetch", "all-three"])
def test_tiers_match_reference_model(name):
    """Four-way check: every tier == fast == the reference object model."""
    config = MODES[name]
    rng = np.random.default_rng(7)
    lines = rng.integers(0, 500, size=3_000)
    writes = rng.random(3_000) < 0.5
    reference = config.build_reference()
    ref_counts = [0, 0, 0, 0, 0]
    for line, is_write in zip(lines.tolist(), writes.tolist()):
        ref_counts[reference.access(line, is_write)] += 1
    fast = assert_tier_equivalent(config, lines, writes)
    counts = BatchHierarchy(config).run_trace(lines, writes)
    assert ref_counts[1:] == [counts.l1, counts.l2, counts.llc, counts.dram]
    assert reference.dram_writes == fast.dram_writes


@pytest.mark.parametrize("tier", TIERS)
def test_stateful_across_chunks(tier):
    """Chunked replay must carry cache *and* prefetcher state over."""
    config = MODES["all-three"]
    rng = np.random.default_rng(3)
    fast = FastHierarchy(config)
    with kernel_tier(tier):
        batch = BatchHierarchy(config)
    for _ in range(4):
        mixed = np.concatenate([
            rng.integers(0, 2000, size=2_000),
            np.arange(500) + int(rng.integers(0, 1000)),
        ])
        writes = rng.random(mixed.size) < 0.5
        a = fast.run_trace(mixed.tolist(), writes.tolist())
        b = batch.run_trace(mixed, writes)
        assert a == b
        assert batch.prefetcher._expect == fast.prefetcher._expect
    assert batch.dram_prefetch_reads == fast.dram_prefetch_reads
    assert batch.prefetcher.issued == fast.prefetcher.issued


@given(
    lines=st.lists(st.integers(0, 255), min_size=1, max_size=300),
    write_bits=st.integers(min_value=0),
)
@settings(max_examples=40, deadline=None)
def test_drrip_property(lines, write_bits):
    writes = [(write_bits >> i) & 1 == 1 for i in range(len(lines))]
    assert_tier_equivalent(MODES["drrip"], lines, writes)


@given(
    starts=st.lists(st.integers(0, 400), min_size=1, max_size=12),
    run=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_prefetch_property(starts, run):
    """Short sequential runs from random bases stress stream detection."""
    lines = np.concatenate([np.arange(s, s + run) for s in starts])
    assert_tier_equivalent(
        MODES["prefetch"], lines, np.zeros(lines.size, dtype=bool)
    )


@given(
    lines=st.lists(st.integers(0, 255), min_size=1, max_size=300),
    write_bits=st.integers(min_value=0),
)
@settings(max_examples=40, deadline=None)
def test_reserved_ways_property(lines, write_bits):
    writes = [(write_bits >> i) & 1 == 1 for i in range(len(lines))]
    assert_tier_equivalent(MODES["reserved-ways"], lines, writes)


def test_prefetch_counters_carry_real_values():
    """Regression: ``dram_prefetch_reads`` and ``prefetcher`` used to be
    dead attributes on the batched engine (always 0 / None-like); they
    must now track the scalar engine exactly."""
    config = MODES["prefetch"]
    lines = np.arange(4000) % 1500
    fast = FastHierarchy(config)
    fast.run_trace(lines.tolist(), [False] * lines.size)
    batch = BatchHierarchy(config)
    batch.run_trace(lines, np.zeros(lines.size, dtype=bool))
    assert fast.prefetcher.issued > 0  # the trace must actually prefetch
    assert fast.dram_prefetch_reads > 0
    assert batch.prefetcher.issued == fast.prefetcher.issued
    assert batch.dram_prefetch_reads == fast.dram_prefetch_reads


class TestFigureConfigsBatchable:
    """Every effective hierarchy a figure driver can request is batchable
    (the acceptance bar for retiring the scalar fallback)."""

    def test_default_machine(self):
        assert BatchHierarchy.reject_reason(DEFAULT_MACHINE.hierarchy) is None

    def test_every_reserved_ways_combination(self):
        """Cobra phases and the fig13 sweeps reserve up to ways-1 at each
        level; every combination must stay batchable."""
        base = DEFAULT_MACHINE.hierarchy
        for l1 in (0, 1, base.l1_ways - 1):
            for l2 in (0, 1, base.l2_ways - 1):
                for llc in (0, 1, base.llc_ways - 1):
                    config = base.with_reserved(l1, l2, llc)
                    assert BatchHierarchy.reject_reason(config) is None, (
                        l1, l2, llc,
                    )

    def test_all_shipped_policies(self):
        base = DEFAULT_MACHINE.hierarchy
        for policy in ("lru", "plru", "drrip"):
            for prefetch in (False, True):
                config = dataclasses.replace(
                    base, llc_policy=policy, prefetch=prefetch
                )
                assert BatchHierarchy.reject_reason(config) is None, (
                    policy, prefetch,
                )


class TestBackendSelection:
    def test_auto_prefers_compiled_tier(self):
        expected = "cnative" if cnative.available() else "numpy"
        assert select_backend() == expected
        assert BatchHierarchy(MODES["drrip"]).backend == expected

    def test_numpy_always_available(self, monkeypatch):
        monkeypatch.setattr(cnative, "available", lambda: False)
        assert select_backend() == "numpy"
        assert BatchHierarchy(MODES["drrip"]).backend == "numpy"

    def test_cnative_build_is_cached(self):
        if not cnative.available():
            pytest.skip("no C toolchain in this environment")
        assert cnative.load() is cnative.load()
        assert cnative.build_error() is None
