"""The counts-only C-Buffer walk against the Python COBRA machines.

``binning_counts`` runs a stream through a machine's three C-Buffer levels
in one C call. The Python machines (``CobraMachine``, ``CobraCommMachine``
and ``PhiMachine``) are its specification: every ``BinningStats`` count
and the lines written to memory bins must match them exactly, and the
no-compiler fallback, which runs the machine itself, must return the same.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import PhiMachine
from repro.cache.kernels import cnative
from repro.core import (
    REDUCE_OPS,
    BinningStats,
    CobraCommMachine,
    CobraConfig,
    CobraMachine,
    binning_counts,
)
from repro.harness import Runner
from repro.pb import BinSpec
from repro.workloads.registry import resolve

MACHINES = ("cobra", "cobra-comm", "phi")

needs_cnative = pytest.mark.skipif(
    not cnative.available(), reason="no C compiler: the walk is the fallback"
)


def make_machine(kind, num_indices, tuple_bytes, reduce_op, phi_bins=8):
    config = CobraConfig(num_indices=num_indices, tuple_bytes=tuple_bytes)
    if kind == "cobra":
        machine = CobraMachine(config)
    elif kind == "cobra-comm":
        machine = CobraCommMachine(config, reduce_op)
    else:
        spec = BinSpec.from_num_bins(num_indices, phi_bins)
        machine = PhiMachine(config, spec, reduce_op)
    return machine.bininit()


def oracle(machine, indices, values):
    """The Python machine's counts and lines written for one stream."""
    machine.binupdate_many(indices, values)
    machine.binflush()
    return machine.stats, machine.memory_bins.lines_written


def assert_walk_matches(kind, num_indices, tuple_bytes, reduce_op, indices,
                        values, phi_bins=8):
    args = (kind, num_indices, tuple_bytes, reduce_op, phi_bins)
    counts = binning_counts(make_machine(*args), np.asarray(indices))
    stats, lines = oracle(make_machine(*args), list(indices), list(values))
    assert counts == stats
    assert counts.lines_written == lines
    assert counts.tuples == len(indices)


def skewed_stream(rng, num_indices, size):
    """Zipf-distributed hot indices scattered over the namespace."""
    ranks = np.minimum(rng.zipf(1.3, size=size), num_indices) - 1
    return rng.permutation(num_indices)[ranks]


@given(
    kind=st.sampled_from(MACHINES),
    reduce_op=st.sampled_from(sorted(REDUCE_OPS)),
    tuple_bytes=st.sampled_from([8, 16]),
    num_indices=st.sampled_from([64, 512, 1 << 12]),
    phi_bins=st.sampled_from([1, 8, 64]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_walk_matches_machine_small(
    kind, reduce_op, tuple_bytes, num_indices, phi_bins, data
):
    """Shrinkable streams, uniform over the namespace or over a hot range."""
    hot = data.draw(st.sampled_from([num_indices, 16, 3]))
    indices = data.draw(st.lists(st.integers(0, hot - 1), max_size=600))
    values = data.draw(
        st.lists(st.integers(0, 50), min_size=len(indices),
                 max_size=len(indices))
    )
    assert_walk_matches(kind, num_indices, tuple_bytes, reduce_op, indices,
                        values, phi_bins)


@given(
    kind=st.sampled_from(MACHINES),
    reduce_op=st.sampled_from(sorted(REDUCE_OPS)),
    tuple_bytes=st.sampled_from([8, 16]),
    skewed=st.booleans(),
    size=st.integers(0, 20_000),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_walk_matches_machine_large(kind, reduce_op, tuple_bytes, skewed,
                                    size, seed):
    """Streams long enough to fill every level and evict to memory."""
    num_indices = 1 << 14
    rng = np.random.default_rng(seed)
    if skewed:
        indices = skewed_stream(rng, num_indices, size)
    else:
        indices = rng.integers(0, num_indices, size=size)
    values = rng.integers(0, 50, size=size)
    assert_walk_matches(kind, num_indices, tuple_bytes, reduce_op,
                        indices.tolist(), values.tolist(), phi_bins=64)


@pytest.mark.parametrize("kind", MACHINES)
def test_fallback_matches_walk(kind, monkeypatch):
    """Without a compiler the machine runs the stream: same counts."""
    rng = np.random.default_rng(17)
    indices = skewed_stream(rng, 1 << 12, 8_000)
    walked = binning_counts(make_machine(kind, 1 << 12, 8, "add"), indices)
    monkeypatch.setattr(cnative, "available", lambda: False)
    machine = make_machine(kind, 1 << 12, 8, "add")
    fallback = binning_counts(machine, indices)
    assert fallback == walked
    assert fallback.lines_written == machine.memory_bins.lines_written


@pytest.fixture(params=["cnative", "fallback"])
def tier(request, monkeypatch):
    if request.param == "cnative" and not cnative.available():
        pytest.skip("no C compiler")
    if request.param == "fallback":
        monkeypatch.setattr(cnative, "available", lambda: False)
    return request.param


@pytest.mark.parametrize("kind", MACHINES)
@pytest.mark.parametrize("bad", [512, -1])
def test_out_of_range_index_raises(tier, kind, bad):
    machine = make_machine(kind, 512, 8, "add")
    with pytest.raises(IndexError, match=rf"index {bad} outside \[0, 512\)"):
        binning_counts(machine, [3, 7, bad, 9])


def test_needs_fresh_initialized_machine(tier):
    config = CobraConfig(num_indices=64, tuple_bytes=8)
    with pytest.raises(RuntimeError, match="bininit"):
        binning_counts(CobraMachine(config), [1])
    used = CobraMachine(config).bininit()
    used.binupdate(5)
    with pytest.raises(ValueError, match="freshly"):
        binning_counts(used, [1])


def test_empty_stream_counts_nothing(tier):
    for kind in MACHINES:
        counts = binning_counts(make_machine(kind, 256, 8, "add"), [])
        assert counts == BinningStats()
        assert counts.lines_written == 0


@needs_cnative
def test_too_few_buffers_rejected():
    """The C walk indexes lines by buffer id: a level whose buffers do not
    cover the namespace is refused before it could write out of bounds."""
    machine = make_machine("cobra-comm", 512, 8, "add")
    machine.levels[2].num_buffers -= 1
    with pytest.raises(ValueError, match="too few"):
        binning_counts(machine, [1, 2, 3])


@needs_cnative
def test_walk_leaves_machine_untouched():
    machine = make_machine("phi", 512, 8, "add")
    binning_counts(machine, list(range(512)) * 3)
    assert machine.stats == BinningStats()
    assert machine.memory_bins.lines_written == 0


@pytest.mark.parametrize("kind", MACHINES)
def test_stats_coalesced_mirrors_property(kind):
    machine = make_machine(kind, 512, 8, "max")
    rng = np.random.default_rng(3)
    for index in rng.integers(0, 24, size=300).tolist():
        machine.binupdate(index, index)
        assert machine.stats.coalesced == machine.coalesced
    machine.binflush()
    assert machine.stats.coalesced == machine.coalesced
    assert (kind == "cobra") == (machine.coalesced == 0)


@pytest.mark.parametrize("mode", ["phi", "cobra-comm"])
def test_runner_results_identical_across_tiers(mode, monkeypatch):
    """A PHI / COBRA-COMM point is the same on either tier."""
    workload = resolve("degree-count", "KRON", scale=11)
    walked = Runner(max_sim_events=20_000).run(workload, mode, use_cache=False)
    monkeypatch.setattr(cnative, "available", lambda: False)
    fallback = Runner(max_sim_events=20_000).run(
        workload, mode, use_cache=False
    )
    assert fallback == walked


def test_oracle_named_by_lint_rule():
    """The backend-pairing lint rule pairs the walk with its oracle."""
    from repro.analysis import rules

    assert (
        "core/binwalk.py", "binning_counts", "core/machine.py", "CobraMachine",
    ) in rules._BACKEND_PAIRS
