"""Planning work per point: each bin spec is grouped once.

PB-SW, PB-SW-IDEAL and COBRA each replay one full-stream Accumulate, so
each must group the update stream exactly once. The C-Buffer "buffer
full?" outcomes are built only for the predictor's sampled prefix. The
phases must still equal the construction that sorted every phase's stream
with a comparison sort and built the outcomes for the whole stream.
"""

import numpy as np
import pytest

from repro.cpu.branch import BRANCH_SAMPLE, GSharePredictor, simulate_sites
from repro.harness import COBRA, PB_SW, PB_SW_IDEAL, Runner
from repro.pb import bins as pb_bins
from repro.pb import cbuffer as pb_cbuffer
from repro.workloads import base as workload_base
from repro.workloads.registry import resolve

#: KRON@15 gives 262144 updates, more than the predictor's sample.
SCALE = 15


@pytest.fixture(scope="module")
def workload():
    workload = resolve("neighbor-populate", "KRON", scale=SCALE)
    assert workload.num_updates > BRANCH_SAMPLE
    return workload


@pytest.fixture(scope="module")
def runner():
    return Runner()


@pytest.fixture
def grouped_lengths(monkeypatch):
    """Lengths of the key arrays every ``group_order`` call groups."""
    lengths = []

    def counting(keys, num_groups):
        lengths.append(len(keys))
        return pb_bins.group_order(keys, num_groups)

    for module in (workload_base, pb_cbuffer):
        monkeypatch.setattr(module, "group_order", counting)
    return lengths


def _stable_order(bin_ids):
    return np.argsort(bin_ids, kind="stable")


def _full_events(workload, spec):
    """Every update's "buffer full?" outcome, grouped by comparison sort."""
    bin_ids = spec.bins_of(workload.update_indices)
    order = _stable_order(bin_ids)
    starts = np.zeros(spec.num_bins + 1, dtype=np.int64)
    np.cumsum(np.bincount(bin_ids, minlength=spec.num_bins), out=starts[1:])
    position = np.empty(len(bin_ids), dtype=np.int64)
    position[order] = np.arange(len(bin_ids)) - starts[bin_ids[order]]
    per_line = 64 // workload.tuple_bytes
    return position % per_line == per_line - 1


def _reference_accumulate(workload, spec):
    """Accumulate's segment arrays, replayed through a comparison sort."""
    order = _stable_order(spec.bins_of(workload.update_indices))
    return [workload.update_indices[order]] + [
        segment.indices for segment in workload.extra_accumulate_segments(order)
    ]


def _specs(runner, workload, mode):
    """(Init/Accumulate spec, Binning spec or None) of a mode."""
    plan = runner.plan(workload)
    if mode == PB_SW:
        return plan.compromise, plan.compromise
    if mode == PB_SW_IDEAL:
        return plan.accumulate_best, plan.binning_best
    return runner.cobra_config(workload).memory_bin_spec, None


@pytest.mark.parametrize("mode", [PB_SW, PB_SW_IDEAL, COBRA])
def test_each_point_groups_the_stream_once(
    runner, workload, grouped_lengths, mode
):
    runner.plan(workload)
    runner.cobra_config(workload)
    grouped_lengths.clear()
    runner._phases_for(workload, mode)
    full = [n for n in grouped_lengths if n == workload.num_updates]
    assert len(full) == 1
    # anything else grouped is the predictor's sampled prefix
    rest = [n for n in grouped_lengths if n != workload.num_updates]
    assert all(n <= BRANCH_SAMPLE for n in rest)


@pytest.mark.parametrize("mode", [PB_SW, PB_SW_IDEAL, COBRA])
def test_phases_match_the_sorted_full_stream_construction(
    runner, workload, mode
):
    phases, _ = runner._phases_for(workload, mode)
    accumulate_spec, binning_spec = _specs(runner, workload, mode)
    init, binning, accumulate = phases
    assert [p.name for p in phases] == ["init", "binning", "accumulate"]

    assert np.array_equal(
        init.segments[0].indices,
        accumulate_spec.bins_of(workload.update_indices),
    )
    expected = _reference_accumulate(workload, accumulate_spec)
    assert len(accumulate.segments) == len(expected)
    for segment, indices in zip(accumulate.segments, expected):
        assert np.array_equal(segment.indices, indices)
    assert accumulate.num_bins == accumulate_spec.num_bins

    if binning_spec is None:  # COBRA: hardware C-Buffers, no full branch
        assert "cbuffer_full" not in [s.name for s in binning.branch_sites]
        return
    assert np.array_equal(
        binning.segments[0].indices,
        binning_spec.bins_of(workload.update_indices),
    )
    site = binning.branch_sites[0]
    full = _full_events(workload, binning_spec)
    assert site.name == "cbuffer_full"
    assert site.count == len(full) == workload.num_updates
    assert np.array_equal(site.outcomes, full[:BRANCH_SAMPLE])
    reference = type(site)(site.name, site.pc, full)
    assert simulate_sites([site], GSharePredictor()) == simulate_sites(
        [reference], GSharePredictor()
    )
