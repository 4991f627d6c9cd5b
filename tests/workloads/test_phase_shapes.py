"""Phase-shape invariants across every kernel in the suite.

Parametrized over all nine workloads: whatever the kernel, its phase plans
must satisfy the structural invariants the runner and the paper's model
rely on.
"""

import numpy as np
import pytest

from repro.core.config import CobraConfig
from repro.pb import BinSpec
from repro.workloads.registry import WORKLOAD_INPUTS, resolve

SCALE = 13

ALL_WORKLOADS = sorted(WORKLOAD_INPUTS)


@pytest.fixture(scope="module")
def workloads():
    return {
        name: resolve(name, WORKLOAD_INPUTS[name][0], scale=SCALE)
        for name in ALL_WORKLOADS
    }


@pytest.mark.parametrize("name", ALL_WORKLOADS)
class TestPhaseInvariants:
    def test_baseline_single_phase(self, workloads, name):
        phases = workloads[name].baseline_phases()
        assert len(phases) == 1
        assert phases[0].instructions > 0

    def test_pb_phase_order_and_volumes(self, workloads, name):
        workload = workloads[name]
        spec = BinSpec.from_num_bins(workload.num_indices, 64)
        init, binning, accumulate = workload.pb_phases(spec)
        assert (init.name, binning.name, accumulate.name) == (
            "init",
            "binning",
            "accumulate",
        )
        # Binning buffers every update at least once into C-Buffers.
        assert binning.irregular_accesses == workload.num_updates
        # Accumulate replays every update against the data region(s).
        assert accumulate.irregular_accesses >= workload.num_updates
        # The bins round-trip through DRAM: NT writes cover the stream.
        tuples_per_line = 64 // workload.tuple_bytes
        assert binning.nt_write_lines >= workload.num_updates // tuples_per_line

    def test_accumulate_is_bin_major(self, workloads, name):
        workload = workloads[name]
        spec = BinSpec.from_num_bins(workload.num_indices, 64)
        accumulate = workload.pb_phases(spec)[2]
        bins = spec.bins_of(accumulate.segments[0].indices)
        assert np.all(np.diff(bins) >= 0)

    def test_cobra_binning_invariants(self, workloads, name):
        workload = workloads[name]
        cobra = CobraConfig(
            num_indices=workload.num_indices,
            tuple_bytes=workload.tuple_bytes,
        )
        binning = workload.cobra_phases(cobra)[1]
        assert binning.segments == []  # pinned C-Buffers never miss
        assert binning.hw_write_lines > 0
        assert binning.reserved_ways == (
            cobra.l1_reserved_ways,
            cobra.l2_reserved_ways,
            cobra.llc_reserved_ways,
        )
        # binupdate replaces the software sequence: strictly fewer
        # instructions than PB Binning at any bin count.
        spec = BinSpec.from_num_bins(workload.num_indices, 64)
        sw_binning = workload.pb_phases(spec)[1]
        assert binning.instructions < sw_binning.instructions

    def test_segment_indices_in_region_bounds(self, workloads, name):
        workload = workloads[name]
        spec = BinSpec.from_num_bins(workload.num_indices, 64)
        for phase in workload.baseline_phases() + workload.pb_phases(spec):
            for segment in phase.segments:
                if len(segment.indices) == 0:
                    continue
                assert segment.indices.min() >= 0
                assert segment.indices.max() < segment.region.num_elements

    def test_branch_site_outcomes_are_boolean(self, workloads, name):
        workload = workloads[name]
        spec = BinSpec.from_num_bins(workload.num_indices, 64)
        for phase in workload.baseline_phases() + workload.pb_phases(spec):
            for site in phase.branch_sites:
                assert site.outcomes.dtype == bool
                assert site.count >= len(site.outcomes)
