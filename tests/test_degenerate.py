"""Degenerate and boundary inputs across the stack.

Tiny namespaces, empty streams, single bins: anywhere a division, shift,
or prefix sum could go wrong.
"""

import numpy as np
import pytest

from repro.core import CobraConfig, CobraMachine
from repro.graphs import EdgeList, build_csr
from repro.harness import Runner
from repro.pb import BinSpec, CBufferModel, PropagationBlocker, bin_updates, plan_bins
from repro.workloads import DegreeCount, NeighborPopulate, Pagerank


class TestEmptyStreams:
    def test_bin_updates_empty(self):
        spec = BinSpec(16, 4)
        binned, vals, offsets = bin_updates(
            np.array([], dtype=np.int64), np.array([]), spec
        )
        assert len(binned) == 0
        assert offsets[-1] == 0

    def test_cbuffer_model_empty(self):
        model = CBufferModel(BinSpec(16, 4), tuple_bytes=8)
        empty = np.array([], dtype=np.int64)
        assert model.full_events(empty).sum() == 0
        assert model.transfer_counts(empty) == (0, 0)

    def test_cobra_machine_flush_without_updates(self):
        machine = CobraMachine(CobraConfig(num_indices=64, tuple_bytes=8))
        machine.bininit()
        machine.binflush()
        assert machine.memory_bins.total_tuples == 0

    def test_empty_edge_list_workload(self):
        edges = EdgeList([], [], 8)
        workload = DegreeCount(edges)
        assert workload.num_updates == 0
        assert np.array_equal(workload.run_reference(), np.zeros(8, dtype=np.int64))
        (phase,) = workload.baseline_phases()
        assert phase.instructions == 0

    @pytest.mark.parametrize("mode", ["phi", "cobra-comm"])
    def test_empty_stream_coalescing_modes(self, mode):
        """An empty stream coalesces nothing and writes no bin line."""
        workload = DegreeCount(EdgeList([], [], 8))
        result = Runner().run(workload, mode, use_cache=False)
        binning = result.phase("binning")
        assert binning.instructions == 0
        assert binning.traffic.writes == 0
        assert result.phase("accumulate").instructions == 0


class TestSingleBin:
    def test_one_bin_covers_everything(self):
        spec = BinSpec(100, 128)
        assert spec.num_bins == 1
        indices = np.array([5, 99, 0])
        binned, _v, offsets = bin_updates(indices, None, spec)
        assert np.array_equal(binned, indices)  # order untouched
        assert offsets.tolist() == [0, 3]

    def test_blocker_with_one_bin_is_identity_order(self):
        blocker = PropagationBlocker(100, num_bins=1)
        visited = []
        blocker.execute(
            np.array([9, 2, 7]),
            np.zeros(3),
            None,
            lambda out, i, v: visited.append(i),
        )
        assert visited == [9, 2, 7]


class TestTinyNamespaces:
    def test_plan_bins_single_index(self):
        plan = plan_bins(1, 4)
        assert plan.binning_best.num_bins == 1
        assert plan.accumulate_best.num_bins == 1

    def test_cobra_config_tiny_namespace(self):
        config = CobraConfig(num_indices=4, tuple_bytes=8)
        # Everything collapses to one buffer per level.
        assert config.l1.num_buffers >= 1
        assert config.llc.num_buffers >= config.l1.num_buffers
        machine = CobraMachine(config).bininit()
        machine.binupdate_many([0, 1, 2, 3] * 5)
        machine.binflush()
        assert machine.memory_bins.total_tuples == 20

    def test_single_vertex_graph(self):
        edges = EdgeList([0, 0], [0, 0], 1)
        csr = build_csr(edges)
        assert csr.degree(0) == 2
        workload = NeighborPopulate(edges)
        built = workload.run_pb_functional(num_bins=1)
        assert np.array_equal(built.neighbors, [0, 0])

    def test_pagerank_on_self_loop(self):
        edges = EdgeList([0, 1], [0, 1], 2)
        workload = Pagerank(build_csr(edges))
        scores = workload.run_reference()
        assert scores.shape == (2,)
        assert np.isfinite(scores).all()


class TestLargeTuples:
    def test_16_byte_tuples_pack_four_per_line(self):
        config = CobraConfig(num_indices=1 << 10, tuple_bytes=16)
        assert config.tuples_per_line == 4
        machine = CobraMachine(config).bininit()
        machine.binupdate_many(list(range(8)))
        # Two L1 lines' worth inserted into the same buffer: one eviction.
        assert machine.stats.l1_evictions >= 1

    def test_one_byte_granularity_rejected(self):
        with pytest.raises(ValueError):
            CobraConfig(num_indices=16, tuple_bytes=3)
