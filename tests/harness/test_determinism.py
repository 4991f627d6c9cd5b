"""Determinism: identical configurations must reproduce identical numbers.

Every experiment in this repository is exactly reproducible — inputs are
seeded, the simulators are deterministic, and branch sampling uses fixed
prefixes. Regressions here would make EXPERIMENTS.md unverifiable.
"""

import pytest

from repro.harness import BASELINE, COBRA, PB_SW, Runner
from repro.workloads.registry import resolve

SCALE = 15


@pytest.fixture(scope="module")
def workload():
    return resolve("degree-count", "KRON", scale=SCALE)


class TestRunnerDeterminism:
    @pytest.mark.parametrize("mode", [BASELINE, PB_SW, COBRA])
    def test_fresh_runners_agree_exactly(self, workload, mode):
        first = Runner(max_sim_events=30_000, des_sample=3_000).run(
            workload, mode
        )
        second = Runner(max_sim_events=30_000, des_sample=3_000).run(
            workload, mode
        )
        assert first.cycles == second.cycles
        assert first.instructions == second.instructions
        assert first.branch_mispredicts == second.branch_mispredicts
        for a, b in zip(first.phases, second.phases):
            assert a.irregular_service.as_dict() == b.irregular_service.as_dict()
            assert a.traffic.reads == b.traffic.reads
            assert a.traffic.writes == b.traffic.writes

    def test_inputs_are_seeded(self):
        a = resolve("pagerank", "URND", scale=SCALE)
        b = resolve("pagerank", "URND", scale=SCALE)
        assert a is b  # cached
        # And rebuilding from scratch gives the same stream.
        from repro.graphs import build_csr, uniform_random

        edges = uniform_random(1 << SCALE, (1 << SCALE) * 8, seed=303)
        assert (build_csr(edges).neighbors == a.graph.neighbors).all()

    def test_des_model_deterministic(self, workload):
        from repro.des import EvictionBufferModel, EvictionModelConfig

        config = EvictionModelConfig(
            num_indices=workload.num_indices,
            l1_buffers=16,
            l2_buffers=64,
            llc_buffers=512,
        )
        trace = workload.update_indices[:5_000]
        a = EvictionBufferModel(config).run(trace)
        b = EvictionBufferModel(config).run(trace)
        assert a.total_cycles == b.total_cycles
        assert a.core_stall_cycles == b.core_stall_cycles
        assert a.evictions == b.evictions
