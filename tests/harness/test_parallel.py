"""Tests for the multicore execution model."""

import pytest

from repro.harness import BASELINE, COBRA, PB_SW, Runner
from repro.harness.experiments.scaling import ParallelModel
from repro.workloads.registry import resolve

SCALE = 15


@pytest.fixture(scope="module")
def runner():
    return Runner(max_sim_events=30_000, des_sample=3_000)


@pytest.fixture(scope="module")
def model(runner):
    return ParallelModel(runner, coherence_sample=20_000)


@pytest.fixture(scope="module")
def workload():
    return resolve("pagerank", "KRON", scale=SCALE)


class TestComponents:
    def test_imbalance_one_core(self, model, workload):
        assert model.slice_imbalance(workload, 1) == 1.0

    def test_imbalance_near_one_for_even_splits(self, model, workload):
        assert 1.0 <= model.slice_imbalance(workload, 16) < 1.001

    def test_invalidation_rate_zero_on_one_core(self, model, workload):
        assert model.invalidation_rate(workload, 1) == 0.0

    def test_invalidation_rate_grows_with_cores(self, model, workload):
        two = model.invalidation_rate(workload, 2)
        sixteen = model.invalidation_rate(workload, 16)
        assert 0.0 < two < sixteen <= 1.0

    def test_invalidation_rate_bounded_by_one(self, model, workload):
        assert model.invalidation_rate(workload, 16) <= 1.0


class TestEstimates:
    def test_baseline_pays_coherence(self, model, workload):
        estimate = model.estimate(workload, BASELINE, num_cores=8)
        assert estimate.coherence_cycles > 0
        assert estimate.invalidations_per_update > 0

    def test_pb_and_cobra_are_coherence_free(self, model, workload):
        for mode in (PB_SW, COBRA):
            estimate = model.estimate(workload, mode, num_cores=8)
            assert estimate.coherence_cycles == 0
            assert estimate.invalidations_per_update == 0

    def test_more_cores_reduce_parallel_cycles(self, model, workload):
        one = model.estimate(workload, PB_SW, num_cores=1)
        eight = model.estimate(workload, PB_SW, num_cores=8)
        assert eight.parallel_cycles < one.parallel_cycles

    def test_scaling_curve_monotone_for_pb(self, model, workload):
        curve = model.scaling_curve(workload, PB_SW, core_counts=(1, 4, 16))
        cycles = [e.parallel_cycles for e in curve]
        assert cycles[0] > cycles[1] > cycles[2]

    def test_baseline_scales_worse_than_pb(self, model, workload):
        def speedup(mode):
            curve = model.scaling_curve(workload, mode, core_counts=(1, 16))
            return curve[0].parallel_cycles / curve[1].parallel_cycles

        assert speedup(PB_SW) > speedup(BASELINE)

    def test_efficiency_definition(self, model, workload):
        estimate = model.estimate(workload, PB_SW, num_cores=4)
        assert estimate.efficiency == pytest.approx(
            estimate.speedup_vs_one_core / 4
        )
