"""Tests for the experiment runner (small-scale end-to-end)."""

import pytest

from repro.harness import (
    BASELINE,
    COBRA,
    COBRA_COMM,
    PB_SW,
    PHI,
    Runner,
)
from repro.pb import BinSpec
from repro.workloads.registry import resolve

SCALE = 16


@pytest.fixture(scope="module")
def runner():
    return Runner(max_sim_events=50_000, des_sample=5_000)


@pytest.fixture(scope="module")
def degree_count(runner):
    return resolve("degree-count", "KRON", scale=SCALE)


@pytest.fixture(scope="module")
def neighbor_populate(runner):
    return resolve("neighbor-populate", "KRON", scale=SCALE)


class TestModes:
    def test_baseline_single_phase(self, runner, degree_count):
        counters = runner.run(degree_count, BASELINE)
        assert [p.name for p in counters.phases] == ["main"]
        assert counters.cycles > 0

    def test_pb_three_phases(self, runner, degree_count):
        counters = runner.run(degree_count, PB_SW)
        assert [p.name for p in counters.phases] == [
            "init",
            "binning",
            "accumulate",
        ]

    def test_cobra_three_phases(self, runner, degree_count):
        counters = runner.run(degree_count, COBRA)
        assert [p.name for p in counters.phases] == [
            "init",
            "binning",
            "accumulate",
        ]
        # Hardware binning: no cache-visible irregular accesses.
        assert counters.phase("binning").irregular_service.total == 0

    def test_speedup_ordering(self, runner, degree_count):
        base = runner.run(degree_count, BASELINE).cycles
        pb = runner.run(degree_count, PB_SW).cycles
        cobra = runner.run(degree_count, COBRA).cycles
        assert base > pb > cobra

    def test_commutative_modes_on_commutative_workload(
        self, runner, degree_count
    ):
        for mode in (PHI, COBRA_COMM):
            counters = runner.run(degree_count, mode)
            assert counters.cycles > 0

    def test_commutative_modes_rejected_for_noncommutative(
        self, runner, neighbor_populate
    ):
        for mode in (PHI, COBRA_COMM):
            with pytest.raises(ValueError, match="commutative"):
                runner.run(neighbor_populate, mode)

    def test_unknown_mode_rejected(self, runner, degree_count):
        with pytest.raises(ValueError, match="unknown mode"):
            runner.run(degree_count, "warp-drive")


class TestCaching:
    def test_results_memoized(self, runner, degree_count):
        first = runner.run(degree_count, BASELINE)
        second = runner.run(degree_count, BASELINE)
        assert first is second

    def test_cache_bypass(self, runner, degree_count):
        first = runner.run(degree_count, BASELINE)
        fresh = runner.run(degree_count, BASELINE, use_cache=False)
        assert fresh is not first
        assert fresh.cycles == pytest.approx(first.cycles, rel=0.05)


class TestRunWithSpec:
    def test_bin_count_tension(self, runner, neighbor_populate):
        """The Figure 4 shape: more bins slow Binning, speed Accumulate."""
        few = BinSpec.from_num_bins(neighbor_populate.num_indices, 16)
        many = BinSpec.from_num_bins(neighbor_populate.num_indices, 2048)
        few_run = runner.run_with_spec(neighbor_populate, few, include_init=False)
        many_run = runner.run_with_spec(neighbor_populate, many, include_init=False)
        assert (
            few_run.phase("binning").cycles < many_run.phase("binning").cycles
        )
        assert (
            few_run.phase("accumulate").cycles
            > many_run.phase("accumulate").cycles
        )


class TestCharacterization:
    def test_intsort_characterization_differs_from_baseline(self, runner):
        workload = resolve("integer-sort", "U16", scale=SCALE)
        baseline = runner.run(workload, BASELINE)
        character = runner.run_characterization(workload)
        assert baseline.phase("main").irregular_service.total == 0
        assert character.phase("main").irregular_service.total > 0

    def test_high_llc_missrate_for_irregular_baseline(self, runner, degree_count):
        """Figure 2's claim at test scale: irregular updates miss the LLC."""
        counters = runner.run_characterization(degree_count)
        assert counters.irregular_service.llc_miss_rate > 0.3


class TestPhaseAccounting:
    def test_traffic_nonzero(self, runner, degree_count):
        counters = runner.run(degree_count, PB_SW)
        assert counters.traffic.reads > 0
        assert counters.traffic.writes > 0

    def test_pb_binning_has_mispredicts(self, runner, degree_count):
        binning = runner.run(degree_count, PB_SW).phase("binning")
        assert binning.branch_mispredicts > 0

    def test_cobra_binning_has_no_cbuffer_mispredicts(
        self, runner, degree_count
    ):
        binning = runner.run(degree_count, COBRA).phase("binning")
        assert binning.branch_mispredicts == 0


class TestSampleBudgets:
    """Non-positive sample budgets are rejected up front: 0 divides by
    zero at every PHI/COBRA-COMM point and a negative one slices from
    the end of the stream."""

    @pytest.mark.parametrize("value", [0, -5])
    def test_max_sim_events_rejected(self, value):
        with pytest.raises(ValueError, match="max_sim_events"):
            Runner(max_sim_events=value)

    @pytest.mark.parametrize("value", [0, -5])
    def test_des_sample_rejected(self, value):
        with pytest.raises(ValueError, match="des_sample"):
            Runner(des_sample=value)

    @pytest.mark.parametrize("value", [0, -5])
    def test_comm_sample_rejected(self, value):
        with pytest.raises(ValueError, match="comm_sample"):
            Runner(comm_sample=value)
