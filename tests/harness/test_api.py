"""Tests for the ``repro.api`` facade: structured results and modes."""

import dataclasses
import json

import pytest

from repro.api import (
    PROVENANCE_DISK,
    PROVENANCE_JOURNAL,
    PROVENANCE_SIMULATED,
    ExecutionMode,
    PhaseResult,
    RunResult,
    Runner,
    resolve_workload,
)
from repro.cpu.counters import PhaseCounters, RunCounters
from repro.harness import modes

SCALE = 15


@pytest.fixture(scope="module")
def runner():
    return Runner(max_sim_events=20_000)


@pytest.fixture(scope="module")
def workload():
    return resolve_workload(f"degree-count/KRON@{SCALE}")


@pytest.fixture(scope="module")
def result(runner, workload):
    return runner.run(workload, modes.PB_SW, use_cache=False)


class TestExecutionMode:
    def test_members_are_their_strings(self):
        assert ExecutionMode.COBRA == "cobra"
        assert str(ExecutionMode.COBRA) == "cobra"
        assert json.dumps(ExecutionMode.COBRA) == '"cobra"'

    def test_hashes_by_value(self):
        assert hash(ExecutionMode.PHI) == hash("phi")
        assert "phi" in {ExecutionMode.PHI}
        assert ExecutionMode.PHI in {"phi"}

    def test_coerce_accepts_strings_and_members(self):
        assert ExecutionMode.coerce("cobra") is ExecutionMode.COBRA
        assert ExecutionMode.coerce(ExecutionMode.COBRA) is ExecutionMode.COBRA

    def test_coerce_rejects_unknown_with_listing(self):
        with pytest.raises(ValueError, match="unknown mode") as excinfo:
            ExecutionMode.coerce("warp-speed")
        message = str(excinfo.value)
        for mode in modes.ALL_MODES:
            assert str(mode) in message

    def test_module_constants_are_members(self):
        assert modes.BASELINE is ExecutionMode.BASELINE
        assert all(isinstance(m, ExecutionMode) for m in modes.ALL_MODES)

    def test_runner_rejects_unknown_mode(self, runner, workload):
        with pytest.raises(ValueError, match="unknown mode"):
            runner.run(workload, "definitely-not-a-mode")


class TestPhaseResult:
    def test_frozen(self, result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.phases[0].cycles = 0.0

    def test_engine_tag_present_on_traced_phases(self, result):
        traced = [p for p in result.phases if p.engine is not None]
        assert traced, "at least one phase should run a trace"
        assert all(p.engine in ("batch", "fast") for p in traced)

    def test_engine_excluded_from_equality(self, result):
        phase = result.phases[0]
        twin = dataclasses.replace(phase, engine="fast")
        other = dataclasses.replace(phase, engine="batch")
        assert twin == other

    def test_derived_properties(self, result):
        phase = next(p for p in result.phases if p.cycles)
        assert phase.ipc == pytest.approx(phase.instructions / phase.cycles)
        assert phase.mpki == pytest.approx(
            1000.0 * phase.branch_mispredicts / phase.instructions
        )
        combined = phase.demand_service
        assert combined.total == (
            phase.irregular_service.total + phase.streaming_service.total
        )

    def test_counters_shim_roundtrip(self, result):
        phase = result.phases[0]
        legacy = phase.as_counters()
        assert isinstance(legacy, PhaseCounters)
        back = PhaseResult.from_counters(legacy, engine=phase.engine)
        assert back == phase


class TestRunResult:
    def test_provenance_fresh_run(self, result):
        assert result.provenance == PROVENANCE_SIMULATED

    def test_provenance_excluded_from_equality(self, result):
        warm = dataclasses.replace(result, provenance=PROVENANCE_DISK)
        assert warm == result

    def test_engine_aggregate(self, result):
        engines = {p.engine for p in result.phases if p.engine is not None}
        if len(engines) == 1:
            assert result.engine == next(iter(engines))
        else:
            assert result.engine == "mixed"
        untraced = RunResult(workload="w", mode="baseline", phases=())
        assert untraced.engine is None

    def test_phase_lookup(self, result):
        assert result.has_phase("binning")
        assert result.phase("binning").name == "binning"
        with pytest.raises(KeyError):
            result.phase("warmup")
        assert not result.has_phase("warmup")

    def test_aggregates_sum_phases(self, result):
        assert result.cycles == pytest.approx(
            sum(p.cycles for p in result.phases)
        )
        assert result.instructions == sum(p.instructions for p in result.phases)
        assert result.traffic.total_lines == sum(
            p.traffic.total_lines for p in result.phases
        )

    def test_dict_shim_roundtrips(self, result):
        payload = result.as_dict()
        json.dumps(payload)  # JSON-safe
        back = RunResult.from_dict(payload)
        assert back == result
        assert back.provenance == PROVENANCE_DISK
        journal = RunResult.from_dict(payload, provenance=PROVENANCE_JOURNAL)
        assert journal.provenance == PROVENANCE_JOURNAL
        # engine tags survive serialization even though they don't compare
        assert [p.engine for p in back.phases] == [
            p.engine for p in result.phases
        ]

    def test_legacy_counters_shim(self, result):
        legacy = result.as_counters()
        assert isinstance(legacy, RunCounters)
        assert legacy.cycles == pytest.approx(result.cycles)
        assert RunResult.from_counters(legacy) == result

    def test_from_counters_tags_provenance(self):
        legacy = RunCounters(workload="w", mode="baseline", phases=[])
        assert (
            RunResult.from_counters(legacy, provenance=PROVENANCE_JOURNAL)
        ).provenance == PROVENANCE_JOURNAL


class TestRunnerReturnsRunResult:
    def test_run(self, result):
        assert isinstance(result, RunResult)
        assert result.mode == "pb-sw"

    def test_mode_member_and_string_share_memo(self, runner, workload):
        by_member = runner.run(workload, ExecutionMode.COBRA)
        by_string = runner.run(workload, "cobra")
        assert by_member is by_string

    def test_run_characterization_unified(self, runner, workload):
        # regression: characterization flows through the same RunResult
        # shape as every other mode (it used to build counters ad hoc)
        char = runner.run_characterization(workload, use_cache=False)
        assert isinstance(char, RunResult)
        assert char.mode == "characterization"
        assert char.provenance == PROVENANCE_SIMULATED
        assert char.phases and all(
            isinstance(p, PhaseResult) for p in char.phases
        )
        assert char.irregular_service.total > 0

    def test_run_with_spec(self, runner, workload):
        from repro.pb.bins import BinSpec

        spec = BinSpec.from_num_bins(workload.num_indices, 64)
        res = runner.run_with_spec(workload, spec, include_init=False)
        assert isinstance(res, RunResult)
        assert res.mode == f"pb@{spec.num_bins}"

    def test_run_many_serial(self, runner, workload):
        results = runner.run_many([(workload, modes.BASELINE)])
        assert len(results) == 1
        assert isinstance(results[0], RunResult)

    def test_disk_cache_read_is_tagged_and_equal(self, tmp_path, workload):
        from repro.harness.resultcache import ResultCache

        first = Runner(
            max_sim_events=20_000, result_cache=ResultCache(tmp_path)
        ).run(workload, modes.BASELINE)
        second = Runner(
            max_sim_events=20_000, result_cache=ResultCache(tmp_path)
        ).run(workload, modes.BASELINE)
        assert second == first
        assert first.provenance == PROVENANCE_SIMULATED
        assert second.provenance == PROVENANCE_DISK


class TestExperimentRuns:
    def test_driver_exposes_run_results(self):
        from repro.api import run_experiment

        outcome = run_experiment("fig04", scale=14, bin_counts=(64, 256))
        assert len(outcome.runs) == 2
        assert all(isinstance(r, RunResult) for r in outcome.runs)

    def test_unknown_experiment(self):
        from repro.api import run_experiment

        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")
