"""Tests for the sweep executor, Runner.run_many, and engine selection."""

import dataclasses

import numpy as np
import pytest

from repro.cache.coherence import DirectoryMESI
from repro.harness import Runner
from repro.harness.experiments.scaling import ParallelModel
from repro.harness.machine import DEFAULT_MACHINE
from repro.harness.modes import BASELINE, CHARACTERIZATION, COBRA, PB_SW
from repro.harness.parallel import run_sweep
from repro.workloads.registry import resolve

SCALE = 13

BATCHABLE_MACHINE = dataclasses.replace(
    DEFAULT_MACHINE,
    hierarchy=dataclasses.replace(
        DEFAULT_MACHINE.hierarchy, prefetch=False, llc_policy="plru"
    ),
)


@pytest.fixture(scope="module")
def points():
    graph = resolve("degree-count", "KRON", scale=SCALE)
    sort = resolve("integer-sort", "U16", scale=SCALE)
    return [
        (graph, BASELINE),
        (graph, PB_SW),
        (graph, CHARACTERIZATION),
        (sort, BASELINE),
        (sort, COBRA),
    ]


class TestRunMany:
    def test_serial_matches_parallel(self, points):
        """The process-pool path must return the exact serial results, in
        input order (workers rebuild workloads from cache keys)."""
        serial = Runner(max_sim_events=20_000).run_many(points)
        parallel = Runner(max_sim_events=20_000).run_many(points, jobs=2)
        assert len(parallel) == len(points)
        for expected, actual in zip(serial, parallel):
            assert actual == expected

    def test_results_fold_back_into_memo(self, points):
        runner = Runner(max_sim_events=20_000)
        results = runner.run_many(points[:2], jobs=2)
        # A subsequent serial run must be a memo hit (identical object).
        assert runner.run(*points[0]) is results[0]
        assert runner.run(*points[1]) is results[1]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_non_positive_jobs_rejected(self, points, jobs, tmp_path):
        """jobs < 1 is an error on every path, with or without a
        checkpoint, instead of silently running serially."""
        from repro.harness.checkpoint import SweepCheckpoint

        runner = Runner(max_sim_events=20_000)
        with pytest.raises(ValueError, match="jobs must be positive"):
            runner.run_many(points[:2], jobs=jobs)
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points[:2])
        with pytest.raises(ValueError, match="jobs must be positive"):
            runner.run_many(points[:2], jobs=jobs, checkpoint=checkpoint)

    def test_jobs_one_is_serial(self, points):
        runner = Runner(max_sim_events=20_000)
        results = runner.run_many(points[:2], jobs=1)
        assert [r.mode for r in results] == [points[0][1], points[1][1]]

    def test_sweep_requires_cache_keys(self):
        runner = Runner(max_sim_events=20_000)
        workload = resolve("degree-count", "KRON", scale=SCALE)

        class Anonymous:
            name = "anon"

            def __getattr__(self, item):
                if item == "cache_key":
                    raise AttributeError(item)
                return getattr(workload, item)

        with pytest.raises(ValueError, match="cache_key"):
            run_sweep(runner, [(Anonymous(), BASELINE)], jobs=2)
        with pytest.raises(ValueError, match="cache_key"):
            runner.run_many([(Anonymous(), BASELINE)], jobs=2)

    def test_spawn_spec_roundtrip(self):
        runner = Runner(
            machine=BATCHABLE_MACHINE, max_sim_events=12_345, engine="batch"
        )
        clone = Runner.from_spec(runner.spawn_spec())
        assert clone.machine == runner.machine
        assert clone.max_sim_events == 12_345
        assert clone.engine == "batch"
        assert clone.result_cache is None


class TestPoolSizing:
    def _forbid_pools(self, monkeypatch):
        from repro.harness import parallel

        def explode(*args, **kwargs):
            raise AssertionError("a process pool must not be built")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", explode)

    def test_empty_points_short_circuit(self, monkeypatch):
        """An empty sweep returns no results without touching the pool
        machinery."""
        self._forbid_pools(monkeypatch)
        runner = Runner(max_sim_events=20_000)
        outcome = run_sweep(runner, [], jobs=8)
        assert outcome.ok and outcome.results == []
        assert runner.run_many([], jobs=8) == []

    def test_jobs_clamped_to_point_count(self, monkeypatch, points):
        """jobs > len(points) must never build an oversized pool."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.harness import parallel

        seen = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
        serial = Runner(max_sim_events=20_000).run_many(points[:2])
        outcome = run_sweep(
            Runner(max_sim_events=20_000), points[:2], jobs=16
        )
        assert seen == [2]
        assert outcome.results == serial

    def test_single_point_sweep_runs_in_process(self, monkeypatch, points):
        """One point with many jobs clamps to the serial path: no pool."""
        self._forbid_pools(monkeypatch)
        runner = Runner(max_sim_events=20_000)
        (result,) = run_sweep(runner, points[:1], jobs=8).results
        assert result.mode == points[0][1]

    def test_checkpoint_splices_and_journals(self, tmp_path, points):
        """run_sweep with a checkpoint must skip journaled points and
        journal the rest."""
        from repro.harness.checkpoint import SweepCheckpoint

        serial = Runner(max_sim_events=20_000).run_many(points)
        runner = Runner(max_sim_events=20_000)
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points)
        checkpoint.record(0, serial[0])
        checkpoint.record(3, serial[3])
        outcome = run_sweep(runner, points, jobs=2, checkpoint=checkpoint)
        assert outcome.results == serial
        assert sorted(checkpoint.completed_counters()) == [0, 1, 2, 3, 4]
        assert checkpoint.status == "completed"


class TestEngineSelection:
    def test_engines_agree_end_to_end(self):
        """Full-pipeline equivalence: the batched and scalar engines must
        produce identical phase counters on a batchable machine."""
        workload = resolve("degree-count", "KRON", scale=SCALE)
        fast = Runner(
            machine=BATCHABLE_MACHINE, max_sim_events=20_000, engine="fast"
        )
        batch = Runner(
            machine=BATCHABLE_MACHINE, max_sim_events=20_000, engine="batch"
        )
        for mode in (BASELINE, PB_SW, COBRA):
            assert batch.run(workload, mode) == fast.run(workload, mode)

    def test_batch_engine_rejects_unbatchable_machine(self):
        unbatchable = dataclasses.replace(
            DEFAULT_MACHINE,
            hierarchy=dataclasses.replace(
                DEFAULT_MACHINE.hierarchy, llc_policy="random"
            ),
        )
        with pytest.raises(ValueError, match="batch"):
            Runner(machine=unbatchable, engine="batch")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            Runner(engine="warp")

    def test_auto_on_default_machine_uses_batch(self):
        """The default machine (DRRIP LLC + prefetch) is batchable now that
        the kernels cover set dueling and prefetch gating."""
        from repro.cache.batchsim import BatchHierarchy

        runner = Runner()
        hierarchy = runner._make_hierarchy(runner.machine.hierarchy)
        assert isinstance(hierarchy, BatchHierarchy)

    def test_auto_emits_scalar_fallback_telemetry(self, tmp_path, monkeypatch):
        """A config the batched engine rejects degrades to the scalar
        engine and reports why. Every shipped policy is batchable now, so
        the rejection is simulated — the path guards future policies."""
        from repro.cache.batchsim import BatchHierarchy
        from repro.cache.fastsim import FastHierarchy
        from repro.harness.telemetry import JsonlTelemetry, read_events

        monkeypatch.setattr(
            BatchHierarchy,
            "reject_reason",
            staticmethod(lambda config: "unknown llc replacement policy"),
        )
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        runner = Runner(telemetry=sink)
        hierarchy = runner._make_hierarchy(runner.machine.hierarchy)
        sink.close()
        assert isinstance(hierarchy, FastHierarchy)
        fallbacks = [
            e
            for e in read_events(tmp_path / "t.jsonl")
            if e["event"] == "scalar_fallback"
        ]
        assert len(fallbacks) == 1
        assert "policy" in fallbacks[0]["reason"]

    def test_auto_on_batchable_machine_uses_batch(self):
        from repro.cache.batchsim import BatchHierarchy

        runner = Runner(machine=BATCHABLE_MACHINE)
        hierarchy = runner._make_hierarchy(runner.machine.hierarchy)
        assert isinstance(hierarchy, BatchHierarchy)


class TestInvalidationRate:
    def test_closed_form_matches_directory_replay(self):
        """The vectorized invalidation count must equal feeding the MESI
        directory the same round-robin write stream."""
        rng = np.random.default_rng(42)
        indices = rng.integers(0, 4096, size=20_000)
        workload = type(
            "W", (), {"update_indices": indices, "num_updates": indices.size}
        )()
        model = ParallelModel(Runner(), coherence_sample=20_000)
        for num_cores in (2, 4, 16):
            rate = model.invalidation_rate(workload, num_cores)
            directory = DirectoryMESI(num_cores)
            for position, line in enumerate((indices // 16).tolist()):
                directory.write(position % num_cores, line)
            assert rate == directory.stats.invalidations / indices.size
