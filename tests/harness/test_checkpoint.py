"""Tests for sweep checkpoint/resume, graceful shutdown, and heartbeats."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.harness import Runner
from repro.harness.checkpoint import (
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    SweepCheckpoint,
    _atomic_write_json,
    content_id,
    format_runs,
    list_runs,
)
from repro.harness.faults import (
    FaultInjector,
    FaultPolicy,
    SweepInterrupted,
    run_sweep_resilient,
)
from repro.harness.inputs import make_workload
from repro.harness.modes import BASELINE, PB_SW
from repro.harness.telemetry import JsonlTelemetry, read_events

SCALE = 13


@pytest.fixture(scope="module")
def points():
    graph = make_workload("degree-count", "KRON", scale=SCALE)
    sort = make_workload("integer-sort", "U16", scale=SCALE)
    return [(graph, BASELINE), (graph, PB_SW), (sort, BASELINE)]


@pytest.fixture(scope="module")
def serial_results(points):
    return Runner(max_sim_events=20_000).run_many(points)


def fresh_runner():
    return Runner(max_sim_events=20_000)


class RecordingTelemetry:
    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append({"event": event, **fields})

    def emit_timed(self, event, duration_s, **fields):
        self.emit(
            event,
            duration_s=float(duration_s),
            seconds=float(duration_s),
            **fields,
        )

    def of(self, name):
        return [e for e in self.events if e["event"] == name]

    def flush(self):
        pass

    def close(self):
        pass


class TestContentId:
    def test_stable_and_key_order_independent(self):
        one = content_id({"a": 1, "b": [2, 3]})
        assert content_id({"b": [2, 3], "a": 1}) == one
        assert content_id({"a": 1, "b": [2, 4]}) != one
        assert len(one) == 12
        assert len(content_id({"a": 1}, length=16)) == 16


class TestAtomicWriteDurability:
    def test_fsync_before_rename(self, tmp_path, monkeypatch):
        """The temp file must be fsync'd before the rename publishes it,
        or a power loss can leave the *renamed* file empty."""
        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (order.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (order.append("replace"), real_replace(a, b)),
        )
        target = tmp_path / "status.json"
        _atomic_write_json(target, {"a": 1})
        assert order == ["fsync", "replace"]
        assert json.loads(target.read_text("utf-8")) == {"a": 1}


class TestJournal:
    def test_roundtrip_bit_identical(self, tmp_path, points, serial_results):
        runner = fresh_runner()
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points)
        for index, counters in enumerate(serial_results):
            checkpoint.record(index, counters)
        checkpoint.close()

        reloaded = SweepCheckpoint.load(tmp_path, checkpoint.run_id)
        completed = reloaded.completed_counters()
        assert sorted(completed) == [0, 1, 2]
        for index, expected in enumerate(serial_results):
            assert completed[index] == expected

    def test_attach_is_content_addressed(self, tmp_path, points):
        first = SweepCheckpoint.attach(tmp_path, fresh_runner(), points)
        again = SweepCheckpoint.attach(tmp_path, fresh_runner(), points)
        assert again.run_id == first.run_id
        assert again.run_dir == first.run_dir

        other_config = SweepCheckpoint.attach(
            tmp_path, Runner(max_sim_events=10_000), points
        )
        assert other_config.run_id != first.run_id
        other_points = SweepCheckpoint.attach(
            tmp_path, fresh_runner(), points[:2]
        )
        assert other_points.run_id != first.run_id

    def test_corrupt_lines_skipped_with_warning(
        self, tmp_path, points, serial_results
    ):
        runner = fresh_runner()
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points)
        checkpoint.record(0, serial_results[0])
        checkpoint.record(1, serial_results[1])
        checkpoint.close()

        journal = checkpoint.run_dir / "journal.jsonl"
        good = journal.read_text("utf-8").splitlines()
        bad_index = json.loads(good[0])
        bad_index["index"] = 99
        bad_digest = json.loads(good[1])
        bad_digest["digest"] = "0" * 64
        journal.write_text(
            "\n".join(
                [
                    good[0],
                    "not json at all",
                    json.dumps(bad_index),
                    json.dumps(bad_digest),
                    good[1][: len(good[1]) // 2],  # torn final write
                ]
            )
            + "\n",
            "utf-8",
        )

        telemetry = RecordingTelemetry()
        reloaded = SweepCheckpoint.load(tmp_path, checkpoint.run_id, telemetry)
        completed = reloaded.completed_counters()
        assert sorted(completed) == [0]
        assert completed[0] == serial_results[0]
        assert len(telemetry.of("journal_corrupt")) == 4

    def test_verify_detects_config_change(self, tmp_path, points):
        checkpoint = SweepCheckpoint.attach(tmp_path, fresh_runner(), points)
        checkpoint.verify(fresh_runner())  # same config: fine
        with pytest.raises(ValueError, match="digest mismatch"):
            checkpoint.verify(Runner(max_sim_events=10_000))

    def test_points_rebuilds_workloads(self, tmp_path, points):
        checkpoint = SweepCheckpoint.attach(tmp_path, fresh_runner(), points)
        rebuilt = checkpoint.points()
        assert [
            (w.cache_key, mode) for w, mode in rebuilt
        ] == [(w.cache_key, mode) for w, mode in points]

    def test_load_missing_run_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no checkpointed run"):
            SweepCheckpoint.load(tmp_path, "deadbeef0000")

    def test_missing_cache_key_rejected(self, tmp_path):
        class Anonymous:
            name = "anon"

        with pytest.raises(ValueError, match="cache_key"):
            SweepCheckpoint.attach(
                tmp_path, fresh_runner(), [(Anonymous(), BASELINE)]
            )


class TestResume:
    def test_resume_runs_only_pending_points(
        self, tmp_path, points, serial_results
    ):
        """Journaled points must be spliced back bit-identically; only the
        missing point may be scheduled."""
        runner = fresh_runner()
        telemetry = RecordingTelemetry()
        checkpoint = SweepCheckpoint.attach(
            tmp_path, runner, points, telemetry=telemetry
        )
        checkpoint.record(0, serial_results[0])
        checkpoint.record(2, serial_results[2])

        outcome = run_sweep_resilient(
            runner,
            points,
            jobs=2,
            telemetry=telemetry,
            injector=FaultInjector(),
            checkpoint=checkpoint,
        )
        assert outcome.ok
        assert outcome.run_id == checkpoint.run_id
        for expected, actual in zip(serial_results, outcome.results):
            assert actual == expected
        (restored,) = telemetry.of("points_restored")
        assert restored["restored"] == 2
        scheduled = {e["point"] for e in telemetry.of("point_scheduled")}
        assert scheduled == {points[1][0].cache_key}
        assert checkpoint.status == STATUS_COMPLETED
        assert sorted(checkpoint.completed_counters()) == [0, 1, 2]

    def test_run_many_journals_and_matches_serial(
        self, tmp_path, points, serial_results
    ):
        runner = fresh_runner()
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points)
        results = runner.run_many(points, jobs=2, checkpoint=checkpoint)
        assert results == serial_results
        assert sorted(checkpoint.completed_counters()) == [0, 1, 2]
        assert checkpoint.status == STATUS_COMPLETED

    def test_serial_checkpointed_sweep_journals(
        self, tmp_path, points, serial_results
    ):
        runner = fresh_runner()
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points)
        results = runner.run_many(points, jobs=1, checkpoint=checkpoint)
        assert results == serial_results
        assert sorted(checkpoint.completed_counters()) == [0, 1, 2]


class _FakeShutdown:
    """Pre-latched shutdown: the sweep sees the signal before point one."""

    def __init__(self):
        self.requested = True
        self.signum = signal.SIGTERM


class TestGracefulShutdown:
    def test_pre_latched_shutdown_interrupts_serial_sweep(
        self, tmp_path, points
    ):
        runner = fresh_runner()
        telemetry = RecordingTelemetry()
        checkpoint = SweepCheckpoint.attach(
            tmp_path, runner, points, telemetry=telemetry
        )
        outcome = run_sweep_resilient(
            runner,
            points,
            jobs=1,
            telemetry=telemetry,
            injector=FaultInjector(),
            checkpoint=checkpoint,
            shutdown=_FakeShutdown(),
        )
        assert outcome.interrupted
        assert not outcome.ok
        assert outcome.completed == 0
        assert checkpoint.status == STATUS_INTERRUPTED
        assert telemetry.of("sweep_interrupted")

    def test_run_many_raises_sweep_interrupted(self, tmp_path, points):
        runner = fresh_runner()
        checkpoint = SweepCheckpoint.attach(tmp_path, runner, points)
        from repro.harness import faults

        original = faults.run_sweep_resilient

        def pre_latched(*args, **kwargs):
            kwargs["shutdown"] = _FakeShutdown()
            return original(*args, **kwargs)

        faults_run = faults.run_sweep_resilient
        try:
            faults.run_sweep_resilient = pre_latched
            with pytest.raises(SweepInterrupted, match="repro resume"):
                runner.run_many(points, jobs=1, checkpoint=checkpoint)
        finally:
            faults.run_sweep_resilient = faults_run


_CHILD_SCRIPT = """
import sys

from repro.harness import Runner
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.faults import (
    FaultInjector,
    FaultPolicy,
    run_sweep_resilient,
)
from repro.harness.inputs import make_workload
from repro.harness.modes import BASELINE, PB_SW
from repro.harness.telemetry import JsonlTelemetry

root, telemetry_path, state_dir = sys.argv[1:4]
graph = make_workload("degree-count", "KRON", scale={scale})
sort = make_workload("integer-sort", "U16", scale={scale})
points = [(graph, BASELINE), (graph, PB_SW), (sort, BASELINE)]
runner = Runner(max_sim_events=20_000)
telemetry = JsonlTelemetry(telemetry_path)
runner.telemetry = telemetry
checkpoint = SweepCheckpoint.attach(
    root, runner, points, label="signal-test", telemetry=telemetry
)
injector = FaultInjector(
    stall=frozenset({{FaultInjector.token(sort.cache_key, BASELINE)}}),
    stall_seconds=600.0,
    state_dir=state_dir,
)
outcome = run_sweep_resilient(
    runner,
    points,
    jobs=2,
    policy=FaultPolicy(timeout=600.0, retries=0, drain_seconds=0.2),
    telemetry=telemetry,
    injector=injector,
    checkpoint=checkpoint,
    handle_signals=True,
)
sys.exit(130 if outcome.interrupted else 0)
"""


def _spawn_stalling_sweep(tmp_path):
    """Start a subprocess sweep whose third point stalls forever."""
    script = tmp_path / "child.py"
    script.write_text(_CHILD_SCRIPT.format(scale=SCALE), "utf-8")
    root = tmp_path / "runs"
    telemetry_path = tmp_path / "child-telemetry.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env.pop("REPRO_FAULT_INJECT", None)
    child = subprocess.Popen(
        [
            sys.executable,
            str(script),
            str(root),
            str(telemetry_path),
            str(tmp_path / "state"),
        ],
        env=env,
    )
    return child, root


def _wait_for_journal(root, lines, deadline=120.0):
    """Block until some run journal under ``root`` has ``lines`` entries."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        for journal in root.glob("*/journal.jsonl"):
            count = len(journal.read_text("utf-8").splitlines())
            if count >= lines:
                return journal.parent.name
        time.sleep(0.05)
    raise AssertionError(f"no journal reached {lines} lines in {deadline}s")


@pytest.mark.slow
class TestKilledParent:
    def _resume_and_check(self, root, run_id, points, serial_results):
        """Resume a killed run; only the stalled point may be re-run."""
        runner = fresh_runner()
        telemetry = RecordingTelemetry()
        checkpoint = SweepCheckpoint.load(root, run_id, telemetry=telemetry)
        checkpoint.verify(runner)
        assert [
            (w.cache_key, m) for w, m in checkpoint.points()
        ] == [(w.cache_key, m) for w, m in points]
        outcome = run_sweep_resilient(
            runner,
            points,
            jobs=2,
            telemetry=telemetry,
            injector=FaultInjector(),
            checkpoint=checkpoint,
        )
        assert outcome.ok
        for expected, actual in zip(serial_results, outcome.results):
            assert actual == expected
        scheduled = {e["point"] for e in telemetry.of("point_scheduled")}
        assert scheduled == {points[2][0].cache_key}
        assert checkpoint.status == STATUS_COMPLETED

    def test_sigterm_drains_and_resume_completes(
        self, tmp_path, points, serial_results
    ):
        child, root = _spawn_stalling_sweep(tmp_path)
        try:
            run_id = _wait_for_journal(root, lines=2)
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 130
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        checkpoint = SweepCheckpoint.load(root, run_id)
        assert checkpoint.status == STATUS_INTERRUPTED
        completed = checkpoint.completed_counters()
        assert sorted(completed) == [0, 1]
        for index in (0, 1):
            assert completed[index] == serial_results[index]
        self._resume_and_check(root, run_id, points, serial_results)

    def test_sigkill_leaves_valid_journal_and_resumes(
        self, tmp_path, points, serial_results
    ):
        child, root = _spawn_stalling_sweep(tmp_path)
        try:
            run_id = _wait_for_journal(root, lines=2)
            child.kill()
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        checkpoint = SweepCheckpoint.load(root, run_id)
        # kill -9 never reaches mark_interrupted: the run stays "running".
        assert checkpoint.status == STATUS_RUNNING
        completed = checkpoint.completed_counters()
        assert sorted(completed) == [0, 1]
        for index in (0, 1):
            assert completed[index] == serial_results[index]
        self._resume_and_check(root, run_id, points, serial_results)


class TestHeartbeat:
    def test_stall_detected_and_point_recovered(
        self, tmp_path, points, serial_results
    ):
        """A worker that goes silent must be caught by the heartbeat
        watchdog — long before any per-point timeout — and its point
        retried to a bit-identical result."""
        workload, mode = points[1]
        injector = FaultInjector(
            stall=frozenset({FaultInjector.token(workload.cache_key, mode)}),
            stall_seconds=600.0,
            state_dir=str(tmp_path / "state"),  # fires once, retry succeeds
        )
        telemetry = JsonlTelemetry(tmp_path / "telemetry.jsonl")
        started = time.monotonic()
        outcome = run_sweep_resilient(
            fresh_runner(),
            points,
            jobs=2,
            policy=FaultPolicy(
                timeout=None, retries=2, backoff=0.05, heartbeat_timeout=2.0
            ),
            telemetry=telemetry,
            injector=injector,
        )
        elapsed = time.monotonic() - started
        assert outcome.ok
        assert outcome.results == serial_results
        assert elapsed < 120.0  # nowhere near the 600 s stall
        events = read_events(telemetry.path)
        stalls = [e for e in events if e["event"] == "stall_detected"]
        assert stalls and stalls[0]["point"] == workload.cache_key
        assert stalls[0]["quiet_seconds"] >= 2.0
        reasons = [
            e.get("reason", "")
            for e in events
            if e["event"] == "point_retried"
        ]
        assert any("stalled" in reason for reason in reasons)
        rebuilds = [e for e in events if e["event"] == "pool_rebuilt"]
        assert rebuilds and rebuilds[0]["stalled"] == 1

    def test_env_stall_injection_trips_watchdog(
        self, tmp_path, monkeypatch, points
    ):
        """REPRO_FAULT_INJECT=stall must drive the same detection path."""
        workload, mode = points[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            f"stall={FaultInjector.token(workload.cache_key, mode)};"
            f"stall_seconds=600;state={tmp_path / 'state'}",
        )
        telemetry = RecordingTelemetry()
        outcome = run_sweep_resilient(
            fresh_runner(),
            points,
            jobs=2,
            policy=FaultPolicy(
                timeout=None, retries=2, backoff=0.05, heartbeat_timeout=2.0
            ),
            telemetry=telemetry,
        )
        assert outcome.ok
        assert telemetry.of("stall_detected")


class TestRunListing:
    def test_list_and_format_runs(self, tmp_path, points, serial_results):
        done = SweepCheckpoint.attach(tmp_path, fresh_runner(), points)
        for index, counters in enumerate(serial_results):
            done.record(index, counters)
        done.mark_completed()
        done.close()
        partial = SweepCheckpoint.attach(
            tmp_path, Runner(max_sim_events=10_000), points, label="partial"
        )
        partial.record(0, serial_results[0])
        partial.mark_interrupted()
        partial.close()

        runs = {r["run_id"]: r for r in list_runs(tmp_path)}
        assert runs[done.run_id]["status"] == STATUS_COMPLETED
        assert runs[done.run_id]["completed"] == 3
        assert runs[partial.run_id]["status"] == STATUS_INTERRUPTED
        assert runs[partial.run_id]["completed"] == 1
        assert runs[partial.run_id]["label"] == "partial"

        table = format_runs(list_runs(tmp_path))
        assert done.run_id in table
        assert "1/3" in table

    def test_fully_journaled_running_run_promoted(
        self, tmp_path, points, serial_results
    ):
        """A parent killed after the last journal write but before the
        completed marker must still list as completed."""
        checkpoint = SweepCheckpoint.attach(tmp_path, fresh_runner(), points)
        for index, counters in enumerate(serial_results):
            checkpoint.record(index, counters)
        checkpoint.close()  # status.json still says "running"
        (run,) = list_runs(tmp_path)
        assert run["status"] == STATUS_COMPLETED

    def test_empty_root(self, tmp_path):
        assert list_runs(tmp_path / "nothing-here") == []
        assert format_runs([]) == "no checkpointed runs"
