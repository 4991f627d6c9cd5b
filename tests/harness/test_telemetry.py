"""Tests for the JSONL run-telemetry layer."""

import json
import pickle

import pytest

from repro.harness import Runner
from repro.harness.modes import BASELINE
from repro.harness.resultcache import ResultCache
from repro.harness.telemetry import (
    NULL_TELEMETRY,
    JsonlTelemetry,
    Telemetry,
    format_summary,
    read_events,
    summarize,
)
from repro.workloads.registry import resolve

SCALE = 13


class TestNullSink:
    def test_default_is_disabled_noop(self, tmp_path):
        assert NULL_TELEMETRY.enabled is False
        NULL_TELEMETRY.emit("anything", free="form")  # must not raise
        NULL_TELEMETRY.close()
        assert list(tmp_path.iterdir()) == []

    def test_runner_defaults_to_null(self):
        assert Runner().telemetry is NULL_TELEMETRY


class TestJsonlSink:
    def test_events_append_as_json_lines(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        sink.emit("sweep_started", points=3, jobs=2)
        sink.emit("point_completed", point="a:b:1", seconds=0.5)
        sink.close()
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["event"] == "sweep_started"
        assert first["points"] == 3
        assert "ts" in first and "pid" in first

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "t.jsonl"
        JsonlTelemetry(path).emit("a")
        JsonlTelemetry(path).emit("b")
        assert [e["event"] for e in read_events(path)] == ["a", "b"]

    def test_flush_and_close_are_idempotent(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        sink.flush()  # nothing open yet: no-op
        sink.emit("a")
        sink.flush()
        sink.close()
        sink.close()  # second close must not double-close the fd
        sink.emit("b")  # emitting after close reopens by path
        sink.close()
        assert [e["event"] for e in read_events(sink.path)] == ["a", "b"]
        NULL_TELEMETRY.flush()  # part of the base interface

    def test_atexit_persists_final_events(self, tmp_path):
        """A process that exits without closing its sink must still leave
        every event on disk (the atexit hook flushes and closes)."""
        import os
        import subprocess
        import sys

        path = tmp_path / "t.jsonl"
        script = (
            "import sys\n"
            "from repro.harness.telemetry import JsonlTelemetry\n"
            f"sink = JsonlTelemetry({str(path)!r})\n"
            "sink.emit('last_words', detail='unclosed')\n"
            "sys.exit(0)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(p for p in sys.path if p),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert [e["event"] for e in read_events(path)] == ["last_words"]

    def test_pickles_by_path(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        sink.emit("before")
        clone = pickle.loads(pickle.dumps(sink))
        clone.emit("after")
        assert [e["event"] for e in read_events(sink.path)] == [
            "before",
            "after",
        ]

    def test_read_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTelemetry(path)
        sink.emit("good")
        with open(path, "a") as handle:
            handle.write('{"event": "torn", "ts": 1.')  # crashed mid-write
        assert [e["event"] for e in read_events(path)] == ["good"]


class TestRunnerWiring:
    def test_run_emits_phase_and_engine_events(self, tmp_path):
        workload = resolve("degree-count", "KRON", scale=SCALE)
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        runner = Runner(max_sim_events=20_000, telemetry=sink)
        runner.run(workload, BASELINE)
        events = read_events(sink.path)
        kinds = {e["event"] for e in events}
        assert "phase_timed" in kinds
        assert "engine_selected" in kinds
        timed = [e for e in events if e["event"] == "phase_timed"]
        assert all(e["seconds"] >= 0.0 for e in timed)
        assert all(e["workload"] == workload.name for e in timed)
        # Timed events carry the monotonic duration_s (with the legacy
        # seconds alias mirroring it exactly).
        assert all(e["duration_s"] == e["seconds"] for e in timed)

    def test_cache_hits_and_misses_logged(self, tmp_path):
        workload = resolve("degree-count", "KRON", scale=SCALE)
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        cache = ResultCache(tmp_path / "cache")
        Runner(
            max_sim_events=20_000, result_cache=cache, telemetry=sink
        ).run(workload, BASELINE)
        Runner(
            max_sim_events=20_000,
            result_cache=ResultCache(tmp_path / "cache"),
            telemetry=sink,
        ).run(workload, BASELINE)
        events = [e["event"] for e in read_events(sink.path)]
        assert events.count("cache_miss") == 1  # cold first run
        assert events.count("cache_hit") == 1  # warm second run

    def test_spawn_spec_carries_telemetry_path(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        runner = Runner(telemetry=sink)
        clone = Runner.from_spec(runner.spawn_spec())
        assert clone.telemetry.path == sink.path

    def test_spawn_spec_without_telemetry_roundtrips(self):
        clone = Runner.from_spec(Runner().spawn_spec())
        assert clone.telemetry is NULL_TELEMETRY


class TestSummary:
    def make_log(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        sink.emit("sweep_started", points=3, jobs=2, timeout=None, retries=2)
        sink.emit("point_scheduled", point="a:b:1", mode="baseline", attempt=1)
        sink.emit(
            "point_completed",
            point="a:b:1", mode="baseline", attempt=1, seconds=2.0,
        )
        sink.emit(
            "point_retried",
            point="c:d:1", mode="pb-sw", attempt=1, reason="worker crashed",
            delay=0.25,
        )
        sink.emit(
            "point_completed",
            point="c:d:1", mode="pb-sw", attempt=2, seconds=5.0,
        )
        sink.emit(
            "point_failed",
            point="e:f:1", mode="cobra", attempts=3, reason="timeout",
        )
        sink.emit("cache_hit", digest="x")
        sink.emit("cache_miss", digest="y")
        sink.emit("cache_miss", digest="z")
        sink.emit("phase_timed", phase="binning", seconds=1.5)
        sink.emit("phase_timed", phase="binning", seconds=0.5)
        sink.emit("engine_selected", engine="batch")
        sink.emit("sweep_completed", completed=2, failed=1, seconds=9.0)
        return sink.path

    def test_summarize_aggregates(self, tmp_path):
        summary = summarize(self.make_log(tmp_path))
        assert summary["sweeps"] == 1
        assert summary["completed"] == 2
        assert summary["failed"] == 1
        assert summary["total_retries"] == 1
        assert summary["retried_points"] == 1
        assert summary["slowest"][0]["point"] == "c:d:1"
        assert summary["slowest"][0]["seconds"] == 5.0
        assert summary["cache"]["hit_rate"] == pytest.approx(1 / 3)
        assert summary["phase_seconds"]["binning"] == pytest.approx(2.0)
        assert summary["engines"] == {"batch": 1}

    def test_summarize_respects_slowest_limit(self, tmp_path):
        summary = summarize(self.make_log(tmp_path), slowest=1)
        assert len(summary["slowest"]) == 1

    def test_format_summary_mentions_everything(self, tmp_path):
        text = format_summary(summarize(self.make_log(tmp_path)))
        assert "Slowest points" in text
        assert "Failed points" in text
        assert "c:d:1" in text
        assert "timeout" in text
        assert "hit rate 33.3%" in text

    def test_format_summary_of_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        text = format_summary(summarize(path))
        assert "completed 0" in text

    def test_emit_timed_carries_duration_and_alias(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        sink.emit_timed("phase_timed", 1.25, phase="binning")
        sink.close()
        (event,) = read_events(sink.path)
        assert event["duration_s"] == 1.25
        assert event["seconds"] == 1.25  # legacy alias for old consumers

    def test_summarize_prefers_duration_s(self, tmp_path):
        sink = JsonlTelemetry(tmp_path / "t.jsonl")
        # A modern event where the fields disagree (should never happen,
        # but the monotonic duration must win) and a legacy one without
        # duration_s at all.
        sink.emit("phase_timed", phase="binning", duration_s=2.0, seconds=9.0)
        sink.emit("phase_timed", phase="binning", seconds=0.5)
        sink.emit(
            "point_completed",
            point="a:b:1", mode="baseline", duration_s=3.0, seconds=99.0,
        )
        sink.close()
        summary = summarize(sink.path)
        assert summary["phase_seconds"]["binning"] == pytest.approx(2.5)
        assert summary["slowest"][0]["seconds"] == 3.0

    def test_custom_sink_subclass_contract(self):
        class Collect(Telemetry):
            enabled = True

            def __init__(self):
                self.events = []

            def emit(self, event, **fields):
                self.events.append((event, fields))

        sink = Collect()
        runner = Runner(max_sim_events=20_000, telemetry=sink)
        runner._make_hierarchy(runner.machine.hierarchy)
        assert sink.events and sink.events[0][0] == "engine_selected"
