"""Tests for the sweep executor's fault handling and fault injection."""

import pytest

from repro.harness import Runner
from repro.harness.faults import (
    FaultInjector,
    FaultPolicy,
    PointFailure,
    SweepOutcome,
)
from repro.harness.modes import BASELINE, PB_SW
from repro.harness.parallel import run_sweep
from repro.harness.telemetry import JsonlTelemetry, read_events
from repro.workloads.registry import resolve

SCALE = 13

#: Generous per-point budget: a healthy scale-13 point simulates in well
#: under a second; only an injected stall ever gets near this.
TIMEOUT = 30.0


@pytest.fixture(scope="module")
def points():
    graph = resolve("degree-count", "KRON", scale=SCALE)
    sort = resolve("integer-sort", "U16", scale=SCALE)
    return [(graph, BASELINE), (graph, PB_SW), (sort, BASELINE)]


@pytest.fixture(scope="module")
def serial_results(points):
    return Runner(max_sim_events=20_000).run_many(points)


def fresh_runner():
    return Runner(max_sim_events=20_000)


def kill_injector(points, index, state_dir):
    workload, mode = points[index]
    return FaultInjector(
        kill=frozenset({FaultInjector.token(workload.cache_key, mode)}),
        state_dir=str(state_dir),
    )


class TestRecovery:
    def test_clean_sweep_matches_serial(self, points, serial_results):
        outcome = run_sweep(
            fresh_runner(),
            points,
            jobs=2,
            policy=FaultPolicy(timeout=TIMEOUT),
            injector=FaultInjector(),  # nothing armed
        )
        assert outcome.ok
        assert outcome.results == serial_results

    def test_killed_worker_recovers_bit_identical(
        self, tmp_path, points, serial_results
    ):
        """A SIGKILLed worker mid-sweep must cost nothing but a retry:
        every point's counters arrive, in input order, bit-identical to
        the serial run."""
        telemetry = JsonlTelemetry(tmp_path / "t.jsonl")
        outcome = run_sweep(
            fresh_runner(),
            points,
            jobs=2,
            policy=FaultPolicy(timeout=TIMEOUT, retries=2, backoff=0.05),
            telemetry=telemetry,
            injector=kill_injector(points, 0, tmp_path / "state"),
        )
        assert outcome.ok
        assert outcome.completed == len(points)
        for expected, actual in zip(serial_results, outcome.results):
            assert actual == expected
        events = {e["event"] for e in read_events(telemetry.path)}
        assert "pool_rebuilt" in events
        assert "point_retried" in events
        assert "point_failed" not in events

    def test_stalled_worker_times_out_and_recovers(
        self, tmp_path, points, serial_results
    ):
        """A hung worker must be detected by the per-point timeout, the
        pool torn down, and the stalled point retried successfully."""
        workload, mode = points[1]
        injector = FaultInjector(
            stall=frozenset({FaultInjector.token(workload.cache_key, mode)}),
            stall_seconds=600.0,
            state_dir=str(tmp_path / "state"),
        )
        telemetry = JsonlTelemetry(tmp_path / "t.jsonl")
        outcome = run_sweep(
            fresh_runner(),
            points,
            jobs=2,
            policy=FaultPolicy(timeout=10.0, retries=2, backoff=0.05),
            telemetry=telemetry,
            injector=injector,
        )
        assert outcome.ok
        assert outcome.results == serial_results
        events = read_events(telemetry.path)
        reasons = [
            e.get("reason", "")
            for e in events
            if e["event"] == "point_retried"
        ]
        assert any("timeout" in reason for reason in reasons)

    def test_persistent_crash_is_a_structural_failure(
        self, points, serial_results
    ):
        """A point that kills its worker on *every* attempt must exhaust
        its retries into a PointFailure — not an exception — while the
        healthy points still complete."""
        injector = kill_injector(points, 0, state_dir="")  # fires always
        outcome = run_sweep(
            fresh_runner(),
            points,
            jobs=2,
            policy=FaultPolicy(
                timeout=TIMEOUT, retries=1, backoff=0.05, max_pool_rebuilds=5
            ),
            injector=injector,
        )
        assert not outcome.ok
        assert outcome.completed == len(points) - 1
        (failure,) = [
            f for f in outcome.failures if f.index == 0
        ]
        assert isinstance(failure, PointFailure)
        assert failure.point == points[0][0].cache_key
        assert failure.attempts == 2
        for index in (1, 2):
            assert outcome.results[index] == serial_results[index]

    def test_results_fold_back_into_memo(self, points):
        runner = fresh_runner()
        outcome = run_sweep(
            runner, points, jobs=2, injector=FaultInjector()
        )
        for (workload, mode), counters in zip(points, outcome.results):
            assert runner.run(workload, mode) is counters

    def test_serial_jobs_one_never_raises(self, points, serial_results):
        outcome = run_sweep(
            fresh_runner(), points, jobs=1, injector=FaultInjector()
        )
        assert outcome.ok
        assert outcome.results == serial_results


class TestRunManyIntegration:
    def test_fault_policy_recomputes_failed_points_serially(
        self, monkeypatch, tmp_path, points, serial_results
    ):
        """run_many keeps its list contract under a fault policy: a point
        the pool can never complete (kill fires on every worker attempt)
        is recomputed in-process, where injection never fires."""
        workload, mode = points[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            f"kill={FaultInjector.token(workload.cache_key, mode)}",
        )
        runner = Runner(
            max_sim_events=20_000,
            fault_policy=FaultPolicy(
                timeout=TIMEOUT, retries=0, backoff=0.05
            ),
        )
        results = runner.run_many(points, jobs=2)
        assert results == serial_results

    def test_worker_kill_without_fault_policy_recovers(
        self, monkeypatch, tmp_path, points, serial_results
    ):
        """A plain parallel run_many (no fault policy) goes through the one
        fault-tolerant executor: a worker killed once costs a retry, not
        the sweep."""
        workload, mode = points[1]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            f"kill={FaultInjector.token(workload.cache_key, mode)};"
            f"state={tmp_path / 'state'}",
        )
        runner = Runner(max_sim_events=20_000)
        assert runner.fault_policy is None
        assert runner.run_many(points, jobs=2) == serial_results
        assert any((tmp_path / "state").iterdir())  # the kill fired

    def test_fault_policy_clean_run_matches_plain_executor(
        self, points, serial_results
    ):
        runner = Runner(
            max_sim_events=20_000, fault_policy=FaultPolicy(timeout=TIMEOUT)
        )
        assert runner.run_many(points, jobs=2) == serial_results


class TestFaultInjector:
    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        assert FaultInjector.from_env() is None

    def test_from_env_parses_directives(self):
        injector = FaultInjector.from_env(
            {
                "REPRO_FAULT_INJECT": (
                    "kill=a:b:1|baseline,c:d:2|pb-sw;stall=e:f:3|cobra;"
                    "stall_seconds=7.5;state=/tmp/x"
                )
            }
        )
        assert injector.kill == {"a:b:1|baseline", "c:d:2|pb-sw"}
        assert injector.stall == {"e:f:3|cobra"}
        assert injector.stall_seconds == 7.5
        assert injector.state_dir == "/tmp/x"

    def test_from_env_rejects_unknown_directive(self):
        with pytest.raises(ValueError, match="directive"):
            FaultInjector.from_env({"REPRO_FAULT_INJECT": "explode=now"})

    def test_state_dir_arms_each_fault_once(self, tmp_path):
        injector = FaultInjector(state_dir=str(tmp_path))
        assert injector._arm("kill", "a:b:1|baseline")
        assert not injector._arm("kill", "a:b:1|baseline")
        assert injector._arm("stall", "a:b:1|baseline")  # distinct kind

    def test_outcome_accessors(self):
        outcome = SweepOutcome(
            results=[object(), None],
            failures=[
                PointFailure(
                    index=1, point="x:y:1", mode=BASELINE,
                    reason="boom", attempts=3,
                )
            ],
        )
        assert outcome.completed == 1
        assert not outcome.ok


class TestTornDirective:
    def test_from_env_parses_torn_journals(self):
        injector = FaultInjector.from_env(
            {"REPRO_FAULT_INJECT": "torn=jobs,other;state=/tmp/x"}
        )
        assert injector.torn == {"jobs", "other"}

    def test_maybe_tear_respects_arming(self, tmp_path):
        injector = FaultInjector(
            torn=frozenset({"jobs"}), state_dir=str(tmp_path)
        )
        assert injector.maybe_tear("jobs")
        assert not injector.maybe_tear("jobs")  # marker armed: fire once
        assert not injector.maybe_tear("unlisted")

    def test_maybe_tear_without_state_fires_every_time(self):
        injector = FaultInjector(torn=frozenset({"jobs"}))
        assert injector.maybe_tear("jobs")
        assert injector.maybe_tear("jobs")


class TestGracefulShutdown:
    def test_first_signal_latches_second_escalates(self):
        from repro.harness.faults import GracefulShutdown

        latch = GracefulShutdown()
        assert not latch.requested
        latch._handle(15, None)
        assert latch.requested
        assert latch.signum == 15
        # The drain wedged; the operator's second signal must break out.
        with pytest.raises(KeyboardInterrupt):
            latch._handle(15, None)
        # Still latched after the escalation.
        assert latch.requested

    def test_install_off_main_thread_is_a_noop(self):
        import threading

        from repro.harness.faults import GracefulShutdown

        latch = GracefulShutdown()
        seen = {}

        def run():
            latch.install()
            seen["previous"] = dict(latch._previous)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert seen["previous"] == {}  # no handlers touched
        latch.restore()  # harmless when nothing was installed
