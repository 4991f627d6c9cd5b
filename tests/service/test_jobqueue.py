"""Tests for the sweep service engine: admission, execution, recovery."""

import time

import pytest

from repro.harness.checkpoint import FORMAT_VERSION, runs_payload
from repro.harness.resultcache import ResultCache, counters_to_dict
from repro.harness.runner import Runner
from repro.service.jobqueue import AdmissionError, SweepService
from repro.workloads.registry import resolve

SCALE = 8
GRAPH = {"point": f"degree-count:KRON:{SCALE}", "mode": "baseline"}
GRAPH_COBRA = {"point": f"degree-count:KRON:{SCALE}", "mode": "cobra"}
SORT = {"point": f"integer-sort:U16:{SCALE}", "mode": "baseline"}


def wait_done(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not service.jobs[job_id].pending:
            return service.jobs[job_id]
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still pending after {timeout}s")


def make_service(tmp_path, started=True, **kwargs):
    runner = Runner(
        result_cache=ResultCache(directory=tmp_path / "cache")
    )
    kwargs.setdefault("sweep_jobs", 1)
    kwargs.setdefault("checkpoint_root", tmp_path / "runs")
    service = SweepService(runner, tmp_path / "svc", **kwargs)
    if started:
        service.start()
    return service


class TestExecution:
    def test_submitted_job_completes_bit_identical(self, tmp_path):
        service = make_service(tmp_path)
        record, results, accepted = service.submit(
            [GRAPH, GRAPH_COBRA], label="t"
        )
        assert accepted and results is None
        record = wait_done(service, record.job_id)
        assert record.state == "completed" and record.error is None
        reference = Runner(result_cache=None)
        expected = [
            counters_to_dict(
                reference.run(
                    resolve("degree-count", "KRON", SCALE),
                    spec["mode"],
                    use_cache=False,
                )
            )
            for spec in (GRAPH, GRAPH_COBRA)
        ]
        assert service.results(record.job_id) == expected
        service.drain()
        service.close()

    def test_duplicate_submission_dedupes(self, tmp_path):
        service = make_service(tmp_path)
        first, _, _ = service.submit([GRAPH])
        wait_done(service, first.job_id)
        again, results, accepted = service.submit([GRAPH])
        assert not accepted
        assert again.job_id == first.job_id
        assert results == service.results(first.job_id)
        service.drain()
        service.close()

    def test_bad_points_rejected_with_message(self, tmp_path):
        service = make_service(tmp_path, started=False)
        with pytest.raises(ValueError, match="non-empty list"):
            service.submit([])
        with pytest.raises(ValueError, match="workload:input:scale"):
            service.submit([{"point": "malformed"}])
        with pytest.raises(ValueError, match="must be positive"):
            service.submit([{"workload": "x", "input": "y", "scale": -1}])
        service.close()

    def test_unknown_workload_fails_job_not_service(self, tmp_path):
        service = make_service(tmp_path)
        record, _, _ = service.submit(
            [{"point": f"no-such-workload:KRON:{SCALE}", "mode": "baseline"}]
        )
        record = wait_done(service, record.job_id)
        assert record.state == "failed"
        assert record.error
        # The worker loop survived; a good job still runs afterwards.
        good, _, _ = service.submit([GRAPH])
        assert wait_done(service, good.job_id).state == "completed"
        service.drain()
        service.close()


class TestAdmission:
    def test_bounded_queue_sheds_with_retry_after(self, tmp_path):
        # No worker: submissions stay queued, so the bound is exact.
        service = make_service(tmp_path, started=False, queue_max=2)
        service.submit([GRAPH])
        service.submit([SORT])
        with pytest.raises(AdmissionError) as excinfo:
            service.submit([GRAPH_COBRA])
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after > 0
        assert service.status()["admission"]["shed"] == 1
        assert service.status()["state"] == "degraded"
        service.close()

    def test_per_client_cap(self, tmp_path):
        service = make_service(
            tmp_path, started=False, queue_max=64, client_max=1
        )
        service.submit([GRAPH], client="alice")
        with pytest.raises(AdmissionError, match="alice"):
            service.submit([SORT], client="alice")
        # Other clients are unaffected by alice's cap.
        service.submit([SORT], client="bob")
        service.close()

    def test_saturated_service_still_serves_cached(self, tmp_path):
        # Warm the cache through a normal run, then saturate the queue:
        # the fully-cached job must still be served (degraded mode).
        service = make_service(tmp_path, queue_max=64)
        record, _, _ = service.submit([GRAPH])
        wait_done(service, record.job_id)
        service.drain()
        service.close()

        saturated = SweepService(
            service.runner,
            tmp_path / "svc2",
            queue_max=0,  # every uncached submission sheds
            sweep_jobs=1,
            checkpoint_root=tmp_path / "runs2",
        )
        with pytest.raises(AdmissionError):
            saturated.submit([SORT])
        cached_record, results, accepted = saturated.submit([GRAPH])
        assert accepted
        assert cached_record.state == "completed"
        assert cached_record.from_cache
        assert results == saturated.results(cached_record.job_id)
        assert results[0] is not None
        assert saturated.status()["admission"]["cache_served"] == 1
        saturated.close()


class TestDrainRecover:
    def test_drain_stops_admissions_with_503(self, tmp_path):
        service = make_service(tmp_path)
        assert service.drain() is True
        with pytest.raises(AdmissionError) as excinfo:
            service.submit([GRAPH])
        assert excinfo.value.status == 503
        assert service.status()["state"] == "draining"
        service.close()

    def test_restart_resumes_journaled_jobs_bit_identical(self, tmp_path):
        # Journal a job without ever starting the worker — the moral
        # equivalent of kill -9 right after admission.
        service = make_service(tmp_path, started=False)
        record, _, _ = service.submit([GRAPH, SORT], label="restartme")
        job_id = record.job_id
        service.close()

        reborn = make_service(tmp_path)
        assert reborn.status()["recovered"] == 1
        final = wait_done(reborn, job_id)
        assert final.state == "completed"
        assert final.label == "restartme"
        reference = Runner(result_cache=None)
        expected = [
            counters_to_dict(
                reference.run(
                    resolve(*name.split(":")[:2], int(SCALE)),
                    spec["mode"],
                    use_cache=False,
                )
            )
            for name, spec in (
                (GRAPH["point"], GRAPH),
                (SORT["point"], SORT),
            )
        ]
        assert reborn.results(job_id) == expected
        reborn.drain()
        reborn.close()

    def test_completed_jobs_not_reenqueued_on_restart(self, tmp_path):
        service = make_service(tmp_path)
        record, _, _ = service.submit([GRAPH])
        wait_done(service, record.job_id)
        service.drain()
        service.close()

        reborn = make_service(tmp_path, started=False)
        assert reborn.recover() == 0
        assert reborn.jobs[record.job_id].state == "completed"
        reborn.close()


class TestSerializer:
    def test_job_payload_embeds_shared_run_summary(self, tmp_path):
        service = make_service(tmp_path)
        record, _, _ = service.submit([GRAPH], label="shape")
        wait_done(service, record.job_id)
        payload = service.job_payload(record)
        run = payload["run"]
        assert run["run_id"] == record.job_id
        assert run["status"] == "completed"
        assert run["completed"] == run["total"] == 1
        # The service's run block and `repro runs --json` come from the
        # same serializer, so their key sets must agree.
        wrapped = runs_payload([run])
        assert wrapped["version"] == FORMAT_VERSION
        assert wrapped["runs"] == [run]
        service.drain()
        service.close()

    def test_status_shape(self, tmp_path):
        service = make_service(tmp_path, started=False)
        status = service.status()
        assert status["state"] == "running"
        assert status["queue"]["max"] == service.queue_max
        assert set(status["jobs"]) == {
            "submitted", "running", "completed", "failed", "interrupted"
        }
        assert status["cache"]["hit_rate"] is None
        service.close()


class TestKnobs:
    def test_queue_max_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", "3")
        service = make_service(tmp_path, started=False)
        assert service.queue_max == 3
        service.close()

    def test_drain_deadline_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DRAIN_DEADLINE", "1.5")
        service = make_service(tmp_path, started=False)
        assert service.drain_deadline == 1.5
        service.close()
