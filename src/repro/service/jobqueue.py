"""Job queue + admission control + graceful drain of the sweep service.

:class:`SweepService` is the daemon's engine room, independent of any
HTTP front end (the tests drive it directly):

* **Submission** normalizes point specs, derives the content-addressed
  job id (machine digest + ordered specs — exactly the sweep
  checkpoint's ``run_id``), and journals the job durably before
  acknowledging it. Identical resubmissions dedupe onto the existing
  job.
* **Admission control** keeps the daemon honest under load: a bounded
  queue (``REPRO_SERVICE_QUEUE_MAX``) sheds excess submissions with an
  :class:`AdmissionError` carrying 429 + ``Retry-After``; per-client
  in-flight caps stop one client from starving the rest; and a
  saturated or draining service still answers fully-cached submissions
  from the :class:`~repro.harness.resultcache.ResultCache` read-through
  tier (cache-only degraded mode) instead of hanging or dropping them.
* **Execution** happens on a single worker thread that feeds whole jobs
  to :func:`~repro.harness.parallel.run_sweep` (pool parallelism lives
  inside each sweep), with every completed point
  journaled by the job's :class:`~repro.harness.checkpoint.SweepCheckpoint`.
* **Drain** (:meth:`SweepService.drain`) stops admissions, flips the
  shared :class:`~repro.harness.faults.GracefulShutdown` latch so the
  in-flight sweep stops submitting points and journals what finished,
  and waits out ``REPRO_SERVICE_DRAIN_DEADLINE``. Undrained jobs stay
  journaled; a restarted daemon re-enqueues them automatically
  (:meth:`SweepService.recover`) and resumes bit-identically.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.harness import knobs
from repro.harness.checkpoint import (
    SweepCheckpoint,
    content_id,
    default_checkpoint_dir,
    run_summary,
)
from repro.harness.faults import FaultInjector, GracefulShutdown
from repro.harness.modes import ExecutionMode
from repro.harness.parallel import run_sweep
from repro.harness.resultcache import counters_to_dict
from repro.harness.telemetry import NULL_TELEMETRY
from repro.service.journal import (
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_INTERRUPTED,
    JOB_RUNNING,
    JOB_STATES,
    JOB_SUBMITTED,
    JOURNAL_NAME,
    JobJournal,
    JobRecord,
    PENDING_STATES,
)

__all__ = ["AdmissionError", "SweepService"]

DEFAULT_QUEUE_MAX = 64
DEFAULT_DRAIN_DEADLINE = 30.0
DEFAULT_CLIENT_MAX = 8


def _knob_float(name, default):
    raw = knobs.read(name)
    return default if raw is None or not raw.strip() else float(raw)


def _knob_int(name, default):
    raw = knobs.read(name)
    return default if raw is None or not raw.strip() else int(raw)


class AdmissionError(Exception):
    """A submission the service refused; carries the HTTP shape."""

    def __init__(self, message, status=429, retry_after=None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class _ServiceTelemetry:
    """Telemetry tee: forwards to the real sink, updates service stats.

    The service's ``/status`` endpoint surfaces pool health and
    heartbeat staleness straight from the executor's event stream —
    this wrapper is how those events are observed without the executor
    knowing a service exists.
    """

    enabled = True

    def __init__(self, service, inner):
        self._service = service
        self._inner = inner

    def emit(self, event, **fields):
        self._service._note_event(event)
        if self._inner is not None and self._inner.enabled:
            self._inner.emit(event, **fields)

    def emit_timed(self, event, duration_s, **fields):
        self._service._note_event(event)
        if self._inner is not None and self._inner.enabled:
            self._inner.emit_timed(event, duration_s, **fields)

    def flush(self):
        if self._inner is not None:
            self._inner.flush()

    def close(self):
        if self._inner is not None:
            self._inner.close()


class SweepService:
    """The journaled, admission-controlled job engine behind ``repro serve``."""

    def __init__(
        self,
        runner,
        state_dir,
        *,
        queue_max=None,
        client_max=DEFAULT_CLIENT_MAX,
        sweep_jobs=2,
        checkpoint_root=None,
        drain_deadline=None,
        telemetry=None,
        injector=None,
    ):
        self.runner = runner
        self.state_dir = state_dir
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.injector = (
            injector if injector is not None else FaultInjector.from_env()
        )
        self.queue_max = (
            queue_max
            if queue_max is not None
            else _knob_int("REPRO_SERVICE_QUEUE_MAX", DEFAULT_QUEUE_MAX)
        )
        self.client_max = client_max
        self.sweep_jobs = max(1, int(sweep_jobs))
        self.checkpoint_root = (
            checkpoint_root
            if checkpoint_root is not None
            else default_checkpoint_dir()
        )
        self.drain_deadline = (
            drain_deadline
            if drain_deadline is not None
            else _knob_float(
                "REPRO_SERVICE_DRAIN_DEADLINE", DEFAULT_DRAIN_DEADLINE
            )
        )
        self.journal = JobJournal(
            Path(state_dir) / JOURNAL_NAME,
            telemetry=self.telemetry,
            injector=self.injector,
        )
        self._sink = _ServiceTelemetry(self, self.telemetry)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self.jobs = {}
        self._queue = []
        self._running = None
        self._draining = False
        self._latch = GracefulShutdown()  # flipped by drain(); never installed
        self._worker = None
        self._started = time.monotonic()
        self._last_event = None
        self._stats = {
            "shed": 0,
            "cache_served": 0,
            "recovered": 0,
            "pool_rebuilds": 0,
            "serial_fallbacks": 0,
            "stalls": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self):
        """Recover journaled jobs, then start the worker thread."""
        self.recover()
        self._worker = threading.Thread(
            target=self._run_loop, name="sweep-service-worker", daemon=True
        )
        self._worker.start()
        return self

    def recover(self):
        """Re-enqueue every journaled job whose last state is pending.

        Execution goes through the job's sweep checkpoint, so a job that
        was killed mid-run re-runs only its unfinished points and a job
        whose every point was already journaled completes instantly —
        both bit-identical to an uninterrupted run.
        """
        restored = 0
        with self._wake:
            for job_id, record in self.journal.replay().items():
                self.jobs[job_id] = record
                if record.pending:
                    record.state = JOB_SUBMITTED
                    self._queue.append(job_id)
                    restored += 1
            self._stats["recovered"] = restored
            self._wake.notify_all()
        if restored:
            self.telemetry.emit("service_recovered", restored=restored)
        return restored

    @property
    def draining(self):
        with self._lock:
            return self._draining

    def drain(self, signum=None):
        """Stop admissions, drain the in-flight job, journal the rest.

        Returns True when the worker finished inside the deadline (exit
        code 0 territory); False when it had to be abandoned — either
        way every queued job is already journaled ``submitted`` and the
        running one ends ``interrupted``, so a restart loses nothing.
        """
        with self._wake:
            if self._draining:
                return True
            self._draining = True
            self._latch.requested = True
            self._latch.signum = signum
            queued = len(self._queue)
            running = self._running
            self._wake.notify_all()
        self.telemetry.emit(
            "service_draining", signal=signum, queued=queued, running=running
        )
        clean = True
        if self._worker is not None and self._worker.is_alive():
            self._worker.join(timeout=max(0.0, self.drain_deadline))
            clean = not self._worker.is_alive()
        undrained = None
        with self._lock:
            if not clean and self._running is not None:
                # The worker is wedged past the deadline; journal the
                # in-flight job as interrupted so restart picks it up.
                undrained = self._running
                record = self.jobs.get(undrained)
                if record is not None:
                    record.state = JOB_INTERRUPTED
            queued = len(self._queue)
        if undrained is not None:
            self.journal.append(undrained, JOB_INTERRUPTED, error="drain timeout")
        self.telemetry.emit(
            "service_drained", clean=clean, queued=queued, lost=0
        )
        self.journal.flush()
        return clean

    def close(self):
        self.journal.close()

    # ------------------------------------------------------------------ #
    # Submission / admission control
    # ------------------------------------------------------------------ #

    @staticmethod
    def normalize_points(raw_points):
        """Validate submitted point specs into ``[(cache_key, mode)]``.

        Accepts the compact wire form (``{"point": "name:input:scale",
        "mode": m}``), the canonical spec form (``{"point":
        "name/input@scale", "mode": m}``), or the explicit form
        (``{"workload", "input", "scale", "mode"}``). Raises ``ValueError``
        with a client-facing message on malformed input; unknown workload
        *names* are left to the executor (the job fails with a recorded
        error) so admission never has to build input arrays. Canonical
        specs without a scale resolve through the registry (ingested
        inputs pin their own natural scale).
        """
        if not isinstance(raw_points, (list, tuple)) or not raw_points:
            raise ValueError("points must be a non-empty list")
        normalized = []
        for position, raw in enumerate(raw_points):
            if not isinstance(raw, dict):
                raise ValueError(f"points[{position}] must be an object")
            mode = str(ExecutionMode.coerce(raw.get("mode", "baseline")))
            if "point" in raw and "/" in str(raw["point"]):
                from repro.workloads.registry import (
                    effective_scale,
                    parse_spec,
                )

                try:
                    name, input_name, scale = parse_spec(str(raw["point"]))
                    scale = effective_scale(input_name, scale)
                except ValueError as exc:
                    raise ValueError(f"points[{position}]: {exc}") from None
            elif "point" in raw:
                pieces = str(raw["point"]).split(":")
                if len(pieces) != 3:
                    raise ValueError(
                        f"points[{position}].point must be "
                        "'workload:input:scale' or 'workload/input[@scale]'"
                    )
                name, input_name, scale = pieces
            else:
                name = raw.get("workload")
                input_name = raw.get("input")
                scale = raw.get("scale")
                if not name or not input_name or scale is None:
                    raise ValueError(
                        f"points[{position}] needs workload, input, scale "
                        "(or a compact 'point' key)"
                    )
            try:
                scale = int(scale)
            except (TypeError, ValueError):
                raise ValueError(
                    f"points[{position}].scale must be an integer"
                ) from None
            if scale <= 0:
                raise ValueError(f"points[{position}].scale must be positive")
            normalized.append((f"{name}:{input_name}:{scale}", mode))
        return normalized

    def _specs_for(self, normalized):
        return [
            {
                "point": cache_key,
                "mode": mode,
                "digest": self.runner.point_digest(cache_key, mode),
            }
            for cache_key, mode in normalized
        ]

    def job_id_for(self, specs):
        """The content-addressed job id (== the sweep checkpoint run id)."""
        return content_id(
            {"machine": self.runner.machine_digest(), "points": specs}
        )

    def _cache_probe(self, specs):
        """All-points-cached read-through, or None on any miss."""
        cache = self.runner.result_cache
        if cache is None:
            return None
        results = []
        for spec in specs:
            counters = cache.get(spec["digest"])
            if counters is None:
                return None
            results.append(counters)
        return results

    def _retry_after(self, depth):
        """Client back-off hint, scaled by how far over capacity we are."""
        return round(min(30.0, 1.0 + 0.5 * depth), 1)

    def submit(self, raw_points, label=None, client=None):
        """Admit one job; returns ``(record, results_or_None, accepted)``.

        ``accepted`` is False for dedupe hits (the job already existed).
        ``results`` is non-None only when the job is already complete —
        a duplicate of a finished job or a fully-cached submission served
        in read-through mode. Refusals raise :class:`AdmissionError`.
        """
        normalized = self.normalize_points(raw_points)
        specs = self._specs_for(normalized)
        job_id = self.job_id_for(specs)
        dedupe_hit = None
        with self._wake:
            record = self.jobs.get(job_id)
            if record is not None:
                if record.state == JOB_COMPLETED:
                    # results() takes the admission lock itself (the
                    # Condition wraps the same non-reentrant Lock), so
                    # the dedupe hit is served after releasing it.
                    dedupe_hit = record
                elif record.pending:
                    return record, None, False
                # A previously failed job: fall through and requeue it.
            if dedupe_hit is None:
                if self._draining:
                    raise AdmissionError(
                        "service is draining; submit to the restarted daemon",
                        status=503,
                        retry_after=self._retry_after(len(self._queue)),
                    )
                cached = self._cache_probe(specs)
                record = JobRecord(
                    job_id=job_id,
                    points=tuple(specs),
                    label=label,
                    client=client,
                    # repro: noqa[nondet] display-only submission stamp; job
                    # identity and recovery key off the content-addressed id
                    submitted=time.time(),
                    from_cache=cached is not None,
                )
                record.updated = record.submitted
                if cached is not None:
                    # Degraded/cache-only tier: even a saturated or
                    # rebuilding service serves fully-cached jobs without
                    # queueing them.
                    self._stats["cache_served"] += 1
                    self.jobs[job_id] = record
                    record.state = JOB_COMPLETED
                else:
                    depth = len(self._queue) + (1 if self._running else 0)
                    if depth >= self.queue_max:
                        self._stats["shed"] += 1
                        self.telemetry.emit(
                            "service_shed", client=client, depth=depth
                        )
                        raise AdmissionError(
                            f"queue full ({depth}/{self.queue_max}); "
                            "cache-only degraded mode",
                            status=429,
                            retry_after=self._retry_after(depth),
                        )
                    in_flight = sum(
                        1
                        for other in self.jobs.values()
                        if other.pending and other.client == client
                    )
                    if client is not None and in_flight >= self.client_max:
                        self._stats["shed"] += 1
                        raise AdmissionError(
                            f"client {client!r} has {in_flight} jobs in "
                            f"flight (cap {self.client_max})",
                            status=429,
                            retry_after=self._retry_after(in_flight),
                        )
                    self.jobs[job_id] = record
                    self._queue.append(job_id)
                    self._wake.notify_all()
        if dedupe_hit is not None:
            return dedupe_hit, self.results(job_id), False
        # Journal outside the wake lock: fsync latency must not block
        # admission decisions for other clients.
        self.journal.append(
            job_id,
            JOB_SUBMITTED,
            points=list(record.points),
            label=label,
            client=client,
        )
        if record.from_cache:
            self._record_cached(record)
            self.journal.append(job_id, JOB_COMPLETED, from_cache=True)
            self.telemetry.emit(
                "service_job_completed", job_id=job_id, from_cache=True
            )
            return record, self.results(job_id), True
        self.telemetry.emit(
            "service_job_submitted", job_id=job_id, points=len(record.points)
        )
        return record, None, True

    def _record_cached(self, record):
        """Materialize a cache-served job's checkpoint so results() is
        uniform (and resume-proof) across execution paths."""
        checkpoint = self._checkpoint_for(record)
        try:
            already = checkpoint.completed_counters()
            for index, spec in enumerate(record.points):
                if index in already:
                    continue
                counters = self.runner.result_cache.get(spec["digest"])
                if counters is not None:
                    checkpoint.record(index, counters)
            checkpoint.mark_completed()
        finally:
            checkpoint.close()

    # ------------------------------------------------------------------ #
    # Results / introspection
    # ------------------------------------------------------------------ #

    def _checkpoint_for(self, record):
        return SweepCheckpoint.attach_specs(
            self.checkpoint_root,
            self.runner.machine_digest(),
            list(record.points),
            label=record.label or f"service:{record.job_id}",
            telemetry=self._sink,
        )

    def job(self, job_id):
        """The in-memory record for ``job_id`` (None when unknown).

        The jobs table is written by the worker thread and read from the
        request executor; this is the locked accessor both sides share.
        """
        with self._lock:
            return self.jobs.get(job_id)

    def results(self, job_id):
        """Journaled counters for ``job_id`` in point order (None = missing).

        Results are always served from the job's sweep-checkpoint
        journal — the single bit-identical source of truth shared with
        ``repro resume`` — never from transient in-memory state.
        """
        record = self.job(job_id)
        if record is None:
            return None
        try:
            checkpoint = SweepCheckpoint.load(self.checkpoint_root, job_id)
        except FileNotFoundError:
            return [None] * len(record.points)
        completed = checkpoint.completed_counters()
        return [
            counters_to_dict(completed[index]) if index in completed else None
            for index in range(len(record.points))
        ]

    def job_payload(self, record):
        """The ``/jobs`` JSON for one record, sharing the ``repro runs``
        serializer for the checkpoint summary block."""
        payload = record.as_dict()
        try:
            checkpoint = SweepCheckpoint.load(
                self.checkpoint_root, record.job_id
            )
        except FileNotFoundError:
            payload["run"] = None
        else:
            payload["run"] = run_summary(checkpoint)
        return payload

    def jobs_payload(self):
        with self._lock:
            records = sorted(
                self.jobs.values(), key=lambda r: (r.submitted, r.job_id)
            )
        return [self.job_payload(record) for record in records]

    def _note_event(self, event):
        with self._lock:
            self._last_event = time.monotonic()
            if event == "pool_rebuilt":
                self._stats["pool_rebuilds"] += 1
            elif event == "serial_fallback":
                self._stats["serial_fallbacks"] += 1
            elif event == "stall_detected":
                self._stats["stalls"] += 1

    def status(self):
        """The ``/status`` payload: queue, pool, heartbeat, cache health."""
        cache = self.runner.result_cache
        with self._lock:
            queued = len(self._queue)
            running = self._running
            depth = queued + (1 if running else 0)
            if self._draining:
                state = "draining"
            elif depth >= self.queue_max:
                state = "degraded"
            else:
                state = "running"
            counts = dict.fromkeys(JOB_STATES, 0)
            for record in self.jobs.values():
                counts[record.state] += 1
            heartbeat_age = (
                time.monotonic() - self._last_event
                if running is not None and self._last_event is not None
                else None
            )
            stats = dict(self._stats)
            draining = self._draining
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        lookups = hits + misses
        return {
            "state": state,
            "uptime_s": time.monotonic() - self._started,
            "queue": {
                "depth": depth,
                "queued": queued,
                "running": running,
                "max": self.queue_max,
            },
            "jobs": counts,
            "admission": {
                "shed": stats["shed"],
                "cache_served": stats["cache_served"],
                "client_max": self.client_max,
                "draining": draining,
            },
            "pool": {
                "rebuilds": stats["pool_rebuilds"],
                "serial_fallbacks": stats["serial_fallbacks"],
                "stalls": stats["stalls"],
            },
            "heartbeat_age_s": heartbeat_age,
            "recovered": stats["recovered"],
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": (hits / lookups) if lookups else None,
            },
        }

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #

    def _next_job(self):
        with self._wake:
            while not self._queue and not self._draining:
                self._wake.wait(timeout=0.1)
            if self._draining:
                return None
            job_id = self._queue.pop(0)
            self._running = job_id
            record = self.jobs[job_id]
            record.state = JOB_RUNNING
            return record

    def _run_loop(self):
        while True:
            record = self._next_job()
            if record is None:
                return
            self.journal.append(record.job_id, JOB_RUNNING)
            state, error = self._execute(record)
            with self._wake:
                self._running = None
                record.state = state
                record.error = error
                # repro: noqa[nondet] display-only transition stamp
                record.updated = time.time()
            self.journal.append(record.job_id, state, error=error)
            self.telemetry.emit(
                "service_job_" + state, job_id=record.job_id, error=error
            )

    def _execute(self, record):
        """Run one job through the sweep executor; returns (state, error)."""
        checkpoint = self._checkpoint_for(record)
        try:
            checkpoint.verify(self.runner)
            points = checkpoint.points()
            outcome = run_sweep(
                self.runner,
                points,
                jobs=self.sweep_jobs,
                policy=self.runner.fault_policy,
                telemetry=self._sink,
                injector=self.injector,
                checkpoint=checkpoint,
                shutdown=self._latch,
            )
        except Exception as exc:  # noqa: BLE001 - a job must never kill the loop
            return JOB_FAILED, f"{type(exc).__name__}: {exc}"
        finally:
            checkpoint.close()
        if outcome.interrupted:
            return JOB_INTERRUPTED, None
        if outcome.failures:
            failure = outcome.failures[0]
            return (
                JOB_FAILED,
                f"{len(outcome.failures)} point(s) failed; first: "
                f"{failure.point} ({failure.mode}) — {failure.reason}",
            )
        return JOB_COMPLETED, None
