"""The host-side sweep executor, :func:`run_sweep`.

It fans independent simulation points across worker processes and
survives crashed or hung workers and a signalled parent.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from pathlib import Path

from repro._util import check_positive
from repro.harness.faults import (
    FaultInjector,
    FaultPolicy,
    GracefulShutdown,
    PointFailure,
    SweepOutcome,
)
from repro.harness.telemetry import NULL_TELEMETRY

__all__ = ["run_sweep"]

# One executor runs every parallel or checkpointed sweep. Points are
# dispatched one at a time, so a crashed, hung or stalled worker costs only
# the points it held (``_pooled_phase``); after too many pool rebuilds the
# rest run in-process (``_serial_phase``).

#: Poll interval of the dispatch loop (seconds).
_TICK = 0.05


def _beat(path):
    """Touch a heartbeat file (best-effort; never fails the simulation)."""
    if path is None:
        return
    try:
        fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o644)
        os.close(fd)
        os.utime(path, None)
    except OSError:
        pass


def _clear_beat(path):
    if path is None:
        return
    try:
        os.unlink(path)
    except OSError:
        pass


class _HeartbeatTelemetry:
    """Worker-side telemetry wrapper that beats on every runner event.

    The runner emits at phase boundaries (``phase_timed``), engine
    selection, and cache activity — frequent enough that a healthy point's
    heartbeat file keeps a fresh mtime while a wedged one goes quiet.
    ``enabled`` is True so the runner actually produces those events; the
    wrapped sink still decides whether they are persisted.
    """

    enabled = True

    def __init__(self, inner, path):
        self._inner = inner
        self._path = path

    def emit(self, event, **fields):
        _beat(self._path)
        if self._inner is not None and self._inner.enabled:
            self._inner.emit(event, **fields)

    def emit_timed(self, event, duration_s, **fields):
        _beat(self._path)
        if self._inner is not None and self._inner.enabled:
            self._inner.emit_timed(event, duration_s, **fields)

    def flush(self):
        if self._inner is not None:
            self._inner.flush()

    def close(self):
        if self._inner is not None:
            self._inner.close()


def _pool_worker_init():
    """Reset signal dispositions in freshly spawned/forked pool workers.

    Workers forked while a :class:`GracefulShutdown` latch is installed
    would inherit its SIGTERM/SIGINT handler — a flag-setting no-op in the
    worker — making them unkillable by ``process.terminate()`` and leaving
    a stalled worker alive past parent exit. SIGTERM goes back to the
    default (die, so teardown works); SIGINT is ignored (a terminal Ctrl-C
    signals the whole foreground group, and the *parent* owns the drain —
    workers must keep running until it finishes or tears them down).
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass


def _sweep_worker(spec, task, injector, heartbeat_path=None):
    """Simulate one ``(cache_key, mode, use_cache)`` point in a worker.

    Module-level so it pickles; the runner is rebuilt from its spawn spec
    and the workload from its cache key (shipping the array-heavy workload
    objects across the process boundary would dwarf the simulation cost).
    """
    from repro.harness.runner import Runner
    from repro.workloads.registry import resolve_point

    cache_key, mode, use_cache = task
    # Beat before injection: an injected stall then looks exactly like a
    # real wedged simulation (point started, heartbeat frozen).
    _beat(heartbeat_path)
    if injector is not None:
        injector.maybe_inject(cache_key, mode)
    runner = Runner.from_spec(spec)
    if heartbeat_path is not None:
        runner.telemetry = _HeartbeatTelemetry(
            runner.telemetry, heartbeat_path
        )
    workload = resolve_point(cache_key)
    return runner.run(workload, mode, use_cache=use_cache)


def _terminate_pool(pool):
    """Hard-stop a (possibly hung) process pool.

    Escalates from SIGTERM to SIGKILL: a worker wedged in uninterruptible
    state (or one that somehow ignores SIGTERM) must still die, or the
    executor's management thread would wait on its result forever and hang
    the interpreter at exit.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    deadline = time.monotonic() + 2.0
    for process in processes:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
        except Exception:
            pass


def run_sweep(
    runner,
    points,
    jobs,
    use_cache=True,
    policy=None,
    checkpoint=None,
    shutdown=None,
    handle_signals=False,
    telemetry=None,
    injector=None,
):
    """Fan independent ``(workload, mode)`` points across processes.

    Returns a :class:`~repro.harness.faults.SweepOutcome` whose ``results``
    are in input order — bit-identical to a serial run, since each point is
    an independent simulation — with ``None`` where a point failed and a
    :class:`~repro.harness.faults.PointFailure` explaining each such
    ``None``. A point's failure never raises. Every point's workload must
    carry a ``cache_key``; workers rebuild workloads from it. Completed
    results are folded back into ``runner``'s in-memory memo; with a
    persistent cache attached the workers write through to disk
    themselves.

    ``jobs`` is clamped to the number of points still to run: a pool is
    never built larger than its work list, and none at all for zero or one
    pending point (that point runs in-process). ``policy`` (a
    :class:`~repro.harness.faults.FaultPolicy`, default ``FaultPolicy()``)
    sets timeouts, retries and the heartbeat watchdog. ``injector``
    defaults to :meth:`FaultInjector.from_env` so tests and chaos drills
    can steer the recovery paths without touching call sites.

    ``checkpoint`` (a :class:`~repro.harness.checkpoint.SweepCheckpoint`)
    splices previously journaled counters back bit-identically — only the
    unfinished points are dispatched — and journals every new completion.
    ``handle_signals=True`` installs a :class:`GracefulShutdown` latch for
    the duration of the sweep (``shutdown`` supplies an external latch
    instead): on SIGINT/SIGTERM the sweep stops submitting, drains
    in-flight points for ``policy.drain_seconds``, flushes the journal and
    telemetry, and returns a partial outcome with ``interrupted=True``.
    """
    check_positive("jobs", jobs)
    policy = policy or FaultPolicy()
    if telemetry is None:
        telemetry = getattr(runner, "telemetry", NULL_TELEMETRY)
    if injector is None:
        injector = FaultInjector.from_env()
    points = list(points)
    tasks = []
    for workload, mode in points:
        cache_key = getattr(workload, "cache_key", None)
        if cache_key is None:
            raise ValueError(
                f"workload {workload.name!r} has no cache_key; the sweep "
                "executor rebuilds workloads from keys in worker processes"
            )
        tasks.append((cache_key, mode, use_cache))
    results = [None] * len(points)
    failures = []
    restored = {}
    if checkpoint is not None:
        restored = checkpoint.completed_counters()
        for index, counters in restored.items():
            results[index] = counters
        if restored:
            telemetry.emit(
                "points_restored",
                run_id=checkpoint.run_id,
                restored=len(restored),
            )
    todo = [index for index, result in enumerate(results) if result is None]
    record = checkpoint.record if checkpoint is not None else None
    own_shutdown = None
    if shutdown is None and handle_signals:
        shutdown = own_shutdown = GracefulShutdown().install()
    hb_dir = None
    hb_tmp = None
    if policy.heartbeat_timeout is not None:
        if checkpoint is not None:
            hb_dir = checkpoint.run_dir / "heartbeats"
        else:
            hb_dir = hb_tmp = Path(tempfile.mkdtemp(prefix="repro-hb-"))
        hb_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    telemetry.emit(
        "sweep_started",
        points=len(points),
        jobs=jobs,
        timeout=policy.timeout,
        retries=policy.retries,
        restored=len(restored),
        run_id=checkpoint.run_id if checkpoint is not None else None,
    )
    interrupted = False
    try:
        pool_jobs = min(jobs, len(todo))
        if pool_jobs <= 1:
            pending = deque((index, 1) for index in todo)
        else:
            pending, interrupted = _pooled_phase(
                runner, tasks, todo, results, failures, pool_jobs, policy,
                telemetry, injector, shutdown, record, hb_dir,
            )
        if not interrupted:
            interrupted = _serial_phase(
                runner, points, tasks, results, failures, pending, policy,
                telemetry, shutdown, record,
            )
    finally:
        if own_shutdown is not None:
            own_shutdown.restore()
        if hb_tmp is not None:
            shutil.rmtree(hb_tmp, ignore_errors=True)
    for (cache_key, mode, _), counters in zip(tasks, results):
        if counters is not None:
            runner._store((cache_key, mode), counters, persist=False)
    if checkpoint is not None:
        checkpoint.flush()
        if interrupted:
            checkpoint.mark_interrupted()
        elif failures:
            checkpoint.mark_failed()
        else:
            checkpoint.mark_completed()
    telemetry.emit_timed(
        "sweep_completed",
        time.monotonic() - started,
        completed=sum(r is not None for r in results),
        failed=len(failures),
        interrupted=interrupted,
    )
    if interrupted:
        telemetry.flush()
    return SweepOutcome(
        results=results,
        failures=failures,
        interrupted=interrupted,
        run_id=checkpoint.run_id if checkpoint is not None else None,
    )


def _pooled_phase(
    runner, tasks, todo, results, failures, jobs, policy, telemetry,
    injector, shutdown=None, record=None, hb_dir=None,
):
    """Process-pool dispatch loop; returns ``(left_for_serial, interrupted)``.

    A crashed worker breaks the whole pool, and ``concurrent.futures``
    cannot say which in-flight point the dead worker was running — every
    lost future raises ``BrokenProcessPool``. Charging them all a retry
    would let one poisoned point starve its innocent pool-mates, so lost
    points instead go on **probation**: each re-runs *solo* in the fresh
    pool, where a second crash implicates exactly that point (and costs it
    an attempt), while a success exonerates it at the price of one
    serialized run. Hung points need no probation — the per-future timeout
    already names them — so only their innocent pool-mates are requeued
    unpenalized after the teardown.

    ``shutdown.requested`` flips the loop into **drain** mode: no further
    submissions, in-flight points get ``policy.drain_seconds`` to finish
    (their results are still journaled via ``record``), then the pool is
    torn down and the phase reports ``interrupted=True`` — the unfinished
    points simply stay out of the journal for a later resume. ``hb_dir``
    enables the heartbeat watchdog (see ``FaultPolicy.heartbeat_timeout``).
    """
    spec = runner.spawn_spec()
    # Queue entries: (index, attempt, earliest dispatch time). ``probation``
    # points are dispatched solo; ``pending`` points fill the whole pool.
    pending = deque((index, 1, 0.0) for index in todo)
    probation = deque()
    inflight = {}
    probing = False  # the single in-flight future is a probation run
    rebuilds = 0
    draining = False
    drain_deadline = 0.0
    pool = None  # built on first submit, and again after each teardown

    def retry_or_fail(index, attempt, reason, queue):
        cache_key, mode, _ = tasks[index]
        if attempt <= policy.retries:
            delay = policy.backoff * (2 ** (attempt - 1))
            queue.append((index, attempt + 1, time.monotonic() + delay))
            telemetry.emit(
                "point_retried",
                point=cache_key,
                mode=mode,
                attempt=attempt,
                reason=reason,
                delay=delay,
            )
        else:
            failures.append(
                PointFailure(
                    index=index,
                    point=cache_key,
                    mode=mode,
                    reason=reason,
                    attempts=attempt,
                )
            )
            telemetry.emit(
                "point_failed",
                point=cache_key,
                mode=mode,
                attempts=attempt,
                reason=reason,
            )

    def requeue_unpenalized(index, attempt, reason, queue):
        """Reschedule an innocent casualty without spending a retry."""
        cache_key, mode, _ = tasks[index]
        queue.append((index, attempt, 0.0))
        telemetry.emit(
            "point_retried",
            point=cache_key,
            mode=mode,
            attempt=attempt,
            reason=reason,
            delay=0.0,
        )

    def submit(entry, solo):
        nonlocal pool, probing
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=jobs, initializer=_pool_worker_init
            )
        index, attempt, _ = entry
        hb_path = (
            str(hb_dir / f"{index}-{attempt}") if hb_dir is not None else None
        )
        try:
            future = pool.submit(
                _sweep_worker, spec, tasks[index], injector, hb_path
            )
        except BrokenExecutor:
            return False
        inflight[future] = (index, attempt, time.monotonic(), hb_path)
        probing = solo
        cache_key, mode, _ = tasks[index]
        telemetry.emit(
            "point_scheduled",
            point=cache_key,
            mode=mode,
            attempt=attempt,
            probation=solo,
        )
        return True

    try:
        while pending or probation or inflight:
            now = time.monotonic()
            if shutdown is not None and shutdown.requested and not draining:
                draining = True
                drain_deadline = now + max(0.0, policy.drain_seconds)
                telemetry.emit(
                    "sweep_interrupted",
                    signal=shutdown.signum,
                    inflight=len(inflight),
                    queued=len(pending) + len(probation),
                )
            broken = False
            if draining:
                if not inflight:
                    break  # drained; queued points stay for resume
                if now >= drain_deadline:
                    telemetry.emit("drain_timeout", cancelled=len(inflight))
                    for _, _, _, hb_path in inflight.values():
                        _clear_beat(hb_path)
                    inflight.clear()
                    break
            elif probation:
                # Probation runs are solo: wait out the pool, then dispatch
                # exactly one suspect.
                if not inflight:
                    index, attempt, ready_at = probation.popleft()
                    if ready_at > now:
                        probation.appendleft((index, attempt, ready_at))
                        time.sleep(_TICK)
                    elif not submit((index, attempt, ready_at), solo=True):
                        probation.appendleft((index, attempt, 0.0))
                        broken = True
            elif not probing:
                deferred = []
                while pending and len(inflight) < jobs and not broken:
                    entry = pending.popleft()
                    if entry[2] > now:
                        deferred.append(entry)
                    elif not submit(entry, solo=False):
                        pending.appendleft((entry[0], entry[1], 0.0))
                        broken = True
                pending.extend(deferred)
            if not inflight and not broken:
                time.sleep(_TICK)  # every queued point is in backoff
                continue
            done = set()
            if inflight:
                done, _ = wait(
                    set(inflight), timeout=_TICK, return_when=FIRST_COMPLETED
                )
            now = time.monotonic()
            was_probe = probing
            for future in done:
                index, attempt, dispatched, hb_path = inflight.pop(future)
                _clear_beat(hb_path)
                cache_key, mode, _ = tasks[index]
                try:
                    counters = future.result()
                except BrokenExecutor:
                    broken = True
                    if draining:
                        # Stay unfinished; resume re-runs it.
                        pending.append((index, attempt, 0.0))
                    elif was_probe:
                        # Solo run: the crash is unambiguously this point's.
                        retry_or_fail(
                            index, attempt, "worker crashed", probation
                        )
                    else:
                        # Collateral suspects re-run solo, unpenalized.
                        requeue_unpenalized(
                            index,
                            attempt,
                            "pool lost (crashed peer); probation re-run",
                            probation,
                        )
                except Exception as exc:
                    if draining:
                        pending.append((index, attempt, 0.0))
                    else:
                        retry_or_fail(
                            index,
                            attempt,
                            f"{type(exc).__name__}: {exc}",
                            probation if was_probe else pending,
                        )
                else:
                    results[index] = counters
                    if record is not None:
                        record(index, counters)
                    telemetry.emit_timed(
                        "point_completed",
                        now - dispatched,
                        point=cache_key,
                        mode=mode,
                        attempt=attempt,
                    )
            if not inflight:
                probing = False
            if draining:
                continue  # no teardown/retry bookkeeping while draining
            hung = []
            if policy.timeout is not None:
                hung = [
                    future
                    for future, (_, _, dispatched, _) in inflight.items()
                    if now - dispatched > policy.timeout
                ]
            stalled = []
            if policy.heartbeat_timeout is not None and hb_dir is not None:
                wall_now = time.time()
                for future, entry in inflight.items():
                    index, attempt, dispatched, hb_path = entry
                    if future in hung or hb_path is None or future.done():
                        continue
                    try:
                        quiet = wall_now - os.stat(hb_path).st_mtime
                    except OSError:
                        # No first beat yet: the worker is still booting
                        # or queued; the blanket timeout covers it.
                        continue
                    if quiet > policy.heartbeat_timeout:
                        stalled.append(future)
                        cache_key, mode, _ = tasks[index]
                        telemetry.emit(
                            "stall_detected",
                            point=cache_key,
                            mode=mode,
                            attempt=attempt,
                            quiet_seconds=quiet,
                        )
            if not (broken or hung or stalled):
                continue
            # The pool is compromised. Hung and stalled points are
            # individually identified (timeout / frozen heartbeat), so they
            # are charged an attempt directly; the other in-flight points
            # are innocent — crashes send them to probation, teardowns for
            # a hang requeue them.
            for future in hung:
                index, attempt, _, hb_path = inflight.pop(future)
                _clear_beat(hb_path)
                retry_or_fail(
                    index,
                    attempt,
                    f"timeout after {policy.timeout:.1f}s",
                    probation if probing else pending,
                )
            for future in stalled:
                index, attempt, _, hb_path = inflight.pop(future)
                _clear_beat(hb_path)
                retry_or_fail(
                    index,
                    attempt,
                    (
                        "stalled: no heartbeat within "
                        f"{policy.heartbeat_timeout:.1f}s"
                    ),
                    probation if probing else pending,
                )
            lost = len(inflight)
            for index, attempt, _, hb_path in inflight.values():
                _clear_beat(hb_path)
                if broken:
                    requeue_unpenalized(
                        index,
                        attempt,
                        "pool lost (crashed peer); probation re-run",
                        probation,
                    )
                else:
                    requeue_unpenalized(
                        index, attempt, "pool torn down (hung peer)", pending
                    )
            inflight.clear()
            probing = False
            _terminate_pool(pool)
            pool = None
            rebuilds += 1
            telemetry.emit(
                "pool_rebuilt",
                rebuilds=rebuilds,
                lost_points=lost,
                hung=len(hung),
                stalled=len(stalled),
                crashed=broken,
            )
            if rebuilds > policy.max_pool_rebuilds:
                remaining = list(probation) + list(pending)
                telemetry.emit("serial_fallback", remaining=len(remaining))
                return (
                    deque((index, attempt) for index, attempt, _ in remaining),
                    False,
                )
    finally:
        if pool is not None:
            _terminate_pool(pool)
    return deque(), draining


def _serial_phase(
    runner, points, tasks, results, failures, pending, policy, telemetry,
    shutdown=None, record=None,
):
    """In-process drain of points the pooled phase gave up on.

    No timeout is enforceable here; fault injection never fires in-process,
    so this path cannot take down the caller short of a genuine bug in the
    simulation itself (which the serial executor would hit identically).
    Returns True when a shutdown request stopped the drain early (the
    remaining points stay unfinished for a later resume).
    """
    pending = list(pending)
    for position, (index, attempt) in enumerate(pending):
        if shutdown is not None and shutdown.requested:
            telemetry.emit(
                "sweep_interrupted",
                signal=shutdown.signum,
                inflight=0,
                queued=len(pending) - position,
            )
            return True
        cache_key, mode, use_cache = tasks[index]
        workload, _ = points[index]
        while True:
            dispatched = time.monotonic()
            telemetry.emit(
                "point_scheduled", point=cache_key, mode=mode, attempt=attempt
            )
            try:
                results[index] = runner.run(workload, mode, use_cache=use_cache)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                if attempt <= policy.retries:
                    telemetry.emit(
                        "point_retried",
                        point=cache_key,
                        mode=mode,
                        attempt=attempt,
                        reason=reason,
                        delay=0.0,
                    )
                    attempt += 1
                    continue
                failures.append(
                    PointFailure(
                        index=index,
                        point=cache_key,
                        mode=mode,
                        reason=reason,
                        attempts=attempt,
                    )
                )
                telemetry.emit(
                    "point_failed",
                    point=cache_key,
                    mode=mode,
                    attempts=attempt,
                    reason=reason,
                )
            else:
                if record is not None:
                    record(index, results[index])
                telemetry.emit_timed(
                    "point_completed",
                    time.monotonic() - dispatched,
                    point=cache_key,
                    mode=mode,
                    attempt=attempt,
                )
            break
    return False
