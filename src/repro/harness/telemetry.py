"""Structured run telemetry: a JSONL event log for sweeps and runs.

Every layer of the harness (``Runner``, the sweep executor, the persistent
:class:`ResultCache`) reports what it does through a :class:`Telemetry`
object: one JSON object per line with an ``event`` name, a wall-clock
timestamp, and event-specific fields. The default is the process-wide
:data:`NULL_TELEMETRY` no-op whose ``enabled`` flag lets hot paths skip
even the timestamp call, so instrumentation costs nothing unless a sink is
attached.

:class:`JsonlTelemetry` appends to a file with a single ``os.write`` per
event on an ``O_APPEND`` descriptor, so concurrent sweep workers can share
one log without interleaving partial lines. The object pickles by path —
shipping it to a worker process reopens the same file.

Clock contract: the ``ts`` field on every event is wall-clock
(``time.time``) and **display-only** — it orders events for humans and
``repro report``, nothing more. Wall clocks step (NTP slews, suspend/
resume), so durations must never be derived by subtracting ``ts`` values;
timed events instead carry an explicit ``duration_s`` measured from a
monotonic clock (``time.perf_counter`` / ``time.monotonic``) via
:meth:`Telemetry.emit_timed`. The ``nondet`` lint rule flags wall-clock
subtraction in golden/replay and journal code to keep it that way.

Event vocabulary (see EXPERIMENTS.md for the full schema):

``sweep_started`` / ``sweep_completed``
    One sweep through the executor (:func:`repro.harness.parallel.run_sweep`).
``point_scheduled`` / ``point_completed`` / ``point_retried`` /
``point_failed``
    Lifecycle of one (workload, mode) point, with attempt counts,
    wall-clock seconds, and failure reasons.
``pool_rebuilt`` / ``serial_fallback``
    Crash-isolation actions of the sweep executor.
``sweep_interrupted`` / ``drain_timeout``
    Signal-driven graceful shutdown of a sweep (in-flight points drained
    or cancelled).
``stall_detected``
    The heartbeat watchdog flagged a worker whose point went quiet.
``points_restored`` / ``journal_corrupt``
    Checkpoint/resume activity: journaled points spliced into a sweep, and
    unreadable journal lines skipped on load.
``cache_hit`` / ``cache_miss`` / ``cache_write_error``
    Persistent result-cache activity (digest-level).
``engine_selected``
    Which trace engine simulated a phase.
``scalar_fallback``
    The batched engine could not express a phase's cache configuration
    and the runner silently degraded to the scalar engine; carries the
    rejection ``reason``. Every shipped figure configuration is batchable,
    so any nonzero count in a report deserves a look.
``phase_timed``
    Wall-clock seconds spent simulating one phase.

:func:`summarize` folds a telemetry file back into the aggregate view the
``repro report`` subcommand prints: slowest points, retry/failure counts,
and the cache hit rate.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from pathlib import Path

from repro.harness.report import format_table

__all__ = [
    "Telemetry",
    "JsonlTelemetry",
    "NULL_TELEMETRY",
    "read_events",
    "summarize",
    "format_summary",
]


class Telemetry:
    """No-op telemetry sink; the interface every layer codes against.

    ``enabled`` is ``False`` so callers can guard expensive field
    computation (``time.perf_counter`` pairs, digest formatting) behind a
    single attribute check.
    """

    enabled = False

    def emit(self, event, **fields):
        """Record one event (ignored)."""

    def emit_timed(self, event, duration_s, **fields):
        """Record one timed event with an explicit monotonic duration.

        ``duration_s`` must come from a monotonic clock pair
        (``perf_counter``/``monotonic``), never from subtracting
        wall-clock stamps. The legacy ``seconds`` field is emitted as an
        alias so pre-``duration_s`` report consumers keep working.
        """
        self.emit(
            event,
            duration_s=float(duration_s),
            seconds=float(duration_s),
            **fields,
        )

    def flush(self):
        """Force events to durable storage (nothing to do)."""

    def close(self):
        """Release any underlying resources (nothing to do)."""


#: Shared no-op sink; the default everywhere a telemetry argument is None.
NULL_TELEMETRY = Telemetry()


class JsonlTelemetry(Telemetry):
    """Append-only JSONL sink shared safely across processes.

    Each sink registers an ``atexit`` hook that flushes (fsync) and closes
    the descriptor, so the final events of a run survive interpreter exit —
    including the signal-driven graceful shutdowns of the sweep executor,
    which call :meth:`close` explicitly before returning.
    """

    enabled = True

    def __init__(self, path):
        self.path = Path(path)
        self._fd = None
        atexit.register(self.close)

    def _descriptor(self):
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
            )
        return self._fd

    def emit(self, event, **fields):
        """Append one event as a single atomic line write."""
        # repro: noqa[nondet] the ts stamp is display-only observability
        # metadata (see the module docstring); durations are carried as
        # explicit monotonic duration_s fields, never derived from ts
        record = {"event": event, "ts": time.time(), "pid": os.getpid()}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        os.write(self._descriptor(), line.encode("utf-8"))

    def flush(self):
        """fsync buffered events to disk (best-effort)."""
        if self._fd is not None:
            try:
                os.fsync(self._fd)
            except OSError:
                pass

    def close(self):
        if self._fd is not None:
            self.flush()
            os.close(self._fd)
            self._fd = None
        try:
            atexit.unregister(self.close)
        except Exception:
            pass

    # The descriptor does not travel across processes; reopen by path.
    def __getstate__(self):
        return {"path": str(self.path)}

    def __setstate__(self, state):
        self.path = Path(state["path"])
        self._fd = None
        atexit.register(self.close)


# ---------------------------------------------------------------------- #
# Reading + summarizing
# ---------------------------------------------------------------------- #


def read_events(path):
    """Parse a telemetry JSONL file; skips lines that fail to parse.

    A crashed worker can leave one torn final line; everything readable is
    still summarized.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
    return events


def _duration(record):
    """A timed event's monotonic duration (``duration_s``, falling back to
    the legacy ``seconds`` alias for logs written before the field)."""
    return float(record.get("duration_s", record.get("seconds", 0.0)))


def summarize(path, slowest=10):
    """Aggregate a telemetry file into the ``repro report`` view."""
    events = read_events(path)
    completed = []
    retries = {}
    failures = []
    hits = misses = write_errors = 0
    phase_seconds = {}
    engines = {}
    fallback_reasons = {}
    sweeps = 0
    interrupted = stalls = journal_warnings = 0
    for record in events:
        event = record["event"]
        if event == "sweep_started":
            sweeps += 1
        elif event == "sweep_interrupted":
            interrupted += 1
        elif event == "stall_detected":
            stalls += 1
        elif event == "journal_corrupt":
            journal_warnings += 1
        elif event == "point_completed":
            completed.append(record)
        elif event == "point_retried":
            key = (record.get("point"), record.get("mode"))
            retries[key] = retries.get(key, 0) + 1
        elif event == "point_failed":
            failures.append(record)
        elif event == "cache_hit":
            hits += 1
        elif event == "cache_miss":
            misses += 1
        elif event == "cache_write_error":
            write_errors += 1
        elif event == "phase_timed":
            name = record.get("phase", "?")
            phase_seconds[name] = phase_seconds.get(name, 0.0) + _duration(
                record
            )
        elif event == "engine_selected":
            name = record.get("engine", "?")
            engines[name] = engines.get(name, 0) + 1
        elif event == "scalar_fallback":
            reason = record.get("reason", "?")
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1
    completed.sort(key=lambda r: -_duration(r))
    lookups = hits + misses
    return {
        "events": len(events),
        "sweeps": sweeps,
        "completed": len(completed),
        "failed": len(failures),
        "interrupted": interrupted,
        "stalls": stalls,
        "journal_warnings": journal_warnings,
        "retried_points": len(retries),
        "total_retries": sum(retries.values()),
        "slowest": [
            {
                "point": r.get("point"),
                "mode": r.get("mode"),
                "seconds": _duration(r),
                "attempt": r.get("attempt", 1),
            }
            for r in completed[:slowest]
        ],
        "failures": [
            {
                "point": r.get("point"),
                "mode": r.get("mode"),
                "reason": r.get("reason"),
                "attempts": r.get("attempts"),
            }
            for r in failures
        ],
        "cache": {
            "hits": hits,
            "misses": misses,
            "write_errors": write_errors,
            "hit_rate": (hits / lookups) if lookups else None,
        },
        "phase_seconds": dict(
            sorted(phase_seconds.items(), key=lambda kv: -kv[1])
        ),
        "engines": engines,
        "scalar_fallbacks": sum(fallback_reasons.values()),
        "scalar_fallback_reasons": dict(
            sorted(fallback_reasons.items(), key=lambda kv: -kv[1])
        ),
    }


def format_summary(summary):
    """Render :func:`summarize` output as the report's plain text."""
    lines = [
        "Telemetry summary",
        f"  events    {summary['events']}",
        f"  sweeps    {summary['sweeps']}",
        f"  completed {summary['completed']}"
        f"  failed {summary['failed']}"
        f"  retries {summary['total_retries']}"
        f" (over {summary['retried_points']} points)",
    ]
    if (
        summary.get("interrupted")
        or summary.get("stalls")
        or summary.get("journal_warnings")
    ):
        lines.append(
            f"  robust    interruptions {summary.get('interrupted', 0)}"
            f"  stalls {summary.get('stalls', 0)}"
            f"  journal warnings {summary.get('journal_warnings', 0)}"
        )
    cache = summary["cache"]
    if cache["hits"] or cache["misses"] or cache["write_errors"]:
        rate = cache["hit_rate"]
        rate_text = "n/a" if rate is None else f"{rate:.1%}"
        lines.append(
            f"  cache     {cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {rate_text}, write errors {cache['write_errors']})"
        )
    if summary["engines"]:
        parts = ", ".join(
            f"{name}={count}" for name, count in sorted(summary["engines"].items())
        )
        lines.append(f"  engines   {parts}")
    if summary.get("scalar_fallbacks"):
        reasons = "; ".join(
            f"{reason} x{count}"
            for reason, count in summary["scalar_fallback_reasons"].items()
        )
        lines.append(
            f"  WARNING   {summary['scalar_fallbacks']} scalar fallback(s): "
            f"{reasons}"
        )
    if summary["slowest"]:
        lines.append("")
        lines.append(
            format_table(
                ["point", "mode", "attempt", "seconds"],
                [
                    [
                        str(r["point"]),
                        str(r["mode"]),
                        int(r["attempt"] or 1),
                        r["seconds"],
                    ]
                    for r in summary["slowest"]
                ],
                title="Slowest points",
                floatfmt="{:.3f}",
            )
        )
    if summary["failures"]:
        lines.append("")
        lines.append(
            format_table(
                ["point", "mode", "attempts", "reason"],
                [
                    [
                        str(r["point"]),
                        str(r["mode"]),
                        str(r["attempts"]),
                        str(r["reason"]),
                    ]
                    for r in summary["failures"]
                ],
                title="Failed points",
            )
        )
    if summary["phase_seconds"]:
        lines.append("")
        lines.append(
            format_table(
                ["phase", "seconds"],
                [
                    [name, seconds]
                    for name, seconds in summary["phase_seconds"].items()
                ],
                title="Simulation wall-clock by phase",
                floatfmt="{:.3f}",
            )
        )
    return "\n".join(lines)
