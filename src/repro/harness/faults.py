"""The sweep executor's fault vocabulary: policies, injection, outcomes.

The executor itself is :func:`repro.harness.parallel.run_sweep`; this
module holds what its callers and tests speak to it in:

* :class:`FaultPolicy` — timeouts, retries, backoff, pool rebuilds, the
  heartbeat watchdog and the drain grace period,
* :class:`FaultInjector` — deterministic kills, stalls and torn journal
  appends, from code or the ``REPRO_FAULT_INJECT`` environment variable
  (``state_dir`` markers make "crash once, then succeed" reproducible
  across rebuilt pools),
* :class:`GracefulShutdown` — the SIGINT/SIGTERM latch that turns a signal
  into a drain,
* :class:`SweepOutcome` and :class:`PointFailure` — what a sweep returns
  instead of raising, and :class:`SweepInterrupted` — what list-returning
  callers raise when a sweep was interrupted.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness import knobs

__all__ = [
    "FaultPolicy",
    "FaultInjector",
    "GracefulShutdown",
    "PointFailure",
    "SweepInterrupted",
    "SweepOutcome",
]

#: Exit signal used by the kill injector (mirrors an OOM-killed worker).
_KILL_SIGNAL = signal.SIGKILL if hasattr(signal, "SIGKILL") else signal.SIGTERM


@dataclass(frozen=True)
class FaultPolicy:
    """Fault handling of the sweep executor.

    ``timeout``
        Per-point wall-clock budget in seconds (None disables hang
        detection). Measured from dispatch; because at most ``jobs``
        points are in flight, a dispatched point is running immediately.
    ``retries``
        Extra attempts after the first (total attempts = ``retries + 1``).
    ``backoff``
        Base delay before a retry; attempt ``k`` waits ``backoff * 2**(k-1)``.
    ``max_pool_rebuilds``
        Pool rebuilds tolerated before falling back to in-process serial
        execution of the remaining points.
    ``heartbeat_timeout``
        Seconds a dispatched point's heartbeat file may go quiet before the
        watchdog declares the worker stalled (None disables the channel).
        Workers beat at point start and every phase boundary, so this can
        be far tighter than ``timeout``: a slow point keeps beating, a
        stalled one goes silent. Only armed once the point's first beat
        has landed — a worker still booting is not a stall.
    ``drain_seconds``
        Grace period a signal-driven shutdown waits for in-flight points
        to finish before cancelling them (they stay unjournaled and are
        re-run on resume).
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.25
    max_pool_rebuilds: int = 3
    heartbeat_timeout: float | None = None
    drain_seconds: float = 5.0


@dataclass(frozen=True)
class FaultInjector:
    """Deterministically kill or stall chosen sweep points in workers.

    ``kill`` and ``stall`` hold ``"<cache_key>|<mode>"`` tokens. With a
    ``state_dir``, each fault fires exactly once per directory (atomic
    ``O_EXCL`` marker files shared by every worker process), so a killed
    point's retry succeeds; without one, the fault fires on every attempt.

    ``torn`` extends injection to the *service layer*: it holds journal
    names (the sweep service's job journal registers as ``"jobs"``) whose
    next append should be torn mid-write, exercising the
    seal-and-rewrite recovery of :class:`repro.service.journal.JobJournal`.
    """

    kill: frozenset = frozenset()
    stall: frozenset = frozenset()
    torn: frozenset = frozenset()
    stall_seconds: float = 3600.0
    state_dir: str = ""

    @staticmethod
    def token(cache_key, mode):
        """The injection token addressing one sweep point."""
        return f"{cache_key}|{mode}"

    @classmethod
    def from_env(cls, environ=None):
        """Build from ``REPRO_FAULT_INJECT``, or None when unset.

        Format: semicolon-separated directives, e.g.
        ``kill=pagerank:KRON:13|baseline;stall=spmv:POIS:13|cobra;``
        ``stall_seconds=60;state=/tmp/faults``. ``kill``/``stall`` take
        comma-separated point tokens; ``torn`` takes comma-separated
        journal names (``torn=jobs`` tears the sweep service's next job
        journal append).
        """
        raw = (knobs.read("REPRO_FAULT_INJECT", environ) or "").strip()
        if not raw:
            return None
        kill, stall, torn = set(), set(), set()
        stall_seconds = 3600.0
        state_dir = ""
        for directive in raw.split(";"):
            directive = directive.strip()
            if not directive:
                continue
            name, _, value = directive.partition("=")
            name = name.strip()
            if name == "kill":
                kill.update(t for t in value.split(",") if t)
            elif name == "stall":
                stall.update(t for t in value.split(",") if t)
            elif name == "torn":
                torn.update(t for t in value.split(",") if t)
            elif name == "stall_seconds":
                stall_seconds = float(value)
            elif name == "state":
                state_dir = value.strip()
            else:
                raise ValueError(
                    f"unknown REPRO_FAULT_INJECT directive {name!r}"
                )
        return cls(
            kill=frozenset(kill),
            stall=frozenset(stall),
            torn=frozenset(torn),
            stall_seconds=stall_seconds,
            state_dir=state_dir,
        )

    def _arm(self, kind, token):
        """True when this fault should fire (once per state_dir marker)."""
        if not self.state_dir:
            return True
        safe = "".join(c if c.isalnum() else "_" for c in token)
        directory = Path(self.state_dir)
        directory.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                directory / f"{kind}-{safe}", os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def maybe_inject(self, cache_key, mode):
        """Called inside the worker before simulating a point."""
        token = self.token(cache_key, mode)
        if token in self.kill and self._arm("kill", token):
            os.kill(os.getpid(), _KILL_SIGNAL)
        if token in self.stall and self._arm("stall", token):
            time.sleep(self.stall_seconds)

    def maybe_tear(self, journal):
        """Called by journal writers before an append; True = tear it.

        ``journal`` is the journal's registered name, not a point token.
        With a ``state_dir`` the tear fires once per directory, so exactly
        one append exercises the writer's seal-and-rewrite recovery path.
        """
        return journal in self.torn and self._arm("torn", journal)


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that exhausted its attempts."""

    index: int
    point: str
    mode: str
    reason: str
    attempts: int


@dataclass
class SweepOutcome:
    """Everything a sweep produced.

    ``results`` is in input order with ``None`` at failed points;
    ``failures`` explains each ``None`` — except under ``interrupted``,
    where remaining ``None`` points were simply never run (a graceful
    shutdown stopped the sweep) and ``run_id`` names the checkpoint to
    resume.
    """

    results: list
    failures: list = field(default_factory=list)
    interrupted: bool = False
    run_id: str | None = None

    @property
    def completed(self):
        """Number of points that produced counters."""
        return sum(result is not None for result in self.results)

    @property
    def ok(self):
        """True when every point completed."""
        return not self.failures and not self.interrupted


class SweepInterrupted(RuntimeError):
    """A sweep stopped early on SIGINT/SIGTERM.

    Raised by callers with a list-of-counters contract
    (:meth:`Runner.run_many`, the experiment drivers) that cannot return a
    partial result; carries the partial :class:`SweepOutcome`, so every
    completed (and journaled) point is still reachable.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        self.run_id = outcome.run_id
        message = (
            f"sweep interrupted with {outcome.completed}/"
            f"{len(outcome.results)} points complete"
        )
        if outcome.run_id:
            message += f"; resume with `repro resume {outcome.run_id}`"
        super().__init__(message)


class GracefulShutdown:
    """Cooperative SIGINT/SIGTERM latch for the sweep dispatch loop.

    ``install()`` (a no-op outside the main thread, where signal handlers
    cannot be set) replaces the handlers with one that only sets
    :attr:`requested`; the dispatch loop notices, stops submitting, drains
    in-flight points, and returns a partial outcome. A *second* signal
    raises ``KeyboardInterrupt`` — the escape hatch when the drain itself
    wedges.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self):
        self.requested = False
        self.signum = None
        self._previous = {}

    def install(self):
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in self.SIGNALS:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                pass
        return self

    def restore(self):
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()

    def _handle(self, signum, frame):
        if self.requested:
            raise KeyboardInterrupt
        self.requested = True
        self.signum = signum

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
