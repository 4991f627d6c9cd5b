"""Crash-safe sweep service: a long-running daemon over the harness.

The one-shot CLI already survives worker crashes, stalls, and parent
death (:func:`repro.harness.parallel.run_sweep`,
:mod:`repro.harness.checkpoint`); this package keeps those guarantees up
while turning the harness into a long-lived local HTTP service:

:mod:`repro.service.journal`
    Append-only, fsync'd job journal with content-addressed job ids —
    ``kill -9`` + restart resumes every in-flight job automatically.
:mod:`repro.service.jobqueue`
    Admission control (bounded queue, 429 + ``Retry-After``, per-client
    caps, cache-only degraded mode), the worker loop driving
    :func:`~repro.harness.parallel.run_sweep`, and graceful drain through
    a :class:`~repro.harness.faults.GracefulShutdown` latch.
:mod:`repro.service.server`
    The hand-rolled asyncio HTTP/1.1 front end (``/healthz``,
    ``/readyz``, ``/status``, ``/jobs``) behind ``repro serve``.
:mod:`repro.service.client`
    Stdlib client with jittered exponential backoff (``repro submit`` /
    ``repro jobs``).
:mod:`repro.service.chaos`
    The chaos drill proving the above under injected faults.
"""

from __future__ import annotations

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobqueue import AdmissionError, SweepService
from repro.service.journal import JobJournal, JobRecord

__all__ = [
    "AdmissionError",
    "JobJournal",
    "JobRecord",
    "ServiceClient",
    "ServiceError",
    "SweepService",
]
